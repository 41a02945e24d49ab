"""System-under-test process for the offline-audit probe (:mod:`batch`).

Runs in its own process so that its peak RSS is the system's alone
(the generator's memory stays in the parent).  Two roles:

``train <work>``
    The ``cats train`` job on the inputs the parent generated:
    ``SemanticAnalyzer.train`` + ``CATS.fit`` + ``save_cats`` + the
    drift reference ``cats train`` stores beside the archive.
``audit <work> --seconds S``
    Repeated offline audits, rotating over the D1 audit batches, until
    *S* seconds have passed (every batch at least once).  Each pass
    over the batches loads the archive once (untimed); each batch then
    takes the ``cats analyze`` path
    (``append_comments`` into a ``ColumnarCommentStore``, ``save``) and
    the ``cats detect --store`` path (``load(mode="mmap")``, coverage
    check, ``feature_matrix``, ``detect_with_features``).

The public calls of each layer are wrapped in spans.  After the
warm-up, audit cycles alternate untraced and traced, so the run also
measures what tracing costs.  The last stdout line is a JSON report.
"""

from __future__ import annotations

import argparse
import json
import pickle
import shutil
import sys
import time
from pathlib import Path

sys.path[:0] = [
    str(Path(__file__).resolve().parent.parent / "src"),
    str(Path(__file__).resolve().parent),
]

import numpy as np  # noqa: E402

from common import Tracer, self_peak_rss_mib  # noqa: E402
from repro.collector.storage import DatasetStore  # noqa: E402
from repro.core import lexicon as lexicon_module  # noqa: E402
from repro.core.analyzer import SemanticAnalyzer  # noqa: E402
from repro.core.columnar import ColumnarCommentStore, append_comments  # noqa: E402
from repro.core.detector import Detector  # noqa: E402
from repro.core.features import CommentStats, FeatureExtractor  # noqa: E402
from repro.core.interning import TokenInterner  # noqa: E402
from repro.core.persistence import load_cats, read_manifest, save_cats  # noqa: E402
from repro.core.system import CATS  # noqa: E402
from repro.ml.gbdt import GradientBoostingClassifier  # noqa: E402
from repro.ml.metrics import precision_recall_f1  # noqa: E402
from repro.mlops import ReferenceHistogram  # noqa: E402
from repro.semantics.sentiment import SentimentModel  # noqa: E402
from repro.semantics.word2vec import Word2Vec  # noqa: E402
from repro.text.segmentation import ViterbiSegmenter  # noqa: E402

#: Audit cycles at the start of a run that warm the process up (lazy
#: set-up, allocator growth); they feed the gates but no metric.
WARMUP_CYCLES = 5

#: ``cats analyze`` chunk size (the CLI default).
ANALYZE_CHUNK_SIZE = 8192

#: Spans of the training job: (owner, attribute, metric name).
TRAIN_SPANS = (
    (ViterbiSegmenter, "segment_many", "text.segment_corpus_s"),
    (Word2Vec, "fit", "semantics.word2vec.fit_s"),
    (lexicon_module, "expand_lexicon", "semantics.lexicon.expand_s"),
    (SentimentModel, "fit", "semantics.sentiment.fit_s"),
    (FeatureExtractor, "extract_items", "core.features.extract_items_s"),
    (GradientBoostingClassifier, "fit", "ml.gbdt.fit_s"),
)

#: Spans of comment analysis and inference (the serve workloads wrap
#: them around their in-process replay).
ANALYSIS_SPANS = (
    (SemanticAnalyzer, "segment", "text.segment_s"),
    (TokenInterner, "encode", "core.interning.encode_s"),
    (SentimentModel, "score_ids_many", "semantics.sentiment_s"),
    (CommentStats, "from_ids", "core.features.stats_s"),
    (FeatureExtractor, "comment_stats_many", "core.features.comment_stats_many_s"),
    (GradientBoostingClassifier, "predict_proba", "ml.inference.predict_proba_s"),
)

#: Spans of one audit cycle.
AUDIT_SPANS = ANALYSIS_SPANS + (
    (ColumnarCommentStore, "append", "core.columnar.append_s"),
    (ColumnarCommentStore, "save", "core.columnar.save_s"),
    (ColumnarCommentStore, "load", "core.columnar.load_s"),
    (ColumnarCommentStore, "feature_matrix", "core.columnar.feature_matrix_s"),
    (Detector, "detect", "core.detector.detect_s"),
)


def install(tracer: Tracer, spans) -> None:
    for owner, attr, name in spans:
        tracer.wrap(owner, attr, name)


def train_archive(data: dict, model_dir: Path) -> None:
    """What ``cats train`` does once its inputs exist."""
    config = data["config"]
    analyzer = SemanticAnalyzer.train(
        comment_corpus=data["comment_corpus"],
        dictionary=data["dictionary"],
        sentiment_documents=data["sentiment_documents"],
        sentiment_labels=data["sentiment_labels"],
        positive_seeds=data["positive_seeds"],
        negative_seeds=data["negative_seeds"],
        config=config,
    )
    cats = CATS(analyzer, config=config)
    cats.fit(data["d0_items"], data["d0_labels"])
    save_cats(cats, model_dir)
    features = cats.extract_features(data["d0_items"])
    ReferenceHistogram.from_matrix(features).save(model_dir)


def train(work: Path) -> dict:
    with open(work / "train_inputs.pkl", "rb") as fh:
        data = pickle.load(fh)
    tracer = Tracer()
    install(tracer, TRAIN_SPANS)
    start = time.perf_counter()
    train_archive(data, work / "model")
    train_s = time.perf_counter() - start
    tracer.unwrap_all()
    report = {
        "train_s": train_s,
        "rss_mib": self_peak_rss_mib(),
        "content_hash": read_manifest(work / "model")["content_hash"],
        "layers": tracer.totals(),
    }
    roots = sum(e - s for _, s, e, parent, _ in tracer.spans if parent < 0)
    report["layers"]["bench.train.unaccounted_s"] = train_s - roots
    tracer.dump(work / "spans-train.jsonl")
    return report


def _detect_from_store(cats, items, store_dir: Path, analyzer_hash):
    """The ``cats detect --store`` path: mmap, coverage check, matrix."""
    columnar = ColumnarCommentStore.load(
        store_dir, mode="mmap", expected_analyzer_hash=analyzer_hash
    )
    ids, counts = np.unique(np.asarray(columnar.column("item_id")), return_counts=True)
    stored = dict(zip(ids.tolist(), counts.tolist()))
    for item in items:
        if stored.get(int(item.item_id), 0) != len(item.comments):
            raise RuntimeError(f"store does not cover item {item.item_id}")
    features = columnar.feature_matrix([item.item_id for item in items])
    return cats.detect_with_features(items, features), features


def audit(work: Path, seconds: float) -> dict:
    model_dir = work / "model"
    labels = json.loads((work / "labels.json").read_text(encoding="utf-8"))
    gate_ids = json.loads((work / "gate_items.json").read_text(encoding="utf-8"))
    batches = []
    for index in range(len(gate_ids)):
        # The crawl records as ``cats crawl`` stores them; the store
        # applies the same cleaning as ``DatasetStore.load``.
        with open(work / f"d1-{index}.pkl", "rb") as fh:
            items, comments = pickle.load(fh)
        store = DatasetStore(items=items, comments=comments)
        batches.append((store.comments, store.crawled_items()))

    tracer = Tracer()
    load_s: list[float] = []
    cycles: list[dict] = []
    first_report: dict = {}
    features: dict[int, np.ndarray] = {}
    deterministic = True
    deadline = time.perf_counter() + seconds
    last = 0.0
    # Every batch is audited at least once, and the warm-up batches
    # twice.  After that, start another cycle only when it should end
    # before the deadline.
    while (
        len(cycles) < len(batches) + WARMUP_CYCLES
        or time.perf_counter() + last < deadline
    ):
        k = len(cycles) % len(batches)
        comments, items = batches[k]
        warmup = len(cycles) < WARMUP_CYCLES
        traced = not warmup and len(cycles) % 2 == 1
        cycle_start = time.perf_counter()
        if k == 0:
            # Each pass is one audit process's life: a fresh load (cold
            # analysis cache), then the batches in crawl order.
            cats = load_cats(model_dir)
            load_s.append(time.perf_counter() - cycle_start)
            analyzer_hash = cats.archive_info["analyzer_hash"]
        store_dir = work / f"store-{len(cycles)}"
        segmentations = cats.analyzer.n_segmentations
        cache_before = cats.feature_extractor.cache_info()
        if traced:
            install(tracer, AUDIT_SPANS)
        first_span = tracer.mark()
        t0 = time.perf_counter()
        columnar = ColumnarCommentStore(cats.analyzer.interner, analyzer_hash=analyzer_hash)
        append_comments(
            columnar,
            cats.feature_extractor,
            comments,
            chunk_size=ANALYZE_CHUNK_SIZE,
            n_workers=1,
        )
        columnar.save(store_dir)
        report, features[k] = _detect_from_store(cats, items, store_dir, analyzer_hash)
        wall = time.perf_counter() - t0
        tracer.unwrap_all()
        if k in first_report:
            deterministic &= np.array_equal(
                first_report[k].fraud_probability, report.fraud_probability
            )
        else:
            first_report[k] = report
        cycle = {
            "wall_s": wall,
            "warmup": warmup,
            "traced": traced,
            "n_comments": len(comments),
        }
        if traced:
            spans = tracer.spans[first_span:]
            cache = cats.feature_extractor.cache_info()
            hits = cache.hits - cache_before.hits
            lookups = hits + cache.misses - cache_before.misses
            cycle["layers"] = tracer.totals(first_span)
            cycle["root_s"] = sum(e - s for _, s, e, parent, _ in spans if parent < 0)
            cycle["counts"] = {
                "text.segmentations": cats.analyzer.n_segmentations - segmentations,
                "core.interning.vocab_size": len(cats.analyzer.interner),
                "core.columnar.tokens": columnar.n_tokens,
                "core.columnar.arena_mib": (
                    columnar.tokens().nbytes + columnar.offsets().nbytes
                )
                / 2**20,
                "core.analysis_cache.hit_rate": hits / lookups if lookups else 0.0,
                "core.analysis_cache.evictions": cache.evictions - cache_before.evictions,
            }
        cycles.append(cycle)
        shutil.rmtree(store_dir)
        last = time.perf_counter() - cycle_start
    # The D1 report is the union of the batches' reports.
    y_true, y_pred = [], []
    for k, (_, items) in enumerate(batches):
        y_true += [labels[str(item.item_id)] for item in items]
        y_pred += first_report[k].is_fraud.astype(int).tolist()
    f1 = precision_recall_f1(np.array(y_true), np.array(y_pred))[2]

    # Gate: rehydrated rows equal fresh extraction on seeded samples,
    # computed by a freshly loaded system (empty analysis cache).
    fresh = load_cats(model_dir)
    rows_equal = True
    for k, (_, items) in enumerate(batches):
        index = {item.item_id: i for i, item in enumerate(items)}
        rows = [index[item_id] for item_id in gate_ids[k]]
        expected = fresh.extract_features([items[i] for i in rows])
        got = features[k][rows]
        rows_equal &= expected.shape == got.shape and np.array_equal(expected, got)
    out = {
        "load_s": load_s,
        "cycles": cycles,
        "f1": f1,
        "deterministic": bool(deterministic),
        "rss_mib": self_peak_rss_mib(),
        "gate_rows_equal": bool(rows_equal),
    }
    tracer.dump(work / "spans-audit.jsonl")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=["train", "audit"])
    parser.add_argument("work")
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    work = Path(args.work)
    if args.role == "train":
        report = train(work)
    else:
        report = audit(work, args.seconds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
