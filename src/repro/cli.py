"""Command-line interface for the CATS reproduction.

Eight subcommands cover the deployment workflow the paper describes:

``cats train``
    Train the semantic analyzer and pre-train the detector on a
    D0-style labeled dataset; save the system (plus its drift
    reference histogram) to a model directory, optionally registering
    it as a new version in a model registry.
``cats crawl``
    Crawl a simulated platform's public website into a JSONL dataset
    directory (shop/item/comment records).
``cats analyze``
    Run a crawled dataset through a model's semantic analyzer once and
    persist the result as a columnar comment store (interned token
    arena + per-comment stat columns); later ``detect --store`` runs
    and service restarts slice the store instead of re-segmenting.
``cats detect``
    Load a trained model and a crawled dataset; report fraud items to
    stdout (or a file) with their P(fraud).  With ``--store`` the
    feature matrix comes from a columnar store built by ``analyze``
    (bit-identical to live analysis, without the analysis cost).
``cats evaluate``
    Load a trained model, build a labeled D1-style dataset, and print
    the Table VI-style precision/recall/F-score report.
``cats serve``
    Load a trained model (a plain archive, or a registry's champion)
    and run the micro-batching HTTP detection service (``/score``,
    ``/ingest``, ``/alerts``, ``/healthz``, ``/stats``, ``/drift``)
    with durable streaming-state checkpoints, optional traffic
    recording (``--record``) and challenger shadow scoring
    (``--shadow-model``).
``cats models``
    Inspect and manage a model registry: ``list``, ``show``,
    ``register`` an archive as a new version, ``promote`` a version to
    champion.
``cats replay``
    Re-score a recorded traffic feed (from ``serve --record``) under
    any model or registry version; with ``--challenger`` produce a
    champion-vs-challenger disagreement report.

Outside this reproduction the ``crawl`` step would target a real site;
here it targets the platform simulator, selected by ``--platform``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from pathlib import Path

from repro.core.persistence import load_cats, save_cats
from repro.core.pipeline import (
    evaluate_on_dataset,
    run_crawl,
    train_cats,
)
from repro.collector.storage import DatasetStore
from repro.datasets.builders import (
    build_d1,
    build_eplatform,
    default_language,
)


def _resolve_model(path: str, version: int | None = None):
    """Load a model from a plain archive dir or a registry root.

    Returns ``(cats, model_info, artifact_dir)``; ``model_info`` is the
    registry identity stamp (None for plain archives -- the serving
    layer derives identity from the archive manifest instead).
    """
    from repro.mlops import ModelRegistry, RegistryError, is_registry

    try:
        if is_registry(path):
            registry = ModelRegistry(path)
            if version is not None:
                cats = registry.load_version(version)
            else:
                cats, entry = registry.load_champion()
                version = entry.version
            info = registry.model_info(version)
            return cats, info, Path(info["source"])
    except RegistryError as exc:
        raise SystemExit(str(exc))
    if version is not None:
        raise SystemExit(
            f"{path} is a plain model directory; version selection "
            "needs a registry root"
        )
    return load_cats(path), None, Path(path)


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.mlops import ModelRegistry, ReferenceHistogram

    print(
        f"training CATS (D0 scale {args.scale}) ...", file=sys.stderr
    )
    cats, d0 = train_cats(
        default_language(),
        d0_scale=args.scale,
        tree_workers=args.tree_workers,
    )
    save_cats(cats, args.model_dir)
    features = cats.extract_features(d0.items)
    # The training-time feature distribution travels with the archive
    # so any service loading it can monitor live drift against it.
    ReferenceHistogram.from_matrix(features).save(args.model_dir)
    print(
        f"trained on D0 ({d0.summary()}) -> saved to {args.model_dir} "
        "(with drift reference)",
        file=sys.stderr,
    )
    scores: dict[str, float] = {}
    if args.cv:
        scores = cats.cross_validate_detector(
            features,
            d0.labels,
            n_splits=args.cv,
            n_workers=args.cv_workers,
        )
        print(
            json.dumps({"cv": {k: round(v, 4) for k, v in scores.items()}})
        )
    if args.registry:
        registry = ModelRegistry(args.registry)
        entry = registry.register_artifact(
            args.model_dir,
            metrics=scores,
            parent=registry.champion_version(),
            note=args.note,
        )
        if args.promote:
            registry.promote(entry.version)
            entry = registry.get(entry.version)
        print(json.dumps({"registered": entry.as_dict()}))
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    language = default_language()
    if args.platform == "eplatform":
        platform = build_eplatform(language, scale=args.scale)
    else:
        raise SystemExit(f"unknown platform {args.platform!r}")
    store, crawler = run_crawl(
        platform,
        failure_rate=args.failure_rate,
        duplicate_rate=args.duplicate_rate,
        seed=args.seed,
    )
    store.save(args.output_dir)
    print(
        json.dumps(
            {"collected": store.summary(), "crawl": crawler.stats.as_dict()}
        )
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.columnar import ColumnarCommentStore, append_comments

    cats = load_cats(args.model_dir)
    store = DatasetStore.load(args.data_dir)
    if not store.comments:
        raise SystemExit(f"no comments found in {args.data_dir}")
    analyzer_hash = (getattr(cats, "archive_info", None) or {}).get(
        "analyzer_hash"
    )
    columnar = ColumnarCommentStore(
        cats.analyzer.interner, analyzer_hash=analyzer_hash
    )
    appended = append_comments(
        columnar,
        cats.feature_extractor,
        store.comments,
        chunk_size=args.chunk_size,
        n_workers=args.workers,
    )
    generation = columnar.save(args.store_dir)
    print(
        json.dumps(
            {
                "analyzed": appended,
                "workers": args.workers,
                "store_dir": args.store_dir,
                "generation": generation,
                "store": columnar.stats(),
            }
        )
    )
    return 0


def _load_columnar_features(
    cats, items: list, store_dir: str
):
    """Feature matrix for *items* from a persisted columnar store.

    Memory-mapped, analyzer-hash-checked, and coverage-checked: every
    item's stored comment count must equal its dataset comment count,
    otherwise the matrix would silently describe a different dataset.
    """
    from repro.core.columnar import ColumnarCommentStore, ColumnarStoreError

    analyzer_hash = (getattr(cats, "archive_info", None) or {}).get(
        "analyzer_hash"
    )
    try:
        columnar = ColumnarCommentStore.load(
            store_dir, mode="mmap", expected_analyzer_hash=analyzer_hash
        )
    except ColumnarStoreError as exc:
        raise SystemExit(str(exc))
    item_col = columnar.column("item_id")
    stored: dict[int, int] = {}
    for item_id in item_col:
        stored[int(item_id)] = stored.get(int(item_id), 0) + 1
    for item in items:
        expected = len(item.comments)
        got = stored.get(int(item.item_id), 0)
        if got != expected:
            raise SystemExit(
                f"columnar store at {store_dir} holds {got} comments for "
                f"item {item.item_id} but the dataset has {expected}; "
                f"re-run `cats analyze` against this dataset"
            )
    return columnar.feature_matrix([item.item_id for item in items])


def _cmd_detect(args: argparse.Namespace) -> int:
    cats = load_cats(args.model_dir)
    store = DatasetStore.load(args.data_dir)
    items = store.crawled_items()
    if not items:
        raise SystemExit(f"no items found in {args.data_dir}")
    if args.store:
        features = _load_columnar_features(cats, items, args.store)
        report = cats.detect_with_features(items, features)
    else:
        report = cats.detect(items, n_workers=args.workers)
    rows = []
    for idx in report.reported_indices():
        item = items[idx]
        rows.append(
            {
                "item_id": item.item_id,
                "fraud_probability": round(
                    float(report.fraud_probability[idx]), 4
                ),
                "n_comments": len(item.comments),
                "sales_volume": item.sales_volume,
            }
        )
    output = json.dumps(
        {
            "n_items": len(items),
            "n_reported": report.n_reported,
            "filter": report.filter_report,
            "reported": rows,
        },
        indent=2,
    )
    if args.output:
        Path(args.output).write_text(output, encoding="utf-8")
        print(
            f"wrote {report.n_reported} reports to {args.output}",
            file=sys.stderr,
        )
    else:
        print(output)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    # Imported here: the reporting module pulls in scipy.stats and
    # networkx, which ``cats serve`` processes never need.
    from repro.analysis.reporting import render_table

    cats = load_cats(args.model_dir)
    d1 = build_d1(default_language(), scale=args.scale, seed=args.seed)
    result, report = evaluate_on_dataset(cats, d1, n_workers=args.workers)
    print(
        render_table(
            ["Category", "Precision", "Recall", "F-score"],
            result.rows(),
            title=f"CATS on D1 (scale {args.scale})",
        )
    )
    print(
        f"\nreported={report.n_reported} true_fraud={d1.n_fraud} "
        f"filter={report.filter_report}"
    )
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.core.persistence import PersistenceError, read_manifest
    from repro.mlops import (
        ModelRegistry,
        ReferenceHistogram,
        RegistryError,
    )

    registry = ModelRegistry(args.registry)
    try:
        if args.models_command == "list":
            champion = registry.champion_version()
            print(
                json.dumps(
                    {
                        "registry": str(registry.root),
                        "champion": champion,
                        "versions": [
                            v.as_dict() for v in registry.versions()
                        ],
                    },
                    indent=2,
                )
            )
        elif args.models_command == "show":
            entry = registry.get(args.version)
            detail = entry.as_dict()
            archive = read_manifest(entry.artifact_dir)
            detail["feature_schema"] = archive.get("feature_schema")
            detail["format_version"] = archive.get("format_version")
            detail["config"] = archive.get("config")
            detail["drift_reference"] = ReferenceHistogram.exists(
                entry.artifact_dir
            )
            print(json.dumps(detail, indent=2))
        elif args.models_command == "register":
            entry = registry.register_artifact(
                args.model_dir,
                parent=args.parent,
                note=args.note,
            )
            print(json.dumps({"registered": entry.as_dict()}))
        elif args.models_command == "promote":
            previous = registry.champion_version()
            entry = registry.promote(args.version)
            print(
                json.dumps(
                    {"promoted": entry.version, "previous": previous}
                )
            )
    except (RegistryError, PersistenceError) as exc:
        raise SystemExit(str(exc))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.mlops import (
        RecordingError,
        compare_recording,
        replay_recording,
    )

    champion, champion_info, _ = _resolve_model(
        args.model_dir, args.version
    )
    challenger = challenger_info = None
    if args.challenger is not None:
        challenger, challenger_info, _ = _resolve_model(
            args.challenger, args.challenger_version
        )
    elif args.challenger_version is not None:
        # Same registry, different version: the common promotion check.
        challenger, challenger_info, _ = _resolve_model(
            args.model_dir, args.challenger_version
        )
    kwargs = dict(
        rescore_growth=args.rescore_growth,
        min_comments_to_score=args.min_comments,
    )
    try:
        if challenger is not None:
            report = compare_recording(
                champion,
                challenger,
                args.recording,
                champion_info=champion_info,
                challenger_info=challenger_info,
                top_n=args.top,
                **kwargs,
            )
        else:
            result = replay_recording(champion, args.recording, **kwargs)
            report = {
                "recording": str(args.recording),
                "model": dict(champion_info or {}),
                **result.summary(),
                "flagged": result.flagged,
            }
    except RecordingError as exc:
        raise SystemExit(str(exc))
    output = json.dumps(report, indent=2)
    if args.output:
        Path(args.output).write_text(output, encoding="utf-8")
        print(f"wrote replay report to {args.output}", file=sys.stderr)
    else:
        print(output)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.mlops import (
        DriftMonitor,
        ReferenceHistogram,
        ShadowScorer,
        TrafficRecorder,
    )
    from repro.serving import DetectionService, make_server

    if args.shards > 1:
        return _cmd_serve_cluster(args)
    shard = None
    if args.shard_count > 1:
        shard = (args.shard_index, args.shard_count)
    cats, model_info, artifact_dir = _resolve_model(
        args.model_dir, args.model_version
    )
    if model_info is not None:
        print(
            f"serving model version={model_info['version']} "
            f"hash={str(model_info['content_hash'])[:12]}",
            file=sys.stderr,
        )
    drift_monitor = None
    if not args.no_drift and ReferenceHistogram.exists(artifact_dir):
        drift_monitor = DriftMonitor(ReferenceHistogram.load(artifact_dir))
        print(
            "drift monitoring on (reference histogram found)",
            file=sys.stderr,
        )
    recorder = TrafficRecorder(args.record) if args.record else None
    columnar_store = None
    if args.columnar_store:
        from repro.core.columnar import (
            ColumnarCommentStore,
            ColumnarStoreError,
        )

        analyzer_hash = (getattr(cats, "archive_info", None) or {}).get(
            "analyzer_hash"
        )
        store_path = Path(args.columnar_store)
        try:
            if (store_path / "store.json").exists():
                # Attach before anything else interns text, so stored
                # ids replay onto identical live ids.
                columnar_store = ColumnarCommentStore.attach(
                    store_path,
                    cats.analyzer,
                    expected_analyzer_hash=analyzer_hash,
                )
                print(
                    f"columnar store attached from {store_path} "
                    f"({columnar_store.n_comments} analyzed comments, "
                    f"generation {columnar_store.generation})",
                    file=sys.stderr,
                )
            else:
                columnar_store = ColumnarCommentStore(
                    cats.analyzer.interner, analyzer_hash=analyzer_hash
                )
                columnar_store.directory = store_path
                print(
                    f"columnar store will be created at {store_path}",
                    file=sys.stderr,
                )
        except ColumnarStoreError as exc:
            raise SystemExit(str(exc))
    shadow = None
    if args.shadow_model or args.shadow_version is not None:
        # --shadow-version alone shadows a sibling version from the
        # registry being served.
        shadow_source = args.shadow_model or args.model_dir
        challenger, challenger_info, _ = _resolve_model(
            shadow_source, args.shadow_version
        )
        shadow = ShadowScorer(
            cats,
            challenger,
            info=challenger_info,
            log_path=args.shadow_log,
            rescore_growth=args.rescore_growth,
            min_comments_to_score=args.min_comments,
            max_tracked_items=args.max_tracked_items,
        )
        label = shadow_source
        if challenger_info is not None:
            label = f"{shadow_source} version {challenger_info['version']}"
        print(
            f"shadow scoring {label} "
            f"(analysis {'shared' if shadow.analysis_shared else 'separate'})",
            file=sys.stderr,
        )
    service = DetectionService(
        cats,
        rescore_growth=args.rescore_growth,
        min_comments_to_score=args.min_comments,
        max_tracked_items=args.max_tracked_items,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        queue_depth=args.queue_depth,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        shard=shard,
        model_info=model_info,
        shadow=shadow,
        drift_monitor=drift_monitor,
        recorder=recorder,
        columnar_store=columnar_store,
    )
    if service.restored_from:
        print(
            f"restored streaming state from {service.restored_from} "
            f"({service.stream.n_observed} records observed)",
            file=sys.stderr,
        )
    service.start()
    server = make_server(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    host, port = server.server_address[:2]
    # Machine-readable announcement (tests and scripts parse this to
    # discover the bound port when --port 0 was requested).
    print(json.dumps({"serving": True, "host": host, "port": port}), flush=True)
    print(
        f"serving on http://{host}:{port} "
        f"(max_batch={args.max_batch}, max_delay_ms={args.max_delay_ms}, "
        f"queue_depth={args.queue_depth})",
        file=sys.stderr,
    )

    def _shutdown(signum, frame) -> None:
        print("shutting down: draining queue ...", file=sys.stderr)
        raise KeyboardInterrupt

    signal.signal(signal.SIGINT, _shutdown)
    signal.signal(signal.SIGTERM, _shutdown)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop(drain=True)
    print("service stopped", file=sys.stderr)
    return 0


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    from repro.serving.cluster import ShardCluster

    # Single-file sinks cannot be shared by shard processes.
    if args.record or args.shadow_log:
        raise SystemExit(
            "--record/--shadow-log are per-process files; run them on "
            "single-process serves (one per shard) instead"
        )
    if args.columnar_store:
        raise SystemExit(
            "--columnar-store is a per-process directory; run it on "
            "single-process serves (one store per shard) instead"
        )
    # Tuning flags are forwarded verbatim so every shard worker runs
    # the same micro-batching configuration as a single-process serve.
    worker_args = (
        "--checkpoint-every", str(args.checkpoint_every),
        "--max-batch", str(args.max_batch),
        "--max-delay-ms", str(args.max_delay_ms),
        "--queue-depth", str(args.queue_depth),
        "--rescore-growth", str(args.rescore_growth),
        "--min-comments", str(args.min_comments),
    )
    if args.max_tracked_items is not None:
        worker_args += ("--max-tracked-items", str(args.max_tracked_items))
    if args.model_version is not None:
        worker_args += ("--model-version", str(args.model_version))
    if args.no_drift:
        worker_args += ("--no-drift",)
    if args.shadow_model:
        worker_args += ("--shadow-model", args.shadow_model)
    if args.shadow_version is not None:
        worker_args += ("--shadow-version", str(args.shadow_version))
    cluster = ShardCluster(
        args.model_dir,
        args.shards,
        host=args.host,
        port=args.port,
        checkpoint_root=args.checkpoint_dir,
        worker_args=worker_args,
        verbose=args.verbose,
    )
    print(
        f"starting {args.shards} shard workers ...", file=sys.stderr
    )
    cluster.start()
    print(
        json.dumps(
            {
                "serving": True,
                "host": cluster.host,
                "port": cluster.port,
                "shards": args.shards,
            }
        ),
        flush=True,
    )
    print(
        f"cluster router on {cluster.url} "
        f"({args.shards} shards: "
        + ", ".join(f"#{w.shard_index}:{w.port}" for w in cluster.workers)
        + ")",
        file=sys.stderr,
    )

    stop_event = threading.Event()

    def _shutdown(signum, frame) -> None:
        print("shutting down cluster ...", file=sys.stderr)
        stop_event.set()

    signal.signal(signal.SIGINT, _shutdown)
    signal.signal(signal.SIGTERM, _shutdown)
    try:
        stop_event.wait()
    finally:
        cluster.stop()
    print("cluster stopped", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="cats",
        description="CATS cross-platform e-commerce fraud detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train and save a CATS model")
    train.add_argument("model_dir", help="output model directory")
    train.add_argument(
        "--scale", type=float, default=0.05,
        help="D0 dataset scale (1.0 = paper size)",
    )
    train.add_argument(
        "--cv", type=int, default=0, metavar="K",
        help="also run K-fold CV of the detector on D0 (0 = skip)",
    )
    train.add_argument(
        "--cv-workers", type=int, default=None,
        help="fit CV folds on this many workers (default serial; "
        "metrics are identical for any worker count)",
    )
    train.add_argument(
        "--tree-workers", type=int, default=None,
        help="threads for the GBDT level-histogram engine (default "
        "single-threaded; the trained model is bit-identical for any "
        "value)",
    )
    train.add_argument(
        "--registry", default=None, metavar="DIR",
        help="also register the trained model as a new version in this "
        "registry (CV metrics, when computed, are recorded with it)",
    )
    train.add_argument(
        "--promote", action="store_true",
        help="promote the registered version to champion (needs --registry)",
    )
    train.add_argument(
        "--note", default="", help="free-form note stored with the version"
    )
    train.set_defaults(func=_cmd_train)

    crawl = sub.add_parser("crawl", help="crawl a platform's public site")
    crawl.add_argument("output_dir", help="JSONL dataset output directory")
    crawl.add_argument(
        "--platform", default="eplatform", choices=["eplatform"],
    )
    crawl.add_argument("--scale", type=float, default=0.0005)
    crawl.add_argument("--failure-rate", type=float, default=0.02)
    crawl.add_argument("--duplicate-rate", type=float, default=0.01)
    crawl.add_argument("--seed", type=int, default=0)
    crawl.set_defaults(func=_cmd_crawl)

    analyze = sub.add_parser(
        "analyze",
        help="analyze a crawled dataset into a columnar comment store",
    )
    analyze.add_argument("model_dir", help="trained model directory")
    analyze.add_argument("data_dir", help="crawled dataset directory")
    analyze.add_argument(
        "store_dir", help="columnar store output directory"
    )
    analyze.add_argument(
        "--chunk-size", type=int, default=8192,
        help="analyze comments in batches of this size (bounds peak "
        "memory; the store content is identical for any chunking)",
    )
    analyze.add_argument(
        "--workers", type=int, default=os.cpu_count(),
        help="analyze chunks on this many worker processes (default: "
        "all CPUs; the store content is bit-identical for any worker "
        "count, 1 = serial)",
    )
    analyze.set_defaults(func=_cmd_analyze)

    detect = sub.add_parser("detect", help="detect frauds in crawled data")
    detect.add_argument("model_dir", help="trained model directory")
    detect.add_argument("data_dir", help="crawled dataset directory")
    detect.add_argument(
        "--store", default=None, metavar="DIR",
        help="take the feature matrix from this columnar store (built "
        "by `cats analyze`) instead of re-analyzing the dataset",
    )
    detect.add_argument(
        "--output", default=None, help="write the JSON report here"
    )
    detect.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for feature extraction (default serial)",
    )
    detect.set_defaults(func=_cmd_detect)

    evaluate = sub.add_parser(
        "evaluate", help="evaluate a model on a labeled D1-style set"
    )
    evaluate.add_argument("model_dir", help="trained model directory")
    evaluate.add_argument("--scale", type=float, default=0.003)
    evaluate.add_argument("--seed", type=int, default=200)
    evaluate.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for feature extraction (default serial)",
    )
    evaluate.set_defaults(func=_cmd_evaluate)

    models = sub.add_parser(
        "models", help="inspect and manage a model registry"
    )
    msub = models.add_subparsers(dest="models_command", required=True)
    mlist = msub.add_parser("list", help="list registered versions")
    mlist.add_argument("registry", help="registry root directory")
    mlist.set_defaults(func=_cmd_models)
    mshow = msub.add_parser("show", help="show one version in detail")
    mshow.add_argument("registry", help="registry root directory")
    mshow.add_argument("version", type=int)
    mshow.set_defaults(func=_cmd_models)
    mregister = msub.add_parser(
        "register", help="register an existing model archive"
    )
    mregister.add_argument("registry", help="registry root directory")
    mregister.add_argument("model_dir", help="save_cats archive to register")
    mregister.add_argument(
        "--parent", type=int, default=None,
        help="version this one was trained to replace",
    )
    mregister.add_argument(
        "--note", default="", help="free-form note stored with the version"
    )
    mregister.set_defaults(func=_cmd_models)
    mpromote = msub.add_parser(
        "promote", help="atomically point the champion at a version"
    )
    mpromote.add_argument("registry", help="registry root directory")
    mpromote.add_argument("version", type=int)
    mpromote.set_defaults(func=_cmd_models)

    replay = sub.add_parser(
        "replay", help="re-score a recorded traffic feed offline"
    )
    replay.add_argument(
        "model_dir", help="model directory or registry root (champion)"
    )
    replay.add_argument(
        "recording", help="JSONL traffic recording from `serve --record`"
    )
    replay.add_argument(
        "--version", type=int, default=None,
        help="replay under this registry version instead of the champion",
    )
    replay.add_argument(
        "--challenger", default=None, metavar="MODEL",
        help="also replay under this model and report disagreements",
    )
    replay.add_argument(
        "--challenger-version", type=int, default=None,
        help="challenger registry version (with --challenger, or from "
        "the same registry as the champion when --challenger is omitted)",
    )
    replay.add_argument(
        "--rescore-growth", type=float, default=1.25,
        help="streaming rescore cadence (match the recording service)",
    )
    replay.add_argument(
        "--min-comments", type=int, default=3,
        help="minimum buffered comments to score (match the service)",
    )
    replay.add_argument(
        "--top", type=int, default=10,
        help="disagreements to list in the comparison report",
    )
    replay.add_argument(
        "--output", default=None, help="write the JSON report here"
    )
    replay.set_defaults(func=_cmd_replay)

    serve = sub.add_parser(
        "serve", help="run the micro-batching HTTP detection service"
    )
    serve.add_argument(
        "model_dir",
        help="trained model directory, or a registry root (serves the "
        "promoted champion)",
    )
    serve.add_argument(
        "--model-version", type=int, default=None,
        help="serve this registry version instead of the champion",
    )
    serve.add_argument(
        "--record", default=None, metavar="FILE",
        help="append every applied feed request to this JSONL recording "
        "(replay input for `cats replay`)",
    )
    serve.add_argument(
        "--shadow-model", default=None, metavar="MODEL",
        help="score this challenger (model dir or registry root) on the "
        "same traffic; disagreements surface in /stats, alerts are "
        "champion-only",
    )
    serve.add_argument(
        "--shadow-version", type=int, default=None,
        help="shadow this registry version (of --shadow-model, or of "
        "the served registry when --shadow-model is omitted)",
    )
    serve.add_argument(
        "--shadow-log", default=None, metavar="FILE",
        help="rotating JSONL disagreement log for the shadow scorer",
    )
    serve.add_argument(
        "--no-drift", action="store_true",
        help="disable drift monitoring even when the model archive "
        "carries a reference histogram",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 picks a free port, announced on stdout)",
    )
    serve.add_argument(
        "--checkpoint-dir", default=None,
        help="durable streaming-state checkpoint directory",
    )
    serve.add_argument(
        "--columnar-store", default=None, metavar="DIR",
        help="persist every comment analysis to this columnar store "
        "(created on first checkpoint if absent; an existing store is "
        "attached so restarts skip re-analysis)",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=500,
        help="checkpoint after this many ingested records",
    )
    serve.add_argument(
        "--max-batch", type=int, default=32,
        help="flush a micro-batch at this many requests",
    )
    serve.add_argument(
        "--max-delay-ms", type=float, default=25.0,
        help="flush a micro-batch after this many milliseconds",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=512,
        help="bounded ingress queue size (beyond it requests get 503)",
    )
    serve.add_argument(
        "--max-tracked-items", type=int, default=None,
        help="LRU bound on items with buffered state (default unbounded)",
    )
    serve.add_argument(
        "--rescore-growth", type=float, default=1.25,
        help="re-score an item after this comment-count growth factor",
    )
    serve.add_argument(
        "--min-comments", type=int, default=3,
        help="do not score items with fewer buffered comments",
    )
    serve.add_argument(
        "--shards", type=int, default=0,
        help="run a shared-nothing cluster of this many shard worker "
        "processes behind a routing front end (0/1 = single process)",
    )
    # Internal: identify one worker of a sharded cluster.  Set by the
    # cluster launcher, not by hand -- the service stamps checkpoints
    # with the partition and rejects records it does not own.
    serve.add_argument(
        "--shard-index", type=int, default=0, help=argparse.SUPPRESS
    )
    serve.add_argument(
        "--shard-count", type=int, default=1, help=argparse.SUPPRESS
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
