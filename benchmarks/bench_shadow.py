"""Shadow-scoring overhead benchmark: plain vs shadowed serving.

Measures :class:`repro.serving.DetectionService` throughput twice over
the same pre-loaded feed and pipelined client load:

* **plain** -- the champion alone (the bench_serving micro-batched
  configuration);
* **shadowed** -- the same champion with a :class:`ShadowScorer`
  mirroring every micro-batch into a challenger model trained on half
  of D0.  The challenger shares the champion's analyzer, so the shadow
  re-uses the champion's feature extractor and per-item cache and pays
  only its own stage-2 classifier calls.

The shadow compares off the champion's response path (after score
futures resolve, on the scheduler thread), so it must cost wall-clock
throughput only, never correctness.  The benchmark *asserts* both
halves of that contract:

* champion per-item probabilities are **bit-identical** with the
  shadow on and off;
* plain throughput is at most ``MAX_OVERHEAD`` (1.5x) the shadowed
  throughput.

Results are written to ``BENCH_shadow.json`` under
``benchmarks/results/``.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_shadow.py --quick

``--quick`` shrinks the model and feed for the CI smoke check (see
``scripts/verify.sh``); the default scale matches the other benches.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from benchutil import RESULTS_DIR, write_result
from bench_serving_throughput import (
    MAX_BATCH,
    MAX_DELAY_MS,
    item_feed,
    make_service,
    run_micro_batched,
)

from repro.analysis.reporting import render_table
from repro.core.system import CATS
from repro.mlops import ShadowScorer


#: Acceptance ceiling: plain req/s over shadowed req/s.
MAX_OVERHEAD = 1.5


def build_system(quick: bool):
    """(champion, challenger, d1); the challenger shares the analyzer."""
    from repro.core.config import (
        CATSConfig,
        LexiconConfig,
        Word2VecConfig,
    )
    from repro.core.pipeline import train_cats
    from repro.datasets.builders import build_d1
    from repro.ecommerce.language import SyntheticLanguage

    if quick:
        language = SyntheticLanguage(
            n_positive=60,
            n_negative=60,
            n_neutral=220,
            n_function=40,
            n_variant_sources=10,
            n_topics=6,
            seed=42,
        )
        config = CATSConfig(
            lexicon=LexiconConfig(max_size=80, k_neighbors=8),
            word2vec=Word2VecConfig(dim=24, epochs=3, min_count=2),
        )
        champion, d0 = train_cats(language, d0_scale=0.01, config=config)
        d1 = build_d1(language, scale=0.002)
    else:
        config = None
        champion, d0 = train_cats(d0_scale=0.1)
        d1 = build_d1(scale=0.005)
    half = len(d0.items) // 2
    challenger = CATS(champion.analyzer, config=config)
    challenger.fit(d0.items[:half], d0.labels[:half])
    return champion, challenger, d1


def timed_rps(service, item_ids, rounds: int) -> float:
    """Pipelined-client load over *service*; returns requests/second."""
    elapsed = run_micro_batched(service, item_ids, rounds)
    return len(item_ids) * rounds / elapsed


def run(quick: bool, rounds: int) -> dict:
    print("building champion + challenger ...", file=sys.stderr)
    champion, challenger, d1 = build_system(quick)
    feed = item_feed(d1, max_items=40 if quick else 200)
    item_ids = sorted({record.item_id for record in feed})
    n_requests = len(item_ids) * rounds

    plain_service = make_service(
        champion, feed, max_batch=MAX_BATCH, max_delay_ms=MAX_DELAY_MS,
        queue_depth=512,
    )
    plain_rps = timed_rps(plain_service, item_ids, rounds)
    plain_probabilities = plain_service.score(item_ids)
    plain_service.stop()

    shadow = ShadowScorer(champion, challenger, rescore_growth=1.25)
    shadowed_service = make_service(
        champion, feed, max_batch=MAX_BATCH, max_delay_ms=MAX_DELAY_MS,
        queue_depth=512, shadow=shadow,
    )
    shadowed_rps = timed_rps(shadowed_service, item_ids, rounds)
    shadowed_probabilities = shadowed_service.score(item_ids)
    shadowed_service.stop()

    assert shadowed_probabilities == plain_probabilities, (
        "champion scores must be bit-identical with the shadow on"
    )
    shadow_stats = shadow.stats()
    assert shadow_stats["scored"] > 0, "shadow never scored anything"

    result = {
        "n_items": len(item_ids),
        "n_requests": n_requests,
        "feed_records": len(feed),
        "max_batch": MAX_BATCH,
        "max_delay_ms": MAX_DELAY_MS,
        "analysis_shared": shadow.analysis_shared,
        "plain_rps": round(plain_rps, 1),
        "shadowed_rps": round(shadowed_rps, 1),
        "overhead_factor": round(plain_rps / shadowed_rps, 3),
        "shadow_scored": shadow_stats["scored"],
        "shadow_flipped_verdicts": shadow_stats["flipped_verdicts"],
        "shadow_max_abs_delta": shadow_stats["max_abs_delta"],
    }
    return result


def render(result: dict) -> str:
    rows = [[key, value] for key, value in result.items()]
    return render_table(
        ["quantity", "value"], rows, title="Shadow-scoring overhead"
    )


def write_outputs(result: dict) -> Path:
    return write_result("BENCH_shadow.json", result)


def check_overhead(result: dict) -> None:
    assert result["overhead_factor"] <= MAX_OVERHEAD, (
        f"shadow scoring costs {result['overhead_factor']}x plain "
        f"serving throughput (ceiling {MAX_OVERHEAD}x)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small model and feed for the CI smoke check",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="score rounds over the item set (default 4 quick, 8 full)",
    )
    args = parser.parse_args(argv)
    rounds = args.rounds or (4 if args.quick else 8)

    result = run(args.quick, rounds)
    written = write_outputs(result)
    text = render(result)
    (RESULTS_DIR / "shadow_overhead.txt").write_text(
        text + "\n", encoding="utf-8"
    )
    print(text)
    print(f"\nwrote {written}", file=sys.stderr)
    check_overhead(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
