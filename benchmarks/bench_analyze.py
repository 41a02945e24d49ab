"""Parallel comment-analysis benchmark: serial vs sharded workers.

Measures the :mod:`repro.core.parallel_analysis` engine end to end:
segment + intern + sentiment-score a D1-profile comment corpus into a
:class:`~repro.core.columnar.ColumnarCommentStore`, serially and on
1/2/4 worker processes, reporting comments/sec for each.

Every parallel run starts from a private analyzer clone
(:meth:`SemanticAnalyzer.clone_spec`) so all runs analyze under the
identical starting vocabulary, and every parallel store is asserted
**bit-identical** to the serial one -- token arena, offsets, stat
columns and interner snapshot (``np.array_equal``, no tolerance) --
before any timing is reported.  A benchmark that got the wrong answer
fast would be worse than useless.

Scaling floor: the acceptance criterion (>= ``MIN_SCALING``x
comments/sec at 4 workers over serial) is only enforced when the host
actually has >= 4 CPUs; on smaller hosts the ratio is recorded but not
asserted (worker processes time-slice a single core and measure
overhead, not scaling).  ``n_cpus`` is recorded either way, as in
``bench_cluster``.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_analyze.py --quick

``--quick`` shrinks the model and corpus for the CI smoke check (see
``scripts/verify.sh``) and writes ``BENCH_analyze_quick.json`` beside
the full-scale artifact instead of clobbering it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from benchutil import RESULTS_DIR, peak_rss_mib, write_result

from repro.analysis.reporting import render_table
from repro.core.analyzer import SemanticAnalyzer
from repro.core.columnar import ColumnarCommentStore, append_comments
from repro.core.features import FeatureExtractor
from repro.core.parallel_analysis import analyze_many


#: Acceptance floor: comments/sec at 4 workers over serial, enforced
#: only on hosts with >= 4 CPUs (see module docstring).
MIN_SCALING = 2.0

#: Worker counts measured (serial is measured separately).
WORKER_COUNTS = (1, 2, 4)

#: Comments per chunk shipped to a worker.
CHUNK_SIZE = 2048

#: D1 scale factors (fraction of the paper's ~1.48M-item snapshot).
FULL_D1_SCALE = 0.01
QUICK_D1_SCALE = 0.001


def n_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def build_corpus(quick: bool, scale: float | None):
    """(analyzer, records): trained analyzer + D1 comment records."""
    from bench_e2e import build_system
    from repro.datasets.builders import build_d1

    d1_scale = scale if scale is not None else (
        QUICK_D1_SCALE if quick else FULL_D1_SCALE
    )
    print("training analyzer on D0 ...", file=sys.stderr)
    cats, language = build_system(quick)
    print(f"building D1 corpus at scale {d1_scale} ...", file=sys.stderr)
    d1 = build_d1(language, scale=d1_scale)
    records = d1.comment_records()
    return cats.analyzer, records, d1_scale


def fresh_run_state(spec: bytes):
    """(extractor, store) on a private analyzer clone.

    Every measured run starts from the identical vocabulary so the
    stores are comparable bit for bit and no run benefits from a
    predecessor's interning or caching.
    """
    analyzer = SemanticAnalyzer.from_spec(spec)
    extractor = FeatureExtractor(analyzer)
    store = ColumnarCommentStore(analyzer.interner)
    return extractor, store


def assert_identical(
    expected: ColumnarCommentStore, actual: ColumnarCommentStore
) -> None:
    assert np.array_equal(
        np.asarray(actual.tokens()), np.asarray(expected.tokens())
    ), "token arena differs from the serial run"
    assert np.array_equal(
        np.asarray(actual.offsets()), np.asarray(expected.offsets())
    ), "offsets differ from the serial run"
    left = expected.interner.export_state()
    right = actual.interner.export_state()
    assert left["words"] == right["words"], (
        "merged interner snapshot differs from the serial run"
    )


def run(quick: bool, scale: float | None = None) -> dict:
    analyzer, records, d1_scale = build_corpus(quick, scale)
    spec = analyzer.clone_spec()
    n_comments = len(records)

    print(
        f"analyze (serial): {n_comments} comments ...", file=sys.stderr
    )
    extractor, serial_store = fresh_run_state(spec)
    t0 = time.perf_counter()
    append_comments(
        serial_store, extractor, records, chunk_size=CHUNK_SIZE
    )
    serial_s = time.perf_counter() - t0
    serial_rate = n_comments / max(serial_s, 1e-9)

    workers: dict[str, dict] = {}
    for count in WORKER_COUNTS:
        print(
            f"analyze (parallel): {n_comments} comments on {count} "
            f"worker(s) ...",
            file=sys.stderr,
        )
        extractor, store = fresh_run_state(spec)
        t0 = time.perf_counter()
        appended = analyze_many(
            store,
            extractor,
            records,
            n_workers=count,
            chunk_size=CHUNK_SIZE,
        )
        wall_s = time.perf_counter() - t0
        assert appended == n_comments
        assert_identical(serial_store, store)
        workers[str(count)] = {
            "wall_s": round(wall_s, 3),
            "comments_per_s": round(n_comments / max(wall_s, 1e-9), 1),
            "speedup_vs_serial": round(serial_s / max(wall_s, 1e-9), 2),
        }

    cpus = n_cpus()
    best = workers[str(WORKER_COUNTS[-1])]
    result = {
        "quick": quick,
        "d1_scale": d1_scale,
        "n_comments": n_comments,
        "chunk_size": CHUNK_SIZE,
        "n_cpus": cpus,
        "serial_s": round(serial_s, 3),
        "serial_comments_per_s": round(serial_rate, 1),
        "workers": workers,
        "scaling": {
            "workers_compared": [0, WORKER_COUNTS[-1]],
            "ratio": round(
                best["comments_per_s"] / max(serial_rate, 1e-9), 2
            ),
            "floor": MIN_SCALING,
            "floor_enforced": cpus >= 4,
        },
        "bit_identical": True,  # asserted per run above
        "peak_rss_mib": round(peak_rss_mib(), 1),
    }
    if not result["scaling"]["floor_enforced"]:
        result["scaling"]["floor_skipped_reason"] = (
            f"host has {cpus} CPU(s); sharded analysis needs at least "
            "4 cores to demonstrate scaling"
        )
    return result


def render(result: dict) -> str:
    rows = [
        ["n_comments", result["n_comments"]],
        ["n_cpus", result["n_cpus"]],
        ["chunk_size", result["chunk_size"]],
        ["serial comments/s", result["serial_comments_per_s"]],
    ]
    for count, stats in result["workers"].items():
        rows.append(
            [
                f"{count}-worker comments/s",
                f"{stats['comments_per_s']} "
                f"({stats['speedup_vs_serial']}x serial)",
            ]
        )
    rows.append(["scaling ratio", result["scaling"]["ratio"]])
    rows.append(["floor enforced", result["scaling"]["floor_enforced"]])
    rows.append(["bit identical", result["bit_identical"]])
    rows.append(["peak RSS (MiB)", result["peak_rss_mib"]])
    return render_table(
        ["quantity", "value"],
        rows,
        title="Parallel sharded comment analysis (serial vs workers)",
    )


def write_outputs(result: dict) -> Path:
    """Full runs own ``BENCH_analyze.json`` (the checked-in artifact);
    quick smoke runs write ``BENCH_analyze_quick.json`` beside it so
    they never clobber the full-scale numbers."""
    name = "BENCH_analyze_quick" if result["quick"] else "BENCH_analyze"
    return write_result(f"{name}.json", result)


def check_acceptance(result: dict) -> None:
    assert result["bit_identical"]
    if result["scaling"]["floor_enforced"]:
        assert result["scaling"]["ratio"] >= MIN_SCALING, (
            f"4-worker analysis only {result['scaling']['ratio']}x the "
            f"serial rate (need >= {MIN_SCALING}x on a "
            f"{result['n_cpus']}-CPU host)"
        )


def test_analyze(benchmark):
    """Harness entry: same measurement inside the pytest bench run."""
    from conftest import write_result as write_table

    result = benchmark.pedantic(
        lambda: run(quick=True), rounds=1, iterations=1
    )
    write_outputs(result)
    write_table("analyze", render(result))
    check_acceptance(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small model and corpus for the CI smoke check",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="override the D1 scale factor (fraction of paper size)",
    )
    args = parser.parse_args(argv)

    result = run(args.quick, scale=args.scale)
    written = write_outputs(result)
    text = render(result)
    (RESULTS_DIR / "analyze.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    print(f"\nwrote {written}", file=sys.stderr)
    check_acceptance(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
