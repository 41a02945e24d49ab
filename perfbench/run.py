"""The repo benchmark: one command, two workloads, every metric by name.

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 45 --trace 0

Workloads (see ``perfbench/METRICS.md`` for every metric):

``serve_read``
    ``cats serve --shards <nproc>`` at its shipped defaults, fed once,
    then closed-loop ``/score`` lookups over nproc connections.
``serve_feed``
    The same cluster, starting empty, fed crawl pages over nproc
    closed-loop connections with an interleaved ``/score``.  Its traced
    run also times an offline audit (``cats train``, ``cats analyze``,
    ``cats detect --store``) on a seeded D1, so the training, columnar
    and bulk-inference layers are traced too.

``--trace 0`` prints the end-to-end metrics, the same five on every
workload; ``--trace 1`` prints every per-layer metric, with 0 for a
layer the workload does not call.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed correctness gate prints ``correct: false`` with
no metrics and exits 1.  The run needs the repo's ``src/`` tree beside
this directory; without it the command exits 2.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("serve_read", "serve_feed")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_units(spec: dict, trace: bool) -> dict[str, str]:
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in spec[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input preset; tiny is for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no source tree at {SRC}: nothing to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import inputs
    from common import WORK_DIR, GateError, host_stamp, n_cpus

    spec = benchmark_spec()
    units = metric_units(spec, bool(args.trace))
    size = inputs.SIZES[args.size]
    tmp_root = WORK_DIR / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    started = time.perf_counter()
    try:
        import serve

        metrics, attempted, failed, info = serve.run(
            args.workload, args.seed, args.seconds, bool(args.trace), size, work
        )
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        if args.trace:
            traces = WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}"
            shutil.rmtree(traces, ignore_errors=True)
            traces.mkdir(parents=True, exist_ok=True)
            for path in work.rglob("spans-*"):
                shutil.move(str(path), traces / path.name)
        shutil.rmtree(work, ignore_errors=True)

    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    if args.trace:
        # A layer this workload never calls spent no time and did no work.
        metrics = {name: metrics.get(name, 0.0) for name in units}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"{args.workload} measured no {missing}")
    result = {
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    info["host"] = host_stamp(n_cpus(), n_cpus())
    info["wall_s"] = time.perf_counter() - started
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
