"""The benchmark's own tests.

Run from the repo root:

    python3 -m pytest perfbench/tests -q

Each workload runs once per mode at the tiny input size, and every
metric the benchmark defines must come out with its unit.  The gate
tests perturb one reference value at a time and expect the gate to
fire.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import batch  # noqa: E402
import inputs  # noqa: E402
import run as bench_run  # noqa: E402
import serve  # noqa: E402
from common import WORK_DIR, GateError  # noqa: E402
from repro.core.streaming import Alert  # noqa: E402

#: Every workload prints the same end-to-end metrics.
E2E = {"setup_s", "rss_mib", "throughput_per_s", "latency_p50_ms", "latency_p99_ms"}

HARNESS = {"bench.generator.threads", "bench.generator.connections", "bench.tracing_overhead_pct"}

#: Layers the serve workloads read from ``/stats`` or replay in process.
SERVE_COMMON = {
    "text.segment_s",
    "core.interning.encode_s",
    "semantics.sentiment_s",
    "core.features.stats_s",
    "core.features.comment_stats_many_s",
    "ml.inference.predict_proba_s",
    "text.segmentations",
    "core.interning.vocab_size",
    "core.analysis_cache.hit_rate",
    "core.analysis_cache.evictions",
    "serving.batching.batch_latency_p50_ms",
    "serving.batching.mean_batch_size",
    "serving.batching.rejected",
    "serving.batching.queue_high_water",
    "serving.checkpoint.written",
    "serving.checkpoint.failures",
}

#: Layers only the offline-audit probe of a traced ``serve_feed`` run
#: calls.
AUDIT_PROBE = {
    "core.columnar.append_s",
    "core.columnar.save_s",
    "core.columnar.load_s",
    "core.columnar.feature_matrix_s",
    "core.columnar.arena_mib",
    "core.columnar.tokens",
    "core.detector.detect_s",
    "bench.batch.unaccounted_s",
    "text.segment_corpus_s",
    "semantics.word2vec.fit_s",
    "semantics.lexicon.expand_s",
    "semantics.sentiment.fit_s",
    "core.features.extract_items_s",
    "ml.gbdt.fit_s",
    "bench.train.unaccounted_s",
}

#: The per-layer metrics each workload measures; a traced run prints
#: every per-layer metric, with 0 for the others.
LAYERS = {
    "serve_read": HARNESS
    | SERVE_COMMON
    | {
        "serving.httpd.healthz_p50_ms",
        "serving.shard.score_p50_ms",
        "serving.shard.score_p99_ms",
        "serving.cluster.router_p50_ms",
        "serving.service.score_p50_ms",
        "core.streaming.force_rescore_many_p50_ms",
        "ml.inference.predict_proba_1row_p50_ms",
        "mlops.drift.observe_p50_ms",
    },
    "serve_feed": HARNESS
    | SERVE_COMMON
    | AUDIT_PROBE
    | {
        "serving.shard.ingest_p50_ms",
        "serving.shard.ingest_p99_ms",
        "serving.cluster.router_ingest_p50_ms",
        "collector.records.parse_p50_ms",
        "core.streaming.observe_many_p50_ms",
        "core.streaming.observe_many_p99_ms",
        "serving.checkpoint.save_p50_ms",
        "core.streaming.export_state_p50_ms",
    },
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", "3", "--seconds", "5",
            "--trace", str(trace), "--size", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_names_every_metric_once():
    spec = bench_run.benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    assert len(e2e) == len(set(e2e)) and len(layers) == len(set(layers))
    assert set(e2e) == E2E
    assert set(layers) == set().union(*LAYERS.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = bench_run.metric_units(bench_run.benchmark_spec(), bool(trace))
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)
        if not trace:
            assert metric["value"] > 0, name
        elif name not in LAYERS[workload]:
            assert metric["value"] == 0.0, name
    info = json.loads(done.stdout.strip().splitlines()[-2])
    assert info["host"]["n_cpus"] >= 1
    assert info["host"]["generator_connections"] <= info["host"]["n_cpus"]


def test_without_source_tree_exits_nonzero():
    # A directory holding only BENCHMARK.json and perfbench/ (kept under
    # the checkout's own scratch space).
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK_DIR / "tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _run("serve_read", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- gates ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def fed():
    """A tiny feed replayed in process; ops carry the reference replies,
    as a correct cluster would have sent them."""
    model_dir = serve.serve_model(inputs.TINY)
    cats = serve.load_cats(model_dir)
    schedules = serve._feed_inputs(5, inputs.TINY, 1)
    ops = schedules[0][:60]
    for op in ops:
        op.status = 200
    detector, expected = serve.replay(cats, ops)
    for op, want in zip(ops, expected):
        if op.kind == "score":
            op.payload = {"probabilities": {str(op.item_id): want}}
        else:
            op.payload = dict(want, sales_updates=1)
    alerts = [dataclasses.asdict(a) for a in detector.alerts]
    assert any(op.kind == "score" for op in ops)
    return cats, ops, alerts


def test_feed_gate_passes_on_reference_replies(fed):
    cats, ops, alerts = fed
    serve.gate(cats, ops, alerts)


def test_gate_fires_on_perturbed_probability(fed):
    cats, ops, alerts = fed
    op = next(op for op in ops if op.kind == "score")
    key = str(op.item_id)
    good = op.payload["probabilities"][key]
    op.payload["probabilities"][key] = good + 1e-12
    try:
        with pytest.raises(GateError):
            serve.gate(cats, ops, alerts)
    finally:
        op.payload["probabilities"][key] = good


def test_gate_fires_on_perturbed_ack(fed):
    cats, ops, alerts = fed
    op = next(op for op in ops if op.kind == "ingest")
    op.payload["duplicates"] += 1
    try:
        with pytest.raises(GateError):
            serve.gate(cats, ops, alerts)
    finally:
        op.payload["duplicates"] -= 1


def test_alert_gate_fires_on_perturbed_alert(fed):
    cats, ops, alerts = fed
    reference = [dict(alert) for alert in alerts]
    reference.append(
        {"item_id": 1, "fraud_probability": 0.99, "n_comments": 5, "triggered_by_comment_id": 2}
    )
    with pytest.raises(GateError):
        serve.check_alerts(alerts, [Alert(**a) for a in reference], set())
    if alerts:
        moved = [dict(alerts[0], fraud_probability=alerts[0]["fraud_probability"] / 2)]
        with pytest.raises(GateError):
            serve.check_alerts(moved + alerts[1:], [Alert(**a) for a in alerts], set())


def test_batch_gates():
    audit = {"f1": 0.9, "deterministic": True, "gate_rows_equal": True}
    assert batch.check_audit(audit, 0.5) == 0.9
    with pytest.raises(GateError):
        batch.check_audit(audit, 0.95)
    with pytest.raises(GateError):
        batch.check_audit(dict(audit, gate_rows_equal=False), 0.5)
    with pytest.raises(GateError):
        batch.check_audit(dict(audit, deterministic=False), 0.5)
