"""The offline-audit probe: train, then audit D1 batches offline.

Traced ``serve_feed`` runs call :func:`probe` after their load, so the
layers only the offline path uses (training, the columnar store, bulk
detection) are traced too.  It is not a workload of its own: it is
CPU-bound from end to end, and on a shared host its wall times swing
by more than any bound the benchmark could hold.

The parent process builds every input from the seed, writes them to
a work directory, and starts the system under test
(:mod:`batch_sut`) as child processes -- first the training job (three
times, the median job's spans count), then the audit loop.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
from common import GateError, median

SUT = Path(__file__).resolve().parent / "batch_sut.py"

#: Hard limit on one system-under-test process.
CHILD_TIMEOUT_S = 170.0

#: Training jobs per probe; the median job's spans count.
TRAIN_REPEATS = 3

#: Seconds of one probe (training, then audits; every batch is
#: audited at least once whatever the budget).
PROBE_SECONDS = 15.0

#: The gate's floor on the D1 report's F1.  Over 20 seeds the seed
#: code's F1 ranged 0.56-0.97, so the floor catches a broken detector,
#: not an unlucky seed.
F1_FLOOR = 0.3


def _child(role: str, work: Path, seconds: float) -> dict:
    command = [
        sys.executable,
        str(SUT),
        role,
        str(work),
        "--seconds",
        f"{seconds:.3f}",
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"batch {role} process failed ({done.returncode}):\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def generate(seed: int, size: inputs.Size, work: Path) -> dict:
    """Write every input of one run under *work*; returns a summary.

    D1 is ``size.audit_d1_slices`` independent platform slices: one
    slice's F1 swings with which few fraud campaigns it happens to hold,
    so the report covers all of them.  Each slice is cut into audit
    batches of about ``size.audit_comments`` comments, so a run holds
    enough audits for a tail latency.
    """
    lang = inputs.language()
    data = inputs.training_inputs(seed, size, lang)
    data["config"] = inputs.cats_config()
    with open(work / "train_inputs.pkl", "wb") as fh:
        pickle.dump(data, fh, protocol=pickle.HIGHEST_PROTOCOL)
    rng = np.random.default_rng([seed, 2])
    labels: dict[str, int] = {}
    gate: list[list[int]] = []
    n_comments = 0
    for k in range(size.audit_d1_slices):
        platform = inputs.d1_platform(
            int(rng.integers(0, 2**31)), size.audit_d1_scale, lang, id_offset=k * 10**9
        )
        labels.update({str(i.item_id): int(i.is_fraud) for i in platform.items})
        items, comments = inputs.crawl_records(platform)
        for batch_items, batch_comments in inputs.audit_batches(
            items, comments, size.audit_comments
        ):
            with open(work / f"d1-{len(gate)}.pkl", "wb") as fh:
                pickle.dump((batch_items, batch_comments), fh, protocol=pickle.HIGHEST_PROTOCOL)
            picks = rng.choice(
                len(batch_items), size=min(size.gate_items, len(batch_items)), replace=False
            )
            gate.append([batch_items[int(i)].item_id for i in sorted(picks)])
        n_comments += len(comments)
    (work / "labels.json").write_text(json.dumps(labels), encoding="utf-8")
    (work / "gate_items.json").write_text(json.dumps(gate), encoding="utf-8")
    return {
        "d1_items": len(labels),
        "d1_fraud": sum(labels.values()),
        "d1_comments": n_comments,
        "audit_batches": len(gate),
    }


def check_audit(audited: dict, f1_floor: float) -> float:
    """The offline-audit gates; returns the D1 report's F1."""
    if not audited["deterministic"]:
        raise GateError("repeated audits of one D1 batch gave different probabilities")
    if not audited["gate_rows_equal"]:
        raise GateError("rehydrated feature rows differ from cats.extract_features")
    if audited["f1"] < f1_floor:
        raise GateError(f"detect_f1 {audited['f1']:.4f} is below the floor {f1_floor}")
    return audited["f1"]


def probe(seed: int, size: inputs.Size, work: Path, seconds: float = PROBE_SECONDS):
    """Train and audit with spans; returns ``(layers, attempted, info)``."""
    summary = generate(seed, size, work)
    start = time.perf_counter()
    jobs = [_child("train", work, 0.0) for _ in range(TRAIN_REPEATS)]
    remaining = max(0.0, seconds - (time.perf_counter() - start))
    audited = _child("audit", work, remaining)
    if len({job["content_hash"] for job in jobs}) != 1:
        raise GateError("identical training jobs wrote different archives")
    trained = sorted(jobs, key=lambda job: job["train_s"])[TRAIN_REPEATS // 2]
    cycles = audited["cycles"]
    f1 = check_audit(audited, F1_FLOOR)

    # The first cycles warm the process up; they feed the gates but no
    # metric.  Measured cycles alternate untraced and traced.
    measured = [c for c in cycles if not c["warmup"]]
    traced = [c for c in measured if c["traced"]]
    untraced = [c for c in measured if not c["traced"]]
    layers: dict[str, float] = dict(trained["layers"])
    names = {name for c in traced for name in c["layers"]}
    for name in sorted(names):
        layers[name] = median(c["layers"].get(name, 0.0) for c in traced)
    for name in traced[0]["counts"]:
        layers[name] = median(c["counts"][name] for c in traced)
    layers["bench.batch.unaccounted_s"] = median(
        c["wall_s"] - c["root_s"] for c in traced
    )
    info = dict(
        summary,
        detect_f1=f1,
        train_s=[round(job["train_s"], 3) for job in jobs],
        load_s=median(audited["load_s"]),
        comments_per_s=sum(c["n_comments"] for c in untraced)
        / sum(c["wall_s"] for c in untraced),
        traced_comments_per_s=sum(c["n_comments"] for c in traced)
        / sum(c["wall_s"] for c in traced),
        cycles=len(cycles),
    )
    return layers, TRAIN_REPEATS + len(cycles), info
