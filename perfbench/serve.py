"""The ``serve_read`` and ``serve_feed`` workloads.

Both run ``cats serve --shards <nproc>`` with every tuning flag at its
shipped default, in its own process tree, and drive it from this
process (the generator) over nproc closed-loop keep-alive connections:
callers wait for each reply (an auditor for a score, a crawler for an
ingest ack) before sending the next request.

A traced ``serve_feed`` run also runs the offline-audit probe
(:mod:`batch`), which traces the training, columnar and bulk-detection
layers that serving never calls.

Every item's operations travel in order on one connection, so the
cluster's state is a deterministic function of the operations it
acknowledged.  After the load, an in-process ``StreamingDetector`` with
the same policy replays exactly those operations; every probability
returned over HTTP and the merged alert list must equal its results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections.abc import Iterable, Iterator
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import batch
import inputs
from common import (
    REQUEST_TIMEOUT_S,
    WORK_DIR,
    Client,
    GateError,
    Tracer,
    child_pids,
    median,
    n_cpus,
    percentile,
    process_peak_rss_mib,
)
from repro.core.persistence import load_cats
from repro.core.streaming import StreamingDetector, shard_of
from repro.serving.httpd import parse_comment_row

#: ``cats serve`` defaults the reference replay must share.
RESCORE_GROWTH = 1.25
MIN_COMMENTS = 3

#: In ``serve_feed`` every k-th page on a connection is followed by a
#: ``/score`` of the item just fed.
SCORE_EVERY = 32

#: A failed request counts with this latency (it misses any limit).
FAILED_LATENCY_MS = REQUEST_TIMEOUT_S * 1000.0

#: Seconds allowed for the cluster to announce itself.
READY_TIMEOUT_S = 120.0

#: Repetitions of each in-process layer probe (traced runs only).
PROBE_REPEATS = 400


# -- the serve model ---------------------------------------------------------


def _source_key(size: inputs.Size) -> str:
    """Hash of the program's source and the inputs that shape the model."""
    digest = hashlib.sha256(repr(size).encode())
    root = Path(inputs.__file__).resolve().parent.parent
    files = sorted((root / "src" / "repro").rglob("*.py"))
    files += [Path(inputs.__file__).resolve(), Path(__file__).with_name("batch_sut.py")]
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def serve_model(size: inputs.Size) -> Path:
    """The archive the clusters serve: trained once per source tree.

    The serve workloads vary their traffic by seed, not the model, so
    the archive (with its drift reference, as ``cats train`` writes it)
    is cached under ``.perfbench/`` keyed by a hash of the source.
    """
    from batch_sut import train_archive

    model_dir = WORK_DIR / "cache" / f"serve-model-{_source_key(size)}"
    if (model_dir / "manifest.json").is_file():
        return model_dir
    lang = inputs.language()
    data = inputs.training_inputs(inputs.SERVE_MODEL_SEED, size, lang)
    data["config"] = inputs.cats_config()
    staging = model_dir.with_name(model_dir.name + f".tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    train_archive(data, staging)
    try:
        os.rename(staging, model_dir)
    except OSError:
        # Another run published the same archive first.
        if not (model_dir / "manifest.json").is_file():
            raise
        shutil.rmtree(staging)
    return model_dir


# -- the cluster ---------------------------------------------------------------


class Cluster:
    """``cats serve --shards N`` in its own session (process group)."""

    def __init__(self, model_dir: Path, checkpoint_dir: Path, n_shards: int) -> None:
        self.command = [
            sys.executable, "-m", "repro.cli", "serve", str(model_dir),
            "--shards", str(n_shards),
            "--port", "0",
            "--checkpoint-dir", str(checkpoint_dir),
        ]
        self.n_shards = n_shards
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.shard_ports: list[int] = []
        self._stderr_tail: list[str] = []

    def start(self) -> float:
        """Spawn and wait until the router announces; returns seconds."""
        src = str(Path(inputs.__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        lines: queue.Queue = queue.Queue()
        for stream, tag in ((self.proc.stdout, "out"), (self.proc.stderr, "err")):
            threading.Thread(
                target=self._pump, args=(stream, tag, lines), daemon=True
            ).start()
        announced = False
        while not (announced and self.shard_ports):
            try:
                tag, line = lines.get(timeout=READY_TIMEOUT_S)
            except queue.Empty:
                raise RuntimeError("cluster did not announce itself") from None
            if tag == "eof":
                raise RuntimeError(
                    "cluster exited before serving:\n" + "".join(self._stderr_tail)
                )
            if tag == "out" and line.startswith("{"):
                self.port = int(json.loads(line)["port"])
                announced = True
                if self.n_shards == 1:
                    # ``--shards 1`` serves in one process: it is the shard.
                    self.shard_ports = [self.port]
            elif tag == "err" and "cluster router on" in line:
                self.shard_ports = [
                    int(port) for _, port in re.findall(r"#(\d+):(\d+)", line)
                ]
        return time.perf_counter() - start

    def _pump(self, stream, tag: str, lines: queue.Queue) -> None:
        for line in stream:
            if tag == "err":
                self._stderr_tail = (self._stderr_tail + [line])[-20:]
            lines.put((tag, line))
        lines.put(("eof", ""))

    def peak_rss_mib(self) -> float:
        """Peak RSS summed over the router and its shard processes."""
        pids = [self.proc.pid] + child_pids(self.proc.pid)
        return sum(process_peak_rss_mib(pid) for pid in pids)

    def stop(self) -> None:
        """Kill the router and its shards and wait until all have ended.

        Everything the benchmark reads is read before this, so there is
        nothing to drain: a graceful stop would only add its final
        checkpoint to the run's wall time.
        """
        if self.proc is None:
            return
        pids = [self.proc.pid] + child_pids(self.proc.pid)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)
        deadline = time.monotonic() + 30
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.01)
        self.proc = None


def _alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2] != "Z"


# -- load generation -----------------------------------------------------------


@dataclasses.dataclass
class Op:
    """One request of a connection's schedule and, once sent, its outcome."""

    kind: str  # "ingest" | "score"
    item_id: int
    page: dict | None = None
    route: str = "router"  # "router" | "direct"
    phase: str = "main"
    status: int = -1  # HTTP status once sent; 0 = transport failure
    latency_ms: float = 0.0
    payload: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200


def run_schedule(
    ops: Iterable[Op],
    cluster: Cluster,
    deadline: float,
    sent: list[Op],
    tracer: Tracer | None = None,
    phase_of=None,
    alternate: bool = False,
) -> None:
    """Send *ops* in order on one connection per route until *deadline*
    (or until *ops* runs out), appending each sent op to *sent*.

    With *alternate*, items whose first op falls in the traced phase
    alternate between the router and a direct connection to the owning
    shard; earlier items stay on the router.
    """
    n_shards = len(cluster.shard_ports)
    clients: dict[int, Client] = {}
    routes: dict[int, str] = {}
    n_traced_items = 0

    def client_for(op: Op) -> Client:
        port = cluster.port
        if op.route == "direct":
            port = cluster.shard_ports[shard_of(op.item_id, n_shards)]
        if port not in clients:
            clients[port] = Client(port)
        return clients[port]

    try:
        for op in ops:
            now = time.perf_counter()
            if now >= deadline:
                break
            if phase_of is not None:
                op.phase = phase_of(now)
            if alternate:
                if op.item_id not in routes:
                    route = "router"
                    if op.phase == "traced":
                        route = ("router", "direct")[n_traced_items % 2]
                        n_traced_items += 1
                    routes[op.item_id] = route
                op.route = routes[op.item_id]
            if op.kind == "ingest":
                path, body = "/ingest", op.page
            else:
                path, body = "/score", {"item_ids": [op.item_id]}
            start = time.perf_counter()
            op.status, op.payload = client_for(op).request("POST", path, body)
            end = time.perf_counter()
            op.latency_ms = (end - start) * 1000.0 if op.ok else FAILED_LATENCY_MS
            sent.append(op)
            if tracer is not None and op.phase == "traced":
                tracer.record(f"{op.route}.{op.kind}", start, end, request_id=id(op))
    finally:
        for client in clients.values():
            client.close()


def run_connections(
    schedules: list[Iterable[Op]], cluster: Cluster, deadline: float, **kw
) -> tuple[float, list[Op]]:
    """One thread per connection schedule.

    Returns the wall seconds and the sent ops, connection by connection
    (so each item's ops stay in the order they were sent).
    """
    sent: list[list[Op]] = [[] for _ in schedules]
    threads = [
        threading.Thread(
            target=run_schedule, args=(ops, cluster, deadline, done), kwargs=kw
        )
        for ops, done in zip(schedules, sent)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, [op for done in sent for op in done]


def get_json(port: int, path: str) -> dict:
    client = Client(port)
    try:
        status, payload = client.request("GET", path)
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return payload


# -- the reference replay and the gates ----------------------------------------


def replay(cats, sent: list[Op], timings: dict | None = None):
    """Feed an in-process ``StreamingDetector`` the acknowledged ops.

    Returns ``(detector, expected)`` where ``expected[i]`` is the
    reference outcome of ``sent[i]``.  With *timings*, per-page
    ``observe_many`` wall times (ms) are collected under ``"observe"``.
    """
    detector = StreamingDetector(
        cats, rescore_growth=RESCORE_GROWTH, min_comments_to_score=MIN_COMMENTS
    )
    expected: list = []
    for op in sent:
        if not op.ok:
            expected.append(None)
            continue
        if op.kind == "ingest":
            records = [parse_comment_row(row) for row in op.page["comments"]]
            for item_id, volume in op.page["sales"]:
                detector.update_sales(int(item_id), int(volume))
            before = detector.n_duplicates
            start = time.perf_counter()
            alerts = detector.observe_many(records)
            if timings is not None:
                timings.setdefault("observe", []).append(
                    (time.perf_counter() - start) * 1000.0
                )
            duplicates = detector.n_duplicates - before
            expected.append(
                {
                    "accepted": len(records) - duplicates,
                    "duplicates": duplicates,
                    "alerts": [dataclasses.asdict(a) for a in alerts],
                }
            )
        else:
            expected.append(detector.force_rescore_many([op.item_id])[op.item_id])
    return detector, expected


def check_outcomes(sent: list[Op], expected: list) -> None:
    """Every acknowledged reply must equal the reference outcome."""
    for op, want in zip(sent, expected):
        if not op.ok:
            continue
        if op.kind == "score":
            got = op.payload["probabilities"][str(op.item_id)]
            if got != want:
                raise GateError(
                    f"/score of item {op.item_id} returned {got!r}, "
                    f"the reference detector gives {want!r}"
                )
        else:
            got = {key: op.payload[key] for key in ("accepted", "duplicates", "alerts")}
            if got != want:
                raise GateError(
                    f"/ingest ack for item {op.item_id} was {got!r}, "
                    f"the reference detector gives {want!r}"
                )


def alert_keys(alerts) -> list[tuple]:
    """(item id, trigger comment id, probability), sorted."""
    rows = [
        a if isinstance(a, dict) else dataclasses.asdict(a) for a in alerts
    ]
    return sorted(
        (int(r["item_id"]), int(r["triggered_by_comment_id"]), float(r["fraud_probability"]))
        for r in rows
    )


def check_alerts(served: list[dict], reference, skip_items: set[int]) -> None:
    """The merged ``/alerts`` list must equal the reference's alerts."""
    got = [key for key in alert_keys(served) if key[0] not in skip_items]
    want = [key for key in alert_keys(reference) if key[0] not in skip_items]
    if got != want:
        raise GateError(
            f"/alerts differs from the reference: served {len(got)}, "
            f"reference {len(want)}; first differences "
            f"{sorted(set(got) ^ set(want))[:3]}"
        )


def uncertain_items(sent: list[Op]) -> set[int]:
    """Items with a transport failure: the server may or may not have
    applied the request, so the gate cannot replay them."""
    return {op.item_id for op in sent if op.status == 0}


def gate(cats, sent: list[Op], alerts: list[dict], timings=None):
    """Replay, then check replies and alerts; returns the detector."""
    skip = uncertain_items(sent)
    kept = [op for op in sent if op.item_id not in skip]
    detector, expected = replay(cats, kept, timings)
    check_outcomes(kept, expected)
    check_alerts(alerts, detector.alerts, skip)
    return detector


# -- workloads -------------------------------------------------------------------


def _latencies(ops: list[Op], kind: str, **match) -> list[float]:
    return [
        op.latency_ms
        for op in ops
        if op.kind == kind and all(getattr(op, k) == v for k, v in match.items())
    ]


def _probe_ms(tracer: Tracer, name: str, fn, repeats: int = PROBE_REPEATS) -> float:
    """Median wall time (ms) of *fn*, each call recorded as a span."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        tracer.call(name, fn)
        samples.append((time.perf_counter() - start) * 1000.0)
    return median(samples)


def _phase_counts(sent: list[Op]) -> list[int]:
    """``[attempted, succeeded, failed]`` of the *sent* ops."""
    ok = sum(op.ok for op in sent)
    return [len(sent), ok, len(sent) - ok]


def _read_inputs(seed: int, size: inputs.Size, n_conn: int):
    lang = inputs.language()
    platform = inputs.d1_platform(seed, size.read_d1_scale, lang)
    rng = np.random.default_rng([seed, 3])
    candidates = [item for item in platform.items if len(item.comments) >= MIN_COMMENTS]
    picks = rng.choice(len(candidates), size=min(size.read_items, len(candidates)), replace=False)
    tracked = [candidates[int(i)] for i in sorted(picks)]
    setup = [[] for _ in range(n_conn)]
    for index, item in enumerate(tracked):
        ops = setup[index % n_conn]
        ops += [Op("ingest", item.item_id, page) for page in inputs.item_pages(platform, item, rng)]
    for index, item in enumerate(tracked):
        setup[index % n_conn].append(Op("score", item.item_id))
    return [item.item_id for item in tracked], setup


def _lookups(seed: int, conn: int, tracked: list[int], **kw) -> Iterator[Op]:
    """Endless seeded ``/score`` lookups of tracked items."""
    rng = np.random.default_rng([seed, 4, conn])
    while True:
        for i in rng.integers(len(tracked), size=256):
            yield Op("score", tracked[int(i)], **kw)


def serve_read(seed, seconds, trace, size, work, cluster, model_dir):
    n_conn = n_cpus()
    tracked, setup_ops = _read_inputs(seed, size, n_conn)

    setup_s = cluster.start()
    setup_wall, setup_sent = run_connections(setup_ops, cluster, float("inf"))
    setup_s += setup_wall
    if not all(op.ok for op in setup_sent):
        raise RuntimeError("pre-ingest failed; the cluster is not serving")

    tracer = Tracer() if trace else None
    load = [_lookups(seed, c, tracked) for c in range(n_conn)]
    direct: list[Op] = []
    healthz: list[tuple[int, float]] = []
    if not trace:
        wall, measured = run_connections(load, cluster, time.perf_counter() + seconds)
    else:
        t0 = time.perf_counter()
        split = t0 + 0.4 * seconds
        wall, measured = run_connections(
            load, cluster, t0 + 0.7 * seconds, tracer=tracer,
            phase_of=lambda now: "main" if now < split else "traced",
        )
        direct_load = [
            _lookups(seed + 1, c, tracked, route="direct", phase="traced")
            for c in range(n_conn)
        ]
        _, direct = run_connections(direct_load, cluster, t0 + 0.9 * seconds, tracer=tracer)
        healthz = _healthz_loop(cluster.shard_ports[0], t0 + seconds, tracer)
    stats = get_json(cluster.port, "/stats")
    alerts = get_json(cluster.port, "/alerts")["alerts"]
    rss = cluster.peak_rss_mib()
    cluster.stop()

    cats = load_cats(model_dir)
    main = [op for op in measured if op.phase == "main"]
    detector = gate(cats, setup_sent + measured + direct, alerts)
    n_healthy = sum(status == 200 for status, _ in healthz)
    phases = {
        "setup": _phase_counts(setup_sent),
        "lookups": _phase_counts(measured),
        "direct": _phase_counts(direct),
        "healthz": [len(healthz), n_healthy, len(healthz) - n_healthy],
    }
    attempted = sum(p[0] for p in phases.values())
    failed = sum(p[2] for p in phases.values())
    info = {"tracked_items": len(tracked), "phases": phases}
    if not trace:
        latencies = _latencies(main, "score")
        return {
            "setup_s": setup_s,
            "rss_mib": rss,
            "throughput_per_s": sum(op.ok for op in main) / wall,
            "latency_p50_ms": percentile(latencies, 0.50),
            "latency_p99_ms": percentile(latencies, 0.99),
        }, attempted, failed, info

    routed = _latencies(measured, "score", phase="traced")
    direct_ms = _latencies(direct, "score")
    layers = _stats_layers(stats)
    layers.update(_analysis_layers(model_dir, tracer, setup_sent + measured + direct))
    layers.update(
        {
            "serving.httpd.healthz_p50_ms": percentile([ms for _, ms in healthz], 0.5),
            "serving.shard.score_p50_ms": percentile(direct_ms, 0.5),
            "serving.shard.score_p99_ms": percentile(direct_ms, 0.99),
            "serving.cluster.router_p50_ms": percentile(routed, 0.5)
            - percentile(direct_ms, 0.5),
            "serving.service.score_p50_ms": _service_score_p50(
                cats, setup_sent, tracked, n_conn
            ),
        }
    )
    from repro.mlops import DriftMonitor, ReferenceHistogram

    row = cats.extract_features([_item_texts(setup_sent, tracked[0])])
    monitor = DriftMonitor(ReferenceHistogram.load(model_dir))
    probes = (
        ("core.streaming.force_rescore_many_p50_ms",
         lambda: detector.force_rescore_many([tracked[0]])),
        ("ml.inference.predict_proba_1row_p50_ms",
         lambda: cats.detector.predict_proba(row)),
        ("mlops.drift.observe_p50_ms", lambda: monitor.observe_matrix(row)),
    )
    for name, fn in probes:
        layers[name] = _probe_ms(tracer, name, fn)
    untraced = percentile(_latencies(main, "score"), 0.5)
    layers["bench.tracing_overhead_pct"] = 100.0 * (percentile(routed, 0.5) / untraced - 1.0)
    tracer.dump(work / "spans-serve.jsonl")
    return layers, attempted, failed, info


def _stats_layers(stats: dict) -> dict[str, float]:
    """Per-layer counters the cluster reports on ``/stats``."""
    # A one-shard serve is a single process whose /stats has no list.
    shards = stats.get("shards", [stats])
    batching = [s for s in shards if "batch_latency_p50_ms" in s]
    hits = stats.get("analysis_cache_hits", 0)
    misses = stats.get("analysis_cache_misses", 0)
    return {
        "serving.batching.batch_latency_p50_ms": median(
            s["batch_latency_p50_ms"] for s in batching
        ),
        "serving.batching.mean_batch_size": median(s["mean_batch_size"] for s in batching),
        "serving.batching.rejected": stats.get("rejected", 0),
        "serving.batching.queue_high_water": max(s.get("queue_high_water", 0) for s in shards),
        "serving.checkpoint.written": stats.get("checkpoints_written", 0),
        "serving.checkpoint.failures": stats.get("checkpoint_failures", 0),
        "core.analysis_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "core.analysis_cache.evictions": sum(
            s.get("analysis_cache_evictions", 0) for s in shards
        ),
    }


def _analysis_layers(model_dir: Path, tracer: Tracer, sent: list[Op]) -> dict[str, float]:
    """Analysis and inference seconds of the run's acknowledged ops.

    The shards analyze in their own processes, so the same ops are
    replayed once more in process, on a freshly loaded system (cold
    analysis cache), with the offline audit's analysis spans installed.
    """
    from batch_sut import ANALYSIS_SPANS, install

    skip = uncertain_items(sent)
    cats = load_cats(model_dir)
    segmentations = cats.analyzer.n_segmentations
    first = tracer.mark()
    install(tracer, ANALYSIS_SPANS)
    try:
        replay(cats, [op for op in sent if op.item_id not in skip])
    finally:
        tracer.unwrap_all()
    layers = tracer.totals(first)
    layers["text.segmentations"] = cats.analyzer.n_segmentations - segmentations
    layers["core.interning.vocab_size"] = len(cats.analyzer.interner)
    return layers


def _healthz_loop(port: int, end: float, tracer: Tracer) -> list[tuple[int, float]]:
    """Closed-loop ``GET /healthz`` on one shard: HTTP transport alone."""
    samples = []
    client = Client(port)
    try:
        while time.perf_counter() < end:
            start = time.perf_counter()
            status, _ = client.request("GET", "/healthz")
            stop = time.perf_counter()
            tracer.record("direct.healthz", start, stop)
            ms = (stop - start) * 1000.0 if status == 200 else FAILED_LATENCY_MS
            samples.append((status, ms))
    finally:
        client.close()
    return samples


def _item_texts(sent: list[Op], item_id: int) -> SimpleNamespace:
    """An item's distinct fed comments, in the shape ``extract_features``
    takes."""
    rows: dict[str, str] = {}
    for op in sent:
        if op.item_id == item_id and op.kind == "ingest":
            for row in op.page["comments"]:
                rows.setdefault(row["comment_id"], row["comment_content"])
    return SimpleNamespace(comment_texts=list(rows.values()))


def _service_score_p50(cats, setup_sent, tracked, n_conn) -> float:
    """``/score`` without HTTP: an in-process ``DetectionService`` with
    the shipped flags, fed the same pages, scored from nproc threads."""
    from repro.serving import DetectionService

    service = DetectionService(
        cats,
        rescore_growth=RESCORE_GROWTH,
        min_comments_to_score=MIN_COMMENTS,
        max_batch=32,
        max_delay_ms=25.0,
        queue_depth=512,
    ).start()
    try:
        for op in setup_sent:
            if op.kind == "ingest":
                records = [parse_comment_row(row) for row in op.page["comments"]]
                sales = [tuple(map(int, s)) for s in op.page["sales"]]
                service.feed(records, sales, timeout=30)
            else:
                service.score([op.item_id], timeout=30)
        samples: list[list[float]] = [[] for _ in range(n_conn)]

        def worker(k: int) -> None:
            for op in itertools.islice(_lookups(k, k, tracked), 60):
                start = time.perf_counter()
                service.score([op.item_id], timeout=30)
                samples[k].append((time.perf_counter() - start) * 1000.0)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_conn)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        service.stop(drain=True)
    return percentile([s for part in samples for s in part], 0.5)


def _feed_inputs(seed: int, size: inputs.Size, n_conn: int) -> list[list[Op]]:
    lang = inputs.language()
    platform = inputs.d1_platform(seed, size.serve_d1_scale, lang)
    rng = np.random.default_rng([seed, 5])
    items = [item for item in platform.items if item.comments]
    order = rng.permutation(len(items))
    schedules: list[list[Op]] = [[] for _ in range(n_conn)]
    pages_on = [0] * n_conn
    for position, index in enumerate(order):
        item = items[int(index)]
        conn = position % n_conn
        for page in inputs.item_pages(platform, item, rng):
            schedules[conn].append(Op("ingest", item.item_id, page))
            pages_on[conn] += 1
            if pages_on[conn] % SCORE_EVERY == 0:
                schedules[conn].append(Op("score", item.item_id))
    return schedules


def serve_feed(seed, seconds, trace, size, work, cluster, model_dir):
    n_conn = n_cpus()
    schedules = _feed_inputs(seed, size, n_conn)
    tracer = Tracer() if trace else None
    setup_s = cluster.start()
    t0 = time.perf_counter()
    split = t0 + 0.5 * seconds

    def phase_of(now: float) -> str:
        return "main" if not trace or now < split else "traced"

    # Traced runs: first half untraced on the router; in the second
    # half new items alternate between the router and the owning shard.
    wall, sent = run_connections(
        schedules, cluster, t0 + seconds, tracer=tracer, phase_of=phase_of,
        alternate=trace,
    )
    stats = get_json(cluster.port, "/stats")
    alerts = get_json(cluster.port, "/alerts")["alerts"]
    rss = cluster.peak_rss_mib()
    cluster.stop()

    cats = load_cats(model_dir)
    timings: dict = {}
    detector = gate(cats, sent, alerts, timings if trace else None)
    phases = {
        kind: _phase_counts([op for op in sent if op.kind == kind])
        for kind in ("ingest", "score")
    }
    failed = sum(p[2] for p in phases.values())
    info = {"phases": phases}
    if not trace:
        ingest = _latencies(sent, "ingest")
        scores = _latencies(sent, "score")
        comments = sum(len(op.page["comments"]) for op in sent if op.kind == "ingest" and op.ok)
        info["score_p50_ms"] = percentile(scores, 0.50)
        return {
            "setup_s": setup_s,
            "rss_mib": rss,
            "throughput_per_s": comments / wall,
            "latency_p50_ms": percentile(ingest, 0.50),
            "latency_p99_ms": percentile(ingest, 0.99),
        }, len(sent), failed, info

    direct = _latencies(sent, "ingest", route="direct", phase="traced")
    routed = _latencies(sent, "ingest", route="router", phase="traced")
    untraced = _latencies(sent, "ingest", phase="main")
    parse_ms = [
        _probe_ms(
            tracer,
            "collector.records.parse",
            lambda op=op: [parse_comment_row(row) for row in op.page["comments"]],
            repeats=1,
        )
        for op in sent
        if op.kind == "ingest"
    ]
    from repro.serving.checkpoint import CheckpointManager

    # Snapshot cost at the state size the run reached.
    manager = CheckpointManager(work / "probe-checkpoints")
    state = detector.export_state()
    export_ms = _probe_ms(tracer, "core.streaming.export_state", detector.export_state, 5)
    save_ms = _probe_ms(tracer, "serving.checkpoint.save", lambda: manager.save(state), 5)
    # The offline audit adds the layers only it calls; where both
    # measure a layer, this workload's own reading wins.
    audit_work = work / "audit"
    audit_work.mkdir()
    layers, audit_attempted, info["audit_probe"] = batch.probe(seed, size, audit_work)
    layers.update(_stats_layers(stats))
    layers.update(_analysis_layers(model_dir, tracer, sent))
    layers.update({
        "serving.shard.ingest_p50_ms": percentile(direct, 0.5),
        "serving.shard.ingest_p99_ms": percentile(direct, 0.99),
        "serving.cluster.router_ingest_p50_ms": percentile(routed, 0.5) - percentile(direct, 0.5),
        "collector.records.parse_p50_ms": percentile(parse_ms, 0.5),
        "core.streaming.observe_many_p50_ms": percentile(timings["observe"], 0.5),
        "core.streaming.observe_many_p99_ms": percentile(timings["observe"], 0.99),
        "serving.checkpoint.save_p50_ms": save_ms,
        "core.streaming.export_state_p50_ms": export_ms,
        "bench.tracing_overhead_pct": 100.0
        * (percentile(routed, 0.5) / percentile(untraced, 0.5) - 1.0),
    })
    tracer.dump(work / "spans-serve.jsonl")
    return layers, len(sent) + audit_attempted, failed, info


def run(workload: str, seed: int, seconds: float, trace: bool, size, work: Path):
    """Returns ``(metrics, attempted, failed, info)``."""
    model_dir = serve_model(size)
    cluster = Cluster(model_dir, work / "checkpoints", n_cpus())
    body = serve_read if workload == "serve_read" else serve_feed
    try:
        metrics, attempted, failed, info = body(
            seed, seconds, trace, size, work, cluster, model_dir
        )
    finally:
        cluster.stop()
    if trace:
        metrics["bench.generator.threads"] = n_cpus()
        metrics["bench.generator.connections"] = n_cpus()
    return metrics, attempted, failed, info
