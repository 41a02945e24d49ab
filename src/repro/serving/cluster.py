"""Shared-nothing multi-process serving cluster.

One :class:`~repro.serving.service.DetectionService` is capped by the
GIL: a single scheduler thread owns the streaming detector, so one
process can never use more than one core no matter how fast the packed
scorer gets.  This module multiplies that design instead of mutating
it: streaming state is partitioned by
``shard_of(item_id) == hash(item_id) % n_shards`` across worker
**processes**, each one a full, independent serving stack --

* :class:`ShardWorker` -- one ``repro.cli serve`` subprocess (own
  interpreter, own model copy, own MicroBatcher scheduler, own
  checkpoint lineage under ``<root>/shard-NNNN``).  Workers share
  *nothing*: no locks, no shared memory, no cross-shard coordination.
  Killing one loses nothing beyond its last checkpoint, and restarting
  it replays bit-identically -- exactly the single-process guarantee,
  per shard.
* :class:`ClusterHTTPServer` (the router) -- a thin stdlib front end
  that validates requests, partitions ``/ingest`` rows and ``/score``
  ids by item id, fans out to the owning shards over pooled keep-alive
  HTTP connections, and fans ``/stats`` / ``/alerts`` / ``/healthz``
  / ``/drift`` back in.  The router holds no detector state; its only job is
  routing, merging, and cluster-wide telemetry.
* :class:`ShardCluster` -- lifecycle orchestration: spawn workers,
  bind the router, kill/restart individual shards (the recovery path
  exercised by ``tests/serving/test_cluster.py`` and
  ``benchmarks/bench_cluster.py``).

Consistency model
-----------------

Within a shard, requests keep every single-process guarantee (atomic
acknowledgements, single-writer state, at-most-once alerts).  Across
shards there is no distributed transaction: a multi-shard ``/ingest``
is split into per-shard sub-requests, each atomic on its own; if one
shard sheds, the router reports the failing shard and the per-shard
acks it did get, so the caller can retry the failed partition only.
Since items never span shards, per-*item* semantics -- the ones the
detector actually promises -- are unaffected by the split.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
from collections import deque
from pathlib import Path
from typing import Any

from repro.core.streaming import shard_of
from repro.serving.httpd import (
    RESPONSE_TIMEOUT_S,
    JsonHTTPServer,
    JsonRequestHandler,
    RequestBodyTooLarge,
    parse_feed_body,
    parse_item_ids,
)
from repro.serving.telemetry import TelemetryRegistry

#: How long to wait for a freshly spawned shard's announcement line.
SPAWN_TIMEOUT_S = 120.0

#: Service counters summed into the router's cluster-wide ``/stats``.
AGGREGATED_STAT_KEYS = (
    "submitted",
    "rejected",
    "processed",
    "batches",
    "queue_depth",
    "queue_high_water",
    "items_tracked",
    "records_observed",
    "duplicates_dropped",
    "items_evicted",
    "alerts",
    "sales_updates",
    "checkpoints_written",
    "checkpoint_failures",
    "packed_predict_calls",
    "packed_rows_scored",
    "analysis_cache_hits",
    "analysis_cache_misses",
)


class ShardUnavailableError(RuntimeError):
    """A shard worker could not be reached (dead or unreachable)."""


def shard_checkpoint_dir(root: str | Path, shard_index: int) -> Path:
    """Per-shard checkpoint lineage directory under one cluster root."""
    return Path(root) / f"shard-{shard_index:04d}"


def aggregate_shard_stats(shard_stats: list[dict]) -> dict[str, Any]:
    """Sum the service counters of *shard_stats* into one cluster view.

    Only the known numeric counters in :data:`AGGREGATED_STAT_KEYS`
    are summed; per-shard telemetry snapshots are merged name-wise via
    :meth:`TelemetryRegistry.merge`.
    """
    aggregate: dict[str, Any] = {}
    for key in AGGREGATED_STAT_KEYS:
        values = [
            stats[key]
            for stats in shard_stats
            if isinstance(stats.get(key), (int, float))
        ]
        if values:
            aggregate[key] = sum(values)
    telemetry = [
        stats["telemetry"]
        for stats in shard_stats
        if isinstance(stats.get("telemetry"), dict)
    ]
    if telemetry:
        aggregate["telemetry"] = TelemetryRegistry.merge(telemetry)
    return aggregate


class ShardWorker:
    """One shard process plus its pooled HTTP client.

    The worker is a ``repro.cli serve`` subprocess launched with
    ``--shard-index/--shard-count`` so its service stamps checkpoints
    with the partition and rejects misrouted records.  The bound port
    is discovered from the CLI's JSON announcement line (``--port 0``),
    so restarts never race on a fixed port.
    """

    def __init__(
        self,
        model_dir: str | Path,
        shard_index: int,
        shard_count: int,
        *,
        host: str = "127.0.0.1",
        checkpoint_dir: str | Path | None = None,
        extra_args: tuple[str, ...] = (),
    ) -> None:
        self.model_dir = str(model_dir)
        self.shard_index = int(shard_index)
        self.shard_count = int(shard_count)
        self.host = host
        self.checkpoint_dir = (
            str(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.extra_args = tuple(extra_args)
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self._pool: deque[Any] = deque()
        self._pool_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def _command(self) -> list[str]:
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            self.model_dir,
            "--host",
            self.host,
            "--port",
            "0",
            "--shard-index",
            str(self.shard_index),
            "--shard-count",
            str(self.shard_count),
        ]
        if self.checkpoint_dir is not None:
            command += ["--checkpoint-dir", self.checkpoint_dir]
        command += list(self.extra_args)
        return command

    def spawn(self) -> None:
        """Launch the subprocess (non-blocking; announcement read later).

        Splitting spawn from :meth:`await_ready` lets the cluster fork
        every worker first and overlap their (identical) model-loading
        startup cost.
        """
        if self.proc is not None and self.proc.poll() is None:
            raise RuntimeError(
                f"shard {self.shard_index} is already running "
                f"(pid {self.proc.pid})"
            )
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if src_dir not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_dir + (os.pathsep + existing if existing else "")
            )
        self.port = None
        with self._pool_lock:
            self._pool.clear()
        self.proc = subprocess.Popen(
            self._command(),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )

    def await_ready(self) -> None:
        """Block until the worker announced its bound port."""
        if self.proc is None:
            raise RuntimeError(f"shard {self.shard_index} was never spawned")
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            raise ShardUnavailableError(
                f"shard {self.shard_index} exited before announcing "
                f"(returncode {self.proc.poll()})"
            )
        announcement = json.loads(line)
        if not announcement.get("serving"):
            raise ShardUnavailableError(
                f"shard {self.shard_index} announced {announcement!r}"
            )
        self.port = int(announcement["port"])

    def start(self) -> "ShardWorker":
        self.spawn()
        self.await_ready()
        return self

    def is_alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def kill(self, sig: int = signal.SIGKILL) -> None:
        """Send *sig* (default SIGKILL -- the power-cord test) and reap."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            os.kill(self.proc.pid, sig)
        self.proc.wait(timeout=60)

    def terminate(self, timeout: float = 60.0) -> None:
        """Graceful SIGTERM stop (drains and writes a final checkpoint)."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)

    # -- pooled HTTP client --------------------------------------------------

    def _borrow_connection(self) -> http.client.HTTPConnection:
        with self._pool_lock:
            if self._pool:
                return self._pool.popleft()
        if self.port is None:
            raise ShardUnavailableError(
                f"shard {self.shard_index} has no bound port"
            )
        return http.client.HTTPConnection(
            self.host, self.port, timeout=RESPONSE_TIMEOUT_S + 30
        )

    def _return_connection(
        self, connection: http.client.HTTPConnection
    ) -> None:
        with self._pool_lock:
            self._pool.append(connection)

    def request(
        self, method: str, path: str, body: Any | None = None
    ) -> tuple[int, dict]:
        """One round-trip to this shard over a pooled keep-alive conn.

        A stale pooled connection (shard restarted, keep-alive dropped)
        is retried once on a fresh connection; a second failure raises
        :class:`ShardUnavailableError` so the router can answer 503.
        """
        payload = json.dumps(body) if body is not None else None
        last_error: Exception | None = None
        for _ in range(2):
            connection = self._borrow_connection()
            try:
                connection.request(
                    method,
                    path,
                    body=payload,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                result = (response.status, json.loads(response.read()))
                self._return_connection(connection)
                return result
            except (
                OSError,
                http.client.HTTPException,
                json.JSONDecodeError,
            ) as exc:
                connection.close()
                last_error = exc
        raise ShardUnavailableError(
            f"shard {self.shard_index} unreachable: {last_error}"
        )


class ClusterHTTPServer(JsonHTTPServer):
    """Routing front end over a list of :class:`ShardWorker`\\ s."""

    def __init__(
        self,
        address: tuple[str, int],
        workers: list[ShardWorker],
        verbose: bool = False,
    ) -> None:
        super().__init__(address, ClusterRequestHandler, verbose=verbose)
        self.workers = workers

    @property
    def n_shards(self) -> int:
        return len(self.workers)


class ClusterRequestHandler(JsonRequestHandler):
    server_version = "repro-cluster-router/1"
    response_counter_prefix = "router_responses_"
    server: ClusterHTTPServer

    def _fan_out(
        self, method: str, path: str, per_shard: dict[int, Any]
    ) -> list[tuple[int, int, dict]]:
        """Send one sub-request per target shard, concurrently.

        Returns ``(shard_index, status, payload)`` triples in shard
        order.  A dead shard yields a synthesized 503 triple instead of
        raising, so partial fan-ins (``/stats`` with one shard down)
        still answer.
        """
        workers = self.server.workers
        targets = sorted(per_shard)
        self.server.telemetry.inc("router_fanout_requests", len(targets))

        def call(index: int) -> tuple[int, int, dict]:
            try:
                status, payload = workers[index].request(
                    method, path, per_shard[index]
                )
                return index, status, payload
            except ShardUnavailableError as exc:
                self.server.telemetry.inc("router_shard_errors")
                return index, 503, {"error": str(exc), "shard": index}

        if len(targets) == 1:
            return [call(targets[0])]
        results: dict[int, tuple[int, int, dict]] = {}

        def run(index: int) -> None:
            results[index] = call(index)

        threads = [
            threading.Thread(target=run, args=(index,), daemon=True)
            for index in targets
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [results[index] for index in targets]

    # -- fan-in GET routes ---------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        if self.path == "/healthz":
            self._handle_healthz()
        elif self.path == "/stats":
            self._handle_stats()
        elif self.path == "/alerts":
            self._handle_alerts()
        elif self.path == "/drift":
            self._handle_drift()
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def _handle_healthz(self) -> None:
        every = {i: None for i in range(self.server.n_shards)}
        responses = self._fan_out("GET", "/healthz", every)
        shards = []
        alive = 0
        for index, status, payload in responses:
            shards.append(dict(payload, shard_index=index))
            if status == 200 and payload.get("status") == "ok":
                alive += 1
        self.server.telemetry.gauge("shards_alive").set(alive)
        healthy = alive == self.server.n_shards
        self._send_json(
            200 if healthy else 503,
            {
                "status": "ok" if healthy else "degraded",
                "n_shards": self.server.n_shards,
                "shards_alive": alive,
                "shards": shards,
            },
        )

    def _handle_stats(self) -> None:
        every = {i: None for i in range(self.server.n_shards)}
        responses = self._fan_out("GET", "/stats", every)
        shard_stats = []
        for index, status, payload in responses:
            entry = dict(payload, shard_index=index)
            if status != 200:
                entry["unavailable"] = True
            shard_stats.append(entry)
        reachable = [s for s in shard_stats if not s.get("unavailable")]
        stats = aggregate_shard_stats(reachable)
        stats.update(
            {
                "n_shards": self.server.n_shards,
                "shards_reporting": len(reachable),
                "router": {"telemetry": self.server.telemetry.snapshot()},
                "shards": shard_stats,
            }
        )
        self._send_json(200, stats)

    def _handle_alerts(self) -> None:
        every = {i: None for i in range(self.server.n_shards)}
        responses = self._fan_out("GET", "/alerts", every)
        alerts: list[dict] = []
        unavailable: list[int] = []
        for index, status, payload in responses:
            if status == 200:
                alerts.extend(payload.get("alerts", []))
            else:
                unavailable.append(index)
        body: dict[str, Any] = {"count": len(alerts), "alerts": alerts}
        if unavailable:
            body["shards_unavailable"] = unavailable
        self._send_json(503 if unavailable else 200, body)

    def _handle_drift(self) -> None:
        """Fan ``/drift`` across shards; report per-shard + cluster max.

        Shards without drift monitoring answer 404 and are listed as
        unmonitored rather than failing the whole report; the cluster
        maxima only cover monitored, reachable shards.
        """
        every = {i: None for i in range(self.server.n_shards)}
        responses = self._fan_out("GET", "/drift", every)
        shards: list[dict] = []
        unmonitored: list[int] = []
        unavailable: list[int] = []
        max_psi = 0.0
        max_ks = 0.0
        n_live_rows = 0
        monitored = 0
        for index, status, payload in responses:
            if status == 200:
                monitored += 1
                shards.append(dict(payload, shard_index=index))
                max_psi = max(max_psi, float(payload.get("max_psi", 0.0)))
                max_ks = max(max_ks, float(payload.get("max_ks", 0.0)))
                n_live_rows += int(payload.get("n_live_rows", 0))
            elif status == 404:
                unmonitored.append(index)
            else:
                unavailable.append(index)
        if monitored == 0 and not unavailable:
            self._send_json(
                404, {"error": "drift monitoring not configured"}
            )
            return
        body: dict[str, Any] = {
            "n_shards": self.server.n_shards,
            "shards_monitored": monitored,
            "max_psi": max_psi,
            "max_ks": max_ks,
            "n_live_rows": n_live_rows,
            "shards": shards,
        }
        if unmonitored:
            body["shards_unmonitored"] = unmonitored
        if unavailable:
            body["shards_unavailable"] = unavailable
        self._send_json(503 if unavailable else 200, body)

    # -- routed POST routes --------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
        try:
            body = self._read_json_body()
            if self.path == "/ingest":
                self._handle_ingest(body)
            elif self.path == "/score":
                self._handle_score(body)
            else:
                self._send_json(404, {"error": f"unknown path {self.path}"})
        except (TypeError, ValueError, KeyError) as exc:
            # Validation happens here at the router, before any shard
            # sees a byte -- a malformed request touches no state.
            self._send_json(400, {"error": str(exc)})
        except RequestBodyTooLarge as exc:
            self._send_too_large(exc)

    def _handle_ingest(self, body: Any) -> None:
        comments, sales = parse_feed_body(body)

        n = self.server.n_shards
        per_shard: dict[int, dict[str, list]] = {}
        for record in comments:
            target = per_shard.setdefault(
                shard_of(record.item_id, n), {"comments": [], "sales": []}
            )
            target["comments"].append(record.to_dict())
        for item_id, volume in sales:
            target = per_shard.setdefault(
                shard_of(item_id, n), {"comments": [], "sales": []}
            )
            target["sales"].append([item_id, volume])
        self.server.telemetry.inc("router_records_routed", len(comments))
        if not per_shard:
            self._send_json(
                200,
                {
                    "accepted": 0,
                    "duplicates": 0,
                    "sales_updates": 0,
                    "alerts": [],
                },
            )
            return

        responses = self._fan_out("POST", "/ingest", per_shard)
        merged: dict[str, Any] = {
            "accepted": 0,
            "duplicates": 0,
            "sales_updates": 0,
            "alerts": [],
        }
        failures = []
        for index, status, payload in responses:
            if status == 200:
                merged["accepted"] += payload.get("accepted", 0)
                merged["duplicates"] += payload.get("duplicates", 0)
                merged["sales_updates"] += payload.get("sales_updates", 0)
                merged["alerts"].extend(payload.get("alerts", []))
            else:
                failures.append((index, status, payload))
        if failures:
            # Per-shard sub-requests are each atomic, but there is no
            # cross-shard transaction: report what failed and what was
            # applied so the caller can retry the failed partition.
            index, status, payload = failures[0]
            self._send_json(
                status,
                {
                    "error": payload.get("error", "shard request failed"),
                    "shard": index,
                    "failed_shards": [i for i, _, _ in failures],
                    "applied": merged,
                },
                headers={"Retry-After": "1"} if status == 503 else None,
            )
            return
        self._send_json(200, merged)

    def _handle_score(self, body: Any) -> None:
        if not isinstance(body, dict) or "item_ids" not in body:
            raise ValueError('body must be {"item_ids": [...]}')
        item_ids = parse_item_ids(body["item_ids"])
        n = self.server.n_shards
        per_shard: dict[int, dict[str, list[int]]] = {}
        for item_id in item_ids:
            per_shard.setdefault(
                shard_of(item_id, n), {"item_ids": []}
            )["item_ids"].append(item_id)
        if not per_shard:
            self._send_json(200, {"probabilities": {}})
            return
        responses = self._fan_out("POST", "/score", per_shard)
        probabilities: dict[str, float] = {}
        for index, status, payload in responses:
            if status != 200:
                self._send_json(
                    status, dict(payload, shard=index)
                )
                return
            probabilities.update(payload.get("probabilities", {}))
        self._send_json(200, {"probabilities": probabilities})


class ShardCluster:
    """Spawn, route to, and manage a shared-nothing shard fleet."""

    def __init__(
        self,
        model_dir: str | Path,
        n_shards: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_root: str | Path | None = None,
        worker_args: tuple[str, ...] = (),
        verbose: bool = False,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.model_dir = str(model_dir)
        self.n_shards = int(n_shards)
        self.host = host
        self.requested_port = port
        self.checkpoint_root = (
            str(checkpoint_root) if checkpoint_root is not None else None
        )
        self.workers = [
            ShardWorker(
                model_dir,
                index,
                n_shards,
                host=host,
                checkpoint_dir=(
                    shard_checkpoint_dir(checkpoint_root, index)
                    if checkpoint_root is not None
                    else None
                ),
                extra_args=worker_args,
            )
            for index in range(n_shards)
        ]
        self.verbose = verbose
        self.server: ClusterHTTPServer | None = None
        self._server_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        if self.server is None:
            raise RuntimeError("cluster is not started")
        return self.server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ShardCluster":
        """Spawn every worker, await readiness, bind + serve the router."""
        for worker in self.workers:
            worker.spawn()
        try:
            for worker in self.workers:
                worker.await_ready()
        except BaseException:
            self.stop()
            raise
        self.server = ClusterHTTPServer(
            (self.host, self.requested_port),
            self.workers,
            verbose=self.verbose,
        )
        self._server_thread = threading.Thread(
            target=self.server.serve_forever,
            name="cluster-router",
            daemon=True,
        )
        self._server_thread.start()
        return self

    def kill_shard(self, index: int, sig: int = signal.SIGKILL) -> None:
        """Hard-kill one shard (the others keep serving)."""
        self.workers[index].kill(sig)

    def restart_shard(self, index: int) -> ShardWorker:
        """Restart one shard; it restores from its own checkpoint lineage."""
        worker = self.workers[index]
        if worker.is_alive():
            worker.terminate()
        worker.spawn()
        worker.await_ready()
        return worker

    def stop(self) -> None:
        """Shut the router down, then gracefully stop every worker."""
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server = None
        for worker in self.workers:
            if worker.proc is not None:
                worker.terminate()

    def __enter__(self) -> "ShardCluster":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
