"""The in-process detection service façade.

:class:`DetectionService` turns a loaded :class:`~repro.core.system.CATS`
plus :class:`~repro.core.streaming.StreamingDetector` into a long-running
scoring service:

* all mutation flows through one :class:`~repro.serving.batching.MicroBatcher`
  scheduler thread (single-writer: the streaming detector is only ever
  touched from that thread, so it needs no internal locking);
* there is one mutation request kind, the feed (comments plus sales
  updates as one atomic queue entry); feeds are coalesced per batch
  and fed through the incremental accumulator path -- semantics are
  identical to calling ``observe`` per record, whatever the batch
  boundaries;
* score requests across a batch are merged into **one** vectorized
  classifier call (:meth:`StreamingDetector.force_rescore_many`), which
  is where micro-batching earns its throughput;
* every ``checkpoint_every`` ingested records the full streaming state
  is written through :class:`~repro.serving.checkpoint.CheckpointManager`;
  on construction the service restores the newest readable checkpoint,
  so a ``kill -9`` loses at most the records after the last checkpoint
  -- replaying those from the feed reproduces the uninterrupted run
  bit-exactly.

The HTTP front end (:mod:`repro.serving.httpd`) is a thin adapter over
this class; everything here also works embedded in-process.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.collector.records import CommentRecord
from repro.core.columnar import ColumnarStoreError
from repro.core.streaming import Alert, StreamingDetector, shard_of
from repro.core.system import CATS
from repro.serving.batching import MicroBatcher, Request
from repro.serving.checkpoint import CheckpointError, CheckpointManager

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.mlops.drift import DriftMonitor
    from repro.mlops.replay import TrafficRecorder
    from repro.mlops.shadow import ShadowScorer


@dataclass
class IngestResult:
    """Acknowledgement for one ingest request."""

    #: Records newly buffered (submitted minus duplicates).
    accepted: int
    #: Records dropped by ingest dedupe.
    duplicates: int
    #: Alerts emitted while processing this request.
    alerts: list[Alert] = field(default_factory=list)
    #: Sales-volume updates applied as part of the same request.
    sales_updates: int = 0


class DetectionService:
    """Micro-batching scoring service over a trained CATS system.

    Parameters
    ----------
    cats:
        A trained (or loaded) CATS system.
    rescore_growth, min_comments_to_score, max_tracked_items:
        Streaming-detector policy (see :class:`StreamingDetector`).
        When a checkpoint is restored, the checkpointed policy wins.
    max_batch, max_delay_ms, queue_depth:
        Micro-batching policy (see :class:`MicroBatcher`).
    checkpoint_dir:
        Directory for durable streaming-state checkpoints; ``None``
        disables checkpointing.  An existing newest readable checkpoint
        is restored immediately.
    checkpoint_every:
        Write a checkpoint after this many newly ingested records
        (``None`` with a checkpoint dir means only the final checkpoint
        on :meth:`stop`).
    checkpoint_keep:
        Retained checkpoint generations.
    shard:
        ``(shard_index, shard_count)`` when this service is one worker
        of a sharded cluster.  Checkpoints are stamped with the pair,
        restores reject checkpoints from another partition, and ingest
        rejects records whose item id routes to a different shard
        (a misrouting front end must fail loudly, not corrupt state).
    model_info:
        Identity of the loaded model (``version`` / ``content_hash`` /
        ``source``), surfaced through ``/healthz`` and ``/stats`` and
        stamped into every checkpoint -- a restore under a *different*
        model fails loudly instead of replaying buffered evidence
        against the wrong classifier.
    shadow:
        Optional :class:`~repro.mlops.shadow.ShadowScorer`: a
        challenger model mirrored onto this service's traffic.  Shadow
        work runs on the scheduler thread *after* the champion's, its
        failures only increment ``shadow_errors``, and its results
        never touch champion responses, alerts or checkpoints.
    drift_monitor:
        Optional :class:`~repro.mlops.drift.DriftMonitor`; every
        feature vector the champion scores is folded into its live
        histograms (via the streaming detector's ``feature_observer``),
        read back through ``/drift``.
    recorder:
        Optional :class:`~repro.mlops.replay.TrafficRecorder`; every
        *applied* feed is appended in apply order, so the recording
        replays to identical state.
    columnar_store:
        Optional :class:`~repro.core.columnar.ColumnarCommentStore`
        (appendable, sharing the analyzer's interner -- normally opened
        via ``ColumnarCommentStore.attach``).  Every analysis the
        streaming detector performs is appended to it; each checkpoint
        saves the store first and stamps the checkpoint with the
        store's generation and committed comment count, and a restore
        verifies the attached store covers the stamped count (a store
        behind its checkpoint means analyses would silently be missing
        from the arena, so that fails loudly).
    """

    def __init__(
        self,
        cats: CATS,
        *,
        rescore_growth: float = 1.25,
        min_comments_to_score: int = 3,
        max_tracked_items: int | None = None,
        max_batch: int = 32,
        max_delay_ms: float = 25.0,
        queue_depth: int = 256,
        checkpoint_dir: str | None = None,
        checkpoint_every: int | None = None,
        checkpoint_keep: int = 3,
        shard: tuple[int, int] | None = None,
        model_info: dict[str, Any] | None = None,
        shadow: "ShadowScorer | None" = None,
        drift_monitor: "DriftMonitor | None" = None,
        recorder: "TrafficRecorder | None" = None,
        columnar_store=None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if shard is not None:
            index, count = int(shard[0]), int(shard[1])
            if count < 1 or not 0 <= index < count:
                raise ValueError(
                    f"shard must be (index, count) with 0 <= index < "
                    f"count, got {shard!r}"
                )
            shard = (index, count)
        self.shard = shard
        self.cats = cats
        self.model_info = self._resolve_model_info(cats, model_info)
        self.shadow = shadow
        self.drift_monitor = drift_monitor
        self.recorder = recorder
        self.n_shadow_errors = 0
        self.n_recorder_errors = 0
        self.columnar_store = columnar_store
        self.stream = StreamingDetector(
            cats,
            rescore_growth=rescore_growth,
            min_comments_to_score=min_comments_to_score,
            max_tracked_items=max_tracked_items,
            columnar_store=columnar_store,
        )
        if drift_monitor is not None:
            self.stream.feature_observer = drift_monitor.observe_matrix
        self.checkpoints = (
            CheckpointManager(checkpoint_dir, keep=checkpoint_keep)
            if checkpoint_dir
            else None
        )
        self.checkpoint_every = checkpoint_every
        self.restored_from: str | None = None
        if self.checkpoints is not None:
            loaded = self.checkpoints.load_latest()
            if loaded is not None:
                state, path = loaded
                self._check_columnar_stamp(state.get("columnar"))
                self.stream.restore_state(
                    state,
                    expected_shard=self.shard,
                    expected_model=self.model_info,
                )
                self.restored_from = str(path)
        self._n_sales_updates = 0
        self._last_checkpoint_marker = self._progress_marker()
        self.n_checkpoints_written = 0
        self.n_checkpoint_failures = 0
        self.last_checkpoint_error: str | None = None
        self._batcher = MicroBatcher(
            self._process_batch,
            max_batch=max_batch,
            max_delay=max_delay_ms / 1000.0,
            queue_depth=queue_depth,
        )
        self._started_at: float | None = None

    def _check_columnar_stamp(self, stamp: dict[str, Any] | None) -> None:
        """Verify the attached store covers a checkpoint's stamp.

        The checkpoint was written only after the store committed (the
        store saves first), so an attached store holding *fewer*
        comments than the stamp records means analyses the restored
        accumulators depend on are missing from the arena -- rescoring
        history or serving the store would silently lie.  Unstamped
        checkpoints (pre-columnar) and stampless restores (no store
        attached) pass unchecked.
        """
        if stamp is None or self.columnar_store is None:
            return
        recorded = int(stamp.get("n_comments", 0))
        if self.columnar_store.n_comments < recorded:
            raise ValueError(
                f"checkpoint was written with columnar store generation "
                f"{stamp.get('generation')} holding {recorded} comments, "
                f"but the attached store holds only "
                f"{self.columnar_store.n_comments}; restoring would "
                f"leave the arena missing analyzed history"
            )

    @staticmethod
    def _resolve_model_info(
        cats: CATS, model_info: dict[str, Any] | None
    ) -> dict[str, Any] | None:
        """Explicit identity wins; else fall back to the archive's."""
        if model_info is not None:
            return dict(model_info)
        info = getattr(cats, "archive_info", None)
        if info and info.get("content_hash"):
            return {
                "version": info.get("registry_version"),
                "content_hash": info["content_hash"],
                "source": info.get("path"),
            }
        return None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "DetectionService":
        """Start the scheduler; returns self for chaining."""
        self._batcher.start()
        if self._started_at is None:
            self._started_at = time.monotonic()
        return self

    def stop(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Graceful shutdown; returns ``True`` when the stop was clean.

        With ``drain`` (default) every accepted request is processed
        first; either way a final checkpoint is written when
        checkpointing is configured and any state changed since the
        last checkpoint, so a clean stop never loses state (and a
        restart-then-stop with no traffic never rotates a real older
        generation out for a byte-duplicate).

        A ``timeout`` that expires with the scheduler still draining
        returns ``False``; no final checkpoint is written in that case
        (the scheduler still owns the state -- snapshotting under a
        live writer could tear).
        """
        clean = self._batcher.stop(drain=drain, timeout=timeout)
        if clean and self.checkpoints is not None:
            self._write_checkpoint()
        if clean:
            # Only a clean stop may close the lifecycle sinks -- with
            # the scheduler still draining they could be written to.
            if self.recorder is not None:
                self.recorder.close()
            if self.shadow is not None:
                self.shadow.close()
        return clean

    @property
    def running(self) -> bool:
        return self._batcher.running

    # -- request entry points ------------------------------------------------

    def submit_score(self, item_ids: Iterable[int]) -> Future:
        """Queue a scoring request for tracked items.

        The future resolves to ``{item_id: P(fraud)}``; unknown items
        fail the whole request with :class:`KeyError` (other requests
        in the same batch are unaffected).
        """
        return self._batcher.submit("score", list(item_ids))

    def score(
        self, item_ids: Iterable[int], timeout: float | None = None
    ) -> dict[int, float]:
        """Synchronous :meth:`submit_score`."""
        return self.submit_score(item_ids).result(timeout=timeout)

    def submit_feed(
        self,
        comments: Sequence[CommentRecord],
        sales: Iterable[tuple[int, int]] = (),
    ) -> Future:
        """Queue comments plus sales updates as ONE atomic request.

        The future resolves to :class:`IngestResult`.  Because the
        whole request is a single queue entry, load shedding is
        all-or-nothing: a :class:`QueueFullError` (or
        :class:`BatcherStopped`) guarantees *no* part of the request
        -- neither sales nor comments -- was applied, so a 503
        acknowledgement at the HTTP edge is honest.
        """
        return self._batcher.submit(
            "feed", (list(comments), [tuple(s) for s in sales])
        )

    def feed(
        self,
        comments: Sequence[CommentRecord],
        sales: Iterable[tuple[int, int]] = (),
        timeout: float | None = None,
    ) -> IngestResult:
        """Synchronous :meth:`submit_feed`."""
        return self.submit_feed(comments, sales).result(timeout=timeout)

    # -- queries (lock-free reads; see single-writer note above) -------------

    def alerts(self) -> list[Alert]:
        """All alerts emitted so far (restored ones included)."""
        return self.stream.alerts

    def probability(self, item_id: int) -> float:
        """Latest scored P(fraud) for *item_id* (0.0 unknown/unscored)."""
        return self.stream.probability(item_id)

    def healthz(self) -> dict[str, Any]:
        """Liveness summary for the ``/healthz`` endpoint."""
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        health = {
            "status": "ok" if self.running else "stopped",
            "uptime_s": round(uptime, 3),
            "restored_from": self.restored_from,
        }
        if self.model_info is not None:
            health["model"] = dict(self.model_info)
        if self.shard is not None:
            health["shard_index"], health["shard_count"] = self.shard
        return health

    def drift_report(self) -> dict[str, Any] | None:
        """Per-feature PSI/KS summary, or None when drift is off.

        Reads the monitor's live histograms without locking: they are
        only mutated on the scheduler thread, and a torn read of a
        count array merely wobbles the statistic by one row.
        """
        if self.drift_monitor is None:
            return None
        report = self.drift_monitor.summary()
        if self.model_info is not None:
            report["model"] = dict(self.model_info)
        return report

    def stats(self) -> dict[str, Any]:
        """Queue, batching, streaming, cache and checkpoint counters."""
        stream = self.stream
        stats: dict[str, Any] = dict(self._batcher.stats())
        stats.update(
            {
                "items_tracked": stream.n_items_tracked,
                "records_observed": stream.n_observed,
                "duplicates_dropped": stream.n_duplicates,
                "items_evicted": stream.n_evicted,
                "alerts": len(stream.alerts),
                "sales_updates": self._n_sales_updates,
                "checkpoints_written": self.n_checkpoints_written,
                "checkpoint_failures": self.n_checkpoint_failures,
            }
        )
        if self.shard is not None:
            stats["shard_index"], stats["shard_count"] = self.shard
        if self.model_info is not None:
            stats["model"] = dict(self.model_info)
        if self.shadow is not None:
            stats["shadow"] = self.shadow.stats()
            stats["shadow_errors"] = self.n_shadow_errors
        if self.recorder is not None:
            stats.update(self.recorder.stats())
            stats["recorder_errors"] = self.n_recorder_errors
        if self.drift_monitor is not None:
            stats["drift_live_rows"] = self.drift_monitor.n_live_rows
        if self.columnar_store is not None:
            stats.update(
                {
                    f"columnar_{key}": value
                    for key, value in self.columnar_store.stats().items()
                }
            )
        # Packed-predictor activity: confirms scoring goes through the
        # single-arena engine (repro.ml.inference), not a fallback.
        stats.update(self.cats.detector.packed_scoring_stats())
        cache_info = self.cats.feature_extractor.cache_info()
        if cache_info is not None:
            stats.update(
                {
                    "analysis_cache_hits": cache_info.hits,
                    "analysis_cache_misses": cache_info.misses,
                    "analysis_cache_evictions": cache_info.evictions,
                    "analysis_cache_size": cache_info.size,
                    "analysis_cache_hit_rate": round(
                        cache_info.hit_rate, 4
                    ),
                }
            )
        if self.last_checkpoint_error is not None:
            stats["last_checkpoint_error"] = self.last_checkpoint_error
        return stats

    # -- batch processing (scheduler thread only) ----------------------------

    def _process_batch(self, batch: list[Request]) -> None:
        """Handle one coalesced batch.

        Feeds run in arrival order; all score requests are merged into
        a single vectorized rescore at the end of the batch (so a score
        queued behind a feed in the same batch sees that feed's effect
        -- same as with one-at-a-time processing).
        """
        score_requests: list[Request] = []
        for request in batch:
            if request.kind == "score":
                score_requests.append(request)
                continue
            try:
                if request.kind != "feed":
                    raise ValueError(
                        f"unknown request kind {request.kind!r}"
                    )
                comments, sales = request.payload
                request.future.set_result(self._do_feed(comments, sales))
                self._mirror_feed(comments, sales)
            except BaseException as exc:  # noqa: BLE001 - isolate request
                request.future.set_exception(exc)
        if score_requests:
            self._do_scores(score_requests)
        self._maybe_checkpoint()

    def _check_shard_ownership(self, item_ids: Iterable[int]) -> None:
        """Reject items that route to a different shard (router bug)."""
        if self.shard is None:
            return
        index, count = self.shard
        for item_id in item_ids:
            owner = shard_of(item_id, count)
            if owner != index:
                raise ValueError(
                    f"item {item_id} routes to shard {owner}, not this "
                    f"worker (shard {index} of {count})"
                )

    def _do_feed(
        self,
        records: list[CommentRecord],
        sales: list[tuple[int, int]],
    ) -> IngestResult:
        """Apply one atomic feed request: sales first, then comments.

        Validation (shard ownership) runs before any mutation, so a
        rejected request leaves no partial state behind.
        """
        self._check_shard_ownership(
            [int(item_id) for item_id, _ in sales]
        )
        self._check_shard_ownership(r.item_id for r in records)
        stream = self.stream
        for item_id, volume in sales:
            stream.update_sales(int(item_id), int(volume))
            self._n_sales_updates += 1
        duplicates_before = stream.n_duplicates
        alerts = stream.observe_many(records)
        duplicates = stream.n_duplicates - duplicates_before
        return IngestResult(
            accepted=len(records) - duplicates,
            duplicates=duplicates,
            alerts=alerts,
            sales_updates=len(sales),
        )

    def _do_scores(self, requests: list[Request]) -> None:
        """One classifier call for every score request in the batch."""
        stream = self.stream
        valid: list[Request] = []
        wanted: list[int] = []
        for request in requests:
            unknown = [
                i for i in request.payload if not stream.is_tracked(i)
            ]
            if unknown:
                request.future.set_exception(
                    KeyError(f"unknown item {unknown[0]}")
                )
            else:
                valid.append(request)
                wanted.extend(request.payload)
        if not valid:
            return
        try:
            results = stream.force_rescore_many(wanted)
        except BaseException as exc:  # noqa: BLE001 - fail the batch only
            for request in valid:
                request.future.set_exception(exc)
            return
        for request in valid:
            request.future.set_result(
                {item_id: results[item_id] for item_id in request.payload}
            )
        self._shadow_compare(results)

    # -- lifecycle mirroring (scheduler thread only) -------------------------

    def _mirror_feed(
        self,
        comments: Sequence[CommentRecord],
        sales: list[tuple[int, int]],
    ) -> None:
        """Mirror one *applied* mutation into the recorder and shadow.

        Runs after the champion's state change succeeded and its future
        resolved; never raises -- a broken disk or a crashing challenger
        increments an error counter and the champion keeps serving.
        """
        if self.recorder is not None:
            try:
                self.recorder.record(list(comments), sales)
            except Exception:  # noqa: BLE001 - isolate the recorder
                self.n_recorder_errors += 1
        if self.shadow is not None:
            try:
                self.shadow.observe_feed(list(comments), sales)
            except Exception:  # noqa: BLE001 - isolate the shadow
                self.n_shadow_errors += 1

    def _shadow_compare(self, results: dict[int, float]) -> None:
        """Mirror a champion scoring batch into the challenger."""
        if self.shadow is None or not results:
            return
        try:
            self.shadow.compare(results)
        except Exception:  # noqa: BLE001 - isolate the shadow
            self.n_shadow_errors += 1

    def _progress_marker(self) -> tuple[int, int]:
        """State-advancement fingerprint since the last checkpoint.

        Sales updates mutate durable state without moving
        ``n_observed``, so they are tracked separately -- a sales-only
        session must still get its final checkpoint.
        """
        return (self.stream.n_observed, self._n_sales_updates)

    def _maybe_checkpoint(self) -> None:
        if self.checkpoints is None or self.checkpoint_every is None:
            return
        progressed = (
            self.stream.n_observed - self._last_checkpoint_marker[0]
        )
        if progressed >= self.checkpoint_every:
            self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        """Write a checkpoint unless nothing progressed since the last.

        Skipping the no-op write matters beyond wasted I/O: with
        ``keep=N`` rotation, a byte-duplicate final checkpoint on every
        restart-then-stop cycle would rotate real older generations out
        of the fallback window.
        """
        if self.checkpoints is None:
            return
        if self._progress_marker() == self._last_checkpoint_marker:
            return
        try:
            state = self.stream.export_state(
                shard=self.shard, model=self.model_info
            )
            if self.columnar_store is not None:
                # Commit the analyzed-comment arena *before* the
                # checkpoint references it, so a stamped checkpoint
                # always names a generation that exists on disk.
                store = self.columnar_store
                if store.mode == "memory" and store.directory is not None:
                    store.save()
                state["columnar"] = {
                    "generation": store.generation,
                    "n_comments": store.n_comments,
                }
            self.checkpoints.save(state)
        except (OSError, CheckpointError, ColumnarStoreError) as exc:
            # A failing disk must not take the scoring path down; the
            # failure is surfaced through /stats instead.
            self.n_checkpoint_failures += 1
            self.last_checkpoint_error = str(exc)
            return
        self.n_checkpoints_written += 1
        self._last_checkpoint_marker = self._progress_marker()
