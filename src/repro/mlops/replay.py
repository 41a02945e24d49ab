"""Record live collector traffic; re-score it offline under any model.

Large-scale deployments validate model changes by re-scoring recorded
traffic before rollout.  Two halves:

* :class:`TrafficRecorder` -- an opt-in JSONL appender the serving
  layer calls from its scheduler thread with every *applied* feed
  request (comments + sales, in apply order, duplicates included).
  Because the scheduler is the single writer and records events in the
  exact order it mutates detector state, replaying the file through a
  fresh :class:`StreamingDetector` reproduces that state -- the same
  dedupe decisions, the same rescore cadence, the same alerts.
* :func:`replay_recording` / :func:`compare_recording` -- feed a
  recording through one model (or a champion/challenger pair) and
  report final per-item probabilities, alerts, verdict flips and score
  deltas.  The comparison report is the offline evidence for a
  registry promotion, closing the loop with
  ``CATS.cross_validate_detector``: CV says the challenger generalizes,
  replay says it behaves on *your* traffic.

Record shape (one JSON object per line)::

    {"comments": [<asdict(CommentRecord)>, ...],
     "sales": [[item_id, volume], ...]}
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Iterator

from repro.collector.records import CommentRecord
from repro.core.streaming import StreamingDetector
from repro.core.system import CATS
from repro.mlops.shadow import DELTA_LABELS, delta_bucket


class RecordingError(RuntimeError):
    """Raised for unreadable or malformed traffic recordings."""


class TrafficRecorder:
    """Append-only JSONL traffic log (single-writer: scheduler thread).

    Lines are flushed per event so a crash loses at most the event in
    flight; fsync is deliberately skipped (the recording is replay
    input, not the durability story -- checkpoints are).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        self.n_events = 0
        self.n_comments = 0
        self.n_sales = 0

    def record(
        self,
        comments: list[CommentRecord],
        sales: list[tuple[int, int]] = (),
    ) -> None:
        """Append one applied feed request."""
        if not comments and not sales:
            return
        event = {
            "comments": [c.to_dict() for c in comments],
            "sales": [[int(i), int(v)] for i, v in sales],
        }
        self._handle.write(json.dumps(event, ensure_ascii=False) + "\n")
        self._handle.flush()
        self.n_events += 1
        self.n_comments += len(comments)
        self.n_sales += len(sales)

    def stats(self) -> dict[str, int]:
        return {
            "events_recorded": self.n_events,
            "comments_recorded": self.n_comments,
            "sales_recorded": self.n_sales,
        }

    def close(self) -> None:
        self._handle.close()


def iter_recording(
    path: str | Path,
) -> Iterator[tuple[list[CommentRecord], list[tuple[int, int]]]]:
    """Yield ``(comments, sales)`` events from a recording, in order."""
    path = Path(path)
    if not path.exists():
        raise RecordingError(f"no traffic recording at {path}")
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
                comments = [
                    CommentRecord(**row) for row in event.get("comments", [])
                ]
                sales = [
                    (int(item_id), int(volume))
                    for item_id, volume in event.get("sales", [])
                ]
            except (TypeError, ValueError, KeyError) as exc:
                raise RecordingError(
                    f"{path}:{line_no}: malformed event: {exc}"
                ) from exc
            yield comments, sales


@dataclasses.dataclass
class ReplayResult:
    """Outcome of re-scoring one recording under one model."""

    probabilities: dict[int, float]
    alerts: list[dict[str, Any]]
    n_events: int
    n_comments: int
    n_sales: int
    n_items: int
    threshold: float

    @property
    def flagged(self) -> list[int]:
        """Items at or above the model's reporting threshold."""
        return sorted(
            item_id
            for item_id, p in self.probabilities.items()
            if p >= self.threshold
        )

    def summary(self) -> dict[str, Any]:
        return {
            "n_events": self.n_events,
            "n_comments": self.n_comments,
            "n_sales": self.n_sales,
            "n_items": self.n_items,
            "n_alerts": len(self.alerts),
            "n_flagged": len(self.flagged),
            "threshold": self.threshold,
        }


def replay_recording(
    cats: CATS,
    path: str | Path,
    *,
    rescore_growth: float = 1.25,
    min_comments_to_score: int = 3,
) -> ReplayResult:
    """Re-score a recorded feed under *cats*, start to finish.

    Events are applied in recorded order (sales before comments within
    an event, mirroring the serving layer), then every tracked item is
    force-rescored once so the final probabilities reflect the complete
    feed -- identical to what an uninterrupted service scoring those
    items at the end would report.
    """
    stream = StreamingDetector(
        cats,
        rescore_growth=rescore_growth,
        min_comments_to_score=min_comments_to_score,
    )
    n_events = n_comments = n_sales = 0
    for comments, sales in iter_recording(path):
        for item_id, volume in sales:
            stream.update_sales(item_id, volume)
        stream.observe_many(comments)
        n_events += 1
        n_comments += len(comments)
        n_sales += len(sales)
    tracked = sorted(stream.tracked_items())
    probabilities = (
        stream.force_rescore_many(tracked) if tracked else {}
    )
    return ReplayResult(
        probabilities={int(k): float(v) for k, v in probabilities.items()},
        alerts=[dataclasses.asdict(a) for a in stream.alerts],
        n_events=n_events,
        n_comments=n_comments,
        n_sales=n_sales,
        n_items=len(tracked),
        threshold=float(cats.detector.config.threshold),
    )


def compare_recording(
    champion: CATS,
    challenger: CATS,
    path: str | Path,
    *,
    rescore_growth: float = 1.25,
    min_comments_to_score: int = 3,
    champion_info: dict[str, Any] | None = None,
    challenger_info: dict[str, Any] | None = None,
    top_n: int = 10,
) -> dict[str, Any]:
    """Champion-vs-challenger report over one recorded feed.

    Returns a JSON-ready report: per-model summaries, verdict flips
    (by each model's own threshold), the |delta| histogram over the
    fixed :data:`~repro.mlops.shadow.DELTA_EDGES` buckets, and the
    ``top_n`` largest per-item disagreements.
    """
    kwargs = dict(
        rescore_growth=rescore_growth,
        min_comments_to_score=min_comments_to_score,
    )
    champ = replay_recording(champion, path, **kwargs)
    chall = replay_recording(challenger, path, **kwargs)

    item_ids = sorted(set(champ.probabilities) | set(chall.probabilities))
    histogram = {label: 0 for label in DELTA_LABELS}
    deltas: list[dict[str, Any]] = []
    flipped: list[int] = []
    sum_abs = 0.0
    max_abs = 0.0
    for item_id in item_ids:
        p_champ = champ.probabilities.get(item_id, 0.0)
        p_chall = chall.probabilities.get(item_id, 0.0)
        delta = abs(p_champ - p_chall)
        histogram[delta_bucket(delta)] += 1
        sum_abs += delta
        max_abs = max(max_abs, delta)
        flip = (p_champ >= champ.threshold) != (p_chall >= chall.threshold)
        if flip:
            flipped.append(item_id)
        deltas.append(
            {
                "item_id": item_id,
                "champion": round(p_champ, 6),
                "challenger": round(p_chall, 6),
                "delta": round(delta, 6),
                "flipped": flip,
            }
        )
    deltas.sort(key=lambda d: (-d["delta"], d["item_id"]))
    return {
        "recording": str(path),
        "champion": dict(champ.summary(), model=dict(champion_info or {})),
        "challenger": dict(
            chall.summary(), model=dict(challenger_info or {})
        ),
        "comparison": {
            "n_items": len(item_ids),
            "flipped_verdicts": len(flipped),
            "flipped_item_ids": flipped[:top_n],
            "mean_abs_delta": (
                round(sum_abs / len(item_ids), 6) if item_ids else 0.0
            ),
            "max_abs_delta": round(max_abs, 6),
            "delta_histogram": histogram,
            "top_disagreements": deltas[:top_n],
        },
    }
