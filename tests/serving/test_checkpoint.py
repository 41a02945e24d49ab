"""Tests for repro.serving.checkpoint.

The property that matters: a detector restored from a checkpoint taken
at *any* cut point of a feed must behave bit-identically to one that
never stopped -- same feature vectors, same probabilities, same
subsequent alerts.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.streaming import STATE_VERSION, StreamingDetector
from repro.serving.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointManager,
)


@pytest.fixture()
def manager(tmp_path):
    return CheckpointManager(tmp_path / "ckpts", keep=3)


def run_detector(trained_cats, records):
    detector = StreamingDetector(trained_cats, rescore_growth=1.0)
    detector.observe_many(records)
    return detector


class TestManager:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)

    def test_empty_directory_loads_nothing(self, manager):
        assert manager.load_latest() is None
        assert manager.latest_path() is None

    def test_save_load_round_trip(self, manager, trained_cats, feed):
        detector = run_detector(trained_cats, feed[:80])
        state = detector.export_state()
        path = manager.save(state)
        assert path.is_dir()
        assert (path / "state.json").is_file()
        assert (path / "sums.npz").is_file()
        loaded, loaded_path = manager.load_latest()
        assert loaded_path == path
        assert loaded == state

    def test_float_sums_live_in_npz_not_json(
        self, manager, trained_cats, feed
    ):
        detector = run_detector(trained_cats, feed[:80])
        path = manager.save(detector.export_state())
        payload = json.loads(
            (path / "state.json").read_text(encoding="utf-8")
        )
        assert payload["items"], "expected tracked items"
        for entry in payload["items"]:
            assert "last_probability" not in entry
            assert "sum_sentiment" not in entry["accumulator"]
        arrays = np.load(path / "sums.npz")
        assert len(arrays["item_id"]) == len(payload["items"])

    def test_prune_keeps_newest(self, manager, trained_cats, feed):
        detector = run_detector(trained_cats, feed[:20])
        paths = [
            manager.save(detector.export_state()) for _ in range(5)
        ]
        remaining = sorted(
            p.name for p in manager.directory.iterdir()
        )
        assert remaining == sorted(p.name for p in paths[-3:])

    def test_tmp_directories_are_ignored(
        self, manager, trained_cats, feed
    ):
        detector = run_detector(trained_cats, feed[:20])
        good = manager.save(detector.export_state())
        (manager.directory / "ckpt-99999999.tmp").mkdir()
        assert manager.latest_path() == good

    def test_corrupt_latest_falls_back(
        self, manager, trained_cats, feed
    ):
        detector = run_detector(trained_cats, feed[:20])
        good_state = detector.export_state()
        manager.save(good_state)
        detector.observe_many(feed[20:40])
        bad = manager.save(detector.export_state())
        (bad / "state.json").write_text("{ torn", encoding="utf-8")
        loaded, path = manager.load_latest()
        assert path.name < bad.name
        assert loaded == good_state

    def test_all_corrupt_raises(self, manager, trained_cats, feed):
        detector = run_detector(trained_cats, feed[:20])
        path = manager.save(detector.export_state())
        (path / "sums.npz").unlink()
        with pytest.raises(CheckpointError):
            manager.load_latest()


class TestFormatPinned:
    """Comment dicts are built field by field instead of through
    ``dataclasses.asdict``; the layout must not move, so checkpoints
    written by the ``asdict`` exporter keep restoring."""

    def test_versions_unchanged(self):
        assert CHECKPOINT_VERSION == 1
        assert STATE_VERSION == 1

    def test_exported_comments_equal_asdict(self, trained_cats, feed):
        detector = run_detector(trained_cats, feed)
        state = detector.export_state()
        n_compared = 0
        for item in state["items"]:
            buffered = detector._items[item["item_id"]].comments
            assert len(item["comments"]) == len(buffered)
            for exported, record in zip(item["comments"], buffered):
                reference = dataclasses.asdict(record)
                assert exported == reference
                assert list(exported) == list(reference)
                n_compared += 1
        assert n_compared > 0

    def test_asdict_written_checkpoint_restores(
        self, manager, trained_cats, feed, feed_item_ids
    ):
        cut = len(feed) // 2
        half = run_detector(trained_cats, feed[:cut])
        state = half.export_state()
        for item in state["items"]:
            item["comments"] = [
                dataclasses.asdict(record)
                for record in half._items[item["item_id"]].comments
            ]
        manager.save(state)
        loaded, _ = manager.load_latest()
        restored = StreamingDetector.from_state(trained_cats, loaded)
        restored.observe_many(feed[cut:])
        uninterrupted = run_detector(trained_cats, feed)
        assert restored.alerts == uninterrupted.alerts
        assert restored.force_rescore_many(feed_item_ids) == (
            uninterrupted.force_rescore_many(feed_item_ids)
        )


class TestRoundTripProperty:
    @pytest.mark.parametrize("cut_fraction", [0.1, 0.33, 0.5, 0.8, 1.0])
    def test_restore_matches_uninterrupted_run(
        self, tmp_path, trained_cats, feed, feed_item_ids, cut_fraction
    ):
        """save -> restore -> replay == never interrupted, bit-exact."""
        cut = int(len(feed) * cut_fraction)

        uninterrupted = StreamingDetector(trained_cats, rescore_growth=1.0)
        uninterrupted.observe_many(feed)

        first_half = StreamingDetector(trained_cats, rescore_growth=1.0)
        first_half.observe_many(feed[:cut])
        manager = CheckpointManager(tmp_path / f"ckpt-{cut}")
        manager.save(first_half.export_state())

        state, _ = manager.load_latest()
        restored = StreamingDetector.from_state(trained_cats, state)
        assert restored.n_observed == cut
        restored.observe_many(feed[cut:])

        assert restored.alerts == uninterrupted.alerts
        assert restored.n_items_tracked == uninterrupted.n_items_tracked
        for item_id in feed_item_ids:
            assert restored.probability(item_id) == (
                uninterrupted.probability(item_id)
            )
            np.testing.assert_array_equal(
                restored._items[item_id].accumulator.to_vector(),
                uninterrupted._items[item_id].accumulator.to_vector(),
            )

    def test_subsequent_forced_scores_identical(
        self, tmp_path, trained_cats, feed, feed_item_ids
    ):
        cut = len(feed) // 2
        uninterrupted = StreamingDetector(trained_cats, rescore_growth=1.0)
        uninterrupted.observe_many(feed)

        manager = CheckpointManager(tmp_path / "ckpt")
        half = StreamingDetector(trained_cats, rescore_growth=1.0)
        half.observe_many(feed[:cut])
        manager.save(half.export_state())
        state, _ = manager.load_latest()
        restored = StreamingDetector.from_state(trained_cats, state)
        restored.observe_many(feed[cut:])

        assert restored.force_rescore_many(feed_item_ids) == (
            uninterrupted.force_rescore_many(feed_item_ids)
        )

    def test_restored_policy_wins_over_constructor(
        self, tmp_path, trained_cats, feed
    ):
        source = StreamingDetector(
            trained_cats,
            rescore_growth=1.5,
            min_comments_to_score=4,
            max_tracked_items=10,
        )
        source.observe_many(feed[:30])
        manager = CheckpointManager(tmp_path / "ckpt")
        manager.save(source.export_state())
        state, _ = manager.load_latest()
        restored = StreamingDetector.from_state(trained_cats, state)
        assert restored.rescore_growth == 1.5
        assert restored.min_comments_to_score == 4
        assert restored.max_tracked_items == 10
