"""Packed-ensemble inference engine: bit-identity with the per-tree
reference paths, row independence across the fixed scoring chunks, and
the fit-time leaf-gather margin update."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CATSConfig, DetectorConfig
from repro.core.detector import Detector
from repro.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    GradientBoostingClassifier,
)
from repro.ml.inference import _BLOCK_ROWS, _CHUNK_ROWS, PackedEnsemble


def make_data(seed: int, n: int, n_features: int):
    """Labeled data with heavy ties (rounded values) so trees hit the
    duplicate-threshold edge cases."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, n_features)) * 4) / 2
    w = rng.normal(size=n_features)
    y = (X @ w + 0.3 * rng.normal(size=n) > 0).astype(np.int64)
    if y.min() == y.max():  # degenerate draw: force both classes
        y[0] = 1 - y[0]
    return X, y


class TestGBDTIdentity:
    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(
        seed=st.integers(0, 50),
        n_estimators=st.integers(1, 8),
        max_depth=st.integers(1, 4),
        colsample=st.sampled_from([0.4, 1.0]),
        tree_method=st.sampled_from(["hist", "exact"]),
        layout=st.sampled_from(["heap", "pointer"]),
    )
    def test_packed_margins_match_reference(
        self, seed, n_estimators, max_depth, colsample, tree_method, layout
    ):
        X, y = make_data(seed, 120, 5)
        model = GradientBoostingClassifier(
            n_estimators=n_estimators,
            max_depth=max_depth,
            colsample=colsample,
            tree_method=tree_method,
            seed=seed,
        ).fit(X, y)
        X_test, _ = make_data(seed + 1000, 300, 5)
        reference = model.decision_function_reference(X_test)
        packed = PackedEnsemble.from_gbdt(model, layout=layout)
        assert np.array_equal(packed.margins(X_test), reference)
        # The default decision_function is the packed path.
        assert np.array_equal(model.decision_function(X_test), reference)

    def test_single_node_trees(self):
        """Constant features leave every tree a bare root leaf."""
        X = np.zeros((30, 3))
        y = np.array([0, 1] * 15)
        model = GradientBoostingClassifier(n_estimators=4, seed=0).fit(X, y)
        assert all(len(t.feature) == 1 for t in model.trees_)
        X_test = np.zeros((7, 3))
        assert np.array_equal(
            model.decision_function(X_test),
            model.decision_function_reference(X_test),
        )

    def test_refit_invalidates_packed_cache(self):
        X, y = make_data(5, 150, 4)
        model = GradientBoostingClassifier(n_estimators=5, seed=5).fit(X, y)
        first = model.decision_function(X)
        X2, y2 = make_data(6, 150, 4)
        model.fit(X2, y2)
        assert np.array_equal(
            model.decision_function(X),
            model.decision_function_reference(X),
        )
        assert not np.array_equal(model.decision_function(X), first)


class TestChunkedScoring:
    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(seed=st.integers(0, 20), data=st.data())
    def test_chunked_identical_to_unchunked(self, seed, data):
        """Rows are scored independently: splitting X anywhere and
        scoring the halves separately gives the same margins."""
        X, y = make_data(seed, 150, 5)
        model = GradientBoostingClassifier(n_estimators=6, seed=seed).fit(
            X, y
        )
        X_test, _ = make_data(seed + 99, 300, 5)
        k = data.draw(st.integers(0, len(X_test)), label="k")
        packed = model._packed_ensemble()
        assert np.array_equal(
            packed.margins(X_test),
            np.concatenate(
                [packed.margins(X_test[:k]), packed.margins(X_test[k:])]
            ),
        )

    def test_more_rows_than_one_chunk(self):
        """A matrix one row past the fixed scoring chunk crosses the
        chunk boundary and still matches the per-tree reference."""
        X, y = make_data(12, 150, 5)
        model = GradientBoostingClassifier(n_estimators=6, seed=12).fit(
            X, y
        )
        X_test, _ = make_data(13, _CHUNK_ROWS + 1, 5)
        assert np.array_equal(
            model.decision_function(X_test),
            model.decision_function_reference(X_test),
        )

    def test_block_boundary_sizes(self):
        """Row counts straddling the internal cache block never change
        the margins."""
        X, y = make_data(9, 150, 5)
        model = GradientBoostingClassifier(n_estimators=6, seed=9).fit(X, y)
        for n in (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1):
            X_test, _ = make_data(n + 10_000, n, 5)
            assert np.array_equal(
                model.decision_function(X_test),
                model.decision_function_reference(X_test),
            )

    def test_counters_track_activity(self):
        X, y = make_data(10, 100, 4)
        model = GradientBoostingClassifier(n_estimators=3, seed=10).fit(X, y)
        packed = model._packed_ensemble()
        assert packed.scoring_stats() == {"calls": 0, "rows": 0}
        model.decision_function(X)
        model.decision_function(X[:40])
        assert packed.scoring_stats() == {"calls": 2, "rows": 140}


class TestCARTIdentity:
    @settings(deadline=None, max_examples=20, derandomize=True)
    @given(
        seed=st.integers(0, 40),
        max_depth=st.sampled_from([1, 3, None]),
        layout=st.sampled_from([None, "heap", "pointer"]),
    )
    def test_packed_leaf_values_match_reference(self, seed, max_depth, layout):
        X, y = make_data(seed, 150, 4)
        model = DecisionTreeClassifier(max_depth=max_depth).fit(X, y)
        X_test, _ = make_data(seed + 500, 300, 4)
        if layout == "heap" and max_depth is None and model.depth > 10:
            return  # heap layout is capped; auto-selection covers this
        packed = PackedEnsemble.from_tree(model, layout=layout)
        assert np.array_equal(
            packed.margins(X_test), model._leaf_values(X_test)
        )

    def test_deep_tree_uses_pointer_layout(self):
        """Unbounded-depth CART must not trigger the exponential heap
        padding."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(2000, 3))
        y = (rng.random(2000) < 0.5).astype(np.int64)  # noise: deep tree
        model = DecisionTreeClassifier(max_depth=None).fit(X, y)
        assert model.depth > 10
        packed = model._packed_ensemble()
        assert packed.layout == "pointer"
        assert packed.n_slots == model.node_count
        X_test = rng.normal(size=(500, 3))
        assert np.array_equal(
            model.predict_proba(X_test)[:, 1], model._leaf_values(X_test)
        )

    def test_single_leaf_tree(self):
        model = DecisionTreeClassifier().fit(
            np.zeros((10, 2)), np.array([0, 1] * 5)
        )
        X_test = np.zeros((4, 2))
        assert np.array_equal(
            model.predict_proba(X_test)[:, 1], model._leaf_values(X_test)
        )


class TestAdaBoostIdentity:
    @settings(deadline=None, max_examples=20, derandomize=True)
    @given(
        seed=st.integers(0, 40),
        n_estimators=st.integers(1, 12),
        max_depth=st.integers(1, 3),
    )
    def test_packed_votes_match_reference(self, seed, n_estimators, max_depth):
        X, y = make_data(seed, 150, 4)
        model = AdaBoostClassifier(
            n_estimators=n_estimators, max_depth=max_depth
        ).fit(X, y)
        X_test, _ = make_data(seed + 300, 300, 4)
        assert np.array_equal(
            model.decision_function(X_test),
            model.decision_function_reference(X_test),
        )


class TestFitLeafGather:
    @settings(deadline=None, max_examples=15, derandomize=True)
    @given(
        seed=st.integers(0, 30),
        tree_method=st.sampled_from(["hist", "hist-pernode", "exact"]),
        subsample=st.sampled_from([1.0, 0.6]),
    )
    def test_gather_update_identical_to_retraversal(
        self, seed, tree_method, subsample
    ):
        """The builder's recorded leaf assignment must reproduce the
        margin the re-traversal produced, so the fitted models match
        tree for tree -- including subsampled rounds, where the gather
        covers the sampled rows and only left-out rows re-traverse."""
        X, y = make_data(seed, 150, 5)
        kwargs = dict(
            n_estimators=6,
            max_depth=3,
            tree_method=tree_method,
            subsample=subsample,
            seed=seed,
        )
        gathered = GradientBoostingClassifier(**kwargs)
        gathered.fit(X, y)
        retraversed = GradientBoostingClassifier(**kwargs)
        retraversed._margin_via_gather = False
        retraversed.fit(X, y)
        assert gathered.base_margin_ == retraversed.base_margin_
        for tree_a, tree_b in zip(gathered.trees_, retraversed.trees_):
            assert np.array_equal(tree_a.feature, tree_b.feature)
            assert np.array_equal(tree_a.threshold, tree_b.threshold)
            assert np.array_equal(tree_a.leaf_weight, tree_b.leaf_weight)
        X_test, _ = make_data(seed + 77, 200, 5)
        assert np.array_equal(
            gathered.decision_function(X_test),
            retraversed.decision_function(X_test),
        )

    def test_subsample_gathers_sampled_rows(self):
        """Subsampled fits gather leaf weights for the sampled rows and
        re-traverse only the complement, and still score correctly."""
        X, y = make_data(11, 300, 5)
        model = GradientBoostingClassifier(
            n_estimators=5, subsample=0.6, seed=11
        ).fit(X, y)
        assert np.array_equal(
            model.decision_function(X),
            model.decision_function_reference(X),
        )


class TestDetectorChunking:
    @pytest.fixture(scope="class")
    def detector(self):
        X, y = make_data(21, 400, 11)
        config = CATSConfig()
        det = Detector(config.detector, config.rules)
        det.fit(X, y)
        return det

    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(k=st.integers(1, 499))
    def test_chunked_predict_proba_identical(self, detector, k):
        X, _ = make_data(22, 500, 11)
        assert np.array_equal(
            detector.predict_proba(X),
            np.concatenate(
                [detector.predict_proba(X[:k]), detector.predict_proba(X[k:])]
            ),
        )

    def test_packed_scoring_stats_counts(self):
        X, y = make_data(23, 300, 11)
        config = CATSConfig()
        det = Detector(config.detector, config.rules)
        det.fit(X, y)
        assert det.packed_scoring_stats() == {
            "packed_predict_calls": 0,
            "packed_rows_scored": 0,
        }
        det.predict_proba(X)
        stats = det.packed_scoring_stats()
        assert stats["packed_predict_calls"] == 1
        assert stats["packed_rows_scored"] == 300

    def test_unfitted_detector_reports_zero_stats(self):
        det = Detector(DetectorConfig())
        assert det.packed_scoring_stats() == {
            "packed_predict_calls": 0,
            "packed_rows_scored": 0,
        }
