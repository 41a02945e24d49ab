"""The CATS system facade.

Ties the four components together behind the workflow of the paper's
Fig. 6: train the semantic analyzer once on a large comment corpus,
pre-train the detector on a labeled dataset (D0), then detect frauds on
any platform's public data -- including platforms the detector was never
trained on, which is the paper's cross-platform claim.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.analyzer import SemanticAnalyzer
from repro.core.config import CATSConfig
from repro.core.detector import DetectionReport, Detector
from repro.core.features import FeatureExtractor


class CATS:
    """Cross-platform AnTi-fraud System.

    Parameters
    ----------
    analyzer:
        A trained :class:`SemanticAnalyzer` (see
        :meth:`SemanticAnalyzer.train`).
    config:
        Full system configuration; the detector settings select the
        stage-2 classifier.
    """

    def __init__(
        self,
        analyzer: SemanticAnalyzer,
        config: CATSConfig | None = None,
    ) -> None:
        self.config = config or CATSConfig()
        self.analyzer = analyzer
        self.feature_extractor = FeatureExtractor(analyzer)
        self.detector = Detector(self.config.detector, self.config.rules)
        #: Provenance of a loaded archive (path, content/analyzer
        #: hashes, feature schema); set by
        #: :func:`repro.core.persistence.load_cats`, ``None`` for
        #: systems trained in-process.
        self.archive_info: dict | None = None

    # -- training -----------------------------------------------------------

    def fit(self, items: Sequence, labels: Sequence[int]) -> "CATS":
        """Pre-train the detector on labeled *items* (the D0 role).

        ``items`` expose ``comment_texts``; *labels* are 1 = fraud.
        """
        if len(items) != len(labels):
            raise ValueError("items and labels must have equal length")
        features = self.feature_extractor.extract_items(items)
        self.detector.fit(features, np.asarray(labels))
        return self

    def fit_features(
        self, features: np.ndarray, labels: Sequence[int]
    ) -> "CATS":
        """Pre-train the detector on an existing feature matrix."""
        self.detector.fit(features, np.asarray(labels))
        return self

    # -- detection -----------------------------------------------------------

    def extract_features(
        self, items: Sequence, n_workers: int | None = None
    ) -> np.ndarray:
        """Feature matrix for *items* (exposes the extractor).

        ``n_workers > 1`` extracts the batch in that many worker
        processes (see :meth:`FeatureExtractor.extract_many`); rows are
        identical to the serial result.
        """
        return self.feature_extractor.extract_items(
            items, n_workers=n_workers
        )

    def detect(
        self, items: Sequence, n_workers: int | None = None
    ) -> DetectionReport:
        """Detect fraud items among *items* on any platform.

        ``n_workers`` parallelizes feature extraction (see
        :meth:`extract_features`).
        """
        features = self.feature_extractor.extract_items(
            items, n_workers=n_workers
        )
        return self.detector.detect(items, features)

    def detect_with_features(
        self, items: Sequence, features: np.ndarray
    ) -> DetectionReport:
        """Detect when features were already extracted (avoids rework)."""
        return self.detector.detect(items, features)

    # -- model selection ------------------------------------------------------

    def cross_validate_detector(
        self,
        features: np.ndarray,
        labels: Sequence[int],
        n_splits: int = 5,
        n_workers: int | None = None,
    ) -> dict[str, float]:
        """K-fold CV of the configured stage-2 classifier on a feature
        matrix (the paper's Table III protocol for one candidate).

        ``n_workers > 1`` fits the folds concurrently (see
        :func:`repro.ml.model_selection.cross_validate`); the metric
        dict is bitwise identical for every worker count.
        """
        from repro.core.detector import (
            CLASSIFIER_FACTORIES,
            SCALED_CLASSIFIERS,
        )
        from repro.ml import StandardScaler
        from repro.ml.model_selection import cross_validate

        X = np.asarray(features, dtype=np.float64)
        name = self.config.detector.classifier
        if name in SCALED_CLASSIFIERS:
            X = StandardScaler().fit(X).transform(X)
        factory = CLASSIFIER_FACTORIES[name]
        model_seed = self.config.detector.seed
        return cross_validate(
            lambda: factory(model_seed),
            X,
            np.asarray(labels),
            n_splits=n_splits,
            n_workers=n_workers,
        )

    # -- introspection --------------------------------------------------------

    def feature_importances(self) -> np.ndarray | None:
        """Stage-2 feature importances when available (Fig. 7)."""
        return self.detector.feature_importances()
