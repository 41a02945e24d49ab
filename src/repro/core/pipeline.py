"""End-to-end experiment drivers.

These functions wire the full paper workflow together and are what the
benchmark harness calls:

* :func:`train_cats` -- train the semantic analyzer, build D0, pre-train
  the detector (the paper's Section II-B setup);
* :func:`evaluate_on_dataset` -- run detection on a labeled dataset and
  compute the Table VI metrics (overall and evidence-labeled subsets);
* :func:`run_crawl` -- crawl a platform website into a dataset store;
* :func:`audit_reported_items` -- the Section IV validation: sample
  reported items and check them against expert judgment (ground truth
  plays the role of the paper's anti-fraud experts).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.collector.crawler import Crawler
from repro.collector.records import CrawledItem
from repro.collector.storage import DatasetStore
from repro.core.config import CATSConfig
from repro.core.detector import DetectionReport
from repro.core.system import CATS
from repro.datasets.builders import LabeledDataset, build_analyzer, build_d0
from repro.ecommerce.entities import Platform
from repro.ecommerce.language import SyntheticLanguage
from repro.ecommerce.website import PlatformWebsite
from repro.ml.base import as_rng
from repro.ml.metrics import precision_recall_f1


@dataclass
class EvaluationResult:
    """Table VI-shaped metrics for one labeled evaluation."""

    precision: float
    recall: float
    f1: float
    n_reported: int
    n_true_fraud: int
    evidenced_precision: float | None = None
    evidenced_recall: float | None = None
    evidenced_f1: float | None = None

    def rows(self) -> list[list[object]]:
        """Rows in the layout of the paper's Table VI."""
        rows: list[list[object]] = []
        if self.evidenced_precision is not None:
            rows.append(
                [
                    "fraud items labeled with sufficient evidences",
                    self.evidenced_precision,
                    self.evidenced_recall,
                    self.evidenced_f1,
                ]
            )
        rows.append(
            ["the overall fraud items", self.precision, self.recall, self.f1]
        )
        return rows


def train_cats(
    language: SyntheticLanguage | None = None,
    d0_scale: float = 0.1,
    config: CATSConfig | None = None,
    analyzer_seed: int = 500,
    d0_seed: int = 100,
    tree_workers: int | None = None,
) -> tuple[CATS, LabeledDataset]:
    """Train the full system: analyzer + detector pre-trained on D0.

    ``tree_workers`` threads the GBDT histogram engine during the
    detector fit (``DetectorConfig.tree_workers``); the trained system
    is bit-identical for any value.
    """
    if tree_workers is not None:
        config = config or CATSConfig()
        config = replace(
            config,
            detector=replace(config.detector, tree_workers=tree_workers),
        )
    analyzer = build_analyzer(language, config=config, seed=analyzer_seed)
    cats = CATS(analyzer, config=config)
    d0 = build_d0(language, scale=d0_scale, seed=d0_seed)
    cats.fit(d0.items, d0.labels)
    return cats, d0


def evaluate_on_dataset(
    cats: CATS,
    dataset: LabeledDataset,
    n_workers: int | None = None,
) -> tuple[EvaluationResult, DetectionReport]:
    """Detect over *dataset* and compute Table VI metrics.

    ``n_workers > 1`` parallelizes feature extraction (the hot path)
    across worker processes; results are identical to the serial run.
    """
    report = cats.detect(dataset.items, n_workers=n_workers)
    predictions = report.is_fraud.astype(int)
    precision, recall, f1 = precision_recall_f1(dataset.labels, predictions)

    evidenced = dataset.evidence_mask
    result = EvaluationResult(
        precision=precision,
        recall=recall,
        f1=f1,
        n_reported=report.n_reported,
        n_true_fraud=dataset.n_fraud,
    )
    if evidenced.any():
        # Evidence-subset metrics: restrict the population to normal
        # items plus evidence-labeled frauds, mirroring the paper's
        # per-category row.
        keep = (dataset.labels == 0) | evidenced
        ep, er, ef = precision_recall_f1(
            dataset.labels[keep], predictions[keep]
        )
        result.evidenced_precision = ep
        result.evidenced_recall = er
        result.evidenced_f1 = ef
    return result, report


def run_crawl(
    platform: Platform,
    page_size: int = 50,
    failure_rate: float = 0.02,
    duplicate_rate: float = 0.01,
    seed: int = 0,
    max_items: int | None = None,
) -> tuple[DatasetStore, Crawler]:
    """Crawl *platform*'s public website into a cleaned dataset store."""
    website = PlatformWebsite(
        platform,
        page_size=page_size,
        failure_rate=failure_rate,
        duplicate_rate=duplicate_rate,
        seed=seed,
    )
    crawler = Crawler(website, max_items=max_items)
    result = crawler.crawl()
    return DatasetStore.from_crawl(result), crawler


def audit_reported_items(
    platform: Platform,
    crawled_items: list[CrawledItem],
    report: DetectionReport,
    sample_size: int = 1000,
    seed: int | np.random.Generator | None = 0,
) -> dict[str, float]:
    """The paper's manual-audit validation (Section IV-B).

    Samples up to *sample_size* reported items and checks each against
    ground truth (standing in for the paper's anti-fraud experts, who
    confirmed 960 of 1,000).  Returns the audit precision and counts.
    """
    rng = as_rng(seed)
    reported = np.flatnonzero(report.is_fraud)
    if len(reported) == 0:
        raise ValueError("no items were reported; nothing to audit")
    n_sample = min(sample_size, len(reported))
    picks = rng.choice(reported, size=n_sample, replace=False)
    confirmed = 0
    for idx in picks:
        item = platform.item_by_id(crawled_items[idx].item_id)
        if item.is_fraud:
            confirmed += 1
    return {
        "n_reported": float(len(reported)),
        "n_audited": float(n_sample),
        "n_confirmed": float(confirmed),
        "audit_precision": confirmed / n_sample,
    }
