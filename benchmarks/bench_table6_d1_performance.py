"""Table VI -- CATS performance on D1.

Paper:
    fraud items labeled with sufficient evidences  P=0.83 R=0.92 F=0.87
    the overall fraud items                        P=0.91 R=0.90 F=0.90

Shape: high precision and recall despite ~1.3% fraud prevalence, using
the detector pre-trained on D0 only.  The benchmark times stage-2
classification of the filtered D1 items (features precomputed, as in a
deployed pipeline) through the same memory-bounded scoring path the
deployment uses; wall time and peak RSS are recorded alongside the
metrics.
"""

import time

from benchutil import peak_rss_mib
from conftest import write_result

from repro.analysis.reporting import render_table
from repro.core.pipeline import EvaluationResult
from repro.ml.metrics import precision_recall_f1


def test_table6_d1_performance(benchmark, cats, d1, d1_features):
    def score():
        t0 = time.perf_counter()
        report = cats.detect_with_features(d1.items, d1_features)
        return report, time.perf_counter() - t0

    report, wall_s = benchmark(score)

    predictions = report.is_fraud.astype(int)
    precision, recall, f1 = precision_recall_f1(d1.labels, predictions)

    evidenced = d1.evidence_mask
    keep = (d1.labels == 0) | evidenced
    ep, er, ef = precision_recall_f1(d1.labels[keep], predictions[keep])

    result = EvaluationResult(
        precision=precision,
        recall=recall,
        f1=f1,
        n_reported=report.n_reported,
        n_true_fraud=d1.n_fraud,
        evidenced_precision=ep,
        evidenced_recall=er,
        evidenced_f1=ef,
    )
    rows = [row + [paper] for row, paper in zip(
        result.rows(),
        ["paper: P=0.83 R=0.92 F=0.87", "paper: P=0.91 R=0.90 F=0.90"],
    )]
    text = render_table(
        ["Category", "Precision", "Recall", "F-score", "reference"],
        rows,
        title="Table VI -- CATS on D1 (detector pre-trained on D0)",
    )
    text += (
        f"\n\nreported={report.n_reported} true_fraud={d1.n_fraud} "
        f"filter={report.filter_report}"
        f"\nscoring: wall={wall_s:.3f}s peak_rss={peak_rss_mib():.1f}MiB"
    )
    write_result("table6_d1_performance", text)

    # Band claims: both metrics high under heavy imbalance.
    assert precision > 0.6
    assert recall > 0.8
    assert f1 > 0.7
