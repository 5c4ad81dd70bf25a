"""Reference debiasing methods, and a learned reweighting scored against them.

Batch calibration estimates a contextual prior by averaging the probability
vectors of the batch and subtracts it from each sample before the argmax.
Labels are never used, so it can run on unlabeled test batches.
``compare_methods`` scores identity, batch calibration and a given weight
selection on one test set, as the rows of the JSON comparison report;
learning the selection is the caller's job.
"""

from __future__ import annotations

import numpy as np

from .data import ProbabilityDataset, WeightScale, WeightSelection, readonly_array
from .metrics import class_report, counts_from_predictions, report_from_counts


def batch_calibrate(dataset: ProbabilityDataset) -> np.ndarray:
    """Read-only predictions after subtracting the batch-mean probability
    vector from every row.

    Ties break to the lowest class index. Invariant to sample order because
    the prior is a plain mean.
    """
    scores = dataset.probs - dataset.probs.mean(axis=0)
    return readonly_array(np.argmax(scores, axis=1))


def compare_methods(
    test_set: ProbabilityDataset,
    selection: WeightSelection,
    scale: WeightScale,
) -> list[dict]:
    """Identity, batch calibration, and the reweighting ``selection`` on the
    test set, one row each in that order, with the keys ``method``,
    ``accuracy``, ``error_rate``, ``cobias`` and ``cobias_single``.

    The selection should be learned on a separate optimization set; the test
    set is used here only for evaluation.
    """
    calibrated = counts_from_predictions(test_set.labels, batch_calibrate(test_set),
                                         test_set.num_classes)
    reports = {
        "identity": class_report(test_set),
        "batch_calibration": report_from_counts(calibrated),
        "dnip": class_report(test_set, selection, scale),
    }
    return [
        {"method": method, "accuracy": r["overall_accuracy"],
         "error_rate": 1.0 - r["overall_accuracy"], "cobias": r["cobias"],
         "cobias_single": r["cobias_single"]}
        for method, r in reports.items()
    ]
