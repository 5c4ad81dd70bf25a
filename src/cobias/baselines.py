"""Reference debiasing methods, and a learned reweighting scored against them.

Batch calibration estimates a contextual prior by averaging the probability
vectors of the batch and subtracts it from each sample before the argmax.
Labels are never used, so it can run on unlabeled test batches.
``compare_methods`` scores identity, batch calibration and a given weight
selection on one test set; learning the selection is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ProbabilityDataset, WeightScale, WeightSelection, readonly_array
from .metrics import class_report, counts_from_predictions, report_from_counts


@dataclass(frozen=True, eq=False)
class BatchCalibration:
    """Prior, shifted scores (not probabilities), and resulting predictions."""

    prior: np.ndarray
    scores: np.ndarray
    predictions: np.ndarray


def batch_calibrate(dataset: ProbabilityDataset) -> BatchCalibration:
    """Subtract the batch-mean probability vector, then argmax.

    Scores may be negative; ties break to the lowest class index. Invariant
    to sample order because the prior is a plain mean.
    """
    prior = dataset.probs.mean(axis=0)
    scores = dataset.probs - prior
    return BatchCalibration(
        prior=readonly_array(prior),
        scores=readonly_array(scores),
        predictions=readonly_array(np.argmax(scores, axis=1)),
    )


@dataclass(frozen=True)
class MethodResult:
    """Test-set metrics for one debiasing method."""

    method: str
    accuracy: float
    error_rate: float
    cobias: float
    cobias_single: float


def compare_methods(
    test_set: ProbabilityDataset,
    selection: WeightSelection,
    scale: WeightScale,
) -> tuple[MethodResult, ...]:
    """Identity, batch calibration, and the reweighting ``selection`` on the
    test set, one row each in that order.

    The selection should be learned on a separate optimization set; the test
    set is used here only for evaluation.
    """
    calibrated = batch_calibrate(test_set)
    reports = {
        "identity": class_report(test_set),
        "batch_calibration": report_from_counts(
            counts_from_predictions(test_set.labels, calibrated.predictions, test_set.num_classes)
        ),
        "dnip": class_report(test_set, selection, scale),
    }
    return tuple(
        MethodResult(method, r.overall, 1.0 - r.overall, r.cobias, r.cobias_single)
        for method, r in reports.items()
    )
