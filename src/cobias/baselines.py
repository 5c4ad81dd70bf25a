"""Reference debiasing methods: identity and batch calibration.

Batch calibration estimates a contextual prior by averaging the probability
vectors of the batch and subtracts it from each sample before the argmax.
Labels are never used, so it can run on unlabeled test batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annealer import AnnealSchedule, anneal
from .data import ProbabilityDataset, WeightScale, readonly_array
from .errors import ValidationError
from .metrics import class_report, counts_from_predictions, report_from_confusion, ConfusionMatrix
from .objective import ObjectiveConfig


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


def check_pair(optimization_set: ProbabilityDataset, test_set: ProbabilityDataset) -> None:
    """Refuse an optimization and a test set whose class counts differ."""
    if optimization_set.num_classes != test_set.num_classes:
        raise ValidationError(
            f"optimization set has {optimization_set.num_classes} classes but "
            f"test set has {test_set.num_classes}"
        )


def compare_methods(
    optimization_set: ProbabilityDataset,
    test_set: ProbabilityDataset,
    scale: WeightScale,
    config: ObjectiveConfig,
    schedule: AnnealSchedule,
) -> tuple[MethodResult, ...]:
    """Identity, batch calibration, and annealed reweighting on the test set,
    one row each in that order.

    The reweighting is fit on the optimization set only; the test set is
    touched exclusively at evaluation time.
    """
    check_pair(optimization_set, test_set)

    def row(method: str, report) -> MethodResult:
        return MethodResult(
            method=method,
            accuracy=report.overall,
            error_rate=1.0 - report.overall,
            cobias=report.cobias,
            cobias_single=report.cobias_single,
        )

    identity = class_report(test_set)
    calibrated = batch_calibrate(test_set)
    cal_counts = counts_from_predictions(
        test_set.labels, calibrated.predictions, test_set.num_classes
    )
    calibration = report_from_confusion(ConfusionMatrix(counts=readonly_array(cal_counts)))
    result = anneal(optimization_set, scale, config, schedule)
    dnip = class_report(test_set, result.selection, scale)
    return (
        row("identity", identity),
        row("batch_calibration", calibration),
        row("dnip", dnip),
    )
