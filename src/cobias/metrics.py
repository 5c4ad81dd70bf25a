"""Confusion counts and class-accuracy imbalance metrics.

Every metric is a function of the N x N confusion counts (``counts[i][j]``
samples of true class i predicted as j): ``confusion`` returns them as a
read-only int64 array, and the ``*_counts`` functions and ``odd_classes`` take it.

COBias is the mean absolute difference in accuracy over all class pairs:

    COBias = C(N,2)^-1 * sum_{i<j} |A_i - A_j|

The odd class of a true class i is the class receiving most of i's
mispredictions; COBias_single averages |A_odd(i) - A_i| over classes with a
defined odd class. The per-class PMI uses add-mu smoothed count ratios

    PMI_j = ln( f(pred=j, true=j) / (f(pred=j) * f(true=j)) ),
    f(event) = (count + mu) / (M + mu * N)

with natural logarithms throughout.

A report is a dict with the JSON evaluation report's keys in its order:
``class_report`` and ``report_from_counts`` give all but ``pmi`` and ``mu``,
which ``report_document`` adds.
"""

from __future__ import annotations

import warnings

import numpy as np

from .data import ProbabilityDataset, WeightScale, WeightSelection, readonly_array
from .defaults import DEFAULT_MU
from .errors import ValidationError


def counts_from_predictions(labels: np.ndarray, predictions: np.ndarray, num_classes: int) -> np.ndarray:
    flat = labels * num_classes + predictions
    return np.bincount(flat, minlength=num_classes**2).reshape(num_classes, num_classes)


def confusion(
    dataset: ProbabilityDataset,
    selection: WeightSelection | None = None,
    scale: WeightScale | None = None,
) -> np.ndarray:
    """Read-only confusion counts of the dataset under (optionally
    reweighted) argmax, ties to the lowest class index."""
    scores = dataset.probs
    if selection is not None:
        if scale is None:
            raise ValidationError("a weight selection requires its scale")
        selection.validate(dataset.num_classes, scale)
        scores = scores * selection.coefficients(scale)
    preds = np.argmax(scores, axis=1)
    return readonly_array(counts_from_predictions(dataset.labels, preds, dataset.num_classes))


def accuracy_from_counts(counts: np.ndarray) -> np.ndarray:
    """Diagonal over row totals; NaN marks classes with no true samples."""
    totals = counts.sum(axis=1).astype(np.float64)
    diag = np.diag(counts).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0, diag / totals, np.nan)


def _gap_weights(defined: int, total: int) -> tuple[np.ndarray, float] | None:
    """Weights and pair count of the pairwise gap over ``defined`` of ``total``
    classes, or None (gap 0) below two; warns about the excluded classes.

    For sorted a: sum_{i<j} (a_j - a_i) = sum_k a_k * (2k - n + 1).
    """
    if defined < total:
        warnings.warn(
            "classes without true samples excluded from the pairwise accuracy gap",
            stacklevel=3,
        )
    if defined < 2:
        warnings.warn("fewer than 2 classes with defined accuracy; gap is 0", stacklevel=3)
        return None
    return 2.0 * np.arange(defined) - (defined - 1), defined * (defined - 1) / 2


def _pairwise_gap(acc: np.ndarray, weights: np.ndarray, pairs: float) -> np.ndarray:
    """Mean absolute pairwise difference along the last axis of ``acc`` (no
    NaN entries), as a float64 array with that axis removed.

    Sorting makes the result exactly permutation invariant. Anchoring at the
    minimum makes equal inputs yield exactly 0: every difference is then +0,
    and so is any sum that includes the last, positively weighted, one. Each
    row is summed by numpy's reduction over one contiguous row, so a stack of
    rows gives the values of the rows taken one at a time.
    """
    a = np.ascontiguousarray(np.sort(acc, axis=-1))
    return ((a - a[..., :1]) * weights).sum(axis=-1) / pairs


_LEAST_POSITIVE = float(np.nextafter(0.0, 1.0))


def _nonzero_if_unequal(mean: float, unequal: bool) -> float:
    """``mean`` of nonnegative gaps, kept positive when some gap is: a mean
    below the least subnormal (say of gaps 5e-324 over several pairs) rounds
    to 0, which would read as all accuracies equal."""
    return _LEAST_POSITIVE if unequal and mean == 0.0 else mean


def cobias(per_class) -> float:
    """Mean absolute pairwise accuracy difference.

    NaN entries (classes without true samples) are excluded from the pairs
    with a warning; fewer than two defined entries yield 0.0.
    """
    vals = np.asarray(per_class, dtype=np.float64)
    if vals.ndim != 1 or vals.size < 2:
        raise ValidationError("need accuracies for at least 2 classes")
    defined = vals[~np.isnan(vals)]
    gap = _gap_weights(defined.size, vals.size)
    if gap is None:
        return 0.0
    return _nonzero_if_unequal(float(_pairwise_gap(defined, *gap)), defined.max() > defined.min())


def odd_classes(counts: np.ndarray) -> tuple[int | None, ...]:
    """Per true class, the class receiving most of its mispredictions.

    Ties break to the lowest class index; rows without any misprediction
    map to None.
    """
    off = counts.copy()
    np.fill_diagonal(off, -1)
    best = np.argmax(off, axis=1)
    defined = off.max(axis=1) > 0
    return tuple(j if d else None for j, d in zip(best.tolist(), defined.tolist()))


def cobias_single(per_class, odd: tuple[int | None, ...]) -> float:
    """Mean |A_odd(i) - A_i| over classes with a defined odd class; 0.0 when
    no class has one (a perfectly diagonal confusion matrix)."""
    vals = np.asarray(per_class, dtype=np.float64)
    pairs = [(vals[i], vals[j]) for i, j in enumerate(odd) if j is not None]
    gaps = [abs(b - a) for a, b in pairs if not (np.isnan(a) or np.isnan(b))]
    if len(gaps) < len(pairs):
        warnings.warn(
            "pairs involving classes without true samples excluded from the odd-class gap",
            stacklevel=2,
        )
    if not gaps:
        return 0.0
    return _nonzero_if_unequal(float(sum(gaps) / len(gaps)), any(gaps))


def check_mu(mu: float, class_totals: np.ndarray | None = None) -> float | None:
    """Refuse a PMI smoothing that is negative or not finite and, given the
    true-class totals, one that leaves the PMI of some counts with those
    totals not finite. The PMI is monotone in the joint and predicted counts,
    so it is checked at the corners of their range per class of total t:
    (joint, pred) = (0, 0), (0, M - t), (t, t), (t, M). A huge mu overflows a
    product; a tiny one underflows ``mu * mu``, the denominator of a class
    without true samples or predictions. Given the totals, returns a bound on
    |z3| over those counts: the sum of each class's largest |PMI| there."""
    if not 0 <= mu < np.inf:
        raise ValidationError(f"mu must be finite and nonnegative, got {mu}")
    if class_totals is not None:
        t = class_totals.astype(np.float64)
        m, zero = t.sum(), np.zeros_like(t)
        with np.errstate(all="ignore"):  # a value that is not finite is refused, not warned
            corners = _pmi(np.stack([zero, zero, t, t]), np.stack([zero, m - t, t, zero + m]),
                           t + mu, m + mu * t.size, mu)
        _refuse_nonfinite(corners, mu, " for some confusion counts on this dataset")
        return float(np.abs(corners).max(axis=0).sum())


def _refuse_nonfinite(pmi: np.ndarray, mu: float, where: str = "") -> None:
    bad = np.flatnonzero(~np.isfinite(np.atleast_2d(pmi)).all(axis=0))
    if bad.size:
        raise ValidationError(f"mu={mu:g} makes the smoothed PMI of class {bad[0]} not finite{where}")


def pmi_from_counts(counts: np.ndarray, mu: float) -> np.ndarray:
    """Smoothed pointwise mutual information between predicted and true
    class j; refuses a ``mu`` that leaves a value not finite."""
    check_mu(mu)
    m = counts.sum()
    n = counts.shape[0]
    joint = np.diag(counts).astype(np.float64)
    pred = counts.sum(axis=0).astype(np.float64)
    true = counts.sum(axis=1).astype(np.float64)
    if mu == 0:
        bad = np.flatnonzero((joint == 0) | (pred == 0) | (true == 0))
        if bad.size:
            raise ValidationError(
                f"class {bad[0]}: zero count with mu=0 makes the PMI ratio undefined"
            )
    with np.errstate(all="ignore"):
        pmi = _pmi(joint, pred, true + mu, m + mu * n, mu)
    _refuse_nonfinite(pmi, mu)
    return pmi


def _pmi(joint, pred, true_mu: np.ndarray, denom: float, mu: float) -> np.ndarray:
    """Smoothed PMI from the diagonal, the prediction totals, the smoothed
    true-class totals ``true + mu`` and ``denom = M + mu * N``.

    f(joint)/(f(pred)*f(true)) with f = (c + mu)/(M + mu*N) rearranges to
    (joint + mu)(M + mu*N) / ((pred + mu)(true + mu)); at mu=0 this is a
    ratio of exact integer products, so exact independence gives exactly 0.
    """
    return np.log((joint + mu) * denom / ((pred + mu) * true_mu))


def class_report(
    dataset: ProbabilityDataset,
    selection: WeightSelection | None = None,
    scale: WeightScale | None = None,
) -> dict:
    """The evaluation report of a dataset under a selection, without the PMI."""
    return report_from_counts(confusion(dataset, selection, scale))


def report_from_counts(counts: np.ndarray) -> dict:
    """The evaluation report of confusion counts, without the PMI.

    ``per_class_accuracy`` holds None for classes with no true samples and
    ``odd_classes`` None for rows without mispredictions; ``cobias_single``
    is 0.0 when no class has an odd class (a perfectly diagonal matrix).
    """
    acc = accuracy_from_counts(counts)
    odd = odd_classes(counts)
    return {
        "schema_version": 1,
        "kind": "evaluation_report",
        "num_samples": int(counts.sum()),
        "num_classes": counts.shape[0],
        "confusion": counts.tolist(),
        "class_totals": counts.sum(axis=1).tolist(),
        "prediction_totals": counts.sum(axis=0).tolist(),
        "per_class_accuracy": [None if np.isnan(a) else float(a) for a in acc],
        "overall_accuracy": float(np.diag(counts).sum() / counts.sum()),
        "cobias": cobias(acc),
        "cobias_single": cobias_single(acc, odd),
        "odd_classes": list(odd),
    }


def report_document(
    dataset: ProbabilityDataset,
    selection: WeightSelection | None = None,
    scale: WeightScale | None = None,
    mu: float = DEFAULT_MU,
) -> dict:
    """The versioned evaluation report: ``class_report`` plus the PMI vector
    and its smoothing ``mu``. See the README for field documentation."""
    counts = confusion(dataset, selection, scale)
    report = report_from_counts(counts)  # its warnings come before the PMI's
    return {**report, "pmi": [float(v) for v in pmi_from_counts(counts, mu)], "mu": mu}
