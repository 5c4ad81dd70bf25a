"""The correction objective, its table over a whole search space, and its
incremental evaluation fast path.

For a weight selection xi the objective combines three terms computed from
the reweighted argmax predictions on the optimization set:

    z1  error rate          (1/M) * sum 1{pred != label}
    z2  accuracy imbalance  mean absolute pairwise accuracy difference
    z3  PMI sum             sum_j PMI_j with add-mu smoothing

    total = [z1 on]*z1 + [z2 on]*beta*z2 - [z3 on]*tau*z3

All three terms are pure functions of the integer confusion counts. A
reweighting moves samples between predicted classes but never changes the
true-class totals M_i, so everything built from the totals and the config
alone is computed once per dataset by ``_Objective``, which also issues the
"classes without true samples" warning once. It scores one counts matrix or
a stack of them with the same float operations, and its arithmetic is the
metrics module's. Two evaluators build on it and agree bit for bit with the
reference ``objective_from_counts(confusion(...), config)``:
``objective_table`` scores all K^N selections by a threshold sweep (the
oracle's search, and the annealer's when that is cheaper than its chain),
and ``IncrementalEvaluator`` scores one move at a time: ``propose`` returns
a move's total, ``apply()`` commits the move proposed last. Both predict
through ``_argmax``, so neither checks the other's tie rule: the independent
check of each is the reference, whose ``confusion`` runs ``np.argmax``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ObjectiveConfig, ProbabilityDataset, WeightScale, WeightSelection
from .errors import ValidationError
from .metrics import _gap_weights, _pairwise_gap, _pmi, check_mu, counts_from_predictions


@dataclass(frozen=True)
class ObjectiveValue:
    """Evaluated objective; disabled terms are reported as None."""

    z1_error_rate: float | None
    z2_cobias: float | None
    z3_pmi_sum: float | None
    total: float


def check_config(config: ObjectiveConfig, true_totals: np.ndarray) -> None:
    """With z3, refuse a mu that leaves the PMI of some counts with these
    true-class totals not finite, and a beta and tau that can overflow
    z1 + beta*z2 - tau*z3: z1 and z2 lie in [0, 1], ``check_mu`` bounds |z3|."""
    if config.use_z3:
        z3_max = check_mu(config.mu, true_totals)
        if not math.isfinite(config.use_z1 + config.use_z2 * config.beta + config.tau * z3_max):
            beta = f" and beta={config.beta:g}" if config.use_z2 else ""
            raise ValidationError(f"tau={config.tau:g}{beta} can overflow the objective on "
                                  f"this dataset, where |z3| may reach {z3_max:g}")


class _Objective:
    """Counts-to-value map for one dataset's true-class totals and one config.

    Computed once at construction: M, the classes with true samples and
    their totals as floats, the pairwise-gap weights ``2k - (n-1)`` and pair
    count, ``true + mu`` and ``M + mu*N``; the warnings about classes without
    true samples are issued here, once. A call takes the diagonal and, for
    z3, the prediction totals of a counts matrix with these row totals and
    repeats the float operations of ``metrics.cobias`` and
    ``metrics.pmi_from_counts`` in the same order, so the value is
    bit-identical to that composition.
    """

    def __init__(self, true_totals: np.ndarray, config: ObjectiveConfig):
        check_config(config, true_totals)  # so no counts with these totals give a non-finite value
        self.config = config
        self._m = int(true_totals.sum())
        self._present = np.flatnonzero(true_totals > 0)
        self._present_totals = true_totals[self._present].astype(np.float64)
        if config.use_z2:
            self._gap = _gap_weights(self._present.size, true_totals.size)
        self._true_mu = true_totals.astype(np.float64) + config.mu
        self._denom = self._m + config.mu * true_totals.size

    def __call__(self, counts: np.ndarray) -> ObjectiveValue:
        """Value of one (N, N) counts matrix, or of a (B, N, N) stack, whose
        fields are then (B,) float64 arrays equal to the B single values."""
        config = self.config
        # C order, so every sum below reduces one contiguous row per matrix
        diag = np.ascontiguousarray(counts.diagonal(axis1=-2, axis2=-1))
        z1 = z2 = z3 = None
        total = 0.0
        if config.use_z1:
            z1 = (self._m - diag.sum(axis=-1)) / self._m
            total += z1
        if config.use_z2:
            z2 = np.zeros(diag.shape[:-1])
            if self._gap is not None:
                z2 = _pairwise_gap(diag[..., self._present] / self._present_totals, *self._gap)
            total += config.beta * z2
        if config.use_z3:
            z3 = _pmi(diag, counts.sum(axis=-2), self._true_mu, self._denom, config.mu).sum(axis=-1)
            total -= config.tau * z3
        if counts.ndim == 2:
            z1, z2, z3 = (None if v is None else float(v) for v in (z1, z2, z3))
            total = float(total)
        return ObjectiveValue(z1_error_rate=z1, z2_cobias=z2, z3_pmi_sum=z3, total=total)


def objective_from_counts(counts: np.ndarray, config: ObjectiveConfig) -> ObjectiveValue:
    """Evaluate the objective terms from integer confusion counts.

    Builds a fresh ``_Objective`` per call (and so warns per call); the
    annealer's evaluator keeps one per run instead.
    """
    return _Objective(counts.sum(axis=1), config)(counts)


def _argmax(probs_t: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray]:
    """Per column of the class-major ``probs_t``, the argmax and maximum of
    ``probs_t[j] * weights[j]`` over classes ``j < len(weights)``; a weight
    may be a column, one entry per weight vector. One class at a time, so no
    rows x N block is built; the strict ">" keeps the lowest index on ties,
    as ``np.argmax`` does."""
    best = probs_t[0] * weights[0]
    preds = np.zeros(best.shape, dtype=np.int64)
    for j in range(1, len(weights)):
        col = probs_t[j] * weights[j]
        preds[col > best] = j
        np.maximum(best, col, out=best)
    return preds, best


# The most selections ``objective_table`` scores, and the bytes of row-sized
# temporaries, summed over one chunk of prefixes, that it aims for.
DEFAULT_BUDGET = 10**6
_TABLE_CHUNK_BYTES = 1 << 20


def objective_table(
    dataset: ProbabilityDataset,
    scale: WeightScale,
    config: ObjectiveConfig,
) -> np.ndarray:
    """The objective total of all K^N selections, in ``itertools.product``
    order (the last class's index varies fastest), as one (K^N,) float64
    array. Refuses a K^N above ``DEFAULT_BUDGET`` before it allocates
    anything; the refusal message carries the exact selection count.

    A threshold sweep per prefix, the first N-1 indices: reducing those
    classes one at a time with a strict ">" gives each row's prediction and
    best score with argmax's first-index rule. The last class has the
    highest index, so it takes a row at scale point k exactly when
    ``p_last * (k/K) > best``, and those points form a suffix of the scale.
    Counting per row the points where ``p_last * (k/K) <= best``, one
    bincount over (label, prediction, count) and a cumulative sum over the
    count give the prefix's K confusion matrices at once. Every score is the
    product ``p * (index / K)`` that ``confusion`` forms, so each matrix
    equals its ``confusion`` counts and each total the reference's.

    Prefixes go in chunks whose temporaries stay near ``_TABLE_CHUNK_BYTES``;
    each chunk's matrices are scored as one stack as soon as they are built,
    so the K^N matrices never exist at once.
    """
    n, k, m = dataset.num_classes, scale.k_points, dataset.num_samples
    if k**n > DEFAULT_BUDGET:
        raise ValidationError(
            f"enumeration would evaluate {k**n} selections, above the budget of {DEFAULT_BUDGET}"
        )
    probs_t = np.ascontiguousarray(dataset.probs.T)
    true_totals = np.bincount(dataset.labels, minlength=n)
    objective = _Objective(true_totals, config)
    points = np.arange(1, k + 1) / k
    label_cells = dataset.labels * (n - 1)
    prefixes = k ** (n - 1)
    chunk = max(1, _TABLE_CHUNK_BYTES // (8 * (5 * m + 3 * k * n * n)))
    totals = np.empty(k**n)
    for start in range(0, prefixes, chunk):
        size = min(chunk, prefixes - start)
        digits = np.unravel_index(np.arange(start, start + size), (k,) * (n - 1))
        weights = [((d + 1) / k)[:, None] for d in digits]
        preds, best = _argmax(probs_t, weights)
        below = np.zeros(best.shape, dtype=np.int64)
        for w in points:
            below += probs_t[-1] * w <= best
        key = preds  # (prefix, label, prediction, count) as one flat cell
        key += label_cells
        key += (np.arange(size) * (n * (n - 1)))[:, None]
        key *= k + 1
        key += below
        hist = np.bincount(key.ravel(), minlength=size * n * (n - 1) * (k + 1))
        hist = hist.reshape(size, n, n - 1, k + 1)
        # kept[..., j]: rows whose prefix prediction survives scale point j + 1
        kept = np.cumsum(hist[..., :0:-1], axis=-1)[..., ::-1]
        counts = np.empty((size, k, n, n), dtype=np.int64)
        counts[..., :-1] = kept.transpose(0, 3, 1, 2)
        counts[..., -1] = true_totals - kept.sum(axis=2).transpose(0, 2, 1)
        totals[start * k:(start + size) * k] = objective(counts.reshape(-1, n, n)).total
    return totals


class IncrementalEvaluator:
    """Cached evaluation state for single-class weight changes.

    The cache holds a contiguous class-major copy of the probabilities
    (``probs.T``, shape N x M), the current scale indices ``indices``, each
    row's argmax prediction and maximum weighted score, and the confusion
    counts. A move changes one class c's weight, and only rows whose
    prediction can change are touched:

    * weight up: only rows whose new score ``p[c] * w`` reaches their
      maximum can change, and it becomes their maximum. A row predicting c
      keeps c; another switches to c exactly when the score beats its
      maximum, or equals it and c has the lower index (argmax's first-index
      tie rule). No argmax is run.
    * weight down: only rows predicting c can change; those rows alone are
      re-argmaxed, reducing ``probs_t[j, rows] * w[j]`` one class at a time.
      A no-op move takes this path and reproduces the cached rows.

    Every score is the same product ``p[i, j] * w[j]``, with
    ``w[j] = index_j / k_points``, that a full evaluation computes, and the
    confusion counts move by a bincount difference over the rows whose
    prediction changed, so results are bit-identical to a full evaluation.
    The counts are scored by an ``_Objective`` built once from the dataset's
    true-class totals, so its per-dataset constants are computed, and its
    warnings issued, once per evaluator rather than once per proposal.

    A single solver run owns the cache. It follows the annealer's evaluator
    protocol: built from (dataset, scale, config, selection); holds
    ``indices``; ``propose`` returns a float; ``apply`` returns None.
    ``propose`` changes nothing and keeps the rows it found, and ``apply()``
    commits them: the move proposed last.
    """

    def __init__(
        self,
        dataset: ProbabilityDataset,
        scale: WeightScale,
        config: ObjectiveConfig,
        selection: WeightSelection,
    ):
        n = dataset.num_classes
        self._k = scale.k_points
        self.indices = np.asarray(selection.indices, dtype=np.int64)
        self._probs_t = np.ascontiguousarray(dataset.probs.T)
        self._label_base = dataset.labels * n
        self._preds, self._row_max = _argmax(self._probs_t, self.indices / self._k)
        self._counts = counts_from_predictions(dataset.labels, self._preds, n)
        self._objective = _Objective(self._counts.sum(axis=1), config)
        self._total = self._objective(self._counts).total
        self._pending = None

    def propose(self, class_index: int, new_index: int) -> float:
        """Objective total with one class's weight changed. The selection and
        cache are untouched; the move is kept for ``apply``."""
        c = class_index
        weights = self.indices / self._k
        weights[c] = new_index / self._k
        if new_index > self.indices[c]:
            new_col = self._probs_t[c] * weights[c]
            rows = np.flatnonzero(new_col >= self._row_max)
            new_max = new_col[rows]
            old = self._preds[rows]
            flip = (old != c) & ((new_max > self._row_max[rows]) | (c < old))
            changed, old, new = rows[flip], old[flip], c
        else:
            rows = np.flatnonzero(self._preds == c)
            new_preds, new_max = _argmax(np.take(self._probs_t, rows, axis=1), weights)
            flip = new_preds != c
            changed, old, new = rows[flip], c, new_preds[flip]
        if changed.size:
            nn = self._counts.size
            base = self._label_base[changed]
            delta = np.bincount(base + new, minlength=nn) - np.bincount(base + old, minlength=nn)
            counts = self._counts + delta.reshape(self._counts.shape)
            total = self._objective(counts).total
        else:
            counts, total = self._counts, self._total
        self._pending = (c, new_index, changed, new, rows, new_max, counts, total)
        return total

    def apply(self) -> None:
        """Commit the move that ``propose`` scored last."""
        c, idx, changed, new, rows, new_max, counts, total = self._pending
        self.indices[c] = idx
        self._preds[changed] = new
        self._row_max[rows] = new_max
        self._counts = counts
        self._total = total

