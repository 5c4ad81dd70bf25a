"""The correction objective and its incremental evaluation fast path.

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
"classes without true samples" warning once. The full and incremental
evaluators share that counts-to-value core, whose arithmetic is the metrics
module's, and agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import ProbabilityDataset, WeightScale, WeightSelection
from .errors import ValidationError
from .metrics import (
    DEFAULT_MU,
    _gap_weights,
    _pairwise_gap,
    _pmi,
    confusion,
    counts_from_predictions,
)

DEFAULT_BETA = 2.7
DEFAULT_TAU = 0.2

# The seven term combinations used for ablations, keyed by an ASCII name.
# "+z2" always carries the beta weight and "-z3" the (negated) tau weight.
TERM_COMBINATIONS = {
    "z1": (True, False, False),
    "z2": (False, True, False),
    "z3": (False, False, True),
    "z1+z2": (True, True, False),
    "z1-z3": (True, False, True),
    "z2-z3": (False, True, True),
    "z1+z2-z3": (True, True, True),
}

ABLATION_LABELS = {
    "z1": "z1",
    "z2": "z2",
    "z3": "z3",
    "z1+z2": "z1+βz2",
    "z1-z3": "z1-τz3",
    "z2-z3": "βz2-τz3",
    "z1+z2-z3": "z1+βz2-τz3",
}


@dataclass(frozen=True)
class ObjectiveConfig:
    """Term weights and per-term enable flags."""

    beta: float = DEFAULT_BETA
    tau: float = DEFAULT_TAU
    mu: float = DEFAULT_MU
    use_z1: bool = True
    use_z2: bool = True
    use_z3: bool = True

    def __post_init__(self):
        if self.beta < 0 or self.tau < 0 or self.mu < 0:
            raise ValidationError("beta, tau, and mu must be nonnegative")
        if not (self.use_z1 or self.use_z2 or self.use_z3):
            raise ValidationError("at least one objective term must be enabled")
        if self.use_z3 and self.mu == 0:
            # an unsmoothed PMI is undefined as soon as a move empties a count
            raise ValidationError("mu must be positive when the PMI term z3 is enabled")

    @classmethod
    def with_terms(cls, terms: str, beta: float = DEFAULT_BETA, tau: float = DEFAULT_TAU,
                   mu: float = DEFAULT_MU) -> "ObjectiveConfig":
        """Build a config from one of the named term combinations."""
        if terms not in TERM_COMBINATIONS:
            raise ValidationError(
                f"unknown term combination {terms!r}; expected one of "
                f"{', '.join(TERM_COMBINATIONS)}"
            )
        z1, z2, z3 = TERM_COMBINATIONS[terms]
        return cls(beta=beta, tau=tau, mu=mu, use_z1=z1, use_z2=z2, use_z3=z3)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ObjectiveConfig":
        flags = {name: doc[name] for name in ("use_z1", "use_z2", "use_z3")}
        for name, value in flags.items():
            if not isinstance(value, bool):
                raise ValidationError(f"{name} must be a JSON boolean, got {value!r}")
        return cls(
            beta=float(doc["beta"]),
            tau=float(doc["tau"]),
            mu=float(doc["mu"]),
            **flags,
        )


@dataclass(frozen=True)
class ObjectiveValue:
    """Evaluated objective; disabled terms are reported as None."""

    z1_error_rate: float | None
    z2_cobias: float | None
    z3_pmi_sum: float | None
    total: float


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
        self.config = config
        self._m = int(true_totals.sum())
        self._present = np.flatnonzero(true_totals > 0)
        self._present_totals = true_totals[self._present].astype(np.float64)
        if config.use_z2:
            self._gap = _gap_weights(self._present.size, true_totals.size)
        self._true_mu = true_totals.astype(np.float64) + config.mu
        self._denom = self._m + config.mu * true_totals.size

    def __call__(self, counts: np.ndarray) -> ObjectiveValue:
        config = self.config
        diag = counts.diagonal()
        z1 = z2 = z3 = None
        total = 0.0
        if config.use_z1:
            z1 = float((self._m - int(diag.sum())) / self._m)
            total += z1
        if config.use_z2:
            z2 = 0.0
            if self._gap is not None:
                acc = diag[self._present] / self._present_totals
                z2 = _pairwise_gap(acc, *self._gap)
            total += config.beta * z2
        if config.use_z3:
            pmi = _pmi(diag, counts.sum(axis=0), self._true_mu, self._denom, config.mu)
            z3 = float(pmi.sum())
            total -= config.tau * z3
        return ObjectiveValue(z1_error_rate=z1, z2_cobias=z2, z3_pmi_sum=z3, total=total)


def objective_from_counts(counts: np.ndarray, config: ObjectiveConfig) -> ObjectiveValue:
    """Evaluate the objective terms from integer confusion counts.

    Builds a fresh ``_Objective`` per call (and so warns per call); the
    annealer's evaluator keeps one per run instead.
    """
    return _Objective(counts.sum(axis=1), config)(counts)


def evaluate(
    dataset: ProbabilityDataset,
    selection: WeightSelection,
    scale: WeightScale,
    config: ObjectiveConfig,
) -> ObjectiveValue:
    """Full objective evaluation for one selection."""
    return objective_from_counts(confusion(dataset, selection, scale), config)


class IncrementalEvaluator:
    """Cached evaluation state for single-class weight changes.

    The cache holds a contiguous class-major copy of the probabilities
    (``probs.T``, shape N x M), the current scale indices, each row's argmax
    prediction and maximum weighted score, and the confusion counts. A move
    changes one class c's weight, and only rows whose prediction can change
    are touched:

    * weight up: rows predicting c keep c (only their maximum grows). Any
      other row switches to c exactly when the new score ``p[c] * w`` beats
      its maximum, or equals it and c has the lower index, which is argmax's
      first-index tie rule. No argmax is run.
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

    A single solver run owns the cache; ``propose`` is side-effect free and
    ``apply`` commits a move.
    """

    def __init__(
        self,
        dataset: ProbabilityDataset,
        scale: WeightScale,
        config: ObjectiveConfig,
        selection: WeightSelection,
    ):
        selection.validate(dataset.num_classes, scale)
        self.dataset = dataset
        self.scale = scale
        self.config = config
        n = dataset.num_classes
        self._indices = np.asarray(selection.indices, dtype=np.int64)
        self._probs_t = np.ascontiguousarray(dataset.probs.T)
        self._label_base = dataset.labels * n
        self._preds, self._row_max = self._argmax(self._indices / scale.k_points)
        self._counts = counts_from_predictions(dataset.labels, self._preds, n)
        self._objective = _Objective(self._counts.sum(axis=1), config)
        self._value = self._objective(self._counts)
        self._pending = None

    @property
    def selection(self) -> WeightSelection:
        return WeightSelection(tuple(int(i) for i in self._indices))

    @property
    def value(self) -> ObjectiveValue:
        return self._value

    def _check_move(self, class_index: int, new_index: int) -> None:
        if not 0 <= class_index < self.dataset.num_classes:
            raise ValidationError(
                f"class index {class_index} outside [0, {self.dataset.num_classes - 1}]"
            )
        if not 1 <= new_index <= self.scale.k_points:
            raise ValidationError(
                f"scale index {new_index} outside [1, {self.scale.k_points}]"
            )

    def _argmax(self, weights: np.ndarray, rows: np.ndarray | None = None):
        """Argmax and maximum of ``probs[rows] * weights`` along each row.

        Reduces one class at a time over the class-major copy, so no
        rows x N score block is built; the strict ">" keeps the lowest index
        on ties, as ``np.argmax`` does.
        """
        probs_t = self._probs_t if rows is None else np.take(self._probs_t, rows, axis=1)
        preds = np.zeros(probs_t.shape[1], dtype=np.int64)
        best = probs_t[0] * weights[0]
        for j in range(1, weights.size):
            col = probs_t[j] * weights[j]
            preds[col > best] = j
            np.maximum(best, col, out=best)
        return preds, best

    def propose(self, class_index: int, new_index: int) -> ObjectiveValue:
        """Objective value with one class's weight changed; state untouched."""
        self._check_move(class_index, new_index)
        c = class_index
        weights = self._indices / self.scale.k_points
        weights[c] = new_index / self.scale.k_points
        if new_index > self._indices[c]:
            new_col = self._probs_t[c] * weights[c]
            cand = np.flatnonzero(new_col >= self._row_max)
            old = self._preds[cand]
            stay = old == c
            flip = ~stay & ((new_col[cand] > self._row_max[cand]) | (c < old))
            rows = cand[stay | flip]
            new_preds = c
            new_max = new_col[rows]
            changed, old, new = cand[flip], old[flip], c
        else:
            rows = np.flatnonzero(self._preds == c)
            new_preds, new_max = self._argmax(weights, rows)
            flip = new_preds != c
            changed, old, new = rows[flip], c, new_preds[flip]
        if changed.size:
            nn = self.dataset.num_classes ** 2
            base = self._label_base[changed]
            delta = np.bincount(base + new, minlength=nn) - np.bincount(base + old, minlength=nn)
            counts = self._counts + delta.reshape(self._counts.shape)
            value = self._objective(counts)
        else:
            counts, value = self._counts, self._value
        self._pending = (c, new_index, rows, new_preds, new_max, counts, value)
        return value

    def apply(self, class_index: int, new_index: int) -> ObjectiveValue:
        """Commit a single-class weight change and return the new value."""
        pending = self._pending
        if pending is None or pending[0] != class_index or pending[1] != new_index:
            self.propose(class_index, new_index)
            pending = self._pending
        c, idx, rows, new_preds, new_max, counts, value = pending
        self._pending = None
        self._indices[c] = idx
        self._preds[rows] = new_preds
        self._row_max[rows] = new_max
        self._counts = counts
        self._value = value
        return value

