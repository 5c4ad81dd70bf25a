"""Simulated-annealing search over weight selections.

Geometric cooling with single-class perturbation proposals and Metropolis
acceptance: a proposal worsening the objective by dz > 0 is accepted with
probability exp(-dz / T); improving or equal moves are always accepted. The
best selection seen anywhere in the run is tracked separately and returned.

The search starts from the all-ones coefficient vector (every class on the
top scale point), i.e. from the uncorrected baseline predictions.

Proposals are scored by ``IncrementalEvaluator``, or, when the schedule
makes enough proposals that scoring the whole search space costs fewer row
passes (``_tabulates``), by ``_TableEvaluator``'s lookups into
``objective_table``'s totals. Both follow one protocol: built from
(dataset, scale, config, selection); holds ``indices``; ``propose(c, k)``
returns a float and is the only call that names a move; ``apply()`` commits
the move scored last and returns None. ``indices`` is the chain's only copy
of its selection, which only ``apply`` changes. Both give the same totals,
so a seeded run gives the same result either way.
The evaluator scores the start as well; the returned value is the one
reference evaluation, and a run raises if its total is not the chain's best
total, so the check covers the start too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .data import ObjectiveConfig, ProbabilityDataset, WeightScale, WeightSelection
from .defaults import DEFAULT_ALPHA, DEFAULT_LAMBDA, DEFAULT_T_MAX, DEFAULT_T_MIN
from .errors import ValidationError
from .metrics import confusion
from .objective import (DEFAULT_BUDGET, IncrementalEvaluator, ObjectiveValue, objective_from_counts,
                        objective_table)


@dataclass(frozen=True)
class AnnealSchedule:
    """Cooling schedule and chain-length bounds; ``limits`` states a run's size.

    The RNG is a seeded PCG64 stream (one stream per run, so runs are
    reproducible across platforms; concurrent restarts should use distinct seeds).
    """

    t_max: float = DEFAULT_T_MAX
    t_min: float = DEFAULT_T_MIN
    alpha: float = DEFAULT_ALPHA
    lam: float = DEFAULT_LAMBDA
    max_accepted: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (self.t_max > 0 and self.t_min > 0):
            raise ValidationError("temperatures must be positive")
        if not (math.isfinite(self.t_max) and math.isfinite(self.t_min)):
            raise ValidationError("temperatures must be finite")
        if not self.t_min < self.t_max:
            raise ValidationError("t_min must be below t_max")
        if self.t_min / self.t_max == 0:  # log(0): limits() would raise
            raise ValidationError(
                "t_min / t_max underflows to 0, so the number of temperature levels is not finite"
            )
        if not 0 < self.alpha < 1:
            raise ValidationError("alpha must lie in (0, 1)")
        if not self.lam > 0:
            raise ValidationError("lambda must be positive")
        if not math.isfinite(self.lam):
            raise ValidationError("lambda must be finite")
        if self.max_accepted is not None and self.max_accepted < 1:
            raise ValidationError("max_accepted must be positive")
        if self.seed < 0:  # numpy seeds a generator from nonnegative integers only
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")

    def limits(self, num_classes: int, k_points: int) -> tuple[int, int, int]:
        """(levels, proposals, acceptances): ceil(log_alpha(t_min / t_max))
        temperature levels, each stopping after ceil(lam * N * K) proposals or
        ``max_accepted`` acceptances, whichever comes first; ``max_accepted=None``
        means ceil(0.1 * lam * N * K). Refuses a lam * N * K that overflows and
        a default acceptance limit that underflows to 0, so every level makes
        at least one proposal."""
        levels = math.ceil(math.log(self.t_min / self.t_max) / math.log(self.alpha))
        proposals = self.lam * num_classes * k_points
        if math.isinf(proposals):  # the acceptance product is no larger
            raise ValidationError(f"lambda {self.lam:g} is too large for {num_classes} classes "
                                  f"and K={k_points}: the chain length lambda*N*K overflows")
        acceptances = self.max_accepted
        if acceptances is None:
            acceptances = 0.1 * self.lam * num_classes * k_points  # reordered, it can round to another ceiling
            if acceptances == 0:
                raise ValidationError(f"lambda {self.lam:g} is too small for {num_classes} classes "
                                      f"and K={k_points}: the chain length 0.1*lambda*N*K "
                                      "underflows to 0")
        return levels, math.ceil(proposals), math.ceil(acceptances)

    def temperature(self, iteration: int) -> float:
        return self.t_max * self.alpha**iteration

    def to_dict(self) -> dict:
        return {("lambda" if key == "lam" else key): v for key, v in asdict(self).items()}


@dataclass(frozen=True)
class AnnealResult:
    """Best selection and value, one ``optimize --trace`` record per
    temperature level, and the evaluation count (the initial one included)."""

    selection: WeightSelection
    value: ObjectiveValue
    records: tuple[dict, ...]
    total_evaluations: int


def _draw_move(rng: np.random.Generator, indices: np.ndarray, k_points: int) -> tuple[int, int]:
    """One uniformly random (class, fresh scale index) move.

    The new index is uniform over the k-1 alternatives to the class's current
    index, so every single-coordinate move has positive probability.
    """
    c = int(rng.integers(len(indices)))
    offset = int(rng.integers(k_points - 1)) + 1
    new_index = offset if offset < indices[c] else offset + 1
    return c, new_index


class _TableEvaluator:
    """The chain's evaluator over a whole ``objective_table``.

    The current selection is a mixed-radix flat index into the table (digit
    ``index - 1`` per class, the last class least significant), so a move
    is a stride times the index change and a proposal's total is a lookup.
    ``propose`` keeps the move and its flat index for ``apply()``.
    """

    def __init__(
        self,
        dataset: ProbabilityDataset,
        scale: WeightScale,
        config: ObjectiveConfig,
        selection: WeightSelection,
    ):
        n, k = dataset.num_classes, scale.k_points
        self._totals = objective_table(dataset, scale, config)
        self._strides = [k ** (n - 1 - c) for c in range(n)]
        self.indices = list(selection.indices)
        self._flat = sum((i - 1) * s for i, s in zip(self.indices, self._strides))
        self._pending = None

    def propose(self, class_index: int, new_index: int) -> float:
        flat = self._flat + (new_index - self.indices[class_index]) * self._strides[class_index]
        self._pending = (class_index, new_index, flat)
        return self._totals.item(flat)

    def apply(self) -> None:
        class_index, new_index, self._flat = self._pending
        self.indices[class_index] = new_index


def _tabulates(num_classes: int, k_points: int, schedule: AnnealSchedule) -> bool:
    """Whether a run reads its values from ``objective_table`` instead of
    scoring each proposal with ``IncrementalEvaluator``.

    Both costs are counted in passes over the rows. The table makes N-1+K
    per prefix of the first N-1 indices, K^(N-1) prefixes; a proposal makes
    at least three (an up move's multiply, compare and ``flatnonzero``), and
    a run makes at least P_min, the level count times the smaller of the
    acceptance and proposal limits, all three from ``schedule.limits``. So
    the table is built when K^(N-1) * (N-1+K) <= 3 * P_min and the space
    fits the table's budget.
    """
    n, k = num_classes, k_points
    levels, proposals, acceptances = schedule.limits(n, k)
    fewest = levels * min(acceptances, proposals)
    return k**n <= DEFAULT_BUDGET and k ** (n - 1) * (n - 1 + k) <= 3 * fewest


def predicted_complexity(num_classes: int, k_points: int, schedule: AnnealSchedule) -> int:
    """Upper bound on the number of proposals a run can generate:

    ceil(lam * N * K) * ceil(log_alpha(t_min / t_max))
    """
    levels, proposals, _ = schedule.limits(num_classes, k_points)
    return levels * proposals


def anneal(
    dataset: ProbabilityDataset,
    scale: WeightScale,
    config: ObjectiveConfig,
    schedule: AnnealSchedule,
) -> AnnealResult:
    """Search for the weight selection minimizing the objective.

    Deterministic given the schedule seed. ``schedule.limits`` sizes the
    run first, so a lambda it refuses raises before any evaluation. The
    best-so-far objective is non-increasing over the whole run, temperatures
    follow t_max * alpha**iteration exactly, and the total proposal count
    never exceeds ``predicted_complexity``. The evaluator scores the start and
    every proposal; the value returned is the reference evaluation of the
    best selection, and a best total that differs raises.
    """
    n = dataset.num_classes
    k = scale.k_points
    levels, proposal_limit, accept_limit = schedule.limits(n, k)
    init = WeightSelection.identity(n, scale)
    evaluator_type = _TableEvaluator if _tabulates(n, k, schedule) else IncrementalEvaluator
    evaluator = evaluator_type(dataset, scale, config, init)
    current = best = evaluator.propose(0, k)  # class 0 to the index it holds: the start's total
    evaluations = 1
    best_selection = init
    rng = np.random.default_rng(schedule.seed)
    records = []

    for t in range(levels if k > 1 else 0):  # one point: no move to draw
        temperature = schedule.temperature(t)
        proposals = 0
        accepted = 0
        while proposals < proposal_limit and accepted < accept_limit:
            c, new_index = _draw_move(rng, evaluator.indices, k)
            candidate = evaluator.propose(c, new_index)
            evaluations += 1
            proposals += 1
            dz = candidate - current
            if dz <= 0 or rng.random() < math.exp(-dz / temperature):
                evaluator.apply()
                current = candidate
                accepted += 1
                if candidate < best:
                    best = candidate
                    best_selection = WeightSelection(tuple(evaluator.indices))
        if records and best > records[-1]["best"]:
            raise AssertionError("best objective increased; annealer invariant broken")
        records.append({
            "iteration": t,
            "temperature": temperature,
            "current": current,
            "best": best,
            "acceptance_rate": accepted / proposals,
        })

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the evaluator has issued the dataset's warnings
        best_value = objective_from_counts(confusion(dataset, best_selection, scale), config)
    if best_value.total != best:
        raise AssertionError("the evaluator's best total differs from the reference evaluation")
    return AnnealResult(best_selection, best_value, tuple(records), evaluations)

