"""Simulated-annealing search over weight selections.

Geometric cooling with single-class perturbation proposals and Metropolis
acceptance: a proposal worsening the objective by dz > 0 is accepted with
probability exp(-dz / T); improving or equal moves are always accepted. The
best selection seen anywhere in the run is tracked separately and returned.

The search starts from the all-ones coefficient vector (every class on the
top scale point), i.e. from the uncorrected baseline predictions.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import ProbabilityDataset, WeightScale, WeightSelection
from .errors import ValidationError
from .objective import IncrementalEvaluator, ObjectiveConfig, ObjectiveValue

DEFAULT_T_MAX = 200000.0
DEFAULT_T_MIN = 0.1
DEFAULT_ALPHA = 0.95
DEFAULT_LAMBDA = 5.0


@dataclass(frozen=True)
class AnnealSchedule:
    """Cooling schedule and chain-length bounds.

    The inner loop at each temperature stops after ceil(lam * N * K)
    proposals or ``max_accepted`` acceptances, whichever comes first;
    ``max_accepted=None`` defaults to ceil(0.1 * lam * N * K). The RNG is a
    seeded PCG64 stream (one stream per run, so runs are reproducible across
    platforms; concurrent restarts should use distinct seeds).
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
        if not self.t_min < self.t_max:
            raise ValidationError("t_min must be below t_max")
        if not 0 < self.alpha < 1:
            raise ValidationError("alpha must lie in (0, 1)")
        if not self.lam > 0:
            raise ValidationError("lambda must be positive")
        if self.max_accepted is not None and self.max_accepted < 1:
            raise ValidationError("max_accepted must be positive")

    def proposals_per_temperature(self, num_classes: int, k_points: int) -> int:
        return math.ceil(self.lam * num_classes * k_points)

    def acceptances_per_temperature(self, num_classes: int, k_points: int) -> int:
        if self.max_accepted is not None:
            return self.max_accepted
        return math.ceil(0.1 * self.lam * num_classes * k_points)

    def outer_iterations(self) -> int:
        return math.ceil(math.log(self.t_min / self.t_max) / math.log(self.alpha))

    def temperature(self, iteration: int) -> float:
        return self.t_max * self.alpha**iteration

    def to_dict(self) -> dict:
        return {
            "t_max": self.t_max,
            "t_min": self.t_min,
            "alpha": self.alpha,
            "lambda": self.lam,
            "max_accepted": self.max_accepted,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    temperature: float
    current_total: float
    best_total: float
    acceptance_rate: float


@dataclass(frozen=True)
class AnnealTrace:
    """Per-temperature progress records plus run totals."""

    records: tuple[TraceRecord, ...]
    total_evaluations: int
    wall_time: float


@dataclass(frozen=True)
class AnnealResult:
    selection: WeightSelection
    value: ObjectiveValue
    trace: AnnealTrace


def _draw_move(rng: np.random.Generator, indices: np.ndarray, k_points: int) -> tuple[int, int]:
    """One uniformly random (class, fresh scale index) move.

    The new index is uniform over the k-1 alternatives to the class's current
    index, so every single-coordinate move has positive probability.
    """
    c = int(rng.integers(len(indices)))
    offset = int(rng.integers(k_points - 1)) + 1
    new_index = offset if offset < indices[c] else offset + 1
    return c, new_index


def predicted_complexity(num_classes: int, k_points: int, schedule: AnnealSchedule) -> int:
    """Upper bound on the number of proposals a run can generate:

    ceil(lam * N * K) * ceil(log_alpha(t_min / t_max))
    """
    return schedule.proposals_per_temperature(num_classes, k_points) * schedule.outer_iterations()


def anneal(
    dataset: ProbabilityDataset,
    scale: WeightScale,
    config: ObjectiveConfig,
    schedule: AnnealSchedule,
) -> AnnealResult:
    """Search for the weight selection minimizing the objective.

    Deterministic given the schedule seed. The best-so-far objective is
    non-increasing over the whole run, temperatures follow
    t_max * alpha**iteration exactly, and the total proposal count never
    exceeds ``predicted_complexity``.
    """
    start = time.perf_counter()
    n = dataset.num_classes
    k = scale.k_points
    init = WeightSelection.identity(n, scale)
    evaluator = IncrementalEvaluator(dataset, scale, config, init)
    evaluations = 1

    if k == 1:
        # Singleton search space: the initial selection is the only one.
        return AnnealResult(
            selection=init,
            value=evaluator.value,
            trace=AnnealTrace((), evaluations, time.perf_counter() - start),
        )

    rng = np.random.default_rng(schedule.seed)
    indices = np.asarray(init.indices, dtype=np.int64)
    current = evaluator.value
    best_selection = init
    best_value = current
    proposal_limit = schedule.proposals_per_temperature(n, k)
    accept_limit = schedule.acceptances_per_temperature(n, k)
    records = []

    for t in range(schedule.outer_iterations()):
        temperature = schedule.temperature(t)
        proposals = 0
        accepted = 0
        while proposals < proposal_limit and accepted < accept_limit:
            c, new_index = _draw_move(rng, indices, k)
            candidate = evaluator.propose(c, new_index)
            evaluations += 1
            proposals += 1
            dz = candidate.total - current.total
            if dz <= 0:
                accept = True
            else:
                accept = rng.random() < math.exp(-dz / temperature)
            if accept:
                evaluator.apply(c, new_index)
                indices[c] = new_index
                current = candidate
                accepted += 1
                if candidate.total < best_value.total:
                    best_value = candidate
                    best_selection = WeightSelection(tuple(int(i) for i in indices))
        if records and best_value.total > records[-1].best_total:
            raise AssertionError("best objective increased; annealer invariant broken")
        records.append(
            TraceRecord(
                iteration=t,
                temperature=temperature,
                current_total=current.total,
                best_total=best_value.total,
                acceptance_rate=accepted / proposals if proposals else 0.0,
            )
        )

    return AnnealResult(
        selection=best_selection,
        value=best_value,
        trace=AnnealTrace(tuple(records), evaluations, time.perf_counter() - start),
    )


def write_trace(trace: AnnealTrace, path) -> None:
    """Export a trace as line-delimited JSON records for plotting."""
    with Path(path).open("w") as fh:
        for rec in trace.records:
            fh.write(
                json.dumps(
                    {
                        "iteration": rec.iteration,
                        "temperature": rec.temperature,
                        "current": rec.current_total,
                        "best": rec.best_total,
                        "acceptance_rate": rec.acceptance_rate,
                    }
                )
            )
            fh.write("\n")
