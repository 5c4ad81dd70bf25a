"""Exhaustive search over all K^N weight selections.

Exponential but exact; used as the ground-truth optimizer when validating the
annealer on small instances. The lexicographically smallest selection among
those attaining the minimum is returned, which makes the result canonical and
independent of enumeration order.
"""

from __future__ import annotations

from itertools import product

from .data import ProbabilityDataset, WeightScale, WeightSelection
from .errors import ValidationError
from .metrics import confusion
from .objective import ObjectiveConfig, ObjectiveValue, objective_from_counts

DEFAULT_BUDGET = 10**6


def enumerate_optimum(
    dataset: ProbabilityDataset,
    scale: WeightScale,
    config: ObjectiveConfig,
    budget: int = DEFAULT_BUDGET,
) -> tuple[WeightSelection, ObjectiveValue]:
    """Evaluate every selection and return the global minimum.

    Refuses instances with K^N above ``budget``; the refusal message carries
    the exact selection count so callers can raise the cap deliberately.
    """
    n = dataset.num_classes
    k = scale.k_points
    count = k**n
    if count > budget:
        raise ValidationError(
            f"enumeration would evaluate {count} selections, above the budget of {budget}"
        )
    best_sel: WeightSelection | None = None
    best_val: ObjectiveValue | None = None
    for sel in product(range(1, k + 1), repeat=n):
        selection = WeightSelection(sel)
        val = objective_from_counts(confusion(dataset, selection, scale), config)
        if best_val is None or val.total < best_val.total:
            best_sel, best_val = selection, val
    assert best_sel is not None and best_val is not None
    return best_sel, best_val
