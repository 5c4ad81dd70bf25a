"""Exhaustive search over all K^N weight selections.

Exponential but exact; used as the ground-truth optimizer when validating the
annealer on small instances. The whole search space is scored by
``objective.objective_table``, a threshold sweep over chunks of index
prefixes whose totals equal the reference evaluation's bit for bit. The
lexicographically smallest selection among those attaining the minimum is
returned, which makes the result canonical and independent of enumeration
order.
"""

from __future__ import annotations

import warnings

import numpy as np

from .data import ObjectiveConfig, ProbabilityDataset, WeightScale, WeightSelection
from .metrics import confusion
from .objective import ObjectiveValue, objective_from_counts, objective_table


def enumerate_optimum(
    dataset: ProbabilityDataset,
    scale: WeightScale,
    config: ObjectiveConfig,
) -> tuple[WeightSelection, ObjectiveValue]:
    """Evaluate every selection and return the global minimum.

    ``objective_table`` refuses a K^N above ``DEFAULT_BUDGET`` before it
    builds anything. The first minimum in ``itertools.product`` order is the
    smallest selection; its value is evaluated again from its confusion
    counts, with warnings ignored (the table has issued the dataset's), and a
    total that differs from the table's raises.
    """
    n = dataset.num_classes
    k = scale.k_points
    totals = objective_table(dataset, scale, config)
    best = int(np.argmin(totals))
    selection = WeightSelection(tuple(int(d) + 1 for d in np.unravel_index(best, (k,) * n)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value = objective_from_counts(confusion(dataset, selection, scale), config)
    if value.total != totals[best]:
        raise AssertionError("table and full evaluation disagree")
    return selection, value
