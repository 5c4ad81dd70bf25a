"""Shared test fixtures: reference confusion counts, dataset builders and
the reference objective evaluation."""

import numpy as np

from cobias import ProbabilityDataset, SyntheticSpec, confusion
from cobias.objective import objective_from_counts

# 4-class news-topic confusion matrix used as the reference imbalanced
# instance throughout the suite: class 2 is heavily over-predicted and
# class 3 under-predicted (most of its mass lands in class 2).
REFERENCE_COUNTS = (
    (1093, 64, 126, 3),
    (9, 1247, 14, 0),
    (25, 4, 1167, 8),
    (156, 27, 822, 235),
)
REFERENCE_ROW_TOTALS = tuple(sum(r) for r in REFERENCE_COUNTS)


def dataset_from_confusion(counts, peak: float = 0.7) -> ProbabilityDataset:
    """Build a dataset whose identity-argmax confusion equals ``counts``.

    Each (true i, predicted j) cell contributes that many samples labeled i
    whose probability vector puts ``peak`` on class j and the rest uniformly
    elsewhere.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.shape[0]
    off = (1.0 - peak) / (n - 1)
    rows, labels = [], []
    for i in range(n):
        for j in range(n):
            c = int(counts[i, j])
            if c == 0:
                continue
            probs = np.full(n, off)
            probs[j] = peak
            rows.append(np.tile(probs, (c, 1)))
            labels.append(np.full(c, i, dtype=np.int64))
    return ProbabilityDataset.from_arrays(np.vstack(rows), np.concatenate(labels))


def reference_bias() -> tuple[tuple[float, ...], ...]:
    """Row-normalized reference confusion pattern."""
    return tuple(
        tuple(c / s for c in row)
        for row, s in zip(REFERENCE_COUNTS, REFERENCE_ROW_TOTALS)
    )


def biased_synthetic_pair(
    opt_size: int = 10000,
    test_size: int = 5000,
    concentration: float = 4.0,
    opt_seed: int = 101,
    test_seed: int = 202,
):
    """Disjointly seeded optimization/test datasets drawn from the reference
    confusion pattern, class sizes proportional to the reference totals."""
    total = sum(REFERENCE_ROW_TOTALS)
    bias = reference_bias()

    def sizes(target):
        per = [target * t // total for t in REFERENCE_ROW_TOTALS]
        per[0] += target - sum(per)
        return tuple(per)

    from cobias import generate_synthetic

    opt = generate_synthetic(
        SyntheticSpec(4, sizes(opt_size), bias, concentration, seed=opt_seed)
    )
    test = generate_synthetic(
        SyntheticSpec(4, sizes(test_size), bias, concentration, seed=test_seed)
    )
    return opt, test


def random_dataset(rng: np.random.Generator, m: int, n: int) -> ProbabilityDataset:
    probs = rng.dirichlet(np.ones(n), size=m)
    labels = rng.integers(0, n, size=m)
    return ProbabilityDataset.from_arrays(probs, labels)


def fewest_proposals(num_classes: int, k_points: int, schedule) -> int:
    """P_min, the fewest proposals an ``anneal`` with this schedule makes:
    the level count times the smaller of its proposal and acceptance limits."""
    levels, proposals, acceptances = schedule.limits(num_classes, k_points)
    return levels * min(proposals, acceptances)


def reference_evaluation(dataset, selection, scale, config):
    """The objective of one selection by the full reference path: the
    reweighted argmax's confusion counts, then ``objective_from_counts``.
    The incremental and table evaluators must match it bit for bit."""
    return objective_from_counts(confusion(dataset, selection, scale), config)
