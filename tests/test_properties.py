"""Property-based suites for the metric and evaluation invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cobias import (
    ObjectiveConfig,
    ProbabilityDataset,
    ValidationError,
    WeightScale,
    WeightSelection,
    batch_calibrate,
    cobias,
    confusion,
)
from cobias.data import _stratified_subsample
from cobias.metrics import check_mu, pmi_from_counts
from cobias.objective import IncrementalEvaluator

from helpers import random_dataset, reference_evaluation

# modest example counts keep the whole module comfortably inside its
# 30-second budget
FAST = settings(max_examples=60, deadline=None)


accuracy_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=10
)


class TestCobiasProperties:
    @FAST
    @given(accuracy_vectors, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, vals, rnd):
        shuffled = list(vals)
        rnd.shuffle(shuffled)
        assert cobias(shuffled) == cobias(vals)

    @FAST
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), st.integers(2, 12))
    def test_equal_accuracies_give_exactly_zero(self, x, n):
        assert cobias([x] * n) == 0.0

    @FAST
    @given(accuracy_vectors)
    def test_zero_implies_all_equal(self, vals):
        if cobias(vals) == 0.0:
            assert len(set(vals)) == 1
        else:
            assert len(set(vals)) > 1

    @FAST
    @given(accuracy_vectors, st.integers(0, 100), st.floats(-0.2, 0.2))
    def test_single_coordinate_lipschitz_bound(self, vals, pos, eps):
        n = len(vals)
        i = pos % n
        perturbed = list(vals)
        perturbed[i] = min(1.0, max(0.0, perturbed[i] + eps))
        actual_eps = abs(perturbed[i] - vals[i])
        delta = abs(cobias(perturbed) - cobias(vals))
        assert delta <= 2 * actual_eps / n + 1e-12


class TestPredictProperties:
    @FAST
    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
        st.integers(1, 50),
        st.floats(0.001, 1000.0),
    )
    def test_argmax_invariant_under_positive_scaling(self, raw, k, c):
        # scaling every coefficient by c > 0 never changes the winner
        probs = np.asarray(raw) / np.sum(raw)
        n = len(raw)
        coeffs = np.linspace(0.1, 1.0, n)
        base = int(np.argmax(probs * coeffs))
        scaled = int(np.argmax(probs * (coeffs * c)))
        assert scaled == base

    @FAST
    @given(st.integers(1, 20), st.integers(2, 8))
    def test_equal_coefficients_match_identity(self, idx, k):
        if idx > k:
            idx = k
        rng = np.random.default_rng(idx * 31 + k)
        ds = ProbabilityDataset.from_arrays([rng.dirichlet(np.ones(3))], [0])
        scale = WeightScale(k)
        sel = WeightSelection((idx,) * 3)
        # one row labeled 0: its confusion row is its prediction
        assert np.array_equal(confusion(ds, sel, scale), confusion(ds))


class TestPmiProperties:
    @FAST
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(2, 5))
    def test_exact_independence_gives_zero(self, a, b, n):
        # counts with rank-one structure: counts[i][j] = row[i] * col[j];
        # then joint * M == pred * true for every class
        rng = np.random.default_rng(a * 97 + b)
        row = rng.integers(1, 6, size=n)
        col = rng.integers(1, 6, size=n)
        counts = np.outer(row, col)
        pmi = pmi_from_counts(counts, mu=0.0)
        assert np.all(pmi == 0.0)

    @FAST
    @given(st.integers(0, 10_000))
    def test_smoothed_pmi_finite_for_any_counts(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        counts = rng.integers(0, 50, size=(n, n))
        counts[0, 0] += 1  # at least one sample
        assert np.all(np.isfinite(pmi_from_counts(counts, mu=1e-3)))

    @FAST
    @given(st.integers(0, 10_000), st.floats(-325, 308))
    def test_class_totals_refuse_exactly_the_mu_some_counts_break(self, seed, log_mu):
        # per class j, the four count matrices at the corners of its (joint,
        # predicted) range: its own row goes to j or elsewhere, and every
        # other row to j or elsewhere
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        totals = rng.integers(0, 30, size=n) * (rng.random(n) < 0.8)
        totals[0] += 1
        mu = 10.0**log_mu
        corners = []
        for j in range(n):
            for own in (j - 1, j):
                for others in (j - 1, j):
                    counts = np.zeros((n, n), dtype=np.int64)
                    counts[:, others] = totals
                    counts[j] = 0
                    counts[j, own] = totals[j]
                    corners.append(counts)
        try:
            check_mu(mu, totals)
        except ValidationError:
            with pytest.raises(ValidationError):
                for counts in corners:
                    pmi_from_counts(counts, mu)
        else:
            random = [rng.multinomial(t, rng.dirichlet(np.ones(n))) for t in totals]
            for counts in [*corners, np.array(random)]:
                assert np.all(np.isfinite(pmi_from_counts(counts, mu)))


class TestBatchCalibrationProperties:
    @FAST
    @given(st.integers(0, 10_000))
    def test_invariant_to_sample_order(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 40))
        n = int(rng.integers(2, 6))
        ds = random_dataset(rng, m, n)
        perm = rng.permutation(m)
        shuffled = ProbabilityDataset.from_arrays(ds.probs[perm], ds.labels[perm])
        np.testing.assert_array_equal(batch_calibrate(ds)[perm], batch_calibrate(shuffled))


def _reference_allocation(labels: np.ndarray, size: int) -> list[int]:
    """Rows per present class, by the per-class loop that the vectorized
    split in ``data._stratified_subsample`` replaced."""
    m = labels.size
    present = np.unique(labels)
    counts = {int(c): int((labels == c).sum()) for c in present}
    alloc = {int(c): 1 for c in present}
    remaining = size - present.size
    quotas = {c: remaining * counts[c] / m for c in alloc}
    for c in alloc:
        take = min(int(quotas[c]), counts[c] - alloc[c])
        alloc[c] += take
        remaining -= take
    while remaining > 0:
        order = sorted(
            (c for c in alloc if alloc[c] < counts[c]),
            key=lambda c: quotas[c] - int(quotas[c]),
            reverse=True,
        )
        for c in order:
            if remaining == 0:
                break
            alloc[c] += 1
            remaining -= 1
    return [alloc[c] for c in sorted(alloc)]


class TestStratifiedSubsampleProperties:
    @FAST
    @given(st.lists(st.integers(0, 5), min_size=2, max_size=40), st.integers(0, 10_000))
    def test_allocation_matches_the_per_class_loop_at_every_size(self, labels, seed):
        labels = np.array(labels)
        m = labels.size
        ds = ProbabilityDataset.from_arrays(np.full((m, 6), 1 / 6), labels)
        present = np.unique(labels)
        for size in range(present.size, m):
            rows = _stratified_subsample(ds, size, np.random.default_rng(seed))
            assert np.bincount(labels[rows])[present].tolist() == _reference_allocation(labels, size)


class TestIncrementalProperties:
    def test_thousand_step_walk_tracks_full_evaluation(self):
        rng = np.random.default_rng(99)
        ds = random_dataset(rng, 150, 4)
        scale = WeightScale(10)
        cfg = ObjectiveConfig()
        state = IncrementalEvaluator(ds, scale, cfg, WeightSelection((10,) * 4))
        indices = [10, 10, 10, 10]
        for step in range(1000):
            c = int(rng.integers(4))
            idx = int(rng.integers(1, 11))
            indices[c] = idx
            sel = WeightSelection(tuple(indices))
            assert state.propose(c, idx) == reference_evaluation(ds, sel, scale, cfg).total
            state.apply()
            assert (state._counts == confusion(ds, sel, scale)).all()
