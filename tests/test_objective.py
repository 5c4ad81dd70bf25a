import math
import re
import sys
import warnings
from itertools import product

import numpy as np
import pytest

from cobias import (
    AnnealSchedule,
    ObjectiveConfig,
    ProbabilityDataset,
    ValidationError,
    WeightScale,
    WeightSelection,
    anneal,
)
from cobias.metrics import accuracy_from_counts, check_mu, cobias, confusion, pmi_from_counts
from cobias import objective
from cobias.defaults import TERM_COMBINATIONS
from cobias.objective import IncrementalEvaluator, _Objective, _tabulates, check_config, objective_table

from helpers import fewest_proposals, random_dataset, reference_evaluation


def _toy():
    return ProbabilityDataset.from_arrays([[0.6, 0.4], [0.55, 0.45]], [0, 1])


class TestEvaluate:
    def test_hand_evaluated_instance(self):
        # identity predictions are (0, 0): error rate 1/2, accuracies (1, 0)
        ds = _toy()
        cfg = ObjectiveConfig(beta=1.0, tau=0.0, use_z3=False)
        scale = WeightScale(10)
        v = reference_evaluation(ds, WeightSelection.identity(2, scale), scale, cfg)
        assert v.z1_error_rate == 0.5
        assert v.z2_cobias == 1.0
        assert v.z3_pmi_sum is None
        assert v.total == 1.5

    def test_perfect_classifier_scores_zero(self):
        ds = ProbabilityDataset.from_arrays([[0.9, 0.1], [0.2, 0.8]], [0, 1])
        cfg = ObjectiveConfig(beta=3.0, tau=0.0, use_z3=False)
        scale = WeightScale(5)
        v = reference_evaluation(ds, WeightSelection.identity(2, scale), scale, cfg)
        assert v.total == 0.0

    def test_single_term_toggle(self):
        ds = _toy()
        scale = WeightScale(10)
        sel = WeightSelection.identity(2, scale)
        # with beta=1 the only enabled term passes through unchanged
        v = reference_evaluation(
            ds, sel, scale, ObjectiveConfig(beta=1.0, use_z1=False, use_z3=False))
        assert v.z1_error_rate is None
        assert v.z3_pmi_sum is None
        assert v.total == v.z2_cobias
        # the beta weight is applied to the imbalance term when beta != 1
        v27 = reference_evaluation(
            ds, sel, scale, ObjectiveConfig(beta=2.7, use_z1=False, use_z3=False))
        assert v27.total == 2.7 * v27.z2_cobias

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, 60, 3)
        scale = WeightScale(6)
        cfg = ObjectiveConfig(beta=2.7, tau=0.2, mu=1e-3)
        for _ in range(25):
            sel = WeightSelection(tuple(rng.integers(1, 7, size=3)))
            v = reference_evaluation(ds, sel, scale, cfg)
            assert v.total == pytest.approx(
                v.z1_error_rate + 2.7 * v.z2_cobias - 0.2 * v.z3_pmi_sum, abs=1e-12
            )
            assert 0.0 <= v.z1_error_rate <= 1.0
            assert 0.0 <= v.z2_cobias <= 1.0
            assert np.isfinite(v.z3_pmi_sum)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, 40, 4)
        scale = WeightScale(5)
        cfg = ObjectiveConfig()
        for _ in range(10):
            sel = tuple(rng.integers(1, 6, size=4))
            perm = rng.permutation(4)
            inv = np.argsort(perm)
            permuted = ProbabilityDataset.from_arrays(
                ds.probs[:, perm], inv[ds.labels]
            )
            psel = tuple(np.asarray(sel)[perm])
            v = reference_evaluation(ds, WeightSelection(sel), scale, cfg)
            pv = reference_evaluation(permuted, WeightSelection(psel), scale, cfg)
            assert pv.total == pytest.approx(v.total, abs=1e-12)

    @pytest.mark.parametrize("name", ["beta", "tau", "mu"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_validation(self, name, value):
        # NaN passes "< 0", and either value would make the objective non-finite
        with pytest.raises(ValidationError, match="beta, tau, and mu must be finite"):
            ObjectiveConfig(**{name: value})
        if value == float("inf"):  # -inf keeps the nonnegativity message
            with pytest.raises(ValidationError, match="must be nonnegative"):
                ObjectiveConfig(**{name: -value})

    def test_at_least_one_term_required(self):
        with pytest.raises(ValidationError):
            ObjectiveConfig(use_z1=False, use_z2=False, use_z3=False)

    def test_unsmoothed_pmi_term_rejected(self):
        with pytest.raises(ValidationError, match="mu must be positive"):
            ObjectiveConfig(mu=0.0)
        assert ObjectiveConfig.with_terms("z1+z2", mu=0.0).mu == 0.0

    def test_term_combination_names(self):
        assert set(TERM_COMBINATIONS) == {
            "z1", "z2", "z3", "z1+z2", "z1-z3", "z2-z3", "z1+z2-z3"
        }
        with pytest.raises(ValidationError):
            ObjectiveConfig.with_terms("z4")


class TestObjectiveCore:
    @pytest.mark.parametrize("terms", sorted(TERM_COMBINATIONS))
    def test_matches_metrics_composition_bit_for_bit(self, terms):
        # N from 2 to 17 crosses numpy's 8-wide pairwise-summation block;
        # empty rows exercise the excluded classes and the <2-class zero gap.
        rng = np.random.default_rng(41)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n in range(2, 18):
                for _ in range(12):
                    cfg = ObjectiveConfig.with_terms(
                        terms, beta=3 * rng.random(), tau=rng.random(),
                        mu=10 ** rng.uniform(-4, 0),
                    )
                    counts = rng.integers(0, 40, size=(n, n))
                    counts[rng.random(n) < rng.choice([0.0, 0.3, 1.0])] = 0
                    counts[0, rng.integers(n)] += 1
                    got = _Objective(counts.sum(axis=1), cfg)(counts)
                    m = int(counts.sum())
                    z1 = (m - int(np.trace(counts))) / m
                    z2 = cobias(accuracy_from_counts(counts))
                    z3 = float(pmi_from_counts(counts, cfg.mu).sum())
                    total = 0.0
                    if cfg.use_z1:
                        total += z1
                    if cfg.use_z2:
                        total += cfg.beta * z2
                    if cfg.use_z3:
                        total -= cfg.tau * z3
                    assert got.z1_error_rate == (z1 if cfg.use_z1 else None)
                    assert got.z2_cobias == (z2 if cfg.use_z2 else None)
                    assert got.z3_pmi_sum == (z3 if cfg.use_z3 else None)
                    assert got.total == total

    @pytest.mark.parametrize("terms", sorted(TERM_COMBINATIONS))
    def test_stack_equals_single_matrices(self, terms):
        # A (B, N, N) stack runs the single path's float operations per
        # matrix, so every field is == the single value; N from 2 to 17
        # crosses numpy's 8-wide summation block, empty rows exercise the
        # excluded classes and the <2-class zero gap, and a reversed view
        # checks that the input's memory layout does not matter.
        rng = np.random.default_rng(43)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n in range(2, 18):
                for batch in (1, 3, 40):
                    cfg = ObjectiveConfig.with_terms(
                        terms, beta=3 * rng.random(), tau=rng.random(),
                        mu=10 ** rng.uniform(-4, 0),
                    )
                    totals = rng.integers(1, 40, size=n)
                    totals[rng.random(n) < rng.choice([0.0, 0.3, 1.0])] = 0
                    totals[0] += 1
                    stack = np.stack([
                        [rng.multinomial(t, rng.dirichlet(np.ones(n))) for t in totals]
                        for _ in range(batch)
                    ])
                    core = _Objective(totals, cfg)
                    for view in (stack, stack[::-1]):
                        got = core(view)
                        for b, counts in enumerate(view):
                            one = core(counts)
                            for field in ("z1_error_rate", "z2_cobias", "z3_pmi_sum", "total"):
                                single, stacked = getattr(one, field), getattr(got, field)
                                if single is None:
                                    assert stacked is None
                                else:
                                    assert stacked.shape == (batch,)
                                    assert stacked[b] == single

    @pytest.mark.parametrize(
        "num_labels,messages",
        [
            (2, ["classes without true samples excluded from the pairwise accuracy gap"]),
            (1, ["classes without true samples excluded from the pairwise accuracy gap",
                 "fewer than 2 classes with defined accuracy; gap is 0"]),
        ],
    )
    def test_anneal_warns_once_per_run(self, num_labels, messages):
        # class 2 (and with one label, class 1) has no true samples; the
        # warnings come once per run, not once per evaluation
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(3), size=60)
        ds = ProbabilityDataset.from_arrays(probs, rng.integers(0, num_labels, size=60))
        scale = WeightScale(4)
        cfg = ObjectiveConfig()
        schedule = AnnealSchedule(t_max=1.0, t_min=0.1, alpha=0.5, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = anneal(ds, scale, cfg, schedule)
        assert [str(w.message) for w in caught] == messages
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert result.value == reference_evaluation(ds, result.selection, scale, cfg)
        if num_labels == 2:
            assert result.total_evaluations == 71
            assert result.selection.indices == (3, 2, 1)
            assert result.value.total == 0.17563051888859493


class TestWeightOverflow:
    """beta and tau are refused where z1 + beta*z2 - tau*z3 could overflow;
    ``check_mu`` bounds |z3| from the PMI at its corners."""

    def test_the_pmi_sum_stays_within_the_bound(self):
        rng = np.random.default_rng(45)
        for n in range(2, 12):
            totals = rng.integers(0, 30, size=n)
            totals[0] += 1
            mu = 10 ** rng.uniform(-4, 2)
            bound = check_mu(mu, totals)
            stack = np.stack([[rng.multinomial(t, rng.dirichlet(np.full(n, 0.2))) for t in totals]
                              for _ in range(200)])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # classes without true samples
                z3 = _Objective(totals, ObjectiveConfig(mu=mu))(stack).z3_pmi_sum
            assert np.abs(z3).max() <= bound

    @pytest.mark.parametrize("k, tabulates", [(4, True), (30, False)])
    def test_tau_just_inside_the_bound_runs_to_a_finite_objective(self, k, tabulates):
        ds = random_dataset(np.random.default_rng(46), 60, 3)
        scale = WeightScale(k)
        schedule = AnnealSchedule(t_max=10, t_min=1, alpha=0.5, lam=10)
        assert _tabulates(3, k, fewest_proposals(3, k, schedule)) == tabulates
        z3_max = check_mu(ObjectiveConfig().mu, np.bincount(ds.labels, minlength=3))
        inside = float(np.nextafter(sys.float_info.max / z3_max, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow would warn
            result = anneal(ds, scale, ObjectiveConfig(tau=inside), schedule)
        assert math.isfinite(result.value.total) and abs(result.value.total) > 1e300
        for tau in (inside * (1 + 2**-40), 1e308):
            message = f"tau={tau:g} and beta=2.7 can overflow the objective on this dataset"
            with pytest.raises(ValidationError, match=re.escape(message)):
                anneal(ds, scale, ObjectiveConfig(tau=tau), schedule)

    def test_beta_counts_only_with_z2(self):
        totals = np.array([20, 20, 20])
        z3_max = check_mu(ObjectiveConfig().mu, totals)
        tau = sys.float_info.max / z3_max / 2
        check_config(ObjectiveConfig(beta=0.0, tau=tau), totals)
        with pytest.raises(ValidationError, match=r"^tau=.* and beta=1.79769e\+308 can overflow"):
            check_config(ObjectiveConfig(beta=sys.float_info.max, tau=tau), totals)
        check_config(ObjectiveConfig.with_terms("z1-z3", beta=sys.float_info.max, tau=tau),
                     totals)
        with pytest.raises(ValidationError, match=r"^tau=1e\+308 can overflow the objective on "
                                                  r"this dataset, where \|z3\| may reach"):
            check_config(ObjectiveConfig.with_terms("z3", tau=1e308), totals)
        # without z3 the total is at most 1 + beta
        check_config(ObjectiveConfig.with_terms("z1+z2", beta=sys.float_info.max, tau=1e308),
                     totals)


class TestObjectiveTable:
    @pytest.mark.parametrize("terms", sorted(TERM_COMBINATIONS))
    def test_equals_full_evaluation_on_every_selection(self, terms):
        # N = 2..9. Every other instance has probabilities in multiples of
        # 1/8 on a K that is a power of two, so many weighted scores tie
        # exactly (the last class must then lose, as under argmax), and
        # never labels one class, so that class has no true samples. The
        # table holds totals only; a stack's terms are each single matrix's
        # by test_stack_equals_single_matrices.
        rng = np.random.default_rng(47)
        cfg = ObjectiveConfig.with_terms(terms)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n, k in [(2, 8), (3, 8), (4, 4), (5, 4), (6, 2), (7, 2), (8, 2), (9, 2)]:
                if n % 2:
                    ds = random_dataset(rng, 50, n)
                else:
                    probs = rng.multinomial(8, np.full(n, 1 / n), size=50) / 8
                    labels = rng.integers(n - 1, size=50)
                    labels[labels == n // 2] = n - 1
                    ds = ProbabilityDataset.from_arrays(probs, labels)
                scale = WeightScale(k)
                totals = objective_table(ds, scale, cfg)
                for flat, sel in enumerate(product(range(1, k + 1), repeat=n)):
                    want = reference_evaluation(ds, WeightSelection(sel), scale, cfg)
                    assert totals[flat] == want.total

    def test_chunk_size_does_not_change_the_table(self, monkeypatch):
        rng = np.random.default_rng(53)
        ds, scale, cfg = random_dataset(rng, 300, 4), WeightScale(6), ObjectiveConfig()
        whole = objective_table(ds, scale, cfg)
        assert whole.shape == (6**4,) and whole.dtype == np.float64  # the totals alone
        monkeypatch.setattr(objective, "_TABLE_CHUNK_BYTES", 1)  # one prefix per chunk
        assert np.array_equal(objective_table(ds, scale, cfg), whole)


class TestIncrementalEvaluator:
    def test_noop_move_returns_cached_value(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 50, 3)
        scale, cfg = WeightScale(8), ObjectiveConfig()
        sel = WeightSelection((3, 5, 8))
        state = IncrementalEvaluator(ds, scale, cfg, sel)
        assert state.propose(1, 5) == reference_evaluation(ds, sel, scale, cfg).total
        assert state.apply() is None
        assert (state._counts == confusion(ds, sel, scale)).all()

    def test_zero_mass_class_weight_is_irrelevant(self):
        probs = np.array([[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [0.8, 0.2, 0.0]])
        ds = ProbabilityDataset.from_arrays(probs, [0, 1, 0])
        scale, cfg = WeightScale(10), ObjectiveConfig()
        with pytest.warns(UserWarning, match="classes without true samples excluded"):  # class 2
            state = IncrementalEvaluator(ds, scale, cfg, WeightSelection((5, 5, 1)))
        with pytest.warns(UserWarning, match="classes without true samples excluded"):
            before = reference_evaluation(ds, WeightSelection((5, 5, 1)), scale, cfg).total
        for idx in (2, 7, 10):
            assert state.propose(2, idx) == before
            state.apply()
            assert (state._counts == confusion(ds, WeightSelection((5, 5, idx)), scale)).all()

    def test_random_walk_matches_full_evaluation(self):
        # 1000 random single-class moves; every proposal's total must equal a
        # fresh full evaluation's, and every commit's counts its confusion.
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, 200, 4)
        scale = WeightScale(8)
        cfg = ObjectiveConfig()
        state = IncrementalEvaluator(ds, scale, cfg, WeightSelection((8, 8, 8, 8)))
        indices = [8, 8, 8, 8]
        for _ in range(1000):
            c = int(rng.integers(4))
            idx = int(rng.integers(1, 9))
            moved = WeightSelection(tuple(idx if j == c else i for j, i in enumerate(indices)))
            assert state.propose(c, idx) == reference_evaluation(ds, moved, scale, cfg).total
            if rng.random() < 0.5:
                state.apply()
                indices[c] = idx
                assert (state._counts == confusion(ds, moved, scale)).all()

    def test_preview_does_not_mutate_state(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 30, 3)
        scale, cfg = WeightScale(5), ObjectiveConfig()
        sel = WeightSelection((5, 5, 5))
        state = IncrementalEvaluator(ds, scale, cfg, sel)
        state.propose(0, 1)
        state.propose(1, 2)
        assert (state._counts == confusion(ds, sel, scale)).all()
        assert state.indices.tolist() == [5, 5, 5]
        assert state.propose(2, 5) == reference_evaluation(ds, sel, scale, cfg).total

    def test_propose_matches_full_evaluation(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 30, 3)
        scale = WeightScale(5)
        cfg = ObjectiveConfig()
        state = IncrementalEvaluator(ds, scale, cfg, WeightSelection((5, 5, 5)))
        moved = WeightSelection((2, 5, 5))
        assert state.propose(0, 2) == reference_evaluation(ds, moved, scale, cfg).total
        assert state.apply() is None
        assert (state._counts == confusion(ds, moved, scale)).all()

    def test_exact_walk_with_ties_and_zeros(self):
        # Multiples of 1/8 (with exact zeros) times weights k/4 are exact
        # binary fractions, so many products tie exactly, e.g. 1/2 * 1/2 ==
        # 1/4 * 1; the incremental path must reproduce argmax's lowest-index
        # tie rule on every one of them, in both move directions.
        rng = np.random.default_rng(31)
        n = 4
        probs = rng.multinomial(8, np.full(n, 1 / n), size=96) / 8
        assert (probs == 0).any()
        ds = ProbabilityDataset.from_arrays(probs, rng.integers(n, size=96))
        scale = WeightScale(4)
        cfg = ObjectiveConfig()
        state = IncrementalEvaluator(ds, scale, cfg, WeightSelection.identity(n, scale))
        indices = [4] * n
        for step in range(600):
            c = int(rng.integers(n))
            idx = int(rng.integers(1, 5))
            # every third step first proposes another index, which apply() must not commit
            proposals = [int(rng.integers(1, 5)), idx] if step % 3 == 1 else [idx]
            for proposed in proposals:
                moved = WeightSelection(tuple(proposed if j == c else i
                                              for j, i in enumerate(indices)))
                assert state.propose(c, proposed) == reference_evaluation(ds, moved, scale, cfg).total
            state.apply()
            indices[c] = idx
            assert (state._counts == confusion(ds, WeightSelection(tuple(indices)), scale)).all()
