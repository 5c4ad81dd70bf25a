import warnings
from itertools import product
from unittest import mock

import numpy as np
import pytest

from cobias import (
    ObjectiveConfig,
    ProbabilityDataset,
    ValidationError,
    WeightScale,
    WeightSelection,
    enumerate_optimum,
)

from cobias import objective, oracle
from cobias.defaults import TERM_COMBINATIONS
from cobias.objective import objective_table

from helpers import random_dataset, reference_evaluation


class TestEnumerateOptimum:
    def test_two_by_two_is_exhaustive(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 30, 2)
        scale = WeightScale(2)
        cfg = ObjectiveConfig()
        sel, val = enumerate_optimum(ds, scale, cfg)
        totals = {
            s: reference_evaluation(ds, WeightSelection(s), scale, cfg).total
            for s in product((1, 2), repeat=2)
        }
        assert len(totals) == 4
        assert val.total == min(totals.values())
        assert totals[sel.indices] == val.total

    def test_decision_boundary_instance_reaches_zero(self):
        # down-weighting class 0 flips the second sample to class 1 while the
        # first stays put, giving a perfectly balanced, error-free solution
        ds = ProbabilityDataset.from_arrays([[0.6, 0.4], [0.55, 0.45]], [0, 1])
        cfg = ObjectiveConfig(beta=1.0, tau=0.0, use_z3=False)
        sel, val = enumerate_optimum(ds, WeightScale(10), cfg)
        assert val.total == 0.0
        w0, w1 = sel.coefficients(WeightScale(10))
        assert 0.6 * w0 >= 0.4 * w1      # sample 1 stays on class 0
        assert 0.55 * w0 < 0.45 * w1     # sample 2 flips to class 1

    def test_lexicographic_tie_break(self):
        # every selection with equal coefficients preserves the identity
        # argmax, so many attain 0; the smallest is (1, 1)
        ds = ProbabilityDataset.from_arrays([[0.9, 0.1], [0.1, 0.9]], [0, 1])
        cfg = ObjectiveConfig(beta=2.0, tau=0.0, use_z3=False)
        sel, val = enumerate_optimum(ds, WeightScale(4), cfg)
        assert val.total == 0.0
        assert sel.indices == (1, 1)

    @pytest.mark.parametrize("search", [enumerate_optimum, objective_table])
    def test_budget_refusal_reports_count(self, monkeypatch, search):
        # 1001^2 selections is just above the fixed budget of 10^6, and the
        # refusal comes before any table is built: no prediction is made
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 10, 2)
        monkeypatch.setattr(objective, "_argmax", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValidationError, match="evaluate 1002001 selections.* 1000000$"):
            search(ds, WeightScale(1001), ObjectiveConfig())
        objective._argmax.assert_not_called()

    @pytest.mark.parametrize("terms", sorted(TERM_COMBINATIONS))
    def test_matches_the_per_selection_loop(self, terms):
        # the first strict minimum of a loop over product order, evaluated
        # selection by selection; probabilities in multiples of 1/4 tie
        # exactly under K=2 and K=4, so many selections share a total
        rng = np.random.default_rng(61)
        cfg = ObjectiveConfig.with_terms(terms)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n, k in [(2, 4), (3, 3), (3, 4), (4, 2)]:
                probs = rng.multinomial(4, np.full(n, 1 / n), size=40) / 4
                ds = ProbabilityDataset.from_arrays(probs, rng.integers(n, size=40))
                scale = WeightScale(k)
                best_sel = best_val = None
                for sel in product(range(1, k + 1), repeat=n):
                    val = reference_evaluation(ds, WeightSelection(sel), scale, cfg)
                    if best_val is None or val.total < best_val.total:
                        best_sel, best_val = sel, val
                sel, val = enumerate_optimum(ds, scale, cfg)
                assert sel.indices == best_sel
                assert val == best_val

    def test_no_selection_beats_the_optimum(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 50, 3)
        scale = WeightScale(4)
        cfg = ObjectiveConfig()
        _, best = enumerate_optimum(ds, scale, cfg)
        for _ in range(200):
            sel = WeightSelection(tuple(rng.integers(1, 5, size=3)))
            assert reference_evaluation(ds, sel, scale, cfg).total >= best.total

    def test_a_call_issues_the_datasets_warning_once(self):
        # class 2 has no true samples; the final reference evaluation does
        # not repeat the warning that the table has issued
        ds = ProbabilityDataset.from_arrays([[0.5, 0.3, 0.2], [0.2, 0.6, 0.2]], [0, 1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            enumerate_optimum(ds, WeightScale(3), ObjectiveConfig())
        messages = [str(w.message) for w in caught]
        assert messages.count(
            "classes without true samples excluded from the pairwise accuracy gap") == 1

    def test_a_table_that_disagrees_with_the_reference_raises(self, monkeypatch):
        # an explicit raise, so the check also runs under python -O
        table = oracle.objective_table
        monkeypatch.setattr(oracle, "objective_table",
                            lambda *args: np.nextafter(table(*args), -np.inf))
        ds = random_dataset(np.random.default_rng(3), 30, 3)
        with pytest.raises(AssertionError, match="table and full evaluation disagree"):
            enumerate_optimum(ds, WeightScale(3), ObjectiveConfig())
