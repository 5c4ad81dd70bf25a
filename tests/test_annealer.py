import math
import warnings

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
    predicted_complexity,
)
from cobias import annealer, objective
from cobias.annealer import _draw_move
from cobias.defaults import TERM_COMBINATIONS
from cobias.objective import IncrementalEvaluator, _TableEvaluator, _evaluator, _tabulates

from helpers import fewest_proposals, random_dataset, reference_evaluation


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValidationError):
            AnnealSchedule(t_max=1.0, t_min=2.0)
        with pytest.raises(ValidationError):
            AnnealSchedule(alpha=1.0)
        with pytest.raises(ValidationError):
            AnnealSchedule(lam=0.0)
        with pytest.raises(ValidationError):
            AnnealSchedule(max_accepted=0)
        with pytest.raises(ValidationError, match="seed must be nonnegative, got -1"):
            AnnealSchedule(seed=-1)
        assert AnnealSchedule(seed=0).seed == 0
        with pytest.raises(ValidationError, match="temperatures must be finite"):
            AnnealSchedule(t_max=math.inf)
        with pytest.raises(ValidationError, match="lambda must be finite"):
            AnnealSchedule(lam=math.inf)
        for t_min, t_max in [(1e-320, 200000.0), (5e-324, 4.0), (1e-300, 1e300)]:
            with pytest.raises(ValidationError, match="underflows to 0"):
                AnnealSchedule(t_max=t_max, t_min=t_min)

    def test_accepted_schedules_have_a_finite_level_count(self):
        # the smallest ratio, the alphas nearest 0 and 1, and a huge lambda:
        # limits() never raises and every level makes a proposal
        tiny = math.ulp(0.0)
        for t_min, t_max in [(tiny, 1.0), (1e-300, 1e7), (0.1, 200000.0)]:
            for alpha in (tiny, 0.5, 1 - 2**-53):
                schedule = AnnealSchedule(t_max=t_max, t_min=t_min, alpha=alpha, lam=1e300)
                levels, proposals, acceptances = schedule.limits(2, 2)
                assert levels >= 1 and proposals > 0 and acceptances > 0

    def test_default_acceptance_limit(self):
        assert AnnealSchedule().limits(4, 30) == (283, 600, math.ceil(0.1 * 5.0 * 4 * 30))
        assert AnnealSchedule(max_accepted=7).limits(4, 30) == (283, 600, 7)
        # the product runs left to right: 0.1 * 0.5 * 3 * 20 is 3.0000000000000004,
        # where 0.1 * (0.5 * 3 * 20) would be 3.0 and give 3 acceptances
        assert AnnealSchedule(lam=0.5).limits(3, 20)[1:] == (30, 4)
        # a given max_accepted skips the underflow check: one of each per level
        assert AnnealSchedule(lam=5e-324, max_accepted=1).limits(3, 3) == (283, 1, 1)


class TestPerturb:
    def test_changes_exactly_one_coordinate(self):
        rng = np.random.default_rng(0)
        indices = np.array([1, 3, 6, 2])
        for _ in range(200):
            c, new_index = _draw_move(rng, indices, 6)
            assert 0 <= c < 4
            assert 1 <= new_index <= 6
            assert new_index != indices[c]

    def test_two_by_two_move_frequencies(self):
        # N=2, K=2 from (1,1): the only moves are (class 0, 2) and (class 1, 2),
        # each expected half the time over 10k draws within a 2% tolerance.
        rng = np.random.default_rng(123)
        indices = np.array([1, 1])
        hits = {(0, 2): 0, (1, 2): 0}
        draws = 10000
        for _ in range(draws):
            hits[_draw_move(rng, indices, 2)] += 1
        assert hits[(0, 2)] + hits[(1, 2)] == draws
        assert abs(hits[(0, 2)] / draws - 0.5) < 0.02

    def test_all_moves_reachable(self):
        # every (class, alternative index) pair appears within enough draws
        rng = np.random.default_rng(7)
        indices = np.array([2, 2, 2])
        seen = {_draw_move(rng, indices, 4) for _ in range(2000)}
        assert len(seen) == 3 * 3

    def test_single_point_scale_returns_input(self, monkeypatch):
        # a one-point scale has no alternative index, so no move is drawn
        def no_move(*args):
            raise AssertionError("drew a move on a single-point scale")

        monkeypatch.setattr(annealer, "_draw_move", no_move)
        ds = random_dataset(np.random.default_rng(0), 20, 2)
        result = anneal(ds, WeightScale(1), ObjectiveConfig(), AnnealSchedule(seed=0))
        assert result.selection == WeightSelection((1, 1))


class TestPredictedComplexity:
    def test_closed_form_example(self):
        schedule = AnnealSchedule(t_max=200000.0, t_min=1.0, alpha=0.95, lam=1.0)
        levels, proposals, _ = schedule.limits(4, 30)
        assert predicted_complexity(4, 30, schedule) == levels * proposals == 238 * 120 == 28560

    def test_single_cooling_step(self):
        # dyadic values make t_min/t_max exactly one cooling step
        schedule = AnnealSchedule(t_max=100.0, t_min=50.0, alpha=0.5, lam=1.0)
        assert schedule.limits(2, 3)[0] == 1
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 20, 2)
        result = anneal(ds, WeightScale(3), ObjectiveConfig(), schedule)
        assert len(result.records) == 1

    @pytest.mark.parametrize("lam", [1e307, 1.7e308])
    def test_overflowing_chain_length_is_a_validation_error(self, lam):
        # 1e307 overflows the proposal limit lambda*N*K; 1.7e308 already
        # overflows the acceptance limit 0.1*lambda*N*K
        ds = random_dataset(np.random.default_rng(2), 20, 3)
        schedule = AnnealSchedule(lam=lam)
        with pytest.raises(ValidationError, match="the chain length lambda\\*N\\*K overflows"):
            predicted_complexity(3, 30, schedule)
        with pytest.raises(ValidationError, match="too large for 3 classes and K=30"):
            anneal(ds, WeightScale(30), ObjectiveConfig(), schedule)

    def test_acceptance_limit_of_zero_is_a_validation_error(self):
        # 0.1 * lambda underflows to 0, so no level would make a proposal;
        # a given max_accepted leaves the proposal limit, at least 1, in charge
        ds = random_dataset(np.random.default_rng(2), 20, 3)
        schedule = AnnealSchedule(lam=5e-324)
        with pytest.raises(ValidationError, match="too small for 3 classes and K=3: "
                           "the chain length 0.1\\*lambda\\*N\\*K underflows to 0"):
            anneal(ds, WeightScale(3), ObjectiveConfig(), schedule)
        capped = AnnealSchedule(t_max=10.0, t_min=1.0, lam=5e-324, max_accepted=1)
        result = anneal(ds, WeightScale(3), ObjectiveConfig(), capped)
        assert result.total_evaluations - 1 == len(result.records) > 0

    def test_doubling_lambda_doubles_estimate(self):
        base = AnnealSchedule(lam=1.0)
        double = AnnealSchedule(lam=2.0)
        assert predicted_complexity(4, 30, double) == 2 * predicted_complexity(4, 30, base)


class TestTabulation:
    def test_rule_pins_the_benchmark_shapes(self):
        # K^(N-1) * (N-1+K) row passes for the table against three per
        # proposal over the fewest proposals the schedule makes
        def tabulates(n, k, schedule):
            return _tabulates(n, k, fewest_proposals(n, k, schedule))

        assert tabulates(4, 10, AnnealSchedule())  # search-small: 13,000 <= 16,980
        assert tabulates(3, 30, AnnealSchedule())  # 28,800 <= 38,205
        assert not tabulates(10, 30, AnnealSchedule(alpha=0.8))  # fit-tall
        assert not tabulates(4, 30, AnnealSchedule())
        assert not tabulates(8, 3, AnnealSchedule())  # 21,870 > 10,188
        assert not tabulates(4, 10, AnnealSchedule(alpha=0.748))  # 13,000 > 3,000

    def test_the_chooser_builds_the_cheaper_evaluator_at_the_identity(self):
        rng = np.random.default_rng(62)
        for n, k, schedule, kind in [(4, 10, AnnealSchedule(), _TableEvaluator),  # search-small
                                     (10, 30, AnnealSchedule(alpha=0.8), IncrementalEvaluator)]:  # fit-tall
            ds = random_dataset(rng, 200, n)
            evaluator = _evaluator(ds, WeightScale(k), ObjectiveConfig(), fewest_proposals(n, k, schedule))
            assert type(evaluator) is kind
            assert list(evaluator.indices) == [k] * n

    @pytest.mark.parametrize("terms", sorted(TERM_COMBINATIONS))
    def test_table_and_incremental_chains_agree(self, terms, monkeypatch):
        # Probabilities in multiples of 1/8 on K=2 and K=4 tie exactly under
        # the weights, and the last label never occurs, so one class has no
        # true samples; the result, trace and proposal count must not depend
        # on which evaluator scored the chain.
        rng = np.random.default_rng(59)
        cfg = ObjectiveConfig.with_terms(terms)
        schedule = AnnealSchedule(t_max=1.0, t_min=1e-3, alpha=0.8, seed=int(rng.integers(99)))
        for n, k in [(2, 4), (3, 2), (3, 4), (4, 3)]:
            probs = rng.multinomial(8, np.full(n, 1 / n), size=60) / 8
            labels = rng.integers(n, size=60) if k == 3 else rng.integers(n - 1, size=60)
            ds = ProbabilityDataset.from_arrays(probs, labels)
            assert _tabulates(n, k, fewest_proposals(n, k, schedule))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                table = anneal(ds, WeightScale(k), cfg, schedule)
                with monkeypatch.context() as patch:
                    patch.setattr(objective, "_tabulates", lambda *args: False)
                    chain = anneal(ds, WeightScale(k), cfg, schedule)
            assert table.selection == chain.selection
            assert table.value == chain.value
            assert table.records == chain.records
            assert table.total_evaluations == chain.total_evaluations

    @pytest.mark.parametrize("kind", [_TableEvaluator, IncrementalEvaluator])
    def test_both_evaluators_follow_one_protocol(self, kind):
        # Multiples of 1/8 times weights k/4 tie exactly, and the last label
        # never occurs. The same seeded walk proposes then commits each move,
        # and every third step first proposes another index for the same
        # class; every proposal is the reference total, every commit returns
        # None and leaves ``indices`` on the selection proposed last, and an
        # IncrementalEvaluator's cached predictions and maxima are a fresh
        # argmax's, ties where c has the higher index included.
        rng = np.random.default_rng(61)
        n, scale, cfg = 4, WeightScale(4), ObjectiveConfig()
        probs = rng.multinomial(8, np.full(n, 1 / n), size=80) / 8
        ds = ProbabilityDataset.from_arrays(probs, rng.integers(n - 1, size=80))
        indices = [4] * n
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the class without true samples
            evaluator = kind(ds, scale, cfg, WeightSelection(tuple(indices)))
            for step in range(300):
                c, idx = int(rng.integers(n)), int(rng.integers(1, 5))
                proposals = [int(rng.integers(1, 5)), idx] if step % 3 == 1 else [idx]
                for proposed in proposals:
                    moved = tuple(proposed if j == c else i for j, i in enumerate(indices))
                    want = reference_evaluation(ds, WeightSelection(moved), scale, cfg).total
                    assert evaluator.propose(c, proposed) == want
                assert evaluator.apply() is None
                indices[c] = idx
                assert list(evaluator.indices) == indices
                if kind is IncrementalEvaluator:
                    preds, row_max = objective._argmax(evaluator._probs_t, np.array(indices) / 4)
                    assert np.array_equal(evaluator._preds, preds)
                    assert np.array_equal(evaluator._row_max, row_max)
            final = reference_evaluation(ds, WeightSelection(tuple(indices)), scale, cfg).total
            assert evaluator.propose(0, indices[0]) == final


class TestAnneal:
    def _instance(self, seed=9, m=80, n=3, k=4):
        rng = np.random.default_rng(seed)
        return random_dataset(rng, m, n), WeightScale(k)

    def test_singleton_scale_short_circuits(self):
        ds, _ = self._instance()
        result = anneal(ds, WeightScale(1), ObjectiveConfig(), AnnealSchedule(seed=0))
        assert result.selection.indices == (1, 1, 1)
        assert result.total_evaluations == 1
        assert result.records == ()

    def test_mechanics_invariants(self):
        ds, scale = self._instance()
        schedule = AnnealSchedule(seed=5)
        result = anneal(ds, scale, ObjectiveConfig(), schedule)
        records = result.records
        # best trace never increases
        bests = [r["best"] for r in records]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        # temperatures follow t_max * alpha**t exactly
        for t, rec in enumerate(records):
            assert rec["temperature"] == schedule.t_max * schedule.alpha**t
        # proposal count stays within the closed-form bound
        proposals = result.total_evaluations - 1
        assert proposals <= predicted_complexity(ds.num_classes, scale.k_points, schedule)
        # acceptance rates are rates
        assert all(0.0 <= r["acceptance_rate"] <= 1.0 for r in records)

    def test_deterministic_given_seed(self):
        ds, scale = self._instance()
        schedule = AnnealSchedule(seed=77)
        a = anneal(ds, scale, ObjectiveConfig(), schedule)
        b = anneal(ds, scale, ObjectiveConfig(), schedule)
        assert a.selection == b.selection
        assert a.value == b.value
        assert a.records == b.records
        c = anneal(ds, scale, ObjectiveConfig(), AnnealSchedule(seed=78))
        # a different stream explores differently (trace differs)
        assert c.records != a.records

    def test_equal_objective_moves_accepted_without_best_update(self):
        # every weight change is objective-neutral here (class 1 carries no
        # probability mass), so all proposals hit the dz <= 0 branch: each
        # temperature accepts at its cap, yet best-so-far stays the initial
        # selection because updates require a strict improvement
        probs = np.tile([1.0, 0.0], (20, 1))
        ds = ProbabilityDataset.from_arrays(probs, [0] * 20)
        schedule = AnnealSchedule(t_max=10.0, t_min=1.0, alpha=0.5, seed=0)
        result = anneal(ds, WeightScale(4), ObjectiveConfig(use_z2=False, use_z3=False), schedule)
        assert all(r["acceptance_rate"] == 1.0 for r in result.records)
        assert result.selection.indices == (4, 4)

    def test_returned_value_matches_returned_selection(self):
        # every field, on the table and on the incremental path
        cfg, schedule = ObjectiveConfig(), AnnealSchedule(t_max=10.0, alpha=0.7, seed=2)
        for k, tabulates in [(4, True), (30, False)]:
            ds, scale = self._instance(seed=13, k=k)
            assert _tabulates(ds.num_classes, k, fewest_proposals(ds.num_classes, k, schedule)) == tabulates
            result = anneal(ds, scale, cfg, schedule)
            assert result.value == reference_evaluation(ds, result.selection, scale, cfg)

    @pytest.mark.parametrize("k, tabulates", [(4, True), (30, False)])
    def test_a_proposal_off_by_one_ulp_is_caught(self, k, tabulates, monkeypatch):
        # the chain's best total must equal the reference evaluation of the
        # best selection, so a fast path one ulp low makes the run raise
        ds, scale = self._instance(seed=13, k=k)
        schedule = AnnealSchedule(t_max=10.0, alpha=0.7, seed=2)
        assert _tabulates(ds.num_classes, k, fewest_proposals(ds.num_classes, k, schedule)) == tabulates
        evaluator = _TableEvaluator if tabulates else IncrementalEvaluator
        propose = evaluator.propose
        monkeypatch.setattr(evaluator, "propose",
                            lambda *args: np.nextafter(propose(*args), -np.inf))
        with pytest.raises(AssertionError, match="differs from the reference evaluation"):
            anneal(ds, scale, ObjectiveConfig(), schedule)

    @pytest.mark.parametrize("k", [1, 4])
    def test_a_wrong_start_total_is_caught(self, k, monkeypatch):
        # the evaluator scores the start, so a table whose no-op moves read
        # 1e6 low makes the end-of-run reference check raise: on a one-point
        # scale, and on a tabulated K=4 run, whose chain never proposes a no-op
        propose = _TableEvaluator.propose

        def low_start(self, c, new_index):
            return propose(self, c, new_index) - (1e6 if new_index == self.indices[c] else 0.0)

        monkeypatch.setattr(_TableEvaluator, "propose", low_start)
        ds, scale = self._instance(seed=13, k=k)
        schedule = AnnealSchedule(t_max=10.0, alpha=0.7, seed=2)
        assert _tabulates(ds.num_classes, k, fewest_proposals(ds.num_classes, k, schedule))
        with pytest.raises(AssertionError, match="differs from the reference evaluation"):
            anneal(ds, scale, ObjectiveConfig(), schedule)

    @pytest.mark.parametrize("k", [4, 1])
    def test_optimize_trace_lines_are_the_records(self, tmp_path, k):
        import json

        from click.testing import CliRunner

        from cobias import save_dataset
        from cobias.cli import main

        ds, _ = self._instance()
        schedule = AnnealSchedule(seed=1)
        result = anneal(ds, WeightScale(k), ObjectiveConfig(), schedule)
        data, trace = tmp_path / "d.jsonl", tmp_path / "trace.jsonl"
        save_dataset(ds, data, "jsonl")
        out = CliRunner().invoke(main, ["optimize", str(data), "--k", str(k), "--seed", "1",
                                        "--out", str(tmp_path / "a.json"), "--trace", str(trace)])
        assert out.exit_code == 0
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        # one line per temperature level, none for the single-point scale
        assert len(lines) == (schedule.limits(ds.num_classes, k)[0] if k > 1 else 0)
        assert lines == list(result.records)
        for line in lines:
            assert list(line) == ["iteration", "temperature", "current", "best", "acceptance_rate"]
