import math

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
from cobias import annealer
from cobias.annealer import _draw_move, write_trace

from helpers import random_dataset


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

    def test_default_acceptance_limit(self):
        s = AnnealSchedule()
        assert s.acceptances_per_temperature(4, 30) == math.ceil(0.1 * 5.0 * 4 * 30)
        assert AnnealSchedule(max_accepted=7).acceptances_per_temperature(4, 30) == 7


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
        assert predicted_complexity(4, 30, schedule) == 120 * 238 == 28560

    def test_single_cooling_step(self):
        # dyadic values make t_min/t_max exactly one cooling step
        schedule = AnnealSchedule(t_max=100.0, t_min=50.0, alpha=0.5, lam=1.0)
        assert schedule.outer_iterations() == 1
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 20, 2)
        result = anneal(ds, WeightScale(3), ObjectiveConfig(), schedule)
        assert len(result.trace.records) == 1

    def test_doubling_lambda_doubles_estimate(self):
        base = AnnealSchedule(lam=1.0)
        double = AnnealSchedule(lam=2.0)
        assert predicted_complexity(4, 30, double) == 2 * predicted_complexity(4, 30, base)


class TestAnneal:
    def _instance(self, seed=9, m=80, n=3, k=4):
        rng = np.random.default_rng(seed)
        return random_dataset(rng, m, n), WeightScale(k)

    def test_singleton_scale_short_circuits(self):
        ds, _ = self._instance()
        result = anneal(ds, WeightScale(1), ObjectiveConfig(), AnnealSchedule(seed=0))
        assert result.selection.indices == (1, 1, 1)
        assert result.trace.total_evaluations == 1
        assert result.trace.records == ()

    def test_mechanics_invariants(self):
        ds, scale = self._instance()
        schedule = AnnealSchedule(seed=5)
        result = anneal(ds, scale, ObjectiveConfig(), schedule)
        records = result.trace.records
        # best trace never increases
        bests = [r.best_total for r in records]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        # temperatures follow t_max * alpha**t exactly
        for t, rec in enumerate(records):
            assert rec.temperature == schedule.t_max * schedule.alpha**t
        # proposal count stays within the closed-form bound
        proposals = result.trace.total_evaluations - 1
        assert proposals <= predicted_complexity(ds.num_classes, scale.k_points, schedule)
        # acceptance rates are rates
        assert all(0.0 <= r.acceptance_rate <= 1.0 for r in records)

    def test_deterministic_given_seed(self):
        ds, scale = self._instance()
        schedule = AnnealSchedule(seed=77)
        a = anneal(ds, scale, ObjectiveConfig(), schedule)
        b = anneal(ds, scale, ObjectiveConfig(), schedule)
        assert a.selection == b.selection
        assert a.value == b.value
        assert a.trace.records == b.trace.records
        c = anneal(ds, scale, ObjectiveConfig(), AnnealSchedule(seed=78))
        # a different stream explores differently (trace differs)
        assert c.trace.records != a.trace.records

    def test_equal_objective_moves_accepted_without_best_update(self):
        # every weight change is objective-neutral here (class 1 carries no
        # probability mass), so all proposals hit the dz <= 0 branch: each
        # temperature accepts at its cap, yet best-so-far stays the initial
        # selection because updates require a strict improvement
        probs = np.tile([1.0, 0.0], (20, 1))
        ds = ProbabilityDataset.from_arrays(probs, [0] * 20)
        schedule = AnnealSchedule(t_max=10.0, t_min=1.0, alpha=0.5, seed=0)
        result = anneal(ds, WeightScale(4), ObjectiveConfig(use_z2=False, use_z3=False), schedule)
        assert all(r.acceptance_rate == 1.0 for r in result.trace.records)
        assert result.selection.indices == (4, 4)

    def test_returned_value_matches_returned_selection(self):
        from cobias import evaluate

        ds, scale = self._instance(seed=13)
        cfg = ObjectiveConfig()
        result = anneal(ds, scale, cfg, AnnealSchedule(seed=2))
        assert result.value.total == evaluate(ds, result.selection, scale, cfg).total

    def test_trace_export_is_line_delimited_json(self, tmp_path):
        import json

        ds, scale = self._instance()
        result = anneal(ds, scale, ObjectiveConfig(), AnnealSchedule(seed=1))
        p = tmp_path / "trace.jsonl"
        write_trace(result.trace, p)
        lines = p.read_text().splitlines()
        assert len(lines) == len(result.trace.records)
        first = json.loads(lines[0])
        assert set(first) == {"iteration", "temperature", "current", "best", "acceptance_rate"}
