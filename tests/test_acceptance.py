"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and asserts the criterion at its stated tolerance. Budgets
are wall-clock upper bounds measured inside the test.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cobias import (
    AnnealSchedule,
    ObjectiveConfig,
    ProbabilityDataset,
    WeightScale,
    anneal,
    class_report,
    confusion,
    enumerate_optimum,
    predicted_complexity,
    save_dataset,
)
from cobias import annealer
from cobias.cli import main as cli_main
from cobias.defaults import TERM_COMBINATIONS

from helpers import (
    REFERENCE_COUNTS,
    biased_synthetic_pair,
    dataset_from_confusion,
    random_dataset,
)


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_reference_metric_reproduction(tmp_path):
    """A 5000-sample dataset realizing the reference confusion counts must
    reproduce its published summary metrics through the CLI."""
    dataset = dataset_from_confusion(REFERENCE_COUNTS)
    path = tmp_path / "reference.jsonl"
    save_dataset(dataset, path, "jsonl")
    report_path = tmp_path / "report.json"

    start = time.perf_counter()
    result = CliRunner().invoke(
        cli_main, ["evaluate", str(path), "--json", str(report_path)]
    )
    elapsed = time.perf_counter() - start

    assert result.exit_code == 0, result.output
    doc = json.loads(report_path.read_text())
    checks = [
        abs(doc["overall_accuracy"] - 0.7484) <= 1e-9,
        all(
            abs(a - e) <= 0.005
            for a, e in zip(doc["per_class_accuracy"], (0.85, 0.98, 0.97, 0.19))
        ),
        abs(doc["cobias"] - 0.415) <= 0.005,
        abs(doc["cobias_single"] - 0.2575) <= 0.005,
        doc["odd_classes"] == [2, 2, 0, 2],
        elapsed < 1.0,
    ]
    _verdict(
        1,
        all(checks),
        f"accuracy={doc['overall_accuracy']:.4f} cobias={doc['cobias']:.4f} "
        f"cobias_single={doc['cobias_single']:.4f} odd={doc['odd_classes']} "
        f"runtime={elapsed:.2f}s",
    )


def test_criterion_2_oracle_equivalence(monkeypatch):
    """Over 100 seeded runs on small random instances the annealed objective
    must match the enumeration optimum within 1e-12 at least 95 times and
    never be lower. The first 20 are annealed again with every proposal
    scored by the incremental evaluator instead of the objective table, and
    must give the identical result."""
    start = time.perf_counter()
    matches = 0
    min_gap = np.inf
    for run_seed in range(100):
        rng = np.random.default_rng(run_seed)
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        ds = random_dataset(rng, 200, n)
        scale = WeightScale(k)
        config = ObjectiveConfig(beta=2.7, tau=0.2, mu=1e-3)
        schedule = AnnealSchedule(seed=run_seed)
        annealed = anneal(ds, scale, config, schedule)
        if run_seed < 20:
            assert annealer._tabulates(n, k, schedule)
            with monkeypatch.context() as patch:
                patch.setattr(annealer, "_tabulates", lambda *args: False)
                chain = anneal(ds, scale, config, schedule)
            assert (chain.selection, chain.value, chain.records,
                    chain.total_evaluations) == (
                annealed.selection, annealed.value, annealed.records,
                annealed.total_evaluations), f"seed {run_seed}: the two paths differ"
        _, optimum = enumerate_optimum(ds, scale, config)
        gap = annealed.value.total - optimum.total
        min_gap = min(min_gap, gap)
        assert gap >= 0.0, f"seed {run_seed}: annealed beat the exhaustive optimum"
        if gap <= 1e-12:
            matches += 1
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        matches >= 95 and min_gap >= 0.0 and elapsed < 120.0,
        f"{matches}/100 optimal, min gap {min_gap:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_3_debiasing_effect():
    """On the biased synthetic instance, default-settings optimization must
    halve the test imbalance without costing more than one accuracy point."""
    start = time.perf_counter()
    opt, test = biased_synthetic_pair()
    identity = class_report(test)
    result = anneal(opt, WeightScale(30), ObjectiveConfig(), AnnealSchedule(seed=0))
    corrected = class_report(test, result.selection, WeightScale(30))
    elapsed = time.perf_counter() - start

    reduction = 1.0 - corrected["cobias"] / identity["cobias"]
    accuracy_change = corrected["overall_accuracy"] - identity["overall_accuracy"]
    _verdict(
        3,
        reduction >= 0.5 and accuracy_change >= -0.01 and elapsed < 300.0,
        f"cobias {identity['cobias']:.4f}->{corrected['cobias']:.4f} "
        f"({reduction * 100:.0f}% reduction), accuracy "
        f"{identity['overall_accuracy']:.4f}->{corrected['overall_accuracy']:.4f} "
        f"({accuracy_change:+.4f}), runtime {elapsed:.0f}s",
    )


def test_criterion_4_ablation_ordering(biased_pair, trained_full_objective):
    """Term ablations on the criterion-3 instance: the imbalance-only
    objective balances at least as well as the error-only one, the error-only
    one is at least as accurate, and the full objective lands within two
    points of the best imbalance."""
    opt, test = biased_pair
    scale = WeightScale(30)
    rows = {}
    for key in TERM_COMBINATIONS:
        if key == "z1+z2-z3":
            result = trained_full_objective
        else:
            result = anneal(opt, scale, ObjectiveConfig.with_terms(key), AnnealSchedule(seed=0))
        report = class_report(test, result.selection, scale)
        rows[key] = (report["overall_accuracy"], report["cobias"])

    best_cobias = min(cb for _, cb in rows.values())
    checks = [
        rows["z2"][1] <= rows["z1"][1],
        rows["z1"][0] >= rows["z2"][0],
        rows["z1+z2-z3"][1] - best_cobias <= 0.02,
    ]
    _verdict(
        4,
        all(checks),
        f"z1=(acc {rows['z1'][0]:.4f}, cb {rows['z1'][1]:.4f}) "
        f"z2=(acc {rows['z2'][0]:.4f}, cb {rows['z2'][1]:.4f}) "
        f"full cb {rows['z1+z2-z3'][1]:.4f} vs best {best_cobias:.4f}",
    )


def test_criterion_5_annealer_mechanics(tmp_path, trained_full_objective):
    """Every run keeps a non-increasing best trace, exact geometric
    temperatures, a proposal count within the closed-form bound, and seed
    reruns reproduce artifacts bit for bit."""
    schedule = AnnealSchedule(seed=0)
    runs = [(trained_full_objective, 4, 30, schedule)]
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        ds = random_dataset(rng, 200, n)
        sched = AnnealSchedule(seed=seed)
        runs.append((anneal(ds, WeightScale(k), ObjectiveConfig(), sched), n, k, sched))

    ok = True
    for result, n, k, sched in runs:
        bests = [r["best"] for r in result.records]
        ok &= all(a >= b for a, b in zip(bests, bests[1:]))
        ok &= all(
            rec["temperature"] == sched.t_max * sched.alpha**t
            for t, rec in enumerate(result.records)
        )
        ok &= result.total_evaluations - 1 <= predicted_complexity(n, k, sched)

    # bit-identical artifact files from identical seeds
    rng = np.random.default_rng(11)
    ds = random_dataset(rng, 150, 3)
    data_path = tmp_path / "data.jsonl"
    save_dataset(ds, data_path, "jsonl")
    runner = CliRunner()
    paths = [tmp_path / "a1.json", tmp_path / "a2.json"]
    for p in paths:
        res = runner.invoke(
            cli_main,
            ["optimize", str(data_path), "--k", "5", "--seed", "7", "--out", str(p)],
        )
        assert res.exit_code == 0, res.output
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    ok &= identical
    _verdict(
        5,
        ok,
        f"{len(runs)} runs checked (monotone best, exact cooling, bound), "
        f"artifact reruns identical: {identical}",
    )


def test_criterion_6_property_suites():
    """The metric property suites must pass as a standalone run in under
    thirty seconds."""
    suite = Path(__file__).parent / "test_properties.py"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(suite), "-q", "-p", "no:cacheprovider"],
        capture_output=True,
        text=True,
        cwd=Path(__file__).parent.parent,
    )
    elapsed = time.perf_counter() - start
    _verdict(
        6,
        proc.returncode == 0 and elapsed < 30.0,
        f"exit {proc.returncode}, runtime {elapsed:.1f}s",
    )
    if proc.returncode != 0:
        print(proc.stdout)


def test_criterion_7_correction_directionality(biased_pair, trained_full_objective):
    """The learned coefficient for the most under-predicted class must
    strictly exceed the one for the most over-predicted class."""
    opt, _ = biased_pair
    counts = confusion(opt)
    gap = counts.sum(axis=0) - counts.sum(axis=1)
    over = int(np.argmax(gap))
    under = int(np.argmin(gap))
    coeffs = trained_full_objective.selection.coefficients(WeightScale(30))
    _verdict(
        7,
        coeffs[under] > coeffs[over],
        f"under-predicted class {under} coeff {coeffs[under]:.4f} > "
        f"over-predicted class {over} coeff {coeffs[over]:.4f}",
    )
