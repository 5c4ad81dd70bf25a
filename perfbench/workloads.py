"""The benchmark's workloads: seeded inputs, the steps of each pass, and the
check that follows each step.

A step is either a CLI command (``argv``) or an in-process library call
(``call``), and every step has a check against ``reference``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import inputs
import reference


@dataclass
class Step:
    name: str
    check: Callable[[Any], list[str]]
    outputs: list[Path] = field(default_factory=list)
    argv: list[str] | None = None
    call: Callable[[], Any] | None = None


@dataclass
class Prepared:
    """One workload's inputs for one seed.

    ``steps(i)`` gives the steps of pass ``i``; passes ``i`` and
    ``i + variants`` do identical work. ``final_steps`` run once, after the
    passes. Checks record each variant's achieved objective in ``finals``.
    """

    files: dict[str, Path]
    steps: Callable[[int], list[Step]]
    variants: int
    facts: dict
    finals: dict[int, float] = field(default_factory=dict)
    final_steps: list[Step] = field(default_factory=list)

    def objective_gain(self) -> float | None:
        """Mean over variants of the unweighted baseline objective minus the
        achieved objective, or None when a variant has no checked result."""
        if len(self.finals) < self.variants:
            return None
        baselines = self.facts["baseline_objectives"]
        return sum(baselines[v] - self.finals[v] for v in range(self.variants)) / self.variants


@dataclass(frozen=True)
class FitWorkload:
    """``optimize`` on seeded optimization sets; with ``with_oracle`` the
    exhaustive oracle then finds the true optimum of each set.

    Each of the ``variants`` has its own dataset and annealer seed, and the
    passes cycle through them, so the reported quality averages over data
    and over independent anneals rather than resting on one of each.
    """

    name: str
    why: str
    num_classes: int
    per_class: int
    k_points: int
    variants: int
    schedule_args: tuple[str, ...] = ()
    with_oracle: bool = False

    def prepare(self, work: Path, seed: int) -> Prepared:
        datasets = [inputs.draw_dataset(self.num_classes, self.per_class, [seed, v])
                    for v in range(self.variants)]
        files = {f"opt{v}.jsonl": work / f"opt{v}.jsonl" for v in range(self.variants)}
        for (probs, labels), path in zip(datasets, files.values()):
            inputs.write_jsonl(path, probs, labels)

        def steps(i: int) -> list[Step]:
            variant = i % self.variants
            return [self._optimize_step(work, seed, variant, *datasets[variant], prepared)]

        prepared = Prepared(files=files, steps=steps, variants=self.variants, facts={
            "baseline_objectives": [reference.objective(reference.confusion(p, l))
                                    for p, l in datasets],
            "anneals": {},
        })
        if self.with_oracle:
            prepared.final_steps = [self._oracle_step(v, *datasets[v], prepared)
                                    for v in range(self.variants)]
        return prepared

    def _optimize_step(self, work: Path, seed: int, variant: int, probs, labels,
                       prepared: Prepared) -> Step:
        k = self.k_points
        anneal_seed = seed * self.variants + variant
        artifact = work / f"artifact{variant}.json"

        def check(_):
            problems, info = reference.check_artifact(artifact, probs, labels, k)
            if not problems:
                prepared.finals[variant] = info["final_objective"]
                prepared.facts["anneals"][variant] = {
                    "seed": anneal_seed, "indices": info["indices"],
                    "final_objective": info["final_objective"]}
            return problems

        return Step("optimize", check, [artifact], argv=[
            "optimize", str(work / f"opt{variant}.jsonl"), "--out", str(artifact),
            "--k", str(k), "--seed", str(anneal_seed), *self.schedule_args])

    def _oracle_step(self, variant: int, probs, labels, prepared: Prepared) -> Step:
        # Only this step imports the package into the benchmark's process.
        from cobias import data, objective, oracle

        k = self.k_points
        dataset = data.ProbabilityDataset.from_arrays(probs, labels)
        scale = data.WeightScale(k)
        config = objective.ObjectiveConfig()

        def call():
            # Looked up at call time, so a traced run sees the traced function.
            return oracle.enumerate_optimum(dataset, scale, config)

        def check(result):
            selection, value = result
            optimum = reference.objective(reference.confusion(
                probs, labels, reference.coefficients(selection.indices, k)))
            problems = []
            if abs(optimum - value.total) > reference.OBJECTIVE_TOL:
                problems.append(f"oracle reports {value.total!r} but recomputed {optimum!r}")
            prepared.facts.setdefault("optima", {})[variant] = {
                "objective": optimum, "indices": list(selection.indices)}
            if variant not in prepared.finals:
                return problems + ["no annealed result to compare with the optimum"]
            gap = prepared.finals[variant] - optimum
            prepared.facts.setdefault("optimality_gaps", {})[variant] = gap
            if gap < -reference.OBJECTIVE_TOL:
                problems.append(f"annealed objective {-gap!r} below the exhaustive optimum")
            return problems

        return Step("oracle", check, call=call)


@dataclass(frozen=True)
class ApplyWorkload:
    """``apply --json`` on a JSONL test set and ``density`` on the same rows
    as CSV, both with the fixed artifact."""

    name: str
    why: str
    num_classes: int
    per_class: int

    def prepare(self, work: Path, seed: int) -> Prepared:
        probs, labels = inputs.draw_dataset(self.num_classes, self.per_class, seed)
        test_jsonl, test_csv = work / "test.jsonl", work / "test.csv"
        artifact, report, density = work / "artifact.json", work / "report.json", work / "density.csv"
        inputs.write_jsonl(test_jsonl, probs, labels)
        inputs.write_csv(test_csv, probs, labels)
        inputs.write_fixed_artifact(artifact)
        coeffs = reference.coefficients(inputs.FIXED_INDICES, inputs.FIXED_K_POINTS)
        expected_counts = reference.confusion(probs, labels, coeffs)
        expected_density = reference.density_values(probs, labels, coeffs)

        def check_apply(_):
            problems, info = reference.check_report(report, expected_counts)
            if not problems:
                prepared.finals[0] = reference.objective(expected_counts)
            prepared.facts.update(info)
            return problems

        steps = [
            Step("apply", check_apply, [report],
                 argv=["apply", str(test_jsonl), str(artifact), "--json", str(report)]),
            Step("density", lambda _: reference.check_density(density, labels, expected_density),
                 [density],
                 argv=["density", str(test_csv), "--artifact", str(artifact), "--out", str(density)]),
        ]
        prepared = Prepared(
            files={"test.jsonl": test_jsonl, "test.csv": test_csv, "artifact.json": artifact},
            steps=lambda i: steps, variants=1,
            facts={"baseline_objectives": [reference.objective(reference.confusion(probs, labels))]},
        )
        return prepared


WORKLOADS = {
    w.name: w
    for w in (
        FitWorkload(
            "fit-tall",
            "optimize, 10 classes x 20k rows, K=30: each proposal rescans every row, "
            "so IncrementalEvaluator.propose/apply dominate the anneal",
            num_classes=10, per_class=2000, k_points=30, variants=3,
            schedule_args=("--alpha", "0.8"),
        ),
        FitWorkload(
            "search-small",
            "optimize, 4 classes x 1k rows, K=10: a fixed cost per proposal dominates; "
            "the exhaustive oracle over all 10^4 selections gives the true optimum",
            num_classes=4, per_class=250, k_points=10, variants=4, with_oracle=True,
        ),
        ApplyWorkload(
            "apply-batch",
            "apply and density with a fixed artifact on 100k rows as JSONL and CSV: "
            "the read path, no annealing",
            num_classes=10, per_class=10000,
        ),
    )
}
