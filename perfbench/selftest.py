"""Self-tests of the benchmark's own code. Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import tempfile
import types
import unittest
from pathlib import Path

import numpy as np

import inputs
import reference
import run
from tracing import Tracer, layer_totals

# The 4-class reference confusion matrix from the package's README and test
# suite: overall accuracy 0.7484, per-class accuracies about
# (0.85, 0.98, 0.97, 0.19), cobias about 0.415.
REFERENCE_COUNTS = np.array([
    [1093, 64, 126, 3],
    [9, 1247, 14, 0],
    [25, 4, 1167, 8],
    [156, 27, 822, 235],
])


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ("root", 0.0, 10.0, -1, "r"),
            ("a", 1.0, 4.0, 0, "r"),
            ("leaf", 2.0, 3.0, 1, "r"),
            ("b", 5.0, 9.0, 0, "r"),
            ("a", 9.5, 10.0, 0, "r"),
        ]
        totals = layer_totals(spans)
        self.assertEqual(totals["root"]["self_s"], 10.0 - 3.0 - 4.0 - 0.5)  # direct children only
        self.assertEqual(totals["a"], {"calls": 2, "s": 3.5, "self_s": 2.5})
        self.assertEqual(totals["leaf"]["self_s"], 1.0)
        self.assertEqual(totals["b"]["self_s"], 4.0)

    def test_tracer_records_parents_and_restores(self):
        module = types.SimpleNamespace()
        module.inner = lambda x: x + 1
        module.outer = lambda x: module.inner(x) * 2
        original_inner = module.inner
        tracer = Tracer()
        tracer.wrap(module, "inner", "m.inner", count=lambda args, result: args[0])
        tracer.wrap(module, "outer", "m.outer")
        tracer.run_id = "run-1"
        self.assertEqual(module.outer(3), 8)
        tracer.restore()
        self.assertIs(module.inner, original_inner)
        (outer, _, _, outer_parent, run_id), (inner, _, _, inner_parent, _) = tracer.spans
        self.assertEqual((outer, outer_parent, run_id), ("m.outer", -1, "run-1"))
        self.assertEqual((inner, inner_parent), ("m.inner", 0))
        self.assertEqual(tracer.counters["m.inner"], 3)

    def test_classmethod_wrap(self):
        class Thing:
            @classmethod
            def make(cls, x):
                return (cls, x)

        tracer = Tracer()
        tracer.wrap(Thing, "make", "thing.make", count=lambda args, _: args[0])
        self.assertEqual(Thing.make(5), (Thing, 5))
        tracer.restore()
        self.assertIsInstance(vars(Thing)["make"], classmethod)
        self.assertEqual(tracer.counters["thing.make"], 5)


class IndependentObjective(unittest.TestCase):
    def test_reference_counts(self):
        z1 = reference.objective(REFERENCE_COUNTS, beta=0.0, tau=0.0)
        z2 = reference.objective(REFERENCE_COUNTS, beta=1.0, tau=0.0) - z1
        self.assertAlmostEqual(1.0 - z1, 0.7484, places=12)
        self.assertAlmostEqual(z2, 0.415, delta=0.005)

    def test_pmi_term_from_paper_formula(self):
        counts = np.array([[3, 1], [2, 4]])
        m, mu = 10.0, 1e-3
        f = lambda c: (c + mu) / (m + 2 * mu)  # noqa: E731
        pmi = np.log(f(3) / (f(5) * f(4))) + np.log(f(4) / (f(5) * f(6)))
        z3 = reference.objective(counts, beta=0.0, tau=0.0) - reference.objective(
            counts, beta=0.0, tau=1.0)
        self.assertAlmostEqual(z3, pmi, places=12)


class Checks(unittest.TestCase):
    def setUp(self):
        out = Path(__file__).parent / "out"
        out.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=out))
        self.probs, self.labels = inputs.draw_dataset(4, 50, seed=3)
        self.coeffs = reference.coefficients(inputs.FIXED_INDICES[:4], inputs.FIXED_K_POINTS)
        self.counts = reference.confusion(self.probs, self.labels, self.coeffs)

    def tearDown(self):
        shutil.rmtree(self.dir)

    def write_report(self, counts) -> Path:
        path = self.dir / "report.json"
        path.write_text(json.dumps({
            "num_samples": int(counts.sum()),
            "confusion": counts.tolist(),
            "class_totals": counts.sum(axis=1).tolist(),
            "prediction_totals": counts.sum(axis=0).tolist(),
            "overall_accuracy": float(np.trace(counts) / counts.sum()),
        }))
        return path

    def test_report(self):
        self.assertEqual(reference.check_report(self.write_report(self.counts), self.counts)[0], [])
        corrupted = self.counts.copy()
        corrupted[0, 0] -= 1
        corrupted[0, 1] += 1
        problems, _ = reference.check_report(self.write_report(corrupted), self.counts)
        self.assertTrue(problems)

    def test_density(self):
        values = reference.density_values(self.probs, self.labels, self.coeffs)
        path = self.dir / "density.csv"

        def write(vals):
            rows = "".join(f"{int(c)},{float(v)!r}\n" for c, v in zip(self.labels, vals))
            path.write_text("class,value\n" + rows)

        write(values)
        self.assertEqual(reference.check_density(path, self.labels, values), [])
        corrupted = values.copy()
        corrupted[7] *= 1 + 1e-9
        write(corrupted)
        self.assertTrue(reference.check_density(path, self.labels, values))

    def test_artifact(self):
        path = self.dir / "artifact.json"
        indices = list(inputs.FIXED_INDICES[:4])
        total = reference.objective(self.counts)
        path.write_text(json.dumps({"indices": indices, "final_objective": total}))
        problems, info = reference.check_artifact(path, self.probs, self.labels, inputs.FIXED_K_POINTS)
        self.assertEqual(problems, [])
        self.assertEqual(info["recomputed_objective"], total)
        path.write_text(json.dumps({"indices": indices, "final_objective": total - 1e-6}))
        self.assertTrue(reference.check_artifact(
            path, self.probs, self.labels, inputs.FIXED_K_POINTS)[0])


class Inputs(unittest.TestCase):
    def test_seeded(self):
        a = inputs.draw_dataset(5, 20, seed=11)
        b = inputs.draw_dataset(5, 20, seed=11)
        c = inputs.draw_dataset(5, 20, seed=12)
        self.assertTrue(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]))
        self.assertFalse(np.array_equal(a[0], c[0]))
        np.testing.assert_allclose(a[0].sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_fixed_artifact_coefficients(self):
        k = inputs.FIXED_K_POINTS
        scale = np.arange(1, k + 1, dtype=np.float64) / k
        self.assertEqual(list(reference.coefficients(inputs.FIXED_INDICES, k)),
                         [scale[i - 1] for i in inputs.FIXED_INDICES])


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())

    def test_names_and_units(self):
        pattern = re.compile(r"[A-Za-z0-9_.-]+")
        for group, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
            declared = {m["name"]: m["unit"] for m in self.spec[group]}
            self.assertEqual(declared, units, group)
            for name in declared:
                self.assertTrue(pattern.fullmatch(name), name)

    def test_layer_metrics_cover_the_declared_names(self):
        values = run.layer_metrics([], {"oracle.enumerate_optimum": 0, "data.load_dataset": 0},
                                   passes=1, overhead_s=0.0, untraced_s=1.0)
        self.assertEqual(set(values), set(run.PER_LAYER_UNITS))

    def test_workloads_declared(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
