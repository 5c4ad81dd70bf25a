"""Independent numpy recomputation of every output the benchmark checks.

Written from the formulas in PAPER.md, not from the package's code:

    total = z1 + beta*z2 - tau*z3
    z1 = error rate
    z2 = mean |A_i - A_j| over class pairs (classes without samples excluded)
    z3 = sum_j ln( f(pred=j, true=j) / (f(pred=j) * f(true=j)) ),
         f(event) = (count + mu) / (M + mu*N)

Each ``check_*`` function returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

BETA = 2.7
TAU = 0.2
MU = 1e-3
# Objectives are compared with a tolerance because this module sums in a
# different order than the package; confusion counts must match exactly.
OBJECTIVE_TOL = 1e-9


def coefficients(indices, k_points: int) -> np.ndarray:
    return np.asarray(indices, dtype=np.float64) / k_points


def confusion(probs: np.ndarray, labels: np.ndarray, coeffs: np.ndarray | None = None) -> np.ndarray:
    """counts[i, j]: samples of true class i predicted as j (lowest index wins ties)."""
    n = probs.shape[1]
    scores = probs if coeffs is None else probs * coeffs
    preds = scores.argmax(axis=1)
    return np.bincount(labels * n + preds, minlength=n * n).reshape(n, n)


def objective(counts: np.ndarray, beta: float = BETA, tau: float = TAU, mu: float = MU) -> float:
    """Full z1 + beta*z2 - tau*z3 objective of a confusion matrix."""
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.shape[0]
    m = counts.sum()
    joint = np.diag(counts)
    true = counts.sum(axis=1)
    pred = counts.sum(axis=0)
    z1 = 1.0 - joint.sum() / m
    acc = joint[true > 0] / true[true > 0]
    pairs = len(acc) * (len(acc) - 1) / 2
    z2 = np.abs(acc[:, None] - acc[None, :]).sum() / 2 / pairs if pairs else 0.0
    denom = m + mu * n
    f_joint = (joint + mu) / denom
    f_pred = (pred + mu) / denom
    f_true = (true + mu) / denom
    z3 = np.log(f_joint / (f_pred * f_true)).sum()
    return float(z1 + beta * z2 - tau * z3)


def density_values(probs: np.ndarray, labels: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Each sample's reweighted, renormalized probability of its true class."""
    scores = probs * coeffs
    return scores[np.arange(len(labels)), labels] / scores.sum(axis=1)


def check_artifact(path: Path, probs: np.ndarray, labels: np.ndarray, k_points: int) -> tuple[list[str], dict]:
    """An ``optimize`` artifact must carry a valid selection whose recomputed
    objective equals its recorded ``final_objective`` and is no worse than
    the unweighted baseline the annealer starts from."""
    try:
        doc = json.loads(path.read_text())
        indices = [int(i) for i in doc["indices"]]
        recorded = float(doc["final_objective"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifact: {exc!r}"], {}
    n = probs.shape[1]
    if len(indices) != n or not all(1 <= i <= k_points for i in indices):
        return [f"invalid selection {indices}"], {}
    total = objective(confusion(probs, labels, coefficients(indices, k_points)))
    baseline = objective(confusion(probs, labels))
    problems = []
    if abs(total - recorded) > OBJECTIVE_TOL:
        problems.append(f"final_objective {recorded!r} but recomputed {total!r}")
    if total > baseline + OBJECTIVE_TOL:
        problems.append(f"objective {total!r} worse than the baseline {baseline!r}")
    return problems, {"indices": indices, "final_objective": recorded,
                      "recomputed_objective": total}


def check_report(path: Path, expected_counts: np.ndarray) -> tuple[list[str], dict]:
    """An ``apply --json`` report must carry the recomputed confusion matrix
    and the totals and accuracy that follow from it."""
    try:
        doc = json.loads(path.read_text())
        counts = np.asarray(doc["confusion"], dtype=np.int64)
        overall = float(doc["overall_accuracy"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"], {}
    if counts.shape != expected_counts.shape or not np.array_equal(counts, expected_counts):
        return ["confusion matrix differs from the argmax/bincount recomputation"], {}
    problems = []
    if doc.get("num_samples") != int(expected_counts.sum()):
        problems.append(f"num_samples {doc.get('num_samples')!r}")
    if doc.get("class_totals") != expected_counts.sum(axis=1).tolist():
        problems.append("class_totals differ")
    if doc.get("prediction_totals") != expected_counts.sum(axis=0).tolist():
        problems.append("prediction_totals differ")
    accuracy = float(np.trace(expected_counts) / expected_counts.sum())
    if abs(overall - accuracy) > OBJECTIVE_TOL:
        problems.append(f"overall_accuracy {overall!r} but recomputed {accuracy!r}")
    return problems, {"overall_accuracy": overall}


def check_density(path: Path, labels: np.ndarray, expected: np.ndarray) -> list[str]:
    """A ``density`` CSV must list every sample's true class and its
    recomputed probability, in input order."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return [f"unreadable density file: {exc!r}"]
    if not lines or lines[0] != "class,value":
        return ["missing 'class,value' header"]
    if len(lines) - 1 != len(labels):
        return [f"{len(lines) - 1} rows for {len(labels)} samples"]
    try:
        table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        return [f"unparseable density rows: {exc}"]
    problems = []
    if not np.array_equal(table[:, 0].astype(np.int64), labels):
        problems.append("class column differs from the labels")
    if not np.allclose(table[:, 1], expected, rtol=1e-12, atol=0.0):
        worst = int(np.argmax(np.abs(table[:, 1] - expected)))
        problems.append(f"value of row {worst} is {float(table[worst, 1])!r}, "
                        f"expected {float(expected[worst])!r}")
    return problems
