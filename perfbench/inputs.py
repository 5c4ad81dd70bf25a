"""Seeded benchmark inputs, written with the benchmark's own writers.

Every dataset is drawn here from a fixed class-confusion pattern with numpy's
Dirichlet sampler; only the samples depend on the seed, so the structure the
annealer works against is the same for every seed. Nothing in this module
calls into the package under test, so an input never depends on the code it
measures.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

CONCENTRATION = 4.0


def bias_matrix(num_classes: int) -> np.ndarray:
    """Mean probability vector per true class (rows sum to 1).

    Accuracy falls linearly from class 0 to the last class, and 60% of every
    other class's misplaced mass lands on class 0, so the weakest classes are
    mostly predicted as class 0. This is the imbalance the reweighting is
    meant to correct.
    """
    n = num_classes
    out = np.zeros((n, n))
    for i in range(n):
        diag = 0.8 - 0.45 * i / (n - 1)
        rest = 1.0 - diag
        out[i, i] = diag
        if i == 0:
            others = [j for j in range(n) if j != 0]
            out[0, others] = rest / len(others)
            continue
        out[i, 0] = 0.6 * rest
        others = [j for j in range(1, n) if j != i]
        out[i, others] = 0.4 * rest / len(others)
    return out


def draw_dataset(num_classes: int, per_class: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """``per_class`` rows per class, grouped by label, from a PCG64 stream
    seeded with ``seed`` (an int or a sequence of ints)."""
    rng = np.random.default_rng(seed)
    bias = bias_matrix(num_classes)
    probs = np.vstack(
        [rng.dirichlet(CONCENTRATION * bias[i], size=per_class) for i in range(num_classes)]
    )
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return probs, labels


def write_jsonl(path: Path, probs: np.ndarray, labels: np.ndarray) -> None:
    """One ``{"probs": [...], "label": i}`` object per line; floats via repr,
    which round-trips every float64 exactly."""
    with path.open("w") as fh:
        for row, label in zip(probs.tolist(), labels.tolist()):
            fh.write(f'{{"probs": [{", ".join(map(repr, row))}], "label": {label}}}\n')


def write_csv(path: Path, probs: np.ndarray, labels: np.ndarray) -> None:
    """Headerless rows: the probabilities, then the label."""
    with path.open("w") as fh:
        for row, label in zip(probs.tolist(), labels.tolist()):
            fh.write(f"{','.join(map(repr, row))},{label}\n")


# A fixed selection for the 10-class pattern above, found once by coordinate
# descent on ``reference.objective``: class 0, which absorbs the other
# classes' errors, is scaled down hardest and the weakest classes keep full
# weight. Fixed, so the apply workload never depends on the annealer.
FIXED_K_POINTS = 30
FIXED_INDICES = (7, 8, 11, 13, 16, 19, 25, 30, 30, 30)


def write_fixed_artifact(path: Path) -> None:
    """Write the reweight artifact that selects ``FIXED_INDICES``."""
    k = FIXED_K_POINTS
    doc = {
        "schema_version": 1,
        "kind": "reweight_artifact",
        "k_points": k,
        "indices": list(FIXED_INDICES),
        "coefficients": [i / k for i in FIXED_INDICES],
        "objective_config": {
            "beta": 2.7, "tau": 0.2, "mu": 0.001,
            "use_z1": True, "use_z2": True, "use_z3": True,
        },
        "final_objective": 0.0,
        "provenance": {
            "seed": 0,
            "schedule": {},
            "dataset_fingerprint": "fixed-benchmark-artifact",
            "created_at": None,
        },
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
