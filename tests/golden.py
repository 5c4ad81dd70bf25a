"""Golden outputs of the command-line interface.

``CASES`` is a fixed sequence of ``cobias`` invocations on small seeded
inputs. They run in order, in process through click's ``CliRunner``, in one
directory, so later invocations read the datasets and artifacts that earlier
ones wrote. ``golden_manifest.json`` holds, for each invocation, its exit
code and the sha256 of its stdout, of its stderr and of every file it
writes; ``test_golden.py`` reruns the cases and compares.

The cases cover every command, both dataset formats, ``optimize --trace``,
the ``--json`` reports, tabulated search spaces (N=2-4 at K=10, N=2-3 at
K=30) and an incremental one (N=10, K=30), one case per error class,
`--mu` values that leave the smoothed PMI not finite, a dataset line nested
too deeply for ``json``, an artifact whose K is not an integer, and a K
beyond 2**53 given as a flag or read from an artifact.
No case passes ``--timestamp``, whose output depends on the clock.

After a change of output that is meant, rewrite the manifest with

    PYTHONPATH=src python tests/golden.py

and name each entry that changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from click.testing import CliRunner

from cobias.cli import main

MANIFEST = Path(__file__).with_name("golden_manifest.json")


def _spec(bias, per_class, seed, concentration=5.0) -> str:
    return json.dumps({
        "num_classes": len(bias),
        "samples_per_class": [per_class] * len(bias),
        "confusion_bias": bias,
        "concentration": concentration,
        "seed": seed,
    })


_BIAS3 = [[0.5, 0.3, 0.2], [0.1, 0.7, 0.2], [0.3, 0.2, 0.5]]
_BIAS10 = [[0.5 if i == j else 0.5 / 9 for j in range(10)] for i in range(10)]

# Class 2 has no true samples and receives mispredictions of both other
# classes, so reports on this set warn twice: about the pairwise gap, then
# about the odd-class gap.
_MISSING_CLASS = "".join(
    json.dumps({"probs": p, "label": y}) + "\n"
    for p, y in [([0.6, 0.3, 0.1], 0), ([0.2, 0.1, 0.7], 0),
                 ([0.1, 0.8, 0.1], 1), ([0.1, 0.2, 0.7], 1)]
)

# Class 2 has no true samples and no row predicts it, so its smoothed PMI
# has the denominator mu * mu, which underflows to 0 at mu=1e-200.
_ABSENT_CLASS = "".join(
    json.dumps({"probs": p, "label": y}) + "\n"
    for p, y in [([0.6, 0.3, 0.1], 0), ([0.5, 0.2, 0.3], 0),
                 ([0.2, 0.7, 0.1], 1), ([0.45, 0.35, 0.2], 1)]
)

INPUTS = {
    "spec2.json": _spec([[0.7, 0.3], [0.4, 0.6]], 30, 3),
    "spec3.json": _spec(_BIAS3, 40, 1),
    "spec3-test.json": _spec(_BIAS3, 40, 2),
    "spec4.json": _spec([[0.6, 0.1, 0.2, 0.1], [0.1, 0.7, 0.1, 0.1],
                         [0.2, 0.1, 0.6, 0.1], [0.1, 0.1, 0.5, 0.3]], 25, 4),
    "spec10.json": _spec(_BIAS10, 20, 5),
    "spec10-test.json": _spec(_BIAS10, 20, 6),
    "missing-class.jsonl": _MISSING_CLASS,
    "absent-class.jsonl": _ABSENT_CLASS,
    "bad-spec.json": json.dumps({"num_classes": 3, "samples_per_class": [5, 5, 5]}),
    "bad-artifact.json": json.dumps({"kind": "reweight_artifact", "schema_version": 99}),
    "bad-row.jsonl": '{"probs": [0.7, 0.7], "label": 0}\n',
    "data.txt": "",
    # nested past the interpreter's recursion limit, where json raises RecursionError
    "deep.jsonl": '{"probs":%s%s,"label":0}\n' % ("[" * 100_000, "]" * 100_000),
    # a fractional K, which int() would truncate to 10
    "fractional-k-artifact.json": json.dumps({"kind": "reweight_artifact", "schema_version": 1,
                                              "k_points": 10.9}),
    # a well-formed artifact but for its 401-digit K, which no float can hold
    "huge-k-artifact.json": json.dumps({
        "schema_version": 1, "kind": "reweight_artifact", "k_points": 10**400,
        "indices": [1, 1, 1], "coefficients": [0.0, 0.0, 0.0],
        "objective_config": {"beta": 1.0, "tau": 1.0, "mu": 1.0,
                             "use_z1": True, "use_z2": True, "use_z3": True},
        "final_objective": 0.0,
        "provenance": {"seed": 0, "schedule": {}, "dataset_fingerprint": "0"},
    }),
}

# Short schedules: 11 levels from 10 down to 1. The tabulated ones make
# enough proposals for the anneal to read objective_table; the last is
# the incremental evaluator's.
_SHORT = ["--tmax", "10", "--tmin", "1", "--alpha", "0.8"]
_TAB = [*_SHORT, "--lambda", "10", "--max-accepted", "1000"]
_INCREMENTAL = [*_SHORT, "--lambda", "0.2"]
_REPORTS = [*_SHORT, "--lambda", "1", "--k", "10"]
_OVERFLOW = ["--lambda", "1e307", "--k", "30"]

CASES = [
    ["--version"],
    ["generate", "--spec", "spec2.json", "--out", "d2.jsonl"],
    ["generate", "--spec", "spec3.json", "--out", "d3.jsonl"],
    ["generate", "--spec", "spec3.json", "--out", "d3.csv"],
    ["generate", "--spec", "spec3-test.json", "--out", "t3.jsonl"],
    ["generate", "--spec", "spec4.json", "--out", "d4.csv"],
    ["generate", "--spec", "spec10.json", "--out", "d10.jsonl"],
    ["generate", "--spec", "spec10-test.json", "--out", "t10.jsonl"],
    # evaluate, both formats
    ["evaluate", "d3.jsonl", "--json", "e3.json"],
    ["evaluate", "d3.csv", "--mu", "0", "--json", "e3-mu0.json"],
    ["evaluate", "missing-class.jsonl", "--json", "e-missing.json"],
    ["evaluate", "d3.jsonl", "--mu", "inf", "--json", "e-mu-inf.json"],
    ["evaluate", "d3.jsonl", "--mu", "nan", "--json", "e-mu-nan.json"],
    ["evaluate", "d3.jsonl", "--mu", "-inf", "--json", "e-mu-neg-inf.json"],
    # a finite mu that leaves the smoothed PMI not finite: overflow, underflow
    ["evaluate", "d3.jsonl", "--mu", "1e200", "--json", "e-mu-huge.json"],
    ["evaluate", "absent-class.jsonl", "--mu", "1e-200", "--json", "e-mu-tiny.json"],
    # optimize: tabulated at K=10 and K=30, incremental at N=10
    ["optimize", "d2.jsonl", "--k", "10", *_TAB, "--out", "a2-k10.json"],
    ["optimize", "d2.jsonl", "--k", "30", *_TAB, "--out", "a2-k30.json",
     "--trace", "tr2-k30.jsonl"],
    ["optimize", "d3.jsonl", "--k", "10", *_TAB, "--out", "a3-k10.json",
     "--trace", "tr3-k10.jsonl"],
    ["optimize", "d3.csv", "--k", "30", *_TAB, "--out", "a3-k30.json"],
    ["optimize", "d4.csv", "--k", "10", *_TAB, "--out", "a4-k10.json",
     "--trace", "tr4-k10.jsonl"],
    ["optimize", "d10.jsonl", "--k", "30", *_INCREMENTAL, "--out", "a10-k30.json",
     "--trace", "tr10-k30.jsonl"],
    ["optimize", "d3.jsonl", *_REPORTS, "--terms", "z1+z2", "--seed", "7",
     "--out", "a3-z1z2.json"],
    ["optimize", "d3.jsonl", *_OVERFLOW, "--out", "a3-overflow.json"],
    ["optimize", "d3.jsonl", *_REPORTS, "--mu", "1e200", "--out", "a3-mu-huge.json"],
    ["optimize", "absent-class.jsonl", *_REPORTS, "--mu", "1e-200", "--out", "a-mu-tiny.json"],
    # apply and evaluate --artifact
    ["apply", "d3.jsonl", "a3-k10.json", "--json", "ap3.json"],
    ["apply", "t3.jsonl", "a3-k10.json", "--json", "ap3-test.json"],
    ["apply", "d3.csv", "a3-k30.json", "--mu", "inf", "--json", "ap3-mu-inf.json"],
    ["evaluate", "d10.jsonl", "--artifact", "a10-k30.json", "--json", "e10.json"],
    # density
    ["density", "d3.jsonl", "--out", "dens3.csv"],
    ["density", "d4.csv", "--artifact", "a4-k10.json", "--raw", "--out", "dens4-raw.csv"],
    # ablate, sweep and compare with --json
    ["ablate", "d3.jsonl", "t3.jsonl", *_REPORTS, "--json", "ablate3.json"],
    ["ablate", "d3.jsonl", "t3.jsonl", *_OVERFLOW, "--json", "ablate-overflow.json"],
    ["sweep", "d3.jsonl", "t3.jsonl", "--sizes", "2,30,120", "--seeds", "0,1", *_REPORTS,
     "--json", "sweep3.json"],
    ["sweep", "d3.jsonl", "t3.jsonl", "--sizes", "30", "--seeds", "0", *_OVERFLOW,
     "--json", "sweep-overflow.json"],
    ["compare", "d3.jsonl", "t3.jsonl", *_REPORTS, "--json", "compare3.json"],
    ["compare", "d10.jsonl", "t10.jsonl", "--k", "30", *_INCREMENTAL,
     "--json", "compare10.json"],
    ["compare", "d3.jsonl", "t3.jsonl", *_OVERFLOW, "--json", "compare-overflow.json"],
    # one case per error class: usage, validation, i/o, malformed artifact and spec
    ["optimize", "d3.jsonl"],
    ["ablate", "d3.jsonl", "t3.jsonl", "--terms", "z1"],
    ["optimize", "d3.jsonl", "--k", "0", "--out", "a-k0.json"],
    ["sweep", "d3.jsonl", "t3.jsonl", "--sizes", "500", *_REPORTS],
    ["compare", "d3.jsonl", "d4.csv", *_REPORTS],
    ["apply", "d4.csv", "a3-k10.json"],
    ["evaluate", "bad-row.jsonl"],
    ["evaluate", "data.txt"],
    ["evaluate", "missing.jsonl"],
    ["apply", "d3.jsonl", "bad-artifact.json"],
    ["generate", "--spec", "bad-spec.json", "--out", "never.jsonl"],
    ["evaluate", "deep.jsonl"],
    ["apply", "d3.jsonl", "fractional-k-artifact.json"],
    # K beyond 2**53: refused before the dataset is read
    ["optimize", "d3.jsonl", "--k", "100000000000000000000", "--out", "a-k-huge.json"],
    ["optimize", "d3.jsonl", "--k", "1" + "0" * 400, "--out", "a-k-401.json"],
    ["apply", "d3.jsonl", "huge-k-artifact.json"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(workdir: Path) -> dict[str, str]:
    return {p.name: _sha(p.read_bytes()) for p in sorted(workdir.iterdir()) if p.is_file()}


def run_cases(workdir: Path) -> list[dict]:
    """Run ``CASES`` in ``workdir`` and return one manifest entry per case.

    A file counts as written by a case when it is new or its bytes changed;
    the directory's own path in stdout and stderr reads as ``<dir>``.
    """
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    runner = CliRunner()
    entries = []
    before = _files(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in CASES:
            result = runner.invoke(main, argv, prog_name="cobias")
            after = _files(workdir)
            entry = {
                "argv": argv,
                "exit_code": result.exit_code,
                "stdout": _sha(result.stdout.replace(str(workdir), "<dir>").encode()),
                "stderr": _sha(result.stderr.replace(str(workdir), "<dir>").encode()),
                "files": {n: h for n, h in after.items() if before.get(n) != h},
            }
            if result.exception is not None and not isinstance(result.exception, SystemExit):
                entry["exception"] = type(result.exception).__name__
            entries.append(entry)
            before = after
    finally:
        os.chdir(cwd)
    return entries


def write_manifest(entries: list[dict]) -> None:
    """One entry per line, so a diff names each case that changed."""
    MANIFEST.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entries = run_cases(Path(tmp).resolve())
    write_manifest(entries)
    print(f"{len(entries)} cases written to {MANIFEST}")
