"""Constants that the CLI's options show as choices and defaults.

This module imports nothing, so ``cobias --version``, ``--help`` and a usage
error declare every option without loading numpy. Each constant's module
(``data``, ``metrics``, ``objective``, ``annealer``) imports it from here.
"""

DATASET_FORMATS = ("jsonl", "csv")

DEFAULT_MU = 1e-3
DEFAULT_BETA = 2.7
DEFAULT_TAU = 0.2

# The seven term combinations used for ablations, keyed by an ASCII name,
# as the (z1, z2, z3) enable flags and the ablation table's label.
# "+z2" always carries the beta weight and "-z3" the (negated) tau weight.
TERM_COMBINATIONS = {
    "z1": ((True, False, False), "z1"),
    "z2": ((False, True, False), "z2"),
    "z3": ((False, False, True), "z3"),
    "z1+z2": ((True, True, False), "z1+βz2"),
    "z1-z3": ((True, False, True), "z1-τz3"),
    "z2-z3": ((False, True, True), "βz2-τz3"),
    "z1+z2-z3": ((True, True, True), "z1+βz2-τz3"),
}

DEFAULT_T_MAX = 200000.0
DEFAULT_T_MIN = 0.1
DEFAULT_ALPHA = 0.95
DEFAULT_LAMBDA = 5.0
