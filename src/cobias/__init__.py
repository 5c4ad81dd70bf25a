"""Class-accuracy imbalance metrics and post-hoc probability reweighting.

The package measures how unevenly a probabilistic classifier's accuracy is
distributed across classes and corrects it after the fact: a discrete
per-class reweighting of the output probabilities is learned on a labeled
optimization set by simulated annealing and then applied at test time.
"""

import importlib

__version__ = "0.1.0"

# Each exported name under the submodule that defines it. A name's submodule
# is imported on the name's first use (PEP 562), so `import cobias` loads no
# numpy; `from cobias import cli, data` still imports those submodules.
_EXPORTS = {
    "annealer": ("AnnealResult", "AnnealSchedule", "anneal", "predicted_complexity"),
    "baselines": ("batch_calibrate", "compare_methods"),
    "data": ("ObjectiveConfig", "ProbabilityDataset", "ReweightArtifact", "SyntheticSpec",
             "WeightScale", "WeightSelection", "generate_synthetic", "load_artifact",
             "load_dataset", "save_artifact", "save_dataset"),
    "errors": ("ArtifactError", "DatasetFormatError", "ValidationError"),
    "metrics": ("class_report", "cobias", "cobias_single", "confusion", "odd_classes",
                "report_document"),
    "objective": ("ObjectiveValue",),
    "oracle": ("enumerate_optimum",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
