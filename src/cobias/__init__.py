"""Class-accuracy imbalance metrics and post-hoc probability reweighting.

The package measures how unevenly a probabilistic classifier's accuracy is
distributed across classes and corrects it after the fact: a discrete
per-class reweighting of the output probabilities is learned on a labeled
optimization set by simulated annealing and then applied at test time.
"""

__version__ = "0.1.0"

from .annealer import (
    AnnealResult,
    AnnealSchedule,
    anneal,
    predicted_complexity,
)
from .baselines import batch_calibrate, compare_methods
from .data import (
    ProbabilityDataset,
    ReweightArtifact,
    SyntheticSpec,
    WeightScale,
    WeightSelection,
    generate_synthetic,
    load_artifact,
    load_dataset,
    save_artifact,
    save_dataset,
)
from .errors import ArtifactError, DatasetFormatError, ValidationError
from .metrics import (
    class_report,
    cobias,
    cobias_single,
    confusion,
    odd_classes,
    report_document,
)
from .objective import IncrementalEvaluator, ObjectiveConfig, ObjectiveValue
from .oracle import enumerate_optimum

__all__ = [
    "AnnealResult",
    "AnnealSchedule",
    "ArtifactError",
    "DatasetFormatError",
    "IncrementalEvaluator",
    "ObjectiveConfig",
    "ObjectiveValue",
    "ProbabilityDataset",
    "ReweightArtifact",
    "SyntheticSpec",
    "ValidationError",
    "WeightScale",
    "WeightSelection",
    "anneal",
    "batch_calibrate",
    "class_report",
    "cobias",
    "cobias_single",
    "compare_methods",
    "confusion",
    "enumerate_optimum",
    "generate_synthetic",
    "load_artifact",
    "load_dataset",
    "odd_classes",
    "predicted_complexity",
    "report_document",
    "save_artifact",
    "save_dataset",
]
