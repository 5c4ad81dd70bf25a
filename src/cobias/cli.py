"""Command-line front end.

Subcommands cover evaluation, optimization, applying learned weights,
objective-term ablations, optimization-set-size sweeps, baseline comparison,
synthetic dataset generation, and density-data export. Every command is
deterministic given its flags; exit codes are 0 on success, 1 for validation
errors, and 2 for I/O errors.
"""

from __future__ import annotations

import datetime
import functools
import json
import sys
import warnings
from pathlib import Path

import click
import numpy as np

from . import __version__
from .annealer import AnnealSchedule, anneal, predicted_complexity, write_trace
from .baselines import compare_methods
from .data import (
    DATASET_FORMATS,
    ProbabilityDataset,
    ReweightArtifact,
    RunProvenance,
    SyntheticSpec,
    WeightScale,
    _stratified_subsample,
    generate_synthetic,
    load_artifact,
    load_dataset,
    read_json,
    save_artifact,
    save_dataset,
)
from .errors import ValidationError
from .metrics import DEFAULT_MU, class_report, report_document, weighted_scores
from .objective import (
    ABLATION_LABELS,
    DEFAULT_BETA,
    DEFAULT_TAU,
    TERM_COMBINATIONS,
    ObjectiveConfig,
)

DEFAULT_K = 30


def _handle_errors(func):
    """Map errors to exit codes and echo warnings as ``warning:`` lines.

    Warnings raised during the command are collected and echoed once per
    distinct message after it finishes; an error ends the command with one
    ``error:`` line instead.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = func(*args, **kwargs)
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(2)
        _echo_warnings(caught)
        return result

    return wrapper


def _echo_warnings(caught) -> None:
    for message in dict.fromkeys(str(w.message) for w in caught):
        click.echo(f"warning: {message}", err=True)


def _infer_format(path: str, fmt: str | None) -> str:
    if fmt is not None:
        return fmt
    suffix = Path(path).suffix.lower().lstrip(".")
    if suffix in DATASET_FORMATS:
        return suffix
    raise ValidationError(
        f"cannot infer dataset format from {path!r}; pass --format"
    )


def _load(path: str, fmt: str | None, renormalize: bool) -> ProbabilityDataset:
    return load_dataset(path, _infer_format(path, fmt), renormalize)


def _load_pair(
    optimization_path: str, test_path: str, fmt: str | None, renormalize: bool
) -> tuple[ProbabilityDataset, ProbabilityDataset]:
    """Load the optimization and test sets; they must share a class count."""
    opt_set = _load(optimization_path, fmt, renormalize)
    test_set = _load(test_path, fmt, renormalize)
    if opt_set.num_classes != test_set.num_classes:
        raise ValidationError(
            f"optimization set has {opt_set.num_classes} classes but "
            f"test set has {test_set.num_classes}"
        )
    return opt_set, test_set


_dataset_options = [
    click.option("--format", "fmt", type=click.Choice(DATASET_FORMATS), default=None,
                 help="Dataset file format; inferred from the extension by default."),
    click.option("--renormalize", is_flag=True,
                 help="Divide each probability row by its sum before validation."),
]

_objective_options = [
    click.option("--beta", type=float, default=DEFAULT_BETA, show_default=True,
                 help="Weight of the accuracy-imbalance term."),
    click.option("--tau", type=float, default=DEFAULT_TAU, show_default=True,
                 help="Weight of the PMI term."),
    click.option("--mu", type=float, default=DEFAULT_MU, show_default=True,
                 help="Additive smoothing for PMI count ratios."),
    click.option("--terms", type=click.Choice(sorted(TERM_COMBINATIONS)), default="z1+z2-z3",
                 show_default=True, help="Objective term combination."),
    click.option("--k", "k_points", type=int, default=DEFAULT_K, show_default=True,
                 help="Number of points on the correction weight scale."),
]

_schedule_options = [
    click.option("--tmax", type=float, default=AnnealSchedule.t_max, show_default=True,
                 help="Initial temperature."),
    click.option("--tmin", type=float, default=AnnealSchedule.t_min, show_default=True,
                 help="Stop temperature."),
    click.option("--alpha", type=float, default=AnnealSchedule.alpha, show_default=True,
                 help="Geometric cooling factor."),
    click.option("--lambda", "lam", type=float, default=AnnealSchedule.lam, show_default=True,
                 help="Chain-length multiplier; inner loop = ceil(lambda*N*K) proposals."),
    click.option("--max-accepted", type=int, default=None,
                 help="Alternate inner-loop stop: acceptance count "
                      "[default: ceil(0.1*lambda*N*K)]."),
    click.option("--seed", type=int, default=0, show_default=True,
                 help="RNG seed for the annealing run."),
]


def _add_options(options):
    def wrap(func):
        for option in reversed(options):
            func = option(func)
        return func

    return wrap


def _schedule(tmax, tmin, alpha, lam, max_accepted, seed) -> AnnealSchedule:
    return AnnealSchedule(
        t_max=tmax, t_min=tmin, alpha=alpha, lam=lam, max_accepted=max_accepted, seed=seed
    )


def _config(terms, beta, tau, mu) -> ObjectiveConfig:
    return ObjectiveConfig.with_terms(terms, beta=beta, tau=tau, mu=mu)


def _print_report(doc: dict) -> None:
    n = doc["num_classes"]
    click.echo(f"samples: {doc['num_samples']}  classes: {n}")
    click.echo("confusion matrix (rows true, columns predicted):")
    width = max(len(str(v)) for row in doc["confusion"] for v in row)
    for i, row in enumerate(doc["confusion"]):
        cells = " ".join(f"{v:>{width}}" for v in row)
        click.echo(f"  {i}: {cells}")
    accs = ", ".join(
        "n/a" if a is None else f"{a:.4f}" for a in doc["per_class_accuracy"]
    )
    click.echo(f"per-class accuracy: {accs}")
    click.echo(f"overall accuracy: {doc['overall_accuracy']:.4f}")
    click.echo(f"cobias: {doc['cobias']:.4f}")
    click.echo(f"cobias_single: {doc['cobias_single']:.4f}")
    odd = ", ".join(
        f"{i}->{'none' if j is None else j}" for i, j in enumerate(doc["odd_classes"])
    )
    click.echo(f"odd classes: {odd}")
    pmi = ", ".join(f"{v:.4f}" for v in doc["pmi"])
    click.echo(f"pmi (mu={doc['mu']:g}): {pmi}")


def _write_json(doc: dict, path: str | None) -> None:
    if path:
        Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _load_with_artifact(
    dataset_path: str, artifact_path: str | None, fmt: str | None, renormalize: bool
) -> tuple[ProbabilityDataset, ReweightArtifact | None]:
    """Load the artifact, if any, before the dataset, so that a missing or
    malformed artifact fails before a full parse; then check they match."""
    artifact = None if artifact_path is None else load_artifact(artifact_path)
    dataset = _load(dataset_path, fmt, renormalize)
    if artifact is None:
        return dataset, None
    if artifact.num_classes != dataset.num_classes:
        raise ValidationError(
            f"artifact was trained for {artifact.num_classes} classes but the "
            f"dataset has {dataset.num_classes}"
        )
    if artifact.provenance.dataset_fingerprint != dataset.fingerprint():
        warnings.warn(
            "dataset fingerprint differs from the one recorded in the "
            "artifact; weights were learned on different data"
        )
    return dataset, artifact


@click.group()
@click.version_option(__version__)
def main():
    """Measure class-accuracy imbalance and correct it with learned weights."""


@main.command()
@click.argument("dataset_path", type=click.Path())
@click.option("--artifact", "artifact_path", type=click.Path(), default=None,
              help="Apply a learned reweighting before computing metrics.")
@_add_options(_dataset_options)
@click.option("--mu", type=float, default=DEFAULT_MU, show_default=True,
              help="Additive smoothing for the reported PMI vector.")
@click.option("--json", "json_path", type=click.Path(), default=None,
              help="Also write the machine-readable report to this path.")
@_handle_errors
def evaluate(dataset_path, artifact_path, fmt, renormalize, mu, json_path):
    """Report confusion matrix, accuracies, imbalance metrics, and PMI."""
    dataset, artifact = _load_with_artifact(dataset_path, artifact_path, fmt, renormalize)
    selection = scale = None
    if artifact is not None:
        selection, scale = artifact.selection, artifact.scale
    doc = report_document(dataset, selection, scale, mu=mu)
    _print_report(doc)
    _write_json(doc, json_path)


@main.command()
@click.argument("dataset_path", type=click.Path())
@click.argument("artifact_path", type=click.Path())
@_add_options(_dataset_options)
@click.option("--mu", type=float, default=DEFAULT_MU, show_default=True,
              help="Additive smoothing for the reported PMI vector.")
@click.option("--json", "json_path", type=click.Path(), default=None,
              help="Also write the machine-readable report to this path.")
@_handle_errors
def apply(dataset_path, artifact_path, fmt, renormalize, mu, json_path):
    """Reweight a dataset with a learned artifact and report the metrics."""
    dataset, artifact = _load_with_artifact(dataset_path, artifact_path, fmt, renormalize)
    doc = report_document(dataset, artifact.selection, artifact.scale, mu=mu)
    _print_report(doc)
    _write_json(doc, json_path)


@main.command()
@click.argument("optimization_path", type=click.Path())
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Where to write the learned artifact (JSON).")
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Write the per-temperature trace as JSON lines.")
@click.option("--timestamp", is_flag=True,
              help="Record the wall-clock time in the artifact; off by default "
                   "so identical runs produce identical files.")
@_add_options(_dataset_options)
@_add_options(_objective_options)
@_add_options(_schedule_options)
@_handle_errors
def optimize(optimization_path, out_path, trace_path, timestamp, fmt, renormalize,
             beta, tau, mu, terms, k_points, tmax, tmin, alpha, lam, max_accepted, seed):
    """Learn per-class correction weights on a labeled optimization set."""
    scale = WeightScale(k_points)
    config = _config(terms, beta, tau, mu)
    schedule = _schedule(tmax, tmin, alpha, lam, max_accepted, seed)
    dataset = _load(optimization_path, fmt, renormalize)

    before = class_report(dataset)
    click.echo(
        f"before: accuracy {before.overall:.4f}  cobias {before.cobias:.4f}"
    )
    result = anneal(dataset, scale, config, schedule)
    after = class_report(dataset, result.selection, scale)
    click.echo(
        f"after:  accuracy {after.overall:.4f}  cobias {after.cobias:.4f}"
    )
    parts = ", ".join(
        f"{name}={v:.6f}"
        for name, v in (("z1", result.value.z1_error_rate),
                        ("z2", result.value.z2_cobias),
                        ("z3", result.value.z3_pmi_sum))
        if v is not None
    )
    click.echo(f"objective: {result.value.total:.6f} ({parts})")
    click.echo(f"indices: {list(result.selection.indices)}")
    click.echo(f"coefficients: {[float(c) for c in result.selection.coefficients(scale)]}")
    click.echo(
        f"proposals: {result.trace.total_evaluations - 1} "
        f"(bound {predicted_complexity(dataset.num_classes, k_points, schedule)})"
    )

    created_at = (
        datetime.datetime.now(datetime.timezone.utc).isoformat() if timestamp else None
    )
    artifact = ReweightArtifact(
        scale=scale,
        selection=result.selection,
        objective_config=config,
        final_objective=result.value.total,
        provenance=RunProvenance(
            seed=seed,
            schedule=schedule.to_dict(),
            dataset_fingerprint=dataset.fingerprint(),
            created_at=created_at,
        ),
    )
    save_artifact(artifact, out_path)
    click.echo(f"artifact written to {out_path}")
    if trace_path:
        write_trace(result.trace, trace_path)
        click.echo(f"trace written to {trace_path}")


@main.command()
@click.argument("optimization_path", type=click.Path())
@click.argument("test_path", type=click.Path())
@_add_options(_dataset_options)
@_add_options(_objective_options)
@_add_options(_schedule_options)
@click.option("--json", "json_path", type=click.Path(), default=None,
              help="Also write the rows as a JSON document.")
@_handle_errors
def ablate(optimization_path, test_path, fmt, renormalize, beta, tau, mu, terms,
           k_points, tmax, tmin, alpha, lam, max_accepted, seed, json_path):
    """Optimize each of the seven objective-term combinations and report
    test accuracy and imbalance per row (--terms is ignored here)."""
    scale = WeightScale(k_points)
    schedule = _schedule(tmax, tmin, alpha, lam, max_accepted, seed)
    configs = {key: _config(key, beta, tau, mu) for key in TERM_COMBINATIONS}
    opt_set, test_set = _load_pair(optimization_path, test_path, fmt, renormalize)
    rows = []
    for key, config in configs.items():
        result = anneal(opt_set, scale, config, schedule)
        report = class_report(test_set, result.selection, scale)
        rows.append(
            {
                "terms": key,
                "label": ABLATION_LABELS[key],
                "accuracy": report.overall,
                "cobias": report.cobias,
                "indices": list(result.selection.indices),
            }
        )
    click.echo(f"{'objective':<14} {'accuracy':>9} {'cobias':>9}")
    for row in rows:
        click.echo(f"{row['label']:<14} {row['accuracy']:>9.4f} {row['cobias']:>9.4f}")
    _write_json({"schema_version": 1, "kind": "ablation_report", "rows": rows}, json_path)


@main.command()
@click.argument("optimization_path", type=click.Path())
@click.argument("test_path", type=click.Path())
@click.option("--sizes", required=True, help="Comma-separated optimization-set sizes.")
@click.option("--seeds", default="0,1,2", show_default=True,
              help="Comma-separated seeds; one optimization run per (size, seed).")
@_add_options(_dataset_options)
@_add_options(_objective_options)
@_add_options(_schedule_options)
@click.option("--json", "json_path", type=click.Path(), default=None,
              help="Also write the rows as a JSON document.")
@_handle_errors
def sweep(optimization_path, test_path, sizes, seeds, fmt, renormalize, beta, tau, mu,
          terms, k_points, tmax, tmin, alpha, lam, max_accepted, seed, json_path):
    """Optimize on stratified subsets of increasing size and report test
    accuracy and imbalance as mean and standard deviation over seeds."""
    try:
        size_list = [int(s) for s in sizes.split(",") if s.strip()]
        seed_list = [int(s) for s in seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise ValidationError(f"sizes and seeds must be comma-separated integers: {exc}")
    if not size_list or not seed_list:
        raise ValidationError("need at least one size and one seed")
    scale = WeightScale(k_points)
    config = _config(terms, beta, tau, mu)
    schedules = {s: _schedule(tmax, tmin, alpha, lam, max_accepted, s) for s in seed_list}
    opt_set, test_set = _load_pair(optimization_path, test_path, fmt, renormalize)
    m = opt_set.num_samples
    for size in size_list:  # all sizes before the first anneal, so no run stops partway
        if not 1 <= size <= m:
            raise ValidationError(
                f"size {size} outside [1, {m}]: the optimization set has {m} samples"
            )
    rows = []
    for size in size_list:
        accs, cbs = [], []
        for s in seed_list:
            subset = _stratified_subsample(opt_set, size, np.random.default_rng(s))
            result = anneal(subset, scale, config, schedules[s])
            report = class_report(test_set, result.selection, scale)
            accs.append(report.overall)
            cbs.append(report.cobias)
        rows.append(
            {
                "size": size,
                "mean_accuracy": float(np.mean(accs)),
                "std_accuracy": float(np.std(accs)),
                "mean_cobias": float(np.mean(cbs)),
                "std_cobias": float(np.std(cbs)),
                "per_seed": [
                    {"seed": s, "accuracy": a, "cobias": c}
                    for s, a, c in zip(seed_list, accs, cbs)
                ],
            }
        )
    click.echo(f"{'size':>8} {'accuracy':>18} {'cobias':>18}")
    for row in rows:
        acc = f"{row['mean_accuracy']:.4f} ± {row['std_accuracy']:.4f}"
        cb = f"{row['mean_cobias']:.4f} ± {row['std_cobias']:.4f}"
        click.echo(f"{row['size']:>8} {acc:>18} {cb:>18}")
    _write_json({"schema_version": 1, "kind": "sweep_report", "rows": rows}, json_path)


@main.command()
@click.argument("dataset_path", type=click.Path())
@click.option("--artifact", "artifact_path", type=click.Path(), default=None,
              help="Reweight probabilities with this artifact first.")
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Output CSV path (header 'class,value', one row per sample).")
@click.option("--raw", is_flag=True,
              help="Export raw weighted scores instead of renormalized probabilities.")
@_add_options(_dataset_options)
@_handle_errors
def density(dataset_path, artifact_path, out_path, raw, fmt, renormalize):
    """Export each sample's (optionally reweighted) ground-truth-class
    probability as plot-ready long-format rows."""
    dataset, artifact = _load_with_artifact(dataset_path, artifact_path, fmt, renormalize)
    scores = weighted_scores(dataset.probs, None if artifact is None else artifact.coefficients)
    values = np.take_along_axis(scores, dataset.labels[:, None], axis=1)[:, 0]
    if not raw:  # the same division per element as normalizing every row first
        values = values / scores.sum(axis=1)
    with Path(out_path).open("w") as fh:
        fh.write("class,value\n")
        for label, value in zip(dataset.labels.tolist(), values.tolist()):
            fh.write(f"{label},{value!r}\n")
    click.echo(f"{dataset.num_samples} rows written to {out_path}")


@main.command()
@click.argument("optimization_path", type=click.Path())
@click.argument("test_path", type=click.Path())
@_add_options(_dataset_options)
@_add_options(_objective_options)
@_add_options(_schedule_options)
@click.option("--json", "json_path", type=click.Path(), default=None,
              help="Also write the rows as a JSON document.")
@_handle_errors
def compare(optimization_path, test_path, fmt, renormalize, beta, tau, mu, terms,
            k_points, tmax, tmin, alpha, lam, max_accepted, seed, json_path):
    """Compare identity, batch calibration, and learned reweighting on the
    test set; the reweighting is fit on the optimization set only."""
    scale = WeightScale(k_points)
    config = _config(terms, beta, tau, mu)
    schedule = _schedule(tmax, tmin, alpha, lam, max_accepted, seed)
    opt_set, test_set = _load_pair(optimization_path, test_path, fmt, renormalize)
    comparison = compare_methods(opt_set, test_set, scale, config, schedule)
    click.echo(f"{'method':<18} {'accuracy':>9} {'error':>9} {'cobias':>9} {'cobias_1':>9}")
    for row in comparison.rows:
        click.echo(
            f"{row.method:<18} {row.accuracy:>9.4f} {row.error_rate:>9.4f} "
            f"{row.cobias:>9.4f} {row.cobias_single:>9.4f}"
        )
    doc = {
        "schema_version": 1,
        "kind": "comparison_report",
        "rows": [
            {
                "method": r.method,
                "accuracy": r.accuracy,
                "error_rate": r.error_rate,
                "cobias": r.cobias,
                "cobias_single": r.cobias_single,
            }
            for r in comparison.rows
        ],
    }
    _write_json(doc, json_path)


@main.command()
@click.option("--spec", "spec_path", type=click.Path(), required=True,
              help="JSON file with num_classes, samples_per_class, confusion_bias, "
                   "concentration, and seed.")
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--format", "fmt", type=click.Choice(DATASET_FORMATS), default=None,
              help="Output format; inferred from the extension by default.")
@_handle_errors
def generate(spec_path, out_path, fmt):
    """Generate a synthetic biased dataset from a spec file."""
    spec = SyntheticSpec.from_dict(read_json(spec_path, "spec file"))
    dataset = generate_synthetic(spec)
    save_dataset(dataset, out_path, _infer_format(out_path, fmt))
    click.echo(f"{dataset.num_samples} samples written to {out_path}")


if __name__ == "__main__":
    main()
