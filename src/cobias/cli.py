"""Command-line front end.

Subcommands cover evaluation, optimization, applying learned weights,
objective-term ablations, optimization-set-size sweeps, baseline comparison,
synthetic dataset generation, and density-data export. Every command is
deterministic given its flags; exit codes are 0 on success, 1 for validation
errors, and 2 for I/O errors.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import click

from . import __version__
from .defaults import (DATASET_FORMATS, DEFAULT_ALPHA, DEFAULT_BETA, DEFAULT_LAMBDA, DEFAULT_MU,
                       DEFAULT_T_MAX, DEFAULT_T_MIN, DEFAULT_TAU, TERM_COMBINATIONS)
from .errors import ValidationError


def _bind_numeric_names() -> None:
    """Import numpy, orjson and the numeric modules, and bind the names used from them
    here, where callers look them up (a tracer wraps ``cli.load_dataset``, a
    test patches ``cli.anneal``). It runs as a command starts and on the first
    lookup of a name not yet bound, so ``--version``, ``--help`` and usage
    errors load none of them; a name bound before it runs is kept."""
    import numpy as np
    import orjson

    from .annealer import AnnealSchedule, anneal, predicted_complexity
    from .baselines import compare_methods
    from .data import (ObjectiveConfig, ProbabilityDataset, ReweightArtifact, SyntheticSpec,
                       WeightScale, _stratified_subsample, generate_synthetic, load_artifact,
                       load_dataset, read_json, save_artifact, save_dataset)
    from .metrics import check_mu, class_report, report_document
    from .objective import check_config

    for name, value in locals().items():
        globals().setdefault(name, value)


def __getattr__(name: str):
    _bind_numeric_names()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


DEFAULT_K = 30
DEFAULT_TERMS = "z1+z2-z3"


class _Command(click.Command):
    """A command whose errors become exit codes and one-line messages.

    Warnings raised while it runs are echoed once per distinct message, as
    ``warning:`` lines, after it finishes; an error, or an allocation the
    system refuses, ends it with one ``error:`` line instead. Click's parsing
    and ``--help`` run before ``invoke`` and keep click's own handling. The
    numeric names are bound first, so an import's warning is not echoed."""

    def invoke(self, ctx):
        _bind_numeric_names()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = super().invoke(ctx)
        except (ValidationError, MemoryError) as exc:
            click.echo(f"error: {str(exc) or 'out of memory'}", err=True)
            sys.exit(1)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(2)
        for message in dict.fromkeys(str(w.message) for w in caught):
            click.echo(f"warning: {message}", err=True)
        return result


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

_search_flags = {
    "beta": click.option("--beta", type=float, default=DEFAULT_BETA, show_default=True,
                         help="Weight of the accuracy-imbalance term."),
    "tau": click.option("--tau", type=float, default=DEFAULT_TAU, show_default=True,
                        help="Weight of the PMI term."),
    "mu": click.option("--mu", type=float, default=DEFAULT_MU, show_default=True,
                       help="Additive smoothing for PMI count ratios."),
    "terms": click.option("--terms", type=click.Choice(sorted(TERM_COMBINATIONS)),
                          default=DEFAULT_TERMS, show_default=True,
                          help="Objective term combination."),
    "k": click.option("--k", "k_points", type=int, default=DEFAULT_K, show_default=True,
                      help="Number of points on the correction weight scale."),
    "tmax": click.option("--tmax", type=float, default=DEFAULT_T_MAX, show_default=True,
                         help="Initial temperature."),
    "tmin": click.option("--tmin", type=float, default=DEFAULT_T_MIN, show_default=True,
                         help="Stop temperature."),
    "alpha": click.option("--alpha", type=float, default=DEFAULT_ALPHA,
                          show_default=True, help="Geometric cooling factor."),
    "lambda": click.option("--lambda", "lam", type=float, default=DEFAULT_LAMBDA,
                           show_default=True,
                           help="Chain-length multiplier; inner loop = ceil(lambda*N*K) proposals."),
    "max-accepted": click.option("--max-accepted", type=int, default=None,
                                 help="Alternate inner-loop stop: acceptance count "
                                      "[default: ceil(0.1*lambda*N*K)]."),
    "seed": click.option("--seed", type=int, default=0, show_default=True,
                         help="RNG seed for the annealing run."),
}

_report_options = [
    *_dataset_options,
    click.option("--mu", type=float, default=DEFAULT_MU, show_default=True,
                 help="Additive smoothing for the reported PMI vector."),
    click.option("--json", "json_path", type=click.Path(), default=None,
                 help="Also write the machine-readable report to this path."),
]

_rows_json_option = click.option("--json", "json_path", type=click.Path(), default=None,
                                 help="Also write the rows as a JSON document.")


def _add_options(options):
    def wrap(func):
        for option in reversed(options):
            func = option(func)
        return func

    return wrap


def _search_options(*omit: str):
    """The dataset and search flags of an annealing command, less ``omit``."""
    return _add_options(
        [*_dataset_options, *(o for name, o in _search_flags.items() if name not in omit)]
    )


def _search(k_points, beta, tau, mu, tmax, tmin, alpha, lam, max_accepted,
            terms=DEFAULT_TERMS, seed=0) -> tuple[WeightScale, ObjectiveConfig, AnnealSchedule]:
    """Build the scale, objective and schedule from the search flags.

    Each checks its values on construction, in this order, so a bad flag is
    refused before any dataset is read.
    """
    scale = WeightScale(k_points)
    config = ObjectiveConfig.with_terms(terms, beta=beta, tau=tau, mu=mu)
    schedule = AnnealSchedule(
        t_max=tmax, t_min=tmin, alpha=alpha, lam=lam, max_accepted=max_accepted, seed=seed
    )
    return scale, config, schedule


def _anneals(dataset: ProbabilityDataset, scale: WeightScale,
             tasks: list[tuple[ObjectiveConfig, AnnealSchedule, int | None]]):
    """Check every (config, schedule, size) task, then return an iterator of
    their ``AnnealResult``s that anneals each in turn: on the whole dataset, or
    on the stratified subset of ``size`` rows that the schedule's seed draws.
    Checking every size, then each task's chain length and, with the PMI term,
    ``check_config`` on its rows before the first anneal means no command stops
    partway. Each subset is drawn once and kept as row indices; its draw's
    warnings are replayed as its anneal starts, so they keep their order."""
    m, n = dataset.num_samples, dataset.num_classes
    bad = [size for *_, size in tasks if size is not None and not 1 <= size <= m]
    if bad:
        raise ValidationError(
            f"size {bad[0]} outside [1, {m}]: the optimization set has {m} samples")
    checked = []
    for config, schedule, size in tasks:
        schedule.limits(n, scale.k_points)  # refuses a chain length that over- or underflows
        with warnings.catch_warnings(record=True) as drawn:
            warnings.simplefilter("always")
            rows = None if size is None else _stratified_subsample(
                dataset, size, np.random.default_rng(schedule.seed))
        labels = dataset.labels if rows is None else dataset.labels[rows]
        check_config(config, np.bincount(labels, minlength=n))
        checked.append((config, schedule, rows, drawn))

    def run(config, schedule, rows, drawn):
        for w in drawn:
            warnings.warn(w.message)
        subset = dataset if rows is None else ProbabilityDataset.from_arrays(
            dataset.probs[rows], dataset.labels[rows])
        return anneal(subset, scale, config, schedule)

    return (run(*task) for task in checked)


def _report(dataset_path, artifact_path, fmt, renormalize, mu, json_path) -> None:
    """Print the evaluation report of a dataset, reweighted by the artifact
    when one is given, and write it as JSON when ``json_path`` is set."""
    check_mu(mu)  # before any file is read
    dataset, artifact = _load_with_artifact(dataset_path, artifact_path, fmt, renormalize)
    selection = scale = None
    if artifact is not None:
        selection, scale = artifact.selection, artifact.scale
    doc = report_document(dataset, selection, scale, mu=mu)
    click.echo(f"samples: {doc['num_samples']}  classes: {doc['num_classes']}")
    click.echo("confusion matrix (rows true, columns predicted):")
    width = max(len(str(v)) for row in doc["confusion"] for v in row)
    for i, row in enumerate(doc["confusion"]):
        cells = " ".join(f"{v:>{width}}" for v in row)
        click.echo(f"  {i}: {cells}")
    accs = ", ".join("n/a" if a is None else f"{a:.4f}" for a in doc["per_class_accuracy"])
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
    _write_json(doc, json_path)


def _write_json(doc: dict, path: str | None) -> None:
    if path:
        Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _write_rows(kind: str, rows: list, path: str | None) -> None:
    _write_json({"schema_version": 1, "kind": kind, "rows": rows}, path)


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
    if artifact.provenance["dataset_fingerprint"] != dataset.fingerprint():
        warnings.warn(
            "dataset fingerprint differs from the one recorded in the "
            "artifact; weights were learned on different data"
        )
    return dataset, artifact


def _print_version(ctx, _param, value) -> None:
    if value and not ctx.resilient_parsing:  # click's version_option keeps a first call's name
        click.echo(f"{ctx.find_root().info_name}, version {__version__}")
        ctx.exit()


@click.group()
@click.option("--version", is_flag=True, expose_value=False, is_eager=True,
              callback=_print_version, help="Show the version and exit.")
def main():
    """Measure class-accuracy imbalance and correct it with learned weights."""


main.command_class = _Command  # so each @main.command() below, and any added later, is one


@main.command()
@click.argument("dataset_path", type=click.Path())
@click.option("--artifact", "artifact_path", type=click.Path(), default=None,
              help="Apply a learned reweighting before computing metrics.")
@_add_options(_report_options)
def evaluate(dataset_path, artifact_path, fmt, renormalize, mu, json_path):
    """Report confusion matrix, accuracies, imbalance metrics, and PMI."""
    _report(dataset_path, artifact_path, fmt, renormalize, mu, json_path)


@main.command()
@click.argument("dataset_path", type=click.Path())
@click.argument("artifact_path", type=click.Path())
@_add_options(_report_options)
def apply(dataset_path, artifact_path, fmt, renormalize, mu, json_path):
    """Reweight a dataset with a learned artifact and report the metrics."""
    _report(dataset_path, artifact_path, fmt, renormalize, mu, json_path)


@main.command()
@click.argument("optimization_path", type=click.Path())
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Where to write the learned artifact (JSON).")
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Write the per-temperature trace as JSON lines.")
@click.option("--timestamp", is_flag=True,
              help="Record the wall-clock time in the artifact; off by default "
                   "so identical runs produce identical files.")
@_search_options()
def optimize(optimization_path, out_path, trace_path, timestamp, fmt, renormalize, **search):
    """Learn per-class correction weights on a labeled optimization set."""
    scale, config, schedule = _search(**search)
    dataset = _load(optimization_path, fmt, renormalize)
    results = _anneals(dataset, scale, [(config, schedule, None)])  # refuses before any work
    before = class_report(dataset)
    [result] = results
    click.echo(f"before: accuracy {before['overall_accuracy']:.4f}  cobias {before['cobias']:.4f}")
    after = class_report(dataset, result.selection, scale)
    click.echo(f"after:  accuracy {after['overall_accuracy']:.4f}  cobias {after['cobias']:.4f}")
    value = result.value
    terms = (value.z1_error_rate, value.z2_cobias, value.z3_pmi_sum)
    parts = ", ".join(f"z{i}={v:.6f}" for i, v in enumerate(terms, 1) if v is not None)
    click.echo(f"objective: {value.total:.6f} ({parts})")
    click.echo(f"indices: {list(result.selection.indices)}")
    click.echo(f"coefficients: {[float(c) for c in result.selection.coefficients(scale)]}")
    bound = predicted_complexity(dataset.num_classes, scale.k_points, schedule)
    click.echo(f"proposals: {result.total_evaluations - 1} (bound {bound})")

    artifact = ReweightArtifact(
        scale=scale,
        selection=result.selection,
        objective_config=config,
        final_objective=value.total,
        provenance={
            "seed": schedule.seed,
            "schedule": schedule.to_dict(),
            "dataset_fingerprint": dataset.fingerprint(),
            "created_at": datetime.now(timezone.utc).isoformat() if timestamp else None,
        },
    )
    if trace_path:  # the artifact last, so one on disk means the run finished
        Path(trace_path).write_text("".join(json.dumps(r) + "\n" for r in result.records))
    save_artifact(artifact, out_path)
    click.echo(f"artifact written to {out_path}")
    if trace_path:
        click.echo(f"trace written to {trace_path}")


@main.command()
@click.argument("optimization_path", type=click.Path())
@click.argument("test_path", type=click.Path())
@_search_options("terms")
@_rows_json_option
def ablate(optimization_path, test_path, fmt, renormalize, json_path, **search):
    """Optimize each of the seven objective-term combinations and report
    test accuracy and imbalance per row."""
    # the full z1+z2-z3 config is the strictest, so _search refuses every
    # bad value that any of the seven would
    scale, full, schedule = _search(**search)
    tasks = [(ObjectiveConfig.with_terms(key, beta=full.beta, tau=full.tau, mu=full.mu),
              schedule, None) for key in TERM_COMBINATIONS]
    opt_set, test_set = _load_pair(optimization_path, test_path, fmt, renormalize)
    rows = []
    for key, result in zip(TERM_COMBINATIONS, _anneals(opt_set, scale, tasks)):
        report = class_report(test_set, result.selection, scale)
        rows.append({"terms": key, "label": TERM_COMBINATIONS[key][1],
                     "accuracy": report["overall_accuracy"], "cobias": report["cobias"],
                     "indices": list(result.selection.indices)})
    click.echo(f"{'objective':<14} {'accuracy':>9} {'cobias':>9}")
    for row in rows:
        click.echo(f"{row['label']:<14} {row['accuracy']:>9.4f} {row['cobias']:>9.4f}")
    _write_rows("ablation_report", rows, json_path)


@main.command()
@click.argument("optimization_path", type=click.Path())
@click.argument("test_path", type=click.Path())
@click.option("--sizes", required=True, help="Comma-separated optimization-set sizes.")
@click.option("--seeds", default="0,1,2", show_default=True,
              help="Comma-separated seeds; one optimization run per (size, seed).")
@_search_options("seed")
@_rows_json_option
def sweep(optimization_path, test_path, sizes, seeds, fmt, renormalize, json_path, **search):
    """Optimize on stratified subsets of increasing size and report test
    accuracy and imbalance as mean and standard deviation over seeds."""
    try:
        size_list = [int(s) for s in sizes.split(",") if s.strip()]
        seed_list = [int(s) for s in seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise ValidationError(f"sizes and seeds must be comma-separated integers: {exc}")
    if not size_list or not seed_list:
        raise ValidationError("need at least one size and one seed")
    scale, config, schedule = _search(**search)
    tasks = [(config, dataclasses.replace(schedule, seed=s), size)
             for size, s in itertools.product(size_list, seed_list)]
    opt_set, test_set = _load_pair(optimization_path, test_path, fmt, renormalize)
    results = _anneals(opt_set, scale, tasks)
    rows = []
    for size in size_list:
        reports = [class_report(test_set, next(results).selection, scale) for _ in seed_list]
        accs = [report["overall_accuracy"] for report in reports]
        cbs = [report["cobias"] for report in reports]
        rows.append({"size": size, "mean_accuracy": float(np.mean(accs)),
                     "std_accuracy": float(np.std(accs)), "mean_cobias": float(np.mean(cbs)),
                     "std_cobias": float(np.std(cbs)),
                     "per_seed": [{"seed": s, "accuracy": a, "cobias": c}
                                  for s, a, c in zip(seed_list, accs, cbs)]})
    click.echo(f"{'size':>8} {'accuracy':>18} {'cobias':>18}")
    for row in rows:
        acc = f"{row['mean_accuracy']:.4f} ± {row['std_accuracy']:.4f}"
        cb = f"{row['mean_cobias']:.4f} ± {row['std_cobias']:.4f}"
        click.echo(f"{row['size']:>8} {acc:>18} {cb:>18}")
    _write_rows("sweep_report", rows, json_path)


@main.command()
@click.argument("dataset_path", type=click.Path())
@click.option("--artifact", "artifact_path", type=click.Path(), default=None,
              help="Reweight probabilities with this artifact first.")
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Output CSV path (header 'class,value', one row per sample).")
@click.option("--raw", is_flag=True,
              help="Export raw weighted scores instead of renormalized probabilities.")
@_add_options(_dataset_options)
def density(dataset_path, artifact_path, out_path, raw, fmt, renormalize):
    """Export each sample's (optionally reweighted) ground-truth-class
    probability as plot-ready long-format rows."""
    dataset, artifact = _load_with_artifact(dataset_path, artifact_path, fmt, renormalize)
    scores = dataset.probs if artifact is None else dataset.probs * artifact.coefficients
    values = np.take_along_axis(scores, dataset.labels[:, None], axis=1)[:, 0]
    if not raw:  # the same division per element as normalizing every row first
        values = values / scores.sum(axis=1)

    pairs = list(zip(dataset.labels.tolist(), values.tolist()))
    rows = orjson.dumps(pairs)[2:-2].split(b"],[")
    # orjson writes as repr does from 1e-4 up to 1e16, beyond every value here
    for i in np.flatnonzero(values < 1e-4).tolist():
        rows[i] = "{},{!r}".format(*pairs[i]).encode()
    Path(out_path).write_bytes(b"\n".join([b"class,value", *rows, b""]))
    click.echo(f"{dataset.num_samples} rows written to {out_path}")


@main.command()
@click.argument("optimization_path", type=click.Path())
@click.argument("test_path", type=click.Path())
@_search_options()
@_rows_json_option
def compare(optimization_path, test_path, fmt, renormalize, json_path, **search):
    """Compare identity, batch calibration, and learned reweighting on the
    test set; the reweighting is fit on the optimization set only."""
    scale, config, schedule = _search(**search)
    opt_set, test_set = _load_pair(optimization_path, test_path, fmt, renormalize)
    [result] = _anneals(opt_set, scale, [(config, schedule, None)])
    rows = compare_methods(test_set, result.selection, scale)
    click.echo(f"{'method':<18} {'accuracy':>9} {'error':>9} {'cobias':>9} {'cobias_1':>9}")
    for row in rows:
        click.echo(
            f"{row['method']:<18} {row['accuracy']:>9.4f} {row['error_rate']:>9.4f} "
            f"{row['cobias']:>9.4f} {row['cobias_single']:>9.4f}"
        )
    _write_rows("comparison_report", rows, json_path)


@main.command()
@click.option("--spec", "spec_path", type=click.Path(), required=True,
              help="JSON file with num_classes, samples_per_class, confusion_bias, "
                   "concentration, and seed.")
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--format", "fmt", type=click.Choice(DATASET_FORMATS), default=None,
              help="Output format; inferred from the extension by default.")
def generate(spec_path, out_path, fmt):
    """Generate a synthetic biased dataset from a spec file."""
    spec = SyntheticSpec.from_dict(read_json(spec_path, "spec file"))
    dataset = generate_synthetic(spec)
    save_dataset(dataset, out_path, _infer_format(out_path, fmt))
    click.echo(f"{dataset.num_samples} samples written to {out_path}")


def run():
    """The ``cobias`` executable: ``main``, then ``gc.freeze()`` on the way out,
    so the interpreter's exit-time collections skip the ~23k objects that a
    command's imports leave (40-55 ms a command; ~15k objects when no command
    runs, as under ``--version``). Every output file is closed before
    ``main`` returns. ``main`` run in process, as under ``CliRunner``, leaves
    the caller's collector alone."""
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
