#!/usr/bin/env python3
"""Benchmark of the cobias CLI: seeded workloads, checked outputs, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload fit-tall --seed 0 --seconds 30 --trace 0

``--trace 0`` runs each command of a workload as a child process
(``python -m cobias.cli`` with ``PYTHONPATH=src``), one at a time, repeats
the workload's pass until ``--seconds`` have elapsed and reports the
end-to-end metrics as medians over passes. ``--trace 1`` runs the same
commands inside this process, alternating untraced passes with passes that
record spans around the package's public functions, and reports the
per-layer metrics. Every output is checked against ``reference``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of a
run (input sha256s, environment, every pass, check results, spans) is written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

import inputs
from tracing import Tracer, layer_totals
from workloads import WORKLOADS, Prepared, Step

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# CLI start-up is timed this many times per run, after one untimed start that
# fills the bytecode cache.
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
    "objective_gain": "objective",
}

PER_LAYER_UNITS = {
    "objective.propose_s": "s",
    "objective.propose_calls": "count",
    "objective.propose_us": "us",
    "objective.apply_s": "s",
    "objective.apply_calls": "count",
    "objective.objective_from_counts_s": "s",
    "objective.objective_from_counts_calls": "count",
    "annealer.self_s": "s",
    "annealer.accept_ratio": "ratio",
    "oracle.enumerate_optimum_s": "s",
    "oracle.selections_per_s": "1/s",
    "oracle.objective_from_counts_s": "s",
    "data.load_dataset_s": "s",
    "data.parse_s": "s",
    "data.from_arrays_s": "s",
    "data.rows_per_s": "1/s",
    "data.fingerprint_s": "s",
    "data.fingerprint_calls": "count",
    "metrics.report_document_s": "s",
    "metrics.class_report_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


class Ledger:
    """Runs steps and counts every command attempted and every one that
    failed (nonzero exit, exception or failed check), with its problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, step: Step, execute) -> dict:
        for path in step.outputs:  # a stale output must not pass a check
            path.unlink(missing_ok=True)
        self.attempted += 1
        result = None
        if step.call is not None:
            start = time.perf_counter()
            try:
                result = step.call()
                record = {"exit": 0}
            except Exception:  # a crash in the package is a failed command
                record = {"exit": 1, "stderr": traceback.format_exc()}
            record["wall_s"] = time.perf_counter() - start
        else:
            record = execute(step.argv)
        if record["exit"] != 0:
            tail = record.get("stderr", "").strip().splitlines()[-1:]
            problems = [f"exit code {record['exit']}: {' '.join(tail)}"]
        else:
            problems = step.check(result if step.call is not None else record)
        if problems:
            self.failed += 1
            self.problems += [f"{step.name}: {p}" for p in problems]
        return {"step": step.name, "wall_s": record["wall_s"], "exit": record["exit"],
                "rss_mb": record.get("rss_mb"), "problems": problems}


def run_child(argv: list[str], log_dir: Path) -> dict:
    """Run ``python -m cobias.cli ARGV`` to completion: wall time, peak RSS
    (from ``wait4``), exit code and output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path, err_path = log_dir / "child.stdout", log_dir / "child.stderr"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "cobias.cli", *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "exit": proc.returncode,
            "stdout": out_path.read_text(errors="replace"),
            "stderr": err_path.read_text(errors="replace")}


def run_in_process(cli, argv: list[str]) -> dict:
    """Invoke the click group in this process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            cli.main.main(args=argv, prog_name="cobias", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash in the package is a failed command
        err.write(traceback.format_exc())
        code = 1
    return {"wall_s": time.perf_counter() - start, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def pass_time(records: list[dict]) -> float:
    return sum(r["wall_s"] for r in records)


def timed_run(prepared: Prepared, seconds: float, work: Path, ledger: Ledger):
    """End-to-end metrics: every command a child process, no tracing.

    Passes repeat until ``seconds`` have elapsed and every variant of the
    workload has run once; the oracle then runs once per variant, timed by no
    end-to-end metric, as the check on solution quality.
    """
    execute = lambda argv: run_child(argv, work)  # noqa: E731
    version = Step("version", lambda rec: [] if "version" in rec["stdout"] else
                   ["no version string in the output"], argv=["--version"])
    setup = [ledger.run(version, execute)["wall_s"] for _ in range(SETUP_REPEATS + 1)][1:]
    passes = []
    start = time.perf_counter()
    while len(passes) < prepared.variants or time.perf_counter() - start < seconds:
        passes.append([ledger.run(step, execute) for step in prepared.steps(len(passes))])
    final = [ledger.run(step, execute) for step in prepared.final_steps]
    metrics = {
        "setup_s": statistics.median(setup),
        "cli_s": statistics.median(pass_time(p) for p in passes),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p) for p in passes),
    }
    gain = prepared.objective_gain()
    if gain is not None:
        metrics["objective_gain"] = gain
    return metrics, {"setup_s": setup, "passes": passes + [final]}


def install_tracing(tracer: Tracer, cli, data, metrics, objective, oracle) -> None:
    """Wrap the public functions of each module where their callers look them up."""
    for name, command in cli.main.commands.items():
        tracer.wrap(command, "callback", f"cli.{name}")
    tracer.wrap(cli, "load_dataset", "data.load_dataset", count=lambda a, ds: ds.num_samples)
    tracer.wrap(cli, "load_artifact", "data.load_artifact")
    tracer.wrap(cli, "save_artifact", "data.save_artifact")
    tracer.wrap(data.ProbabilityDataset, "from_arrays", "data.from_arrays")
    tracer.wrap(data.ProbabilityDataset, "fingerprint", "data.fingerprint")
    tracer.wrap(cli, "report_document", "metrics.report_document")
    tracer.wrap(cli, "class_report", "metrics.class_report")
    tracer.wrap(metrics, "confusion", "metrics.confusion")
    tracer.wrap(cli, "anneal", "annealer.anneal")
    tracer.wrap(objective.IncrementalEvaluator, "__init__", "objective.IncrementalEvaluator")
    tracer.wrap(objective.IncrementalEvaluator, "propose", "objective.propose")
    tracer.wrap(objective.IncrementalEvaluator, "apply", "objective.apply")
    tracer.wrap(objective, "objective_from_counts", "objective.objective_from_counts")
    tracer.wrap(oracle, "objective_from_counts", "oracle.objective_from_counts")
    tracer.wrap(oracle, "enumerate_optimum", "oracle.enumerate_optimum",
                count=lambda a, _: a[1].k_points ** a[0].num_classes)


def layer_metrics(spans, counters, passes: int, overhead_s: float, untraced_s: float) -> dict:
    """Per-layer metrics per traced pass (``oracle.*`` per oracle call); a
    layer that a workload never calls reads 0."""
    totals = layer_totals(spans)

    def total(name, key="s"):
        return totals[name][key] if name in totals else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    oracle_calls = total("oracle.enumerate_optimum", "calls")

    return {
        "objective.propose_s": total("objective.propose") / passes,
        "objective.propose_calls": total("objective.propose", "calls") / passes,
        "objective.propose_us": 1e6 * ratio(total("objective.propose"),
                                            total("objective.propose", "calls")),
        "objective.apply_s": total("objective.apply") / passes,
        "objective.apply_calls": total("objective.apply", "calls") / passes,
        "objective.objective_from_counts_s": total("objective.objective_from_counts") / passes,
        "objective.objective_from_counts_calls":
            total("objective.objective_from_counts", "calls") / passes,
        "annealer.self_s": total("annealer.anneal", "self_s") / passes,
        "annealer.accept_ratio": ratio(total("objective.apply", "calls"),
                                       total("objective.propose", "calls")),
        "oracle.enumerate_optimum_s": ratio(total("oracle.enumerate_optimum"), oracle_calls),
        "oracle.selections_per_s": ratio(counters["oracle.enumerate_optimum"],
                                         total("oracle.enumerate_optimum")),
        "oracle.objective_from_counts_s": ratio(total("oracle.objective_from_counts"), oracle_calls),
        "data.load_dataset_s": total("data.load_dataset") / passes,
        "data.parse_s": total("data.load_dataset", "self_s") / passes,
        "data.from_arrays_s": total("data.from_arrays") / passes,
        "data.rows_per_s": ratio(counters["data.load_dataset"], total("data.load_dataset")),
        "data.fingerprint_s": total("data.fingerprint") / passes,
        "data.fingerprint_calls": total("data.fingerprint", "calls") / passes,
        "metrics.report_document_s": total("metrics.report_document") / passes,
        "metrics.class_report_s": total("metrics.class_report") / passes,
        "cli.self_s": sum(t["self_s"] for n, t in totals.items() if n.startswith("cli.")) / passes,
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": ratio(overhead_s, untraced_s),
    }


def traced_run(prepared: Prepared, seconds: float, ledger: Ledger, spans_path: Path):
    """Per-layer metrics: commands in process, untraced and traced passes
    alternating, so their difference is the tracing overhead. As in
    ``timed_run``, every variant runs at least once."""
    from cobias import cli, data, metrics, objective, oracle

    execute = lambda argv: run_in_process(cli, argv)  # noqa: E731
    tracer = Tracer()
    untraced, traced = [], []

    def traced_steps(run_id: str, steps: list[Step]) -> list[dict]:
        install_tracing(tracer, cli, data, metrics, objective, oracle)
        try:
            records = []
            for step in steps:
                tracer.run_id = f"{run_id}/{step.name}"
                records.append(ledger.run(step, execute))
            return records
        finally:
            tracer.restore()

    start = time.perf_counter()
    while len(traced) < prepared.variants or time.perf_counter() - start < seconds:
        steps = prepared.steps(len(traced))
        untraced.append([ledger.run(step, execute) for step in steps])
        traced.append(traced_steps(f"pass{len(traced)}", steps))
    final = traced_steps("final", prepared.final_steps)
    tracer.write(spans_path)
    untraced_s = statistics.median(pass_time(p) for p in untraced)
    overhead_s = statistics.median(pass_time(p) for p in traced) - untraced_s
    values = layer_metrics(tracer.spans, tracer.counters, len(traced), overhead_s, untraced_s)
    return values, {"untraced_passes": untraced, "traced_passes": traced + [final],
                    "spans": len(tracer.spans)}


def environment() -> dict:
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env = {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        env["git_commit"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                           text=True).stdout.strip() or None
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
        env["git_dirty"] = bool(status.stdout.strip()) if status.returncode == 0 else None
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cobias" / "cli.py").is_file():
        print(f"error: the package source {SRC / 'cobias'} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / stem
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    try:
        prepared = workload.prepare(work, args.seed)
        files = {name: {"sha256": inputs.sha256_file(p), "bytes": p.stat().st_size}
                 for name, p in prepared.files.items()}
        if args.trace:
            values, detail = traced_run(prepared, args.seconds, ledger, OUT / f"{stem}-spans.jsonl")
            units = PER_LAYER_UNITS
        else:
            values, detail = timed_run(prepared, args.seconds, work, ledger)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = prepared.facts
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "finished_at": datetime.now(timezone.utc).isoformat(),
        "environment": environment(), "inputs": files, "facts": facts,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failed_frac": ledger.failed / ledger.attempted, "problems": ledger.problems,
        "metrics": values, **detail,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{workload.name} seed {args.seed}: {ledger.attempted} commands, "
          f"{ledger.failed} failed (failed_frac {record['failed_frac']:g})")
    for problem in ledger.problems:
        print(f"  FAILED {problem}")
    for name, value in values.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    walls: dict[str, list[float]] = {}
    for records in detail.get("passes") or detail["traced_passes"]:
        for r in records:
            walls.setdefault(r["step"], []).append(r["wall_s"])
    for step, times in walls.items():
        print(f"  {step + '_s':<40} {statistics.median(times):.6g} s (median of {len(times)})")
    for variant, final in sorted(prepared.finals.items()):
        print(f"  {f'final_objective[{variant}]':<40} {final!r}")
    for key in ("baseline_objectives", "optimality_gaps"):
        if key in facts:
            print(f"  {key:<40} {facts[key]!r}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
