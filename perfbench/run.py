#!/usr/bin/env python3
"""Benchmark of the dependability-driven integration framework.

Run from the root of a checkout::

    python3 perfbench/run.py --workload integrate-large --seed 1 --seconds 25 --trace 0

Workloads (all closed loop, one caller; see ``workloads.py``):

* ``integrate-large``  -- parse, integrate (TIMING_PACK) and emit large
  generated systems: the graph-construction layers do the work.
* ``integrate-paper``  -- the same op under H1, H2, H3, criticality and
  timing on the paper's examples and sized generated systems: the
  condense heuristics do the work.
* ``campaigns``        -- fault-injection and HW-failure campaigns on
  three integrated targets, in-process.  There is no pooled variant: the
  fork pool's oversubscribed BLAS threads make its throughput too erratic
  to gate.

``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``--trace 1`` runs a fixed number of rounds, each op once
untraced and once traced, and prints the per-layer metrics.  Either way
the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report.  Spans of a traced run are written to
``perfbench/out/``.  The program is imported from ``src/`` next to this
directory; without it the benchmark exits with an error.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("integrate-large", "integrate-paper", "campaigns")
SETUP_SAMPLES = 7
MAX_PROBLEM_LINES = 10

# Gated end-to-end metrics, printed on every workload.  An op is one
# integrate call on integrate-*; on campaigns it is one sweep (a round:
# a fault and a resilience campaign on each target), timed as the sum of
# its campaigns, because a median over campaigns of targets of three
# sizes falls between them.  Throughput and latency are speed-adjusted
# (see speed.py): ``ref`` is one run of the reference kernel timed around
# each step of an op, ``kref`` a thousand.  The wall-clock figures are
# printed too.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_kref", "op/kref"),
    ("op_p50_ref", "ref"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better) of the traced run's per-layer metrics.  Times are
# summed over the traced ops; counts repeat exactly for a given seed.
PER_LAYER = (
    ("io.parse.self_s", "s", "lower"),
    ("io.validate.self_s", "s", "lower"),
    ("io.emit.self_s", "s", "lower"),
    ("verification.audit.self_s", "s", "lower"),
    ("allocation.expand.self_s", "s", "lower"),
    ("allocation.expand.fcms", "count", "lower"),
    ("allocation.expand.edges", "count", "lower"),
    ("allocation.compile.self_s", "s", "lower"),
    ("allocation.condense.self_s", "s", "lower"),
    ("allocation.condense.h1.self_s", "s", "lower"),
    ("allocation.condense.h2.self_s", "s", "lower"),
    ("allocation.condense.h3.self_s", "s", "lower"),
    ("allocation.condense.criticality.self_s", "s", "lower"),
    ("allocation.condense.timing.self_s", "s", "lower"),
    ("allocation.condense.pack.self_s", "s", "lower"),
    ("allocation.condense.steps", "count", "lower"),
    ("allocation.clustering.pair_queries", "count", "lower"),
    ("graphs.mincut.self_s", "s", "lower"),
    ("graphs.mincut.calls", "count", "lower"),
    ("allocation.constraints.self_s", "s", "lower"),
    ("allocation.constraints.block_checks", "count", "lower"),
    ("scheduling.self_s", "s", "lower"),
    ("scheduling.coschedulable.calls", "count", "lower"),
    ("allocation.map.self_s", "s", "lower"),
    ("allocation.map.calls", "count", "lower"),
    ("allocation.score.self_s", "s", "lower"),
    ("integrate.op_wall_s", "s", "lower"),
    ("integrate.unattributed_s", "s", "lower"),
    ("faultsim.campaign.self_s", "s", "lower"),
    ("faultsim.batch.self_s", "s", "lower"),
    ("faultsim.kernel.self_s", "s", "lower"),
    ("faultsim.kernel.cpu_s", "s", "lower"),
    ("faultsim.kernel.trials", "count", "higher"),
    ("resilience.campaign.self_s", "s", "lower"),
    ("resilience.batch.self_s", "s", "lower"),
    ("resilience.plan.self_s", "s", "lower"),
    ("resilience.plan.calls", "count", "lower"),
    ("resilience.plan.per_event", "ratio", "lower"),
    ("resilience.draw.self_s", "s", "lower"),
    ("exec.self_s", "s", "lower"),
    ("exec.batches", "count", "lower"),
    ("exec.retries", "count", "lower"),
    ("exec.worker_crashes", "count", "lower"),
    ("exec.timeouts", "count", "lower"),
    ("exec.serial_fallbacks", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="op time to measure; the round in progress completes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def setup_probe(args) -> float:
    """Set-up time of a fresh process: spawn to first op, minus input generation."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return ready - start - float(line.split()[1])


# ----------------------------------------------------------------------
# The untraced loop
# ----------------------------------------------------------------------
@dataclass
class LoopStats:
    samples: list[float] = field(default_factory=list)
    adjusted: list[float] = field(default_factory=list)
    round_samples: list[float] = field(default_factory=list)
    round_adjusted: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    infeasible: int = 0
    rounds: int = 0
    kind_s: Counter = field(default_factory=Counter)
    kind_trials: Counter = field(default_factory=Counter)
    groups: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)
    digest_ops: int = 0
    digest: str = ""


def note_failure(stats, label: str, problems: list[str]) -> None:
    stats.failed += 1
    for problem in problems:
        if len(stats.problems) < MAX_PROBLEM_LINES:
            stats.problems.append(f"{label}: {problem}")


def timed_steps(op, prepared, speed):
    """(result, wall, speed-adjusted latency) of one op.

    Each step is timed alone and divided by the mean of the reference
    kernel samples just before and after it.
    """
    value, wall, adjusted = prepared, 0.0, 0.0
    ref = speed.sample()
    for step in op.steps:
        start = time.perf_counter()
        value = step(value)
        elapsed = time.perf_counter() - start
        after = speed.sample()
        wall += elapsed
        adjusted += elapsed / ((ref + after) / 2)
        ref = after
    return value, wall, adjusted


def timed_loop(workload, seconds: float, between_rounds) -> LoopStats:
    """Whole rounds of ops until ``seconds`` of op time have been measured.

    Only the op's steps are timed; input generation and the output
    checks run between ops, and ``between_rounds`` runs after each round.
    An op that raises counts its whole time as measured, and the loop
    ends after a round in which no op passed, so a broken program ends
    the run with failures instead of looping.  A round's time is a sweep
    sample only when all its ops passed.  The digest covers the first
    round, which every run completes.
    """
    from checks import Digest
    from speed import SpeedReference

    speed = SpeedReference()
    stats = LoopStats()
    digest = Digest()
    passed = 1
    while passed and (stats.rounds == 0 or stats.busy_s < seconds):
        ops = workload.round(stats.rounds)
        round_wall = round_adjusted = 0.0
        passed = 0
        for op in ops:
            stats.attempted += 1
            start, wall = time.perf_counter(), None
            try:
                prepared = op.prepare()
                result, wall, adjusted = timed_steps(op, prepared, speed)
                outcome = op.check(prepared, result)
            except Exception:
                stats.busy_s += time.perf_counter() - start if wall is None else wall
                note_failure(stats, op.label, [traceback.format_exc(limit=3)])
                continue
            stats.busy_s += wall
            if stats.rounds == 0:
                digest.add(outcome.output)
            if outcome.problems:
                note_failure(stats, op.label, outcome.problems)
                continue
            stats.samples.append(wall)
            stats.adjusted.append(adjusted)
            round_wall += wall
            round_adjusted += adjusted
            stats.groups[op.group] += wall
            stats.kind_s[op.kind] += wall
            stats.kind_trials[op.kind] += op.trials
            stats.infeasible += outcome.infeasible
            passed += 1
        stats.rounds += 1
        if passed == len(ops):
            stats.round_samples.append(round_wall)
            stats.round_adjusted.append(round_adjusted)
        between_rounds()
    stats.digest, stats.digest_ops = digest.hexdigest(), digest.items
    return stats


def end_to_end(workload, stats: LoopStats, setup_samples, gen_s) -> tuple[dict, list[str]]:
    from report import metric_line, p90, share

    integrate = workload.kind == "integrate"
    if integrate:
        unit, walls, adjusted = "integrations", stats.samples, stats.adjusted
    else:
        unit, walls, adjusted = "sweeps", stats.round_samples, stats.round_adjusted
    completed = len(walls)
    counted = f"{completed} {unit}"
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_kref": 1000 * completed / sum(adjusted) if completed else 0.0,
        "op_p50_ref": statistics.median(adjusted) if completed else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_s = completed / sum(walls) if completed else 0.0
    p50 = statistics.median(walls) if completed else None
    tail, beyond = p90(walls)
    p90_note = (f"{counted}, {beyond} beyond it" if tail is not None
                else f"withheld: {counted}, {beyond} beyond it, fewer than 10")
    lines = [
        metric_line("setup_s", values["setup_s"], "s",
                    f"median of {len(setup_samples)} fresh set-ups spread over the run "
                    f"{[round(x, 4) for x in setup_samples]}; input generation "
                    f"{gen_s:.4f} s excluded"),
        metric_line("ops_per_kref", values["ops_per_kref"], "op/kref",
                    f"{counted}, speed-adjusted"),
        metric_line("op_p50_ref", values["op_p50_ref"], "ref", f"{counted}, speed-adjusted"),
    ]
    if integrate:
        lines += [
            metric_line("integrations_per_s", per_s, "op/s",
                        f"{completed} ops in {stats.busy_s:.3f} s of op time, "
                        f"{stats.rounds} rounds"),
            metric_line("integrate_p50_s", p50, "s", counted),
            metric_line("integrate_p90_s", tail, "s", p90_note),
            metric_line("faultsim_trials_per_s", None, "", "not a campaign workload"),
            metric_line("resilience_trials_per_s", None, "", "not a campaign workload"),
        ]
    else:
        trials, seconds = stats.kind_trials, stats.kind_s

        def rate(kind: str) -> float | None:
            return trials[kind] / seconds[kind] if seconds[kind] else None

        lines += [
            metric_line("integrations_per_s", None, "", "not an integrate workload"),
            metric_line("integrate_p50_s", None, "", "not an integrate workload"),
            metric_line("integrate_p90_s", None, "", "not an integrate workload"),
            metric_line("faultsim_trials_per_s", rate("faultsim"), "trials/s",
                        f"{trials['faultsim']} injected faults in "
                        f"{seconds['faultsim']:.3f} s of fault campaigns"),
            metric_line("resilience_trials_per_s", rate("resilience"), "trials/s",
                        f"{trials['resilience']} HW-failure trials in "
                        f"{seconds['resilience']:.3f} s of resilience campaigns"),
            metric_line("sweeps_per_s", per_s, "op/s",
                        f"{completed} sweeps of {len(stats.samples) // max(1, completed)} "
                        f"campaigns in {stats.busy_s:.3f} s"),
            metric_line("sweep_p50_s", p50, "s", counted),
            metric_line("sweep_p90_s", tail, "s", p90_note),
        ]
    lines += [
        metric_line("failed_ops_ratio", stats.failed / stats.attempted, "ratio",
                    f"{stats.failed} of {stats.attempted} ops; "
                    f"{stats.infeasible} expected InfeasibleAllocationError"),
        metric_line("peak_rss_mb", values["peak_rss_mb"], "MB"),
        "op time by group: " + ", ".join(
            f"{group} {share(seconds, stats.busy_s):.1%}"
            for group, seconds in stats.groups.most_common()
        ),
    ]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, lines


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def traced_run(tracer, hooks, run, prepared, k: int):
    """``run(prepared)`` as op ``k`` with the hooks installed; (result, wall)."""
    tracer.op = k
    with hooks:
        tracer.enabled = True
        start = time.perf_counter()
        try:
            result = run(prepared)
        finally:
            wall = time.perf_counter() - start
            tracer.enabled = False
    tracer.flush_deferred()
    return result, wall


def traced_loop(workload) -> tuple[dict, list[str], LoopStats]:
    """``trace_rounds`` rounds; each op runs once untraced and once traced.

    The two runs alternate which goes first, so warm-up and drift land
    on both sides of ``trace.overhead``.
    """
    from checks import Digest
    from spans import Hooks, Tracer, layer_totals

    tracer, setup_tracer = Tracer(), Tracer()
    hooks = Hooks(tracer)
    traced_run(setup_tracer, Hooks(setup_tracer), lambda _: workload.setup(), None, -1)
    print("\n".join(workload.describe()), flush=True)
    stats = LoopStats()
    digest = Digest()
    op_wall: dict[int, float] = {}
    untraced_s = traced_s = 0.0
    for r in range(workload.trace_rounds):
        for op in workload.round(r):
            k = stats.attempted
            stats.attempted += 1
            try:
                prepared = op.prepare()
                if k % 2:
                    result, wall = traced_run(tracer, hooks, op.run, prepared, k)
                start = time.perf_counter()
                plain = op.run(prepared)
                plain_s = time.perf_counter() - start
                if not k % 2:
                    result, wall = traced_run(tracer, hooks, op.run, prepared, k)
                outcome = op.check(prepared, result)
                plain_outcome = op.check(prepared, plain)
            except Exception:
                note_failure(stats, op.label, [traceback.format_exc(limit=3)])
                continue
            untraced_s += plain_s
            traced_s += wall
            op_wall[k] = wall
            if r == 0:
                digest.add(outcome.output)
            problems = outcome.problems + plain_outcome.problems
            if outcome.output != plain_outcome.output:
                problems.append("traced output differs from the untraced output")
            if problems:
                note_failure(stats, op.label, problems)
                continue
            stats.samples.append(wall)
            stats.infeasible += outcome.infeasible
        stats.rounds += 1
    stats.busy_s = traced_s
    stats.digest, stats.digest_ops = digest.hexdigest(), digest.items
    metrics, lines = per_layer(workload, tracer, hooks, op_wall, untraced_s, traced_s)
    setup = layer_totals(setup_tracer)
    if setup:
        lines.append("set-up (not in the metrics): " + ", ".join(
            f"{name} {entry['self_s']:.4f} s"
            for name, entry in sorted(setup.items(), key=lambda kv: -kv[1]["self_s"])
        ))
    OUT.mkdir(exist_ok=True)
    from spans import dump

    path = OUT / f"{workload.name}-seed{workload.seed}.npz"
    dump(tracer, path)
    lines.append(f"trace: {len(tracer)} spans written to {path.relative_to(ROOT)}")
    return metrics, lines, stats


def per_layer(workload, tracer, hooks, op_wall, untraced_s, traced_s):
    from report import share
    from spans import layer_totals, top_level_wall

    totals = layer_totals(tracer)
    counts = tracer.counts

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    values: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_s(name[: -len(".self_s")])
        elif name in counts:
            values[name] = counts[name]
    values["allocation.condense.self_s"] = sum(
        (entry["self_s"] for name, entry in totals.items()
         if name.startswith("allocation.condense.")),
        0.0,
    )
    values["faultsim.kernel.cpu_s"] = totals.get("faultsim.kernel", {}).get("cpu_s", 0.0)
    lines = []
    events = counts["resilience.draw.events"]
    values["resilience.plan.per_event"] = counts["resilience.plan.calls"] / events if events else 0.0
    values["trace.overhead"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    op_total = sum(op_wall.values())
    if workload.kind == "integrate":
        top = top_level_wall(tracer)
        unattributed = sum(w - top.get(k, 0.0) for k, w in op_wall.items())
        values["integrate.op_wall_s"] = op_total
        values["integrate.unattributed_s"] = unattributed
        lines.append(
            f"integrate.unattributed_s = {unattributed:.4f} s = "
            f"{share(unattributed, op_total):.2%} of {op_total:.4f} s traced op wall"
        )
        condense = {
            name.rsplit(".", 1)[1]: entry["wall_s"] for name, entry in totals.items()
            if name.startswith("allocation.condense.")
        }
        lines.append(
            f"condense incl. its callees = {share(sum(condense.values()), op_total):.1%} of "
            "traced op wall; by heuristic: " + ", ".join(
                f"{h} {share(wall, op_total):.1%}"
                for h, wall in sorted(condense.items(), key=lambda kv: -kv[1])
            )
        )
    lines.append(
        f"trace.overhead = {values['trace.overhead']:.2%}: traced ops "
        f"{traced_s:.3f} s vs untraced {untraced_s:.3f} s over {len(op_wall)} ops"
    )
    lines.append(f"per-layer self time over {len(op_wall)} traced ops "
                 f"({op_total:.3f} s op wall):")
    for name, entry in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"  {name:32s} self {entry['self_s']:9.4f} s {share(entry['self_s'], op_total):7.2%}"
            f"  incl. {entry['wall_s']:9.4f} s {share(entry['wall_s'], op_total):7.2%}"
            f"  cpu {entry['cpu_s']:9.4f} s  spans {entry['count']}"
        )
    lines.append("counts: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    lines.append("absent layers: " + (", ".join(hooks.absent) or "none"))
    idle = [name for name, _u, _b in PER_LAYER if not values.get(name)]
    lines.append("not exercised on this workload (reported as 0): " + (", ".join(idle) or "none"))
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit, _better in PER_LAYER
    }
    return metrics, lines


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def result(stats: LoopStats, metrics: dict) -> dict:
    """The last line a run prints: its verdict, op counts and metrics."""
    return {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from report import provenance
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    start = time.perf_counter()
    workload.generate()
    gen_s = time.perf_counter() - start
    if args.setup_probe:
        workload.setup()
        print(f"ready {gen_s!r}", flush=True)
        return 0

    lines = [
        f"perfbench: workload {args.workload}, seed {args.seed}, "
        f"seconds {args.seconds:g}, trace {args.trace}",
        *provenance(ROOT),
    ]
    print("\n".join(lines), flush=True)
    if args.trace:
        metrics, lines, stats = traced_loop(workload)
    else:
        workload.setup()
        print("\n".join(workload.describe()), flush=True)
        # Set-up probes are spread over the run, between rounds, so that
        # their median samples the machine's speed over the whole run.
        setup_samples = [setup_probe(args)]

        def probe_between_rounds() -> None:
            if len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append(setup_probe(args))

        stats = timed_loop(workload, args.seconds, probe_between_rounds)
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_probe(args))
        metrics, lines = end_to_end(workload, stats, setup_samples, gen_s)
    lines.append(
        f"check: {'passed' if not stats.failed else 'FAILED'} ({stats.attempted} ops, "
        f"{stats.failed} failed, {stats.infeasible} infeasible); digest "
        f"sha256:{stats.digest} over round 1 ({stats.digest_ops} ops)"
    )
    lines += [f"failure: {problem}" for problem in stats.problems]
    print("\n".join(lines))
    print(json.dumps(result(stats, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
