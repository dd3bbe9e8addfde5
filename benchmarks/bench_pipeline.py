#!/usr/bin/env python
"""Pipeline benchmark: stage timings + campaign throughput.

Runs the full integrate pipeline under a :class:`repro.obs.Recorder` for
two scenarios — the paper's 8-process example and a generated
200-process workload — and writes ``BENCH_pipeline.json`` at the repo
root.  Each entry carries ``{name, wall_s, trials_per_s, n_processes}``
plus per-stage wall times pulled from the trace spans and a provenance
block (git sha, python version, machine fingerprint), seeding the perf
trajectory the ROADMAP asks for.

Every run is also appended to ``BENCH_history.ndjson`` (one JSON record
per run, ``--no-history`` to skip), and ``python -m repro bench check``
gates the latest results against the committed baseline
``benchmarks/BENCH_baseline.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py [--quick] [-o OUT]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.allocation.hw_model import fully_connected
from repro.core.framework import FrameworkOptions, Heuristic, IntegrationFramework
from repro.exec import ExecPolicy
from repro.exec.batching import available_cpus
from repro.faultsim.campaign import run_campaign
from repro.obs import PIPELINE_STAGES, Recorder, collect_provenance, use
from repro.obs.analyze import append_history
from repro.workloads import HW_NODE_COUNT, paper_system
from repro.workloads.generators import random_system

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_pipeline.json"
DEFAULT_HISTORY = REPO_ROOT / "BENCH_history.ndjson"


def bench_scenario(name, system, hw, heuristic, trials, engine="auto", tolerance=None) -> dict:
    """Integrate ``system`` on ``hw`` once, then run a fault campaign.

    Returns one BENCH entry: total pipeline wall time, per-stage wall
    times (from the recorder's spans), and campaign throughput.
    ``engine`` pins the campaign's trial simulator, so scalar and vector
    entries track separate campaign perf trajectories; the entry records
    which engine the campaign actually ran.
    """
    framework = IntegrationFramework(system, FrameworkOptions(heuristic=heuristic))
    recorder = Recorder()
    t0 = time.perf_counter()
    with use(recorder):
        outcome = framework.integrate(hw)
        campaign = framework.validate_by_campaign(
            outcome, trials=trials, seed=0, engine=engine
        )
    wall_s = time.perf_counter() - t0

    stages = {
        span.name: span.duration
        for span in recorder.spans
        if span.name in PIPELINE_STAGES
    }
    entry = {
        "name": name,
        "wall_s": round(wall_s, 6),
        "trials_per_s": round(campaign.trials_per_s, 1),
        "n_processes": len(system.processes()),
        "feasible": outcome.feasible,
        "heuristic": heuristic.name,
        "hw_nodes": len(hw),
        "campaign_trials": campaign.trials,
        "engine": campaign.engine,
        "stages": {stage: round(stages.get(stage, 0.0), 6) for stage in PIPELINE_STAGES},
    }
    if tolerance:
        entry["tolerance"] = tolerance
    return entry


def bench_parallel_campaign(name, system, hw, heuristic, trials, workers) -> dict:
    """Run one fault campaign serially and pooled; record the speedup.

    The pooled run goes through the supervised runner
    (:mod:`repro.exec`), so this entry also asserts the determinism
    contract where it matters most: both runs must agree on every
    campaign statistic, or the entry is marked ``identical: false``.

    ``workers`` is a *request*; the pool is clamped to the CPUs actually
    available (``pool_engaged`` records whether >= 2 workers ran).  On a
    single-CPU machine the entry honestly reports ~1.0x instead of the
    oversubscription slowdown a forced pool would measure; the
    ``min_speedup`` bench gate only applies when the pool engaged.  Both
    runs pin ``engine="scalar"`` — pooling exists for the slow per-trial
    path.  ``retries`` counts the lease supervisor's re-dispatches.
    """
    framework = IntegrationFramework(system, FrameworkOptions(heuristic=heuristic))
    outcome = framework.integrate(hw)
    state = outcome.condensation.state
    graph, partition = state.graph, state.as_partition()
    cpus = available_cpus()
    effective = max(1, min(workers, cpus))

    t0 = time.perf_counter()
    serial = run_campaign(graph, partition, trials=trials, seed=0, engine="scalar")
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = run_campaign(
        graph, partition, trials=trials, seed=0,
        policy=ExecPolicy(workers=effective),
        engine="scalar",
    )
    pooled_s = time.perf_counter() - t0
    report = pooled.exec_report
    return {
        "name": name,
        "campaign_trials": trials,
        "workers": effective,
        "workers_requested": workers,
        "cpus": cpus,
        "pool_engaged": effective >= 2,
        "serial_wall_s": round(serial_s, 6),
        "pooled_wall_s": round(pooled_s, 6),
        "speedup": round(serial_s / pooled_s, 3) if pooled_s else None,
        "identical": serial == pooled,
        "retries": report.redispatches,
    }


def bench_sharded_campaign(
    name, system, hw, heuristic, trials, shards, workers,
    backend="local", tolerance=None,
) -> dict:
    """Run one fault campaign serially, sharded, and sharded-with-tracing.

    The sharded run goes through the shard supervisor
    (:mod:`repro.exec.shards`) over ``backend`` (the ``local`` fork
    pool by default; ``"tcp"`` exercises real socket transport with
    spawned ``--connect`` workers), so this entry asserts the
    block-aligned lease machinery reproduces the serial result
    bit-for-bit while recording how many shards actually engaged and
    how many leases were re-dispatched.  Shard leases are
    cut on 256-trial block boundaries, so a ``--quick`` run (fewer
    trials than one block) honestly plans a single shard and reports
    ``pool_engaged: false`` — the speedup gate only applies when at
    least two shards ran over at least two slots.

    The traced variant re-runs the same sharded campaign under a live
    :class:`~repro.obs.Recorder`, which switches on the full distributed
    telemetry path (worker-side span capture, batch streaming, and the
    supervisor-side merge).  ``telemetry_overhead`` is the relative wall
    cost of that machinery; both the traced and untraced variants take
    the best of two runs so scheduler jitter does not masquerade as
    overhead, and ``bench check`` gates the ratio
    (``max_telemetry_overhead``).  ``identical_traced`` asserts the
    result-transparency contract: telemetry must never change a number.
    """
    framework = IntegrationFramework(system, FrameworkOptions(heuristic=heuristic))
    outcome = framework.integrate(hw)
    state = outcome.condensation.state
    graph, partition = state.graph, state.as_partition()
    cpus = available_cpus()
    effective = max(1, min(workers, cpus))

    t0 = time.perf_counter()
    serial = run_campaign(graph, partition, trials=trials, seed=0, engine="scalar")
    serial_s = time.perf_counter() - t0

    def sharded_run(traced: bool):
        recorder = Recorder() if traced else None
        t0 = time.perf_counter()
        if traced:
            with use(recorder):
                out = run_campaign(
                    graph, partition, trials=trials, seed=0,
                    policy=ExecPolicy(workers=effective),
                    engine="scalar", shards=shards, backend=backend,
                )
        else:
            out = run_campaign(
                graph, partition, trials=trials, seed=0,
                policy=ExecPolicy(workers=effective),
                engine="scalar", shards=shards, backend=backend,
            )
        return out, time.perf_counter() - t0

    # Interleave the repeats so machine drift (thermal, cache, page
    # reclaim) lands on both variants instead of biasing one.
    sharded, sharded_s = sharded_run(traced=False)
    traced, traced_s = sharded_run(traced=True)
    _, sharded_s2 = sharded_run(traced=False)
    _, traced_s2 = sharded_run(traced=True)
    sharded_s = min(sharded_s, sharded_s2)
    traced_s = min(traced_s, traced_s2)
    overhead = max(0.0, traced_s / sharded_s - 1.0) if sharded_s else None
    report = sharded.exec_report
    traced_report = traced.exec_report
    entry = {
        "name": name,
        "campaign_trials": trials,
        "workers": effective,
        "workers_requested": workers,
        "cpus": cpus,
        "shards_requested": shards,
        "shards": report.shards,
        "backend": report.backend,
        "pool_engaged": effective >= 2 and report.shards >= 2,
        "serial_wall_s": round(serial_s, 6),
        "pooled_wall_s": round(sharded_s, 6),
        "speedup": round(serial_s / sharded_s, 3) if sharded_s else None,
        "identical": serial == sharded,
        "traced_wall_s": round(traced_s, 6),
        "telemetry_overhead": round(overhead, 4) if overhead is not None else None,
        "identical_traced": serial == traced,
        "worker_spans": traced_report.worker_spans,
        "leases": report.leases_granted,
        "redispatches": report.redispatches,
        "lease_expiries": report.lease_expiries,
        "shard_crashes": report.shard_crashes,
    }
    if tolerance:
        entry["tolerance"] = tolerance
    return entry


def bench_profiled_campaign(
    name, system, hw, heuristic, trials, hz=None, tolerance=None
) -> dict:
    """Run one fault campaign traced and traced-with-profiling.

    Both variants run under a live :class:`~repro.obs.Recorder` (the
    tracing cost is already gated by the sharded entries), so the
    ``profile_overhead`` ratio isolates what the sampling profiler
    itself adds: the background ``sys._current_frames()`` thread, the
    GC callback, and the per-span resource-delta stamping.  Variants
    interleave best-of-two like the sharded bench so machine drift
    lands on both sides, and ``identical_profiled`` asserts the
    result-transparency contract: profiling must never change a number.
    """
    from repro.obs.profile import DEFAULT_PROFILE_HZ, Profiler

    hz = hz or DEFAULT_PROFILE_HZ
    framework = IntegrationFramework(system, FrameworkOptions(heuristic=heuristic))
    outcome = framework.integrate(hw)
    state = outcome.condensation.state
    graph, partition = state.graph, state.as_partition()

    def campaign_run(profiled: bool):
        recorder = Recorder()
        t0 = time.perf_counter()
        with use(recorder):
            if profiled:
                with Profiler(recorder, hz=hz):
                    out = run_campaign(
                        graph, partition, trials=trials, seed=0,
                        engine="scalar",
                    )
            else:
                out = run_campaign(
                    graph, partition, trials=trials, seed=0,
                    engine="scalar",
                )
        profile_events = recorder.profiles
        samples = sum(
            e.get("samples", 0)
            for e in recorder._log
            if e.get("type") == "profile" and e.get("kind") == "stacks"
        )
        return out, time.perf_counter() - t0, profile_events, samples

    plain, plain_s, _, _ = campaign_run(profiled=False)
    profiled, profiled_s, profile_events, samples = campaign_run(profiled=True)
    _, plain_s2, _, _ = campaign_run(profiled=False)
    _, profiled_s2, _, _ = campaign_run(profiled=True)
    plain_s = min(plain_s, plain_s2)
    profiled_s = min(profiled_s, profiled_s2)
    overhead = max(0.0, profiled_s / plain_s - 1.0) if plain_s else None
    entry = {
        "name": name,
        "campaign_trials": trials,
        "profile_hz": hz,
        "wall_s": round(plain_s, 6),
        "profiled_wall_s": round(profiled_s, 6),
        "profile_overhead": round(overhead, 4) if overhead is not None else None,
        "identical_profiled": plain == profiled,
        "profile_events": profile_events,
        "stack_samples": samples,
    }
    if tolerance:
        entry["tolerance"] = tolerance
    return entry


def run(quick: bool = False) -> list[dict]:
    trials = 200 if quick else 2000
    entries = [
        # paper-8 pins the scalar engine: on an 8-FCM graph the vector
        # kernel's throughput is all fixed setup cost, which swings ~17x
        # between --quick and full runs — ungateable.  Scalar per-trial
        # cost is flat, so this entry tracks the reference path's perf.
        bench_scenario(
            "paper-8",
            paper_system(),
            fully_connected(HW_NODE_COUNT),
            Heuristic.H1,
            trials,
            engine="scalar",
        ),
        bench_scenario(
            "generated-200",
            random_system(
                processes=200, tasks_per_process=1, procedures_per_task=1, seed=42
            ),
            fully_connected(40),
            Heuristic.TIMING_PACK,
            trials,
            engine="scalar",
        ),
        bench_parallel_campaign(
            "parallel-campaign-200",
            random_system(
                processes=200, tasks_per_process=1, procedures_per_task=1, seed=42
            ),
            fully_connected(40),
            Heuristic.TIMING_PACK,
            trials,
            workers=4,
        ),
        bench_sharded_campaign(
            "generated-200-sharded",
            random_system(
                processes=200, tasks_per_process=1, procedures_per_task=1, seed=42
            ),
            fully_connected(40),
            Heuristic.TIMING_PACK,
            trials,
            shards=2,
            workers=2,
        ),
    ]
    # The same sharded campaign over the TCP transport: real sockets,
    # spawned --connect worker interpreters, generation-fenced frames.
    # TCP pays connection setup and a fresh worker interpreter per slot
    # that the fork pool does not, so its speedup floor is looser
    # (committed per-entry tolerance); the identical gates stay hard.
    tcp_entry = bench_sharded_campaign(
        "generated-200-tcp",
        random_system(
            processes=200, tasks_per_process=1, procedures_per_task=1, seed=42
        ),
        fully_connected(40),
        Heuristic.TIMING_PACK,
        trials,
        shards=2,
        workers=2,
        backend="tcp",
        tolerance={"min_speedup": 0.8, "max_telemetry_overhead": 0.35},
    )
    fork_entry = next(e for e in entries if e["name"] == "generated-200-sharded")
    if fork_entry.get("pooled_wall_s") and tcp_entry.get("pooled_wall_s"):
        tcp_entry["vs_fork_overhead"] = round(
            tcp_entry["pooled_wall_s"] / fork_entry["pooled_wall_s"] - 1.0, 4
        )
    entries.append(tcp_entry)
    # The overhead gate for --profile: the sampling profiler must stay
    # near-free (bench check gates max_profile_overhead) and must never
    # change a campaign number (identical_profiled is a hard gate).
    entries.append(
        bench_profiled_campaign(
            "generated-200-profiled",
            random_system(
                processes=200, tasks_per_process=1, procedures_per_task=1, seed=42
            ),
            fully_connected(40),
            Heuristic.TIMING_PACK,
            trials,
        )
    )
    # The vector kernel amortizes graph compilation over the whole
    # campaign, so its trials/s swings more between --quick and full
    # runs than the scalar engines' — hence the looser per-entry
    # throughput tolerance (committed into the baseline).
    entries.append(
        bench_scenario(
            "generated-200-vector",
            random_system(
                processes=200, tasks_per_process=1, procedures_per_task=1, seed=42
            ),
            fully_connected(40),
            Heuristic.TIMING_PACK,
            trials,
            engine="vector",
            # trials/s swings on the compile amortization (above);
            # the absolute caps pin the tentpole perf promises: the
            # whole vector pipeline under 0.2s end-to-end, the
            # condense/map stages at >= 5x their scalar-era baseline
            # times (0.119491s / 0.738913s), and audit/expand at
            # ~1.8x their medians once graph construction became
            # one batch edge install (6.2ms / 17.7ms).
            tolerance={
                "trials_per_s": 0.9,
                "max_wall_s": 0.2,
                "max_stage_s": {
                    "audit": 0.0111,
                    "expand": 0.0319,
                    "condense": 0.0239,
                    "map": 0.1478,
                },
            },
        )
    )
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="fewer campaign trials (CI-friendly)"
    )
    parser.add_argument(
        "-o", "--output", default=str(DEFAULT_OUTPUT), help="output JSON path"
    )
    parser.add_argument(
        "--history", default=str(DEFAULT_HISTORY),
        help="NDJSON bench-history file to append this run to",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not append this run to the history file",
    )
    args = parser.parse_args(argv)

    entries = run(quick=args.quick)
    provenance = collect_provenance()
    for entry in entries:
        entry["provenance"] = provenance
    Path(args.output).write_text(json.dumps(entries, indent=2) + "\n")
    if not args.no_history:
        append_history(entries, args.history, quick=args.quick)
    for entry in entries:
        if "stages" in entry:
            stage_text = " ".join(
                f"{stage}={entry['stages'][stage] * 1000:.1f}ms"
                for stage in PIPELINE_STAGES
            )
            print(
                f"{entry['name']}: {entry['wall_s']:.3f}s total, "
                f"{entry['trials_per_s']:.0f} trials/s "
                f"[{entry['engine']}] ({stage_text})"
            )
        elif "profiled_wall_s" in entry:
            overhead = entry.get("profile_overhead")
            print(
                f"{entry['name']}: plain {entry['wall_s']:.3f}s vs "
                f"profiled {entry['profiled_wall_s']:.3f}s "
                f"(+{(overhead or 0.0) * 100:.1f}%, "
                f"identical={entry['identical_profiled']}, "
                f"{entry['stack_samples']} samples)"
            )
        else:
            extra = ""
            if entry.get("telemetry_overhead") is not None:
                extra = f", telemetry +{entry['telemetry_overhead'] * 100:.1f}%"
            print(
                f"{entry['name']}: serial {entry['serial_wall_s']:.3f}s vs "
                f"{entry['workers']} workers {entry['pooled_wall_s']:.3f}s "
                f"(speedup {entry['speedup']:.2f}x, "
                f"identical={entry['identical']}{extra})"
            )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
