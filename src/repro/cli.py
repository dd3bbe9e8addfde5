"""Command-line interface: ``python -m repro``.

Subcommands:

* ``integrate SYSTEM.json --hw HW.json [--heuristic h1] [--mapping a]
  [--validate-trials N --seed S]`` — run the full pipeline and print the
  clusters, mapping and score, optionally followed by fault-injection
  campaign validation.
* ``audit SYSTEM.json`` — structural + non-interference audit.
* ``tradeoff SYSTEM.json`` — sweep integration levels (E-style table).
* ``resilience --workload paper --failures 2 --seed 0`` — integrate a
  built-in workload, then run a HW-failure campaign and report
  availability per criticality class.
* ``faultsim --workload paper --trials 1000`` — integrate a built-in
  workload, then run a fault-injection campaign over the resulting
  partition.
* ``exec chaos`` — the supervisor's chaos self-test: killed shard
  workers, stalled leases, torn checkpoints, interrupted campaigns, all
  checked against a serial baseline.
* ``example NAME`` — dump a built-in workload (``paper`` or ``avionics``)
  as JSON, as a starting template.

``resilience`` and ``faultsim`` both take supervisor flags
(``--workers``, ``--checkpoint``, ``--resume``, ``--heartbeat-timeout``);
campaign results are bit-identical whichever combination is used.
* ``report TRACE.ndjson [--tree] [--top N]`` — read an NDJSON trace:
  per-stage timing, decision counts, the critical path (self vs. child
  time), per-shard lease health, the sampled profile and per-process
  resources, each section shown when the trace has data for it;
  ``--tree`` adds the span tree, ``--top`` caps the profile tables.
* ``trace diff A.ndjson B.ndjson`` — align spans by path and report
  per-stage wall-time / count deltas; exits 1 on regression beyond the
  noise threshold, 2 when the runs are incomparable (``--force``
  overrides the provenance refusal).
* ``trace export TRACE.ndjson --format {chrome,collapsed}`` — Chrome
  trace-event JSON (Perfetto / ``chrome://tracing``) or collapsed
  stacks for flamegraph tooling.
* ``exec watch TRACE.ndjson [--once]`` — tail the trace of a running
  campaign and show its per-shard lease health; exits 0 once the run's
  closing ``metrics`` record lands.
* ``metrics export [TRACE.ndjson] --format prom`` — render the metrics
  snapshot of a finished trace in Prometheus text exposition format;
  process-level gauges (RSS, CPU seconds, open fds) are always
  included, even with no trace at all.
* ``bench check`` — compare the latest ``BENCH_pipeline.json`` against
  the committed baseline (``bench update-baseline`` refreshes it).

Every subcommand that runs the library accepts ``--trace FILE``: the one
sink of the run, an NDJSON trace written as records close and ended by
a ``metrics`` record holding the metrics snapshot.  ``integrate`` and
the campaign subcommands additionally take ``-v/--verbose`` for a
one-line stage-timing footer.  With neither given, the library runs
against the no-op recorder and records nothing.  Campaign subcommands
also take ``--profile [HZ]``: a sampling stack/resource profiler whose
``profile`` events land in the trace (and, for sharded runs, stream
back from every worker and merge per shard).

The CLI is a thin veneer over the library; every code path it exercises
is also covered by the API tests, and ``tests/io/test_cli.py`` drives the
veneer itself.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.tradeoff import sweep_integration_levels
from repro.errors import DDSIError
from repro.allocation.hw_model import fully_connected
from repro.allocation.sw_graph import expand_replication
from repro.core.framework import (
    FrameworkOptions,
    Heuristic,
    IntegrationFramework,
    MappingApproach,
)
from repro.io.serialization import (
    hw_to_dict,
    load_hw,
    load_system,
    system_to_dict,
)
from repro.metrics.report import (
    format_table,
    render_campaign,
    render_clusters,
    render_exec_report,
    render_mapping,
    render_resilience,
)
from repro.model.fcm import Level
from repro.obs import (
    Recorder,
    current,
    load_ndjson,
    stage_footer,
    use,
)
from repro.verification.checks import audit_system
from repro.workloads import (
    HW_NODE_COUNT,
    automotive_failure_rates,
    automotive_hw,
    automotive_policy,
    automotive_resources,
    automotive_system,
    automotive_zone_loss,
    avionics_cabinet_loss,
    avionics_failure_rates,
    avionics_hw,
    avionics_resources,
    avionics_system,
    paper_system,
)


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Attach ``--trace`` to one subcommand parser."""
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="stream an NDJSON trace of this run here (spans, decisions, "
        "profile events, and a closing metrics snapshot)",
    )


def _add_profile_flag(parser: argparse.ArgumentParser) -> None:
    """Attach ``--profile [HZ]`` to one campaign subcommand parser."""
    from repro.obs.profile import DEFAULT_PROFILE_HZ

    parser.add_argument(
        "--profile", nargs="?", type=float, const=DEFAULT_PROFILE_HZ,
        default=None, metavar="HZ",
        help="sample stacks and process resources at HZ (default "
        f"{DEFAULT_PROFILE_HZ:g}) into the trace as profile events; on "
        "sharded campaigns every worker profiles too and the samples "
        "merge per shard (results stay bit-identical)",
    )


def _workers_arg(value: str) -> int:
    """Parse ``--workers``: a count, or ``auto`` for the available CPUs."""
    from repro.errors import ExecutionError
    from repro.exec.batching import resolve_workers

    try:
        return resolve_workers(value)
    except ExecutionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    """Attach supervisor flags to a campaign subcommand."""
    parser.add_argument(
        "--workers", type=_workers_arg, default=0, metavar="N",
        help="run campaign blocks as leases on N forked worker slots "
        "(0 or 1 = in-process, 'auto' = the CPUs this process may run "
        "on)",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="stream completed blocks to this NDJSON checkpoint file",
    )
    parser.add_argument(
        "--resume", default=None, metavar="FILE",
        help="resume from a checkpoint file, skipping completed blocks "
        "(implies checkpointing to the same file)",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=None, metavar="SECONDS",
        help="pooled and sharded runs: expire a lease whose worker has "
        "been silent this long and re-dispatch its uncovered remainder "
        "(must exceed one block's wall time)",
    )


def _add_shard_flags(parser: argparse.ArgumentParser) -> None:
    """Attach shard-backend flags to a campaign subcommand."""
    parser.add_argument(
        "--backend", choices=["local", "subprocess", "tcp"], default=None,
        help="run the campaign as shard leases over this execution "
        "backend ('local' forked slots, 'subprocess' isolated "
        "python -m repro shard workers, 'tcp' workers over real network "
        "connections); results are bit-identical to a serial run",
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="split the campaign into N block-aligned shards (0 with "
        "--backend = derive from CPUs); implies the shard supervisor",
    )
    parser.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="with --backend tcp: bind the lease listener here and wait "
        "for remote 'repro exec shard-worker --connect' workers to dial "
        "in (default: loopback listener + self-spawned local workers)",
    )


def _exec_policy(args: argparse.Namespace):
    """The :class:`ExecPolicy` a campaign subcommand's flags ask for."""
    from repro.exec import ExecPolicy

    return ExecPolicy(
        workers=args.workers, heartbeat_timeout=args.heartbeat_timeout
    )


def _check_shard_only_flags(args: argparse.Namespace) -> None:
    """Refuse lease-only flags on a campaign that is not sharded."""
    if args.listen is not None and args.backend is None and not args.shards:
        raise DDSIError("--listen needs --backend or --shards")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dependability-driven software integration (ICDCS'98)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    integrate = sub.add_parser("integrate", help="run the full pipeline")
    integrate.add_argument(
        "system", nargs="?", default=None,
        help="system JSON file (or use --workload for a built-in one)",
    )
    integrate.add_argument(
        "--workload",
        choices=["paper", "avionics", "automotive"],
        default=None,
        help="integrate a built-in workload (system + HW + resources) "
        "instead of a system file",
    )
    integrate.add_argument("--hw", help="HW graph JSON file")
    integrate.add_argument(
        "--hw-nodes", type=int, default=None,
        help="use a fully connected HW graph of this size instead of --hw",
    )
    integrate.add_argument(
        "--heuristic",
        choices=[h.value for h in Heuristic],
        default=Heuristic.H1.value,
    )
    integrate.add_argument(
        "--mapping",
        choices=[m.value for m in MappingApproach],
        default=MappingApproach.IMPORTANCE.value,
    )
    integrate.add_argument(
        "--out", default=None, help="write the outcome as JSON here"
    )
    integrate.add_argument(
        "--validate-trials", type=int, default=0, metavar="N",
        help="after integrating, validate by a fault-injection campaign "
        "of N trials (0 = skip)",
    )
    integrate.add_argument(
        "--seed", type=int, default=0, help="campaign validation RNG seed"
    )
    integrate.add_argument(
        "-v", "--verbose", action="store_true",
        help="print a one-line stage-timing footer",
    )
    _add_obs_flags(integrate)
    _add_profile_flag(integrate)

    audit = sub.add_parser("audit", help="audit a system design")
    audit.add_argument("system", help="system JSON file")
    audit.add_argument("--influence-budget", type=float, default=1.0)
    audit.add_argument("--separation-floor", type=float, default=0.0)
    _add_obs_flags(audit)

    tradeoff = sub.add_parser("tradeoff", help="sweep integration levels")
    tradeoff.add_argument("system", help="system JSON file")
    tradeoff.add_argument("--trials", type=int, default=300)
    _add_obs_flags(tradeoff)

    resilience = sub.add_parser(
        "resilience", help="run a HW-failure campaign on a workload"
    )
    resilience.add_argument(
        "--workload",
        choices=["paper", "avionics", "automotive"],
        default="paper",
        help="built-in workload (system + HW + resources)",
    )
    resilience.add_argument(
        "--failures", type=int, default=2, help="HW failures per trial"
    )
    resilience.add_argument("--trials", type=int, default=100)
    resilience.add_argument("--seed", type=int, default=0)
    resilience.add_argument(
        "--horizon", type=float, default=100.0, help="simulated time per trial"
    )
    resilience.add_argument(
        "--scenario", action="store_true",
        help="replay the workload's scripted failure scenario instead of "
        "drawing random failures (avionics/automotive only)",
    )
    resilience.add_argument(
        "--heuristic",
        choices=[h.value for h in Heuristic],
        default=Heuristic.H1.value,
    )
    resilience.add_argument(
        "--mapping",
        choices=[m.value for m in MappingApproach],
        default=MappingApproach.IMPORTANCE.value,
    )
    resilience.add_argument(
        "-v", "--verbose", action="store_true",
        help="print stage-timing and campaign-throughput footers",
    )
    _add_exec_flags(resilience)
    _add_obs_flags(resilience)
    _add_profile_flag(resilience)

    faultsim = sub.add_parser(
        "faultsim", help="run a fault-injection campaign on a workload"
    )
    faultsim.add_argument(
        "--workload",
        choices=["paper", "avionics", "automotive"],
        default="paper",
        help="built-in workload (system + HW + resources)",
    )
    faultsim.add_argument("--trials", type=int, default=1000)
    faultsim.add_argument("--seed", type=int, default=0)
    faultsim.add_argument(
        "--heuristic",
        choices=[h.value for h in Heuristic],
        default=Heuristic.H1.value,
    )
    faultsim.add_argument(
        "--mapping",
        choices=[m.value for m in MappingApproach],
        default=MappingApproach.IMPORTANCE.value,
    )
    faultsim.add_argument(
        "-v", "--verbose", action="store_true",
        help="print stage-timing and campaign-throughput footers",
    )
    _add_exec_flags(faultsim)
    _add_shard_flags(faultsim)
    _add_obs_flags(faultsim)
    _add_profile_flag(faultsim)

    exec_cmd = sub.add_parser(
        "exec", help="supervised-runner utilities"
    )
    exec_sub = exec_cmd.add_subparsers(dest="exec_command", required=True)
    chaos = exec_sub.add_parser(
        "chaos",
        help="run the supervisor's chaos self-test (killed shard "
        "workers, stalled heartbeats, corrupted partial checkpoints, "
        "interrupted campaigns)",
    )
    chaos.add_argument(
        "--trials", type=int, default=1024,
        help="faultsim trials per self-test campaign (default 1024, so "
        "every shard spans whole 256-trial blocks)",
    )
    chaos.add_argument("--workers", type=int, default=2)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="shards per self-test campaign (default 2)",
    )
    chaos.add_argument(
        "--backend", choices=["local", "subprocess", "tcp"],
        default="local",
        help="execution backend for the proofs; 'tcp' adds the NetChaos "
        "proofs (dropped connections, delayed frames, torn/duplicated "
        "lines, full partition + resume)",
    )
    chaos.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="directory for checkpoint scratch files (default: a fresh "
        "temporary directory)",
    )
    _add_obs_flags(chaos)
    shard_worker = exec_sub.add_parser(
        "shard-worker",
        help="serve shard leases over stdin/stdout, or over TCP with "
        "--connect (spawned by the subprocess/tcp backends, or started "
        "by hand on a remote host; not for interactive use)",
    )
    shard_worker.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="dial a 'repro ... --backend tcp' supervisor and serve "
        "leases over the connection instead of stdin/stdout",
    )
    shard_worker.add_argument(
        "--reconnect", type=int, default=0, metavar="N",
        help="with --connect: re-dial up to N times after the "
        "connection ends (each session registers as a fresh slot)",
    )
    watch = exec_sub.add_parser(
        "watch",
        help="live per-shard lease health of a running campaign, read "
        "from the trace it is writing; exits once the trace is finished",
    )
    watch.add_argument("file", help="the campaign's --trace file")
    watch.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh period (default 1s)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="render the current status once and exit (no refresh loop)",
    )

    example = sub.add_parser("example", help="dump a built-in workload")
    example.add_argument("name", choices=["paper", "avionics"])
    example.add_argument("--out", default=None, help="write JSON here (default stdout)")
    _add_obs_flags(example)

    report = sub.add_parser(
        "report",
        help="read a trace: stage timing, decisions, critical path, "
        "lease health, sampled profile and process resources",
    )
    report.add_argument("file", help="NDJSON trace file")
    report.add_argument(
        "--tree", action="store_true",
        help="add the indented span tree",
    )
    report.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="rows per sampled-profile table (default 15)",
    )

    trace = sub.add_parser("trace", help="compare and convert NDJSON traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    diff = trace_sub.add_parser(
        "diff",
        help="compare two traces per span path; exit 1 on regression",
    )
    diff.add_argument("baseline", help="baseline NDJSON trace (A)")
    diff.add_argument("candidate", help="candidate NDJSON trace (B)")
    diff.add_argument(
        "--threshold", type=float, default=20.0, metavar="PCT",
        help="relative growth considered a regression (default 20%%)",
    )
    diff.add_argument(
        "--min-delta-ms", type=float, default=0.5, metavar="MS",
        help="absolute growth below this is noise (default 0.5ms)",
    )
    diff.add_argument(
        "--force", action="store_true",
        help="diff even when provenance says the runs are incomparable",
    )
    export = trace_sub.add_parser(
        "export",
        help="convert a trace for external tools (Perfetto, flamegraphs)",
    )
    export.add_argument("file", help="NDJSON trace file")
    export.add_argument(
        "--format", choices=["chrome", "collapsed"], default="chrome",
        help="chrome = trace-event JSON (Perfetto / chrome://tracing); "
        "collapsed = flamegraph.pl collapsed stacks",
    )
    export.add_argument(
        "-o", "--out", default=None, metavar="FILE",
        help="output file (default: stdout)",
    )

    metrics_cmd = sub.add_parser(
        "metrics", help="inspect the metrics snapshot of a trace"
    )
    metrics_sub = metrics_cmd.add_subparsers(dest="metrics_command", required=True)
    metrics_export = metrics_sub.add_parser(
        "export",
        help="convert a finished trace's metrics snapshot for external "
        "scrapers",
    )
    metrics_export.add_argument(
        "file", nargs="?", default=None,
        help="NDJSON trace file (omit to export only the process-level "
        "gauges)",
    )
    metrics_export.add_argument(
        "--format", choices=["prom"], default="prom",
        help="prom = Prometheus text exposition format",
    )
    metrics_export.add_argument(
        "-o", "--out", default=None, metavar="FILE",
        help="output file (default: stdout)",
    )

    bench = sub.add_parser(
        "bench", help="benchmark baseline utilities (the perf ratchet)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_check = bench_sub.add_parser(
        "check",
        help="compare the latest bench run against the committed baseline; "
        "exit 1 beyond tolerance",
    )
    bench_update = bench_sub.add_parser(
        "update-baseline",
        help="rewrite the committed baseline from the latest bench run",
    )
    for sub_parser in (bench_check, bench_update):
        sub_parser.add_argument(
            "--latest", default="BENCH_pipeline.json", metavar="FILE",
            help="bench results to gate (default: BENCH_pipeline.json)",
        )
        sub_parser.add_argument(
            "--baseline", default="benchmarks/BENCH_baseline.json",
            metavar="FILE",
            help="baseline document (default: benchmarks/BENCH_baseline.json)",
        )
    bench_check.add_argument(
        "--tolerance", type=float, default=None, metavar="FRACTION",
        help="override the wall-time tolerance (e.g. 0.5 allows +50%%); "
        "stage and throughput tolerances scale with it",
    )
    return parser


def _builtin_workload(name: str, heuristic: str, mapping: str):
    """(system, hw, options, rates, scenario) for one built-in workload."""
    if name == "paper":
        system, hw = paper_system(), fully_connected(HW_NODE_COUNT)
        options = FrameworkOptions(
            heuristic=Heuristic(heuristic),
            mapping=MappingApproach(mapping),
        )
        rates, scenario = None, None
    elif name == "avionics":
        system, hw = avionics_system(), avionics_hw(6)
        options = FrameworkOptions(
            heuristic=Heuristic(heuristic),
            mapping=MappingApproach(mapping),
            resources=avionics_resources(),
        )
        rates, scenario = avionics_failure_rates(), avionics_cabinet_loss()
    else:
        system, hw = automotive_system(), automotive_hw()
        options = FrameworkOptions(
            heuristic=Heuristic(heuristic),
            mapping=MappingApproach(mapping),
            policy=automotive_policy(),
            resources=automotive_resources(),
        )
        rates, scenario = automotive_failure_rates(), automotive_zone_loss()
    return system, hw, options, rates, scenario


def _print_stage_footer() -> None:
    footer = stage_footer(current())
    if footer:
        print(footer)


def _cmd_integrate(args: argparse.Namespace) -> int:
    if args.workload:
        system, hw, options, _rates, _scenario = _builtin_workload(
            args.workload, args.heuristic, args.mapping
        )
        if args.hw:
            hw = load_hw(args.hw)
        elif args.hw_nodes:
            hw = fully_connected(args.hw_nodes)
    else:
        if not args.system:
            print(
                "error: provide a system file or --workload NAME",
                file=sys.stderr,
            )
            return 2
        system = load_system(args.system)
        if args.hw:
            hw = load_hw(args.hw)
        elif args.hw_nodes:
            hw = fully_connected(args.hw_nodes)
        else:
            print("error: provide --hw FILE or --hw-nodes N", file=sys.stderr)
            return 2
        options = FrameworkOptions(
            heuristic=Heuristic(args.heuristic),
            mapping=MappingApproach(args.mapping),
        )
    framework = IntegrationFramework(system, options)
    outcome = framework.integrate(hw)
    campaign = None
    if args.validate_trials > 0:
        campaign = framework.validate_by_campaign(
            outcome, trials=args.validate_trials, seed=args.seed
        )
    print(render_clusters(outcome.condensation.state))
    print()
    print(render_mapping(outcome.mapping))
    print()
    print(outcome.summary())
    if args.verbose:
        _print_stage_footer()
        if campaign is not None:
            print(
                f"campaign: {campaign.elapsed_s:.3f}s · "
                f"{campaign.trials_per_s:.0f} trials/s"
            )
    if args.out:
        from repro.io.serialization import dump_outcome

        dump_outcome(outcome, args.out)
        print(f"wrote {args.out}")
    return 0 if outcome.feasible else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    system = load_system(args.system)
    report = audit_system(
        system,
        influence_budget=args.influence_budget,
        separation_floor=args.separation_floor,
    )
    if report.passed:
        print("audit passed")
        return 0
    for line in report.describe():
        print(f"finding: {line}")
    return 1


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    system = load_system(args.system)
    graph = expand_replication(system.influence_at(Level.PROCESS))
    curve = sweep_integration_levels(graph, campaign_trials=args.trials)
    rows = [
        (
            p.hw_nodes,
            "yes" if p.feasible else "no",
            p.cross_influence if p.feasible else "-",
            p.max_node_criticality if p.feasible else "-",
            f"{p.fault_escape_rate:.3f}" if p.feasible else "-",
        )
        for p in curve.points
    ]
    print(
        format_table(
            ["HW nodes", "feasible", "cross-influence", "max criticality", "escape rate"],
            rows,
            title="Integration-level trade-off",
        )
    )
    from repro.metrics.figures import tradeoff_chart

    print()
    print(tradeoff_chart(curve))
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    from repro.resilience.campaign import replay_scenario, run_resilience_campaign

    system, hw, options, rates, scenario = _builtin_workload(
        args.workload, args.heuristic, args.mapping
    )
    framework = IntegrationFramework(system, options)
    outcome = framework.integrate(hw)
    if args.scenario:
        if scenario is None:
            print(
                "error: the paper workload has no scripted scenario",
                file=sys.stderr,
            )
            return 2
        report = replay_scenario(
            outcome,
            scenario,
            seed=args.seed,
            resources=options.resources,
            approach=options.mapping.value,
        )
        print(f"scenario: {scenario.name} — {scenario.description}")
    else:
        report = run_resilience_campaign(
            outcome,
            failures=args.failures,
            trials=args.trials,
            seed=args.seed,
            horizon=args.horizon,
            rates=rates,
            resources=options.resources,
            approach=options.mapping.value,
            policy=_exec_policy(args),
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
    print(render_resilience(report))
    if args.verbose or report.exec_report.workers:
        print(render_exec_report(report.exec_report))
    if args.verbose:
        _print_stage_footer()
        print(
            f"campaign: {report.elapsed_s:.3f}s · "
            f"{report.trials_per_s:.0f} trials/s"
        )
    return 0 if report.separation_violations == 0 else 1


def _cmd_faultsim(args: argparse.Namespace) -> int:
    from repro.faultsim.campaign import run_campaign

    _check_shard_only_flags(args)
    system, hw, options, _rates, _scenario = _builtin_workload(
        args.workload, args.heuristic, args.mapping
    )
    framework = IntegrationFramework(system, options)
    outcome = framework.integrate(hw)
    state = outcome.condensation.state
    result = run_campaign(
        state.graph,
        state.as_partition(),
        trials=args.trials,
        seed=args.seed,
        policy=_exec_policy(args),
        checkpoint=args.checkpoint,
        resume=args.resume,
        backend=args.backend,
        shards=args.shards,
        listen=args.listen,
        profile=args.profile,
    )
    print(
        render_campaign(
            result,
            title=f"Fault-injection campaign ({args.workload}, "
            f"{args.trials} trials, seed {args.seed})",
        )
    )
    if args.verbose or result.exec_report.workers:
        print(render_exec_report(result.exec_report))
    if args.verbose:
        _print_stage_footer()
        print(
            f"campaign: {result.elapsed_s:.3f}s · "
            f"{result.trials_per_s:.0f} trials/s"
        )
    return 0


def _cmd_exec(args: argparse.Namespace) -> int:
    import tempfile

    from repro.exec import run_shard_chaos_selftest

    if args.exec_command == "shard-worker":
        if args.connect is not None:
            from repro.exec.tcp import tcp_worker_main

            return tcp_worker_main(args.connect, reconnect=args.reconnect)
        from repro.exec.transport import shard_worker_main

        return shard_worker_main()
    if args.exec_command == "watch":
        return _cmd_exec_watch(args)

    def selftest(workdir: str):
        return run_shard_chaos_selftest(
            workdir,
            trials=args.trials,
            shards=args.shards,
            workers=args.workers,
            seed=args.seed,
            backend=args.backend,
        )

    if args.workdir is not None:
        result = selftest(args.workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
            result = selftest(workdir)
    for line in result.describe():
        print(line)
    print(
        "chaos self-test "
        + ("PASSED" if result.passed else "FAILED")
        + f" ({len(result.checks)} checks, {len(result.failures)} failures)"
    )
    return 0 if result.passed else 1


def _cmd_exec_watch(args: argparse.Namespace) -> int:
    import time as _time

    from repro.errors import ObservabilityError
    from repro.obs import index_trace, lease_health, load_live_trace

    waited_notice = False
    try:
        while True:
            events = load_live_trace(args.file)
            if not events:
                if args.once:
                    raise ObservabilityError(f"{args.file}: no trace yet")
                if not waited_notice:
                    print(f"waiting for {args.file} ...", flush=True)
                    waited_notice = True
                _time.sleep(args.interval)
                continue
            if events[0].get("format") != "repro-trace":
                raise ObservabilityError(f"{args.file} is not a repro trace")
            index = index_trace(events)
            view = (
                f"trace {args.file}  "
                f"[{'running' if index.live else 'ended'}]  "
                f"{len(events)} records\n\n"
                + (lease_health(index) or "no lease decisions yet")
            )
            if args.once:
                print(view)
                return 0
            # Clear + home, then the current view: a cheap live display
            # that works in any ANSI terminal.
            sys.stdout.write("\x1b[2J\x1b[H")
            print(view, flush=True)
            if not index.live:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.errors import ObservabilityError
    from repro.obs.metrics import to_prometheus_text
    from repro.obs.profile import process_metrics_snapshot

    snapshot = {"format": "repro-metrics", "version": 1, "metrics": {}}
    if args.file is not None:
        record = _read_trace(args.file).metrics
        if record is None:
            raise ObservabilityError(
                f"{args.file}: no closing metrics record (not a finished "
                "trace)"
            )
        snapshot = record.get("snapshot") or {}
    # Standard process-level gauges ride along with every export;
    # campaign metrics win on a name collision.
    if isinstance(snapshot.get("metrics"), dict):
        for name, data in process_metrics_snapshot()["metrics"].items():
            snapshot["metrics"].setdefault(name, data)
    text = to_prometheus_text(snapshot)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise DDSIError(
                f"cannot write export file {args.out!r}: {exc}"
            ) from exc
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    system = paper_system() if args.name == "paper" else avionics_system()
    payload = system_to_dict(system)
    if args.name == "avionics":
        payload["_hw_hint"] = hw_to_dict(avionics_hw(6))
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _read_trace(path: str):
    """Load and index one trace file; a bad field names the file too."""
    from repro.errors import ObservabilityError
    from repro.obs import index_trace

    events = load_ndjson(path)
    try:
        return index_trace(events)
    except ObservabilityError as exc:
        raise ObservabilityError(f"{path}: {exc}") from None


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import render_report

    print(render_report(_read_trace(args.file), tree=args.tree, top=args.top))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "diff":
        return _cmd_trace_diff(args)
    return _cmd_trace_export(args)


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.obs.analyze import (
        comparability_problems,
        diff_traces,
        render_diff,
    )

    index_a = _read_trace(args.baseline)
    index_b = _read_trace(args.candidate)
    refusals, _warnings = comparability_problems(index_a, index_b)
    if refusals and not args.force:
        for refusal in refusals:
            print(f"error: incomparable traces: {refusal}", file=sys.stderr)
        print("(use --force to diff anyway)", file=sys.stderr)
        return 2
    diff = diff_traces(
        index_a,
        index_b,
        threshold=args.threshold / 100.0,
        min_delta_s=args.min_delta_ms / 1000.0,
    )
    if refusals:
        diff.warnings = [f"forced: {r}" for r in refusals] + diff.warnings
    print(render_diff(diff))
    return 1 if diff.regression else 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.obs.analyze import to_chrome_trace, to_collapsed_stacks

    index = _read_trace(args.file)
    if args.format == "chrome":
        text = json.dumps(to_chrome_trace(index), indent=1)
    else:
        text = to_collapsed_stacks(index)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise DDSIError(
                f"cannot write export file {args.out!r}: {exc}"
            ) from exc
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.analyze import (
        check_bench,
        load_baseline,
        render_bench_check,
        write_baseline,
    )
    from repro.obs.analyze.bench import load_latest

    entries = load_latest(args.latest)
    if args.bench_command == "update-baseline":
        write_baseline(entries, args.baseline)
        print(
            f"wrote {args.baseline} from {args.latest} "
            f"({len(entries)} case(s))"
        )
        return 0
    baseline = load_baseline(args.baseline)
    tolerance = None
    if args.tolerance is not None:
        # One knob scales the whole gate: stages get 4/3 of the wall
        # tolerance (noisier), throughput may drop by at most half of it.
        tolerance = {
            "wall_s": args.tolerance,
            "stage_s": args.tolerance * 4.0 / 3.0,
            "trials_per_s": min(args.tolerance / 2.0, 0.95),
        }
    check = check_bench(entries, baseline, tolerance=tolerance)
    print(render_bench_check(check))
    return 0 if check.passed else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "integrate": _cmd_integrate,
        "audit": _cmd_audit,
        "tradeoff": _cmd_tradeoff,
        "resilience": _cmd_resilience,
        "faultsim": _cmd_faultsim,
        "exec": _cmd_exec,
        "example": _cmd_example,
        "report": _cmd_report,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "bench": _cmd_bench,
    }
    trace_path = getattr(args, "trace", None)
    verbose = getattr(args, "verbose", False)
    profile_hz = getattr(args, "profile", None)
    try:
        if not (trace_path or verbose or profile_hz):
            return handlers[args.command](args)
        recorder = Recorder()
        recorder.set_provenance(
            command=args.command, workload=getattr(args, "workload", None)
        )
        if trace_path:
            recorder.open_sink(trace_path)
        try:
            with use(recorder):
                if profile_hz:
                    from repro.obs.profile import Profiler

                    # The profiler hands its drained events to the
                    # recorder on exit — before the trace closes below.
                    with Profiler(recorder, hz=profile_hz):
                        return handlers[args.command](args)
                return handlers[args.command](args)
        finally:
            recorder.close()
    except DDSIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
