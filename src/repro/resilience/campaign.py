"""Resilience campaigns: failure sequences over simulated time.

Where :mod:`repro.faultsim.campaign` asks *how far does a SW fault
travel?*, a resilience campaign asks the paper-central question the
static pipeline never answers: *when HW nodes die, does the integrated
system degrade gracefully?*  Each trial draws a failure sequence
(:mod:`repro.resilience.failures`), re-plans the mapping after every
event (:mod:`repro.resilience.degradation`), walks the recovery ladder
per displaced cluster (:mod:`repro.resilience.recovery`), and charges
downtime to every origin process left without a live copy.  The report
aggregates availability per criticality class, shedding, separation
violations, and time-to-recover percentiles.

Campaigns execute through :mod:`repro.exec` with per-trial seeds in
32-trial blocks, so a report is bit-identical whether it was computed
in-process, on worker slots, or resumed from a checkpoint mid-run (see
docs/EXECUTION.md).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.exec.backend import SCALAR_BLOCK_TRIALS
from repro.exec.batching import derive_seed
from repro.exec.runner import ExecPolicy, ExecReport, run_supervised
from repro.allocation.constraints import ResourceRequirements
from repro.core.results import IntegrationOutcome
from repro.obs import current
from repro.resilience.bands import (
    CLASS_LABELS,
    DEFAULT_BANDS,
    CriticalityBands,
    origin_of,
    process_classes,
)
from repro.resilience.degradation import DegradationPlan, plan_degradation
from repro.resilience.failures import (
    FailureEvent,
    FailureKind,
    FailureScenario,
    FCRFailureRates,
    draw_failure_sequence,
)
from repro.resilience.recovery import (
    DEFAULT_POLICIES,
    RecoveryPolicySet,
    recover_cluster,
)


@dataclass(frozen=True)
class ResilienceReport:
    """Aggregates of one resilience campaign.

    Attributes:
        trials: Number of simulated failure sequences.
        failures_per_trial: Failure budget per sequence (drawn sequences
            may be shorter when rates burn out).
        horizon: Simulated-time horizon per trial.
        availability: Criticality class -> mean availability in [0, 1].
        class_sizes: Criticality class -> number of origin processes.
        mean_clusters_shed: Mean (over trials) of the worst concurrent
            shed-cluster count.
        max_clusters_shed: Worst concurrent shed count over all trials.
        separation_violations: Degraded plans that violated replica
            separation (must stay 0 for a sound planner).
        class_a_outages: Trials in which some class-A process lost every
            hosted copy at least once.
        recoveries: Successful recovery actions across all trials.
        recovery_p50: Median time-to-recover.
        recovery_p95: 95th-percentile time-to-recover.
        recovery_worst: Worst time-to-recover.
        elapsed_s: Wall time of the campaign loop (``perf_counter``;
            excluded from equality so seeded reruns still compare equal).
        trials_per_s: Campaign throughput (also excluded from equality).
        exec_report: How the supervisor completed the campaign (also
            excluded from equality).
    """

    trials: int
    failures_per_trial: int
    horizon: float
    availability: dict[str, float] = field(default_factory=dict)
    class_sizes: dict[str, int] = field(default_factory=dict)
    mean_clusters_shed: float = 0.0
    max_clusters_shed: int = 0
    separation_violations: int = 0
    class_a_outages: int = 0
    recoveries: int = 0
    recovery_p50: float = 0.0
    recovery_p95: float = 0.0
    recovery_worst: float = 0.0
    elapsed_s: float = field(default=0.0, compare=False)
    trials_per_s: float = field(default=0.0, compare=False)
    exec_report: ExecReport | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def min_availability(self) -> float:
        """The worst class availability (1.0 when no classes exist)."""
        return min(self.availability.values(), default=1.0)


def run_resilience_campaign(
    outcome: IntegrationOutcome,
    failures: int = 2,
    trials: int = 100,
    seed: int = 0,
    horizon: float = 100.0,
    rates: FCRFailureRates | None = None,
    policies: RecoveryPolicySet | None = None,
    bands: CriticalityBands = DEFAULT_BANDS,
    resources: ResourceRequirements | None = None,
    approach: str = "a",
    scenario: FailureScenario | None = None,
    policy: ExecPolicy | None = None,
    checkpoint: str | None = None,
    resume: str | None = None,
    chaos=None,
) -> ResilienceReport:
    """Run ``trials`` failure sequences against an integrated system.

    With ``scenario`` given, every trial replays the same scripted events
    (recovery outcomes still vary by trial); otherwise each trial draws
    ``failures`` events from ``rates`` (uniform per-FCR defaults).

    Trial ``t`` always runs on ``random.Random(derive_seed(seed, t))``,
    so the report does not depend on ``policy`` (workers), retries, or
    checkpoint/resume history.

    Degraded mappings are memoized by ``(failed nodes, failed links)``:
    planning is deterministic, so a repeated failure state reuses its
    plan (see :func:`_memoized_planner`).  Memoized re-plans skip
    ``plan_degradation``'s recorder events, so ``degrade_plans_total``
    counts planned *states*, not events.
    """
    if trials < 1:
        raise SimulationError("trials must be >= 1")
    if failures < 1 and scenario is None:
        raise SimulationError("failures must be >= 1")
    if horizon <= 0.0:
        raise SimulationError("horizon must be > 0")
    hw = outcome.mapping.hw
    rates = rates or FCRFailureRates.uniform(hw)
    policies = policies or DEFAULT_POLICIES
    state = outcome.condensation.state
    graph = state.graph
    classes = process_classes(graph, bands)
    origins = sorted(classes)

    planner = _memoized_planner(outcome, approach, resources, bands)
    origin_cache: dict[str, str] = {}

    def origin(member: str) -> str:
        cached = origin_cache.get(member)
        if cached is None:
            cached = origin_cache[member] = origin_of(graph, member)
        return cached

    def run_batch(start: int, size: int, campaign_seed: int) -> dict:
        records = []
        for trial in range(start, start + size):
            rng = random.Random(derive_seed(campaign_seed, trial))
            if scenario is not None:
                events = [e for e in scenario.events if e.time < horizon]
            else:
                events = draw_failure_sequence(hw, rates, failures, rng, horizon)
            kinds: dict[str, int] = {}
            for event in events:
                label = event.kind.name.lower()
                kinds[label] = kinds.get(label, 0) + 1
            downtime, shed, violations, a_outage, recoveries = _simulate_trial(
                outcome, events, rng, horizon, policies, planner, origin,
            )
            records.append(
                {
                    "downtime": downtime,
                    "shed": shed,
                    "violations": violations,
                    "a_outage": a_outage,
                    "recoveries": recoveries,
                    "failure_kinds": kinds,
                }
            )
        return {"records": records}

    rec = current()
    exec_policy = policy or ExecPolicy()
    availability_sums = {origin: 0.0 for origin in origins}
    shed_total = 0
    shed_worst = 0
    separation_violations = 0
    class_a_outages = 0
    recovery_durations: list[float] = []

    t0 = time.perf_counter()
    with rec.span(
        "resilience.campaign",
        trials=trials,
        failures=failures,
        seed=seed,
        horizon=horizon,
        scripted=scenario is not None,
        workers=exec_policy.workers,
    ):
        payloads, exec_report = run_supervised(
            run_batch,
            trials=trials,
            seed=seed,
            kind="resilience",
            params={
                "failures": failures,
                "horizon": horizon,
                "approach": approach,
                "scripted": scenario.name if scenario is not None else None,
                "system": outcome.system_name,
            },
            policy=exec_policy,
            combine=lambda a, b: {"records": a["records"] + b["records"]},
            checkpoint=checkpoint,
            resume=resume,
            chaos=chaos,
            block=SCALAR_BLOCK_TRIALS,
        )
        for payload in payloads:
            for record in payload["records"]:
                downtime = record["downtime"]
                for origin in origins:
                    lost = min(downtime.get(origin, 0.0), horizon)
                    availability_sums[origin] += 1.0 - lost / horizon
                shed_total += record["shed"]
                shed_worst = max(shed_worst, record["shed"])
                separation_violations += record["violations"]
                if record["a_outage"]:
                    class_a_outages += 1
                recovery_durations.extend(record["recoveries"])
                if rec.enabled:
                    for label, count in record["failure_kinds"].items():
                        rec.counter("resilience_failures_total").inc(
                            count, kind=label
                        )
    elapsed = time.perf_counter() - t0
    rate = trials / elapsed if elapsed > 0 else 0.0
    if rec.enabled:
        rec.counter("resilience_trials_total").inc(trials)
        rec.gauge("resilience_trials_per_s").set(rate)
        # Simulated-time buckets (same units as ``horizon``), not seconds.
        recovery_hist = rec.histogram(
            "resilience_recovery_duration",
            buckets=(0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0),
        )
        for duration in recovery_durations:
            recovery_hist.observe(duration)

    class_sizes: dict[str, int] = {}
    class_availability: dict[str, float] = {}
    for label in CLASS_LABELS:
        members = [origin for origin in origins if classes[origin] == label]
        if not members:
            continue
        class_sizes[label] = len(members)
        class_availability[label] = sum(
            availability_sums[origin] / trials for origin in members
        ) / len(members)

    ordered = sorted(recovery_durations)
    return ResilienceReport(
        trials=trials,
        failures_per_trial=failures if scenario is None else len(scenario.events),
        horizon=horizon,
        availability=class_availability,
        class_sizes=class_sizes,
        mean_clusters_shed=shed_total / trials,
        max_clusters_shed=shed_worst,
        separation_violations=separation_violations,
        class_a_outages=class_a_outages,
        recoveries=len(ordered),
        recovery_p50=_percentile(ordered, 0.50),
        recovery_p95=_percentile(ordered, 0.95),
        recovery_worst=ordered[-1] if ordered else 0.0,
        elapsed_s=elapsed,
        trials_per_s=rate,
        exec_report=exec_report,
    )


def _memoized_planner(
    outcome: IntegrationOutcome,
    approach: str = "a",
    resources: ResourceRequirements | None = None,
    bands: CriticalityBands = DEFAULT_BANDS,
):
    """``planner(failed_nodes, failed_links)`` for :func:`_simulate_trial`,
    planning each distinct failure state once.

    :func:`plan_degradation` is deterministic (rng-free), so one plan per
    failure state serves every trial that reaches it; trials copy the
    plan's dicts before mutating them.
    """
    plans: dict[tuple, DegradationPlan] = {}

    def planner(failed_now: tuple[str, ...], links: tuple) -> DegradationPlan:
        key = (failed_now, links)
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = plan_degradation(
                outcome,
                list(failed_now),
                failed_links=links,
                approach=approach,
                resources=resources,
                bands=bands,
            )
        return plan

    return planner


def replay_scenario(
    outcome: IntegrationOutcome,
    scenario: FailureScenario,
    seed: int = 0,
    horizon: float | None = None,
    policies: RecoveryPolicySet | None = None,
    bands: CriticalityBands = DEFAULT_BANDS,
    resources: ResourceRequirements | None = None,
    approach: str = "a",
) -> ResilienceReport:
    """Replay one scripted scenario once (a single deterministic trial)."""
    if horizon is None:
        last = max((event.time for event in scenario.events), default=0.0)
        horizon = last + 20.0
    return run_resilience_campaign(
        outcome,
        trials=1,
        seed=seed,
        horizon=horizon,
        policies=policies,
        bands=bands,
        resources=resources,
        approach=approach,
        scenario=scenario,
    )


def _simulate_trial(
    outcome: IntegrationOutcome,
    events: list[FailureEvent],
    rng: random.Random,
    horizon: float,
    policies: RecoveryPolicySet,
    planner,
    origin,
) -> tuple[dict[str, float], int, int, bool, list[float]]:
    """One failure sequence; returns (downtime per origin, worst shed
    count, separation violations, class-A outage happened, recovery
    durations).

    ``planner(failed_nodes, failed_links)`` supplies the degraded plan
    for a failure state (possibly memoized — the trial copies the plan's
    dicts before mutating them); ``origin(member)`` resolves a member
    name to its origin process (possibly cached)."""
    state = outcome.condensation.state
    perm_failed: set[str] = set()
    transient_down: dict[str, float] = {}
    failed_links: list[tuple[str, str]] = []
    hosting: dict[int, str] = dict(outcome.mapping.assignment)
    hosted_members: dict[int, tuple[str, ...]] = {
        index: state.clusters[index].members for index in hosting
    }
    downtime: dict[str, float] = {}
    recovery_durations: list[float] = []
    shed_worst = 0
    violations = 0
    a_outage = False

    for event in events:
        now = event.time
        transient_down = {
            node: end for node, end in transient_down.items() if end > now
        }
        if event.kind is FailureKind.PERMANENT_NODE:
            assert event.node is not None
            perm_failed.add(event.node)
        elif event.kind is FailureKind.TRANSIENT_NODE:
            assert event.node is not None
            transient_down[event.node] = max(
                transient_down.get(event.node, 0.0), now + event.repair_time
            )
        else:
            assert event.link is not None
            failed_links.append(event.link)

        failed_now = perm_failed | set(transient_down)
        plan = planner(tuple(sorted(failed_now)), tuple(failed_links))
        shed_worst = max(shed_worst, len(plan.shed))
        if not plan.separation_ok:
            violations += 1
        if any(label == "A" for label in plan.uncovered_classes.values()):
            a_outage = True

        # Copies still alive on up nodes, before re-homing: the masking set.
        live_origins: set[str] = set()
        for index, node in hosting.items():
            if node in failed_now:
                continue
            for member in hosted_members[index]:
                live_origins.add(origin(member))

        displaced = (
            [i for i, node in hosting.items() if node == event.node]
            if event.node is not None
            else []
        )
        for index in sorted(displaced):
            members = hosted_members[index]
            masked = all(origin(m) in live_origins for m in members)
            result = recover_cluster(
                policies,
                rng,
                masked=masked,
                transient=event.kind is FailureKind.TRANSIENT_NODE,
                repair_time=event.repair_time,
                replaced=index in plan.assignment,
            )
            if result.succeeded:
                recovery_durations.append(result.duration)
            remaining = horizon - now
            for member in members:
                source = origin(member)
                if source in live_origins:
                    continue  # replication masks the loss for this process
                if result.succeeded:
                    lost = min(result.duration, remaining)
                else:
                    lost = remaining
                downtime[source] = downtime.get(source, 0.0) + lost

        hosting = dict(plan.assignment)
        hosted_members = dict(plan.hosted_members)

    return downtime, shed_worst, violations, a_outage, recovery_durations


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]
