"""Plain-text rendering of tables, graphs and mappings.

The benchmark harness regenerates the paper's tables and figures as text;
this module provides the shared formatting: aligned tables (Table 1),
edge lists (Figs. 3-4), cluster/mapping summaries (Figs. 5-8).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.allocation.clustering import ClusterState
from repro.allocation.mapping import Mapping
from repro.influence.influence_graph import InfluenceGraph


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width table with a header rule."""
    cells = [[str(h) for h in headers]] + [
        [_fmt(value) for value in row] for row in rows
    ]
    widths = [
        max(len(row[col]) for row in cells) for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e9:
            return str(int(value))
        return f"{value:.3f}"
    return str(value)


def render_influence_graph(graph: InfluenceGraph, title: str = "") -> str:
    """Edge list rendering of an influence graph (Figs. 3-4 style)."""
    rows = []
    for src, dst, weight in sorted(graph.influence_edges()):
        # Paper-style 2-decimal weights; estimation-derived values can be
        # far smaller, where fixed-point would print a misleading 0.00.
        label = f"{weight:.2f}" if weight >= 0.005 else f"{weight:.2e}"
        rows.append((f"{src} -> {dst}", label))
    for group in graph.replica_groups():
        members = sorted(group)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                rows.append((f"{a} == {b}", "0 (replica link)"))
    return format_table(
        ["edge", "influence"],
        rows,
        title=title or f"influence graph ({len(graph)} nodes)",
    )


def render_clusters(state: ClusterState, title: str = "") -> str:
    """Cluster table with combined attributes and cross influence."""
    rows = []
    for i, cluster in enumerate(state.clusters):
        attrs = state.attributes(i)
        timing = attrs.timing
        rows.append(
            (
                cluster.label,
                " ".join(cluster.members),
                attrs.criticality,
                f"[{timing.earliest_start:g}, {timing.deadline:g}] ct={timing.computation_time:g}"
                if timing
                else "-",
            )
        )
    table = format_table(
        ["cluster", "members", "max C", "timing envelope"],
        rows,
        title=title or f"{len(state.clusters)} clusters",
    )
    cross = state.total_cross_influence()
    return f"{table}\ntotal cross-cluster influence: {cross:.3f}"


def render_cluster_influences(state: ClusterState) -> str:
    """Inter-cluster influence matrix entries (nonzero only)."""
    rows = []
    n = len(state.clusters)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            value = state.influence(i, j)
            if value > 0.0:
                rows.append(
                    (state.clusters[i].label, state.clusters[j].label, f"{value:.3f}")
                )
            elif state.replica_related(i, j) and i < j:
                rows.append(
                    (state.clusters[i].label, state.clusters[j].label, "0 (replica)")
                )
    return format_table(["from", "to", "influence"], rows)


def render_resilience(report, title: str = "") -> str:
    """Availability-per-class table plus degradation/recovery summary.

    ``report`` is a :class:`~repro.resilience.campaign.ResilienceReport`;
    typed loosely to keep metrics free of a hard resilience dependency.
    """
    rows = [
        (label, report.class_sizes[label], f"{report.availability[label]:.4f}")
        for label in report.availability
    ]
    table = format_table(
        ["class", "processes", "availability"],
        rows,
        title=title
        or (
            "Degraded-mode availability "
            f"({report.trials} trials, {report.failures_per_trial} failures, "
            f"horizon {report.horizon:g})"
        ),
    )
    lines = [
        table,
        f"clusters shed: mean {report.mean_clusters_shed:.2f}, "
        f"max {report.max_clusters_shed}",
        f"replica-separation violations: {report.separation_violations}",
        f"class-A outage trials: {report.class_a_outages}",
        f"recoveries: {report.recoveries} "
        f"(p50 {report.recovery_p50:.2f}, p95 {report.recovery_p95:.2f}, "
        f"worst {report.recovery_worst:.2f})",
    ]
    return "\n".join(lines)


def render_campaign(result, title: str = "") -> str:
    """Fault-injection campaign summary (faultsim ``CampaignResult``).

    Typed loosely, like :func:`render_resilience`, to keep metrics free
    of a hard faultsim dependency.
    """
    rows = [
        ("trials", result.trials),
        ("mean affected FCMs", f"{result.mean_affected_fcms:.3f}"),
        ("mean affected clusters", f"{result.mean_affected_clusters:.3f}"),
        ("max affected FCMs", result.max_affected_fcms),
        ("cross-cluster escape rate", f"{result.cross_cluster_rate:.3f}"),
    ]
    return format_table(
        ["metric", "value"],
        rows,
        title=title or "Fault-injection campaign",
    )


def render_exec_report(report) -> str:
    """Summary of an :class:`~repro.exec.ExecReport`.

    Shows the block shape and checkpoint reuse, the lease shape for
    pooled or sharded runs, and everything the supervisor had to do
    beyond the happy path: expiries, re-dispatches, crashes, rescues.
    """
    lines = [
        f"exec: {report.trials} trials in {report.block}-trial blocks · "
        f"workers {report.workers} · {report.partials} blocks run "
        f"({report.partials_from_checkpoint} loaded from checkpoint)"
    ]
    if report.shards:
        lines.append(
            f"shards: {report.shards} over '{report.backend}' backend · "
            f"{report.leases_granted} leases"
        )
    counts = (
        ("lease expiries", report.lease_expiries),
        ("redispatches", report.redispatches),
        ("shard crashes", report.shard_crashes),
        ("serial rescue blocks", report.serial_rescue_blocks),
        ("torn protocol lines", report.protocol_torn_lines),
        ("generation-fenced lines", report.generation_fenced_lines),
        ("corrupt checkpoint lines", report.corrupt_checkpoint_lines),
    )
    events = [f"{label} {count}" for label, count in counts if count]
    if report.backend_abandoned:
        events.append("backend abandoned")
    if events:
        lines.append("exec events: " + ", ".join(events))
    if report.checkpoint_path:
        lines.append(f"checkpoint: {report.checkpoint_path}")
    return "\n".join(lines)


def render_degradation(plan) -> str:
    """One degraded-mode plan as text (mapping table plus decisions)."""
    lines = list(plan.describe())
    if plan.mapping is not None:
        lines.append(render_mapping(plan.mapping, title="degraded SW -> HW mapping"))
    return "\n".join(lines)


def render_mapping(mapping: Mapping, title: str = "") -> str:
    """HW-node to SW-cluster assignment table (Figs. 6-8 style)."""
    rows = []
    for hw_name, label in mapping.describe():
        rows.append((hw_name, label, mapping.hw.node(hw_name).fcr))
    table = format_table(
        ["HW node", "mapped SW processes", "FCR"],
        rows,
        title=title or "SW -> HW mapping",
    )
    return f"{table}\ncommunication cost: {mapping.communication_cost():.3f}"
