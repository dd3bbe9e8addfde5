"""What constitutes a "good" mapping (§5.3).

"The importance of various criteria may differ, depending on the
application under consideration, but these criteria include: satisfaction
of constraints ... containment of faults ... criticality."

:func:`evaluate_mapping` scores a complete mapping on each criterion;
:func:`evaluate_partition` scores a condensation alone (used to compare
heuristics before mapping).  Lower is better for every numeric score.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.allocation.clustering import ClusterState
from repro.allocation.constraints import ResourceRequirements
from repro.allocation.mapping import Mapping


@dataclass(frozen=True)
class PartitionScore:
    """Quality of a condensation (cluster partition)."""

    cluster_count: int
    cross_influence: float  # Σ inter-cluster influence (fault containment)
    max_node_criticality: float  # highest summed criticality on one node
    critical_colocations: int  # pairs of critical processes sharing a node
    constraint_violations: tuple[str, ...]

    @property
    def feasible(self) -> bool:
        return not self.constraint_violations


@dataclass(frozen=True)
class MappingScore:
    """Quality of a full SW->HW mapping."""

    partition: PartitionScore
    communication_cost: float  # influence-weighted dilation
    resource_violations: tuple[str, ...]
    replica_separation_ok: bool
    complete: bool = True  # every cluster assigned a HW node

    @property
    def feasible(self) -> bool:
        return (
            self.complete
            and self.partition.feasible
            and not self.resource_violations
            and self.replica_separation_ok
        )


def evaluate_partition(
    state: ClusterState,
    criticality_threshold: float | None = None,
) -> PartitionScore:
    """Score a partition on containment and criticality dispersion.

    ``criticality_threshold`` marks which processes count as "critical"
    for the colocation count; ``None`` uses the mean criticality over all
    nodes as the bar.
    """
    graph = state.graph
    names = [m for c in state.clusters for m in c.members]
    crits = [graph.fcm(n).attributes.criticality for n in names]
    threshold = (
        criticality_threshold
        if criticality_threshold is not None
        else (sum(crits) / len(crits) if crits else 0.0)
    )

    violations: list[str] = []
    max_crit = 0.0
    colocations = 0
    for cluster in state.clusters:
        reasons = state.policy_block_violations(cluster.members)
        violations.extend(
            f"{cluster.label}: {reason}" for reason in reasons
        )
        total_crit = sum(
            graph.fcm(m).attributes.criticality for m in cluster.members
        )
        max_crit = max(max_crit, total_crit)
        critical_members = [
            m for m in cluster.members
            if graph.fcm(m).attributes.criticality >= threshold
        ]
        k = len(critical_members)
        colocations += k * (k - 1) // 2

    return PartitionScore(
        cluster_count=len(state.clusters),
        cross_influence=state.total_cross_influence(),
        max_node_criticality=max_crit,
        critical_colocations=colocations,
        constraint_violations=tuple(violations),
    )


def evaluate_mapping(
    mapping: Mapping,
    resources: ResourceRequirements | None = None,
    criticality_threshold: float | None = None,
) -> MappingScore:
    """Score a complete mapping on all §5.3 criteria."""
    partition = evaluate_partition(mapping.state, criticality_threshold)
    reqs = resources or ResourceRequirements()

    resource_violations: list[str] = []
    for index, hw_name in mapping.assignment.items():
        members = mapping.state.clusters[index].members
        needed = reqs.required_by(members)
        available = mapping.hw.node(hw_name).resources
        missing = needed - available
        if missing:
            resource_violations.append(
                f"cluster {mapping.state.clusters[index].label} on "
                f"{hw_name}: missing {sorted(missing)}"
            )

    # Replica separation across HW nodes: replicas sit in different
    # clusters by construction; a 1:1 assignment keeps them on different
    # nodes — verify both.
    replica_ok = True
    assigned_nodes = list(mapping.assignment.values())
    if len(set(assigned_nodes)) != len(assigned_nodes):
        replica_ok = False
    cluster_of = {
        member: index
        for index, cluster in enumerate(mapping.state.clusters)
        for member in cluster.members
    }
    for group in mapping.state.graph.replica_groups():
        nodes = set()
        for member in group:
            index = cluster_of.get(member)
            if index is None:
                index = mapping.state.cluster_of(member)  # raises: unplaced
            node = mapping.assignment.get(index)
            if node in nodes:
                replica_ok = False
            if node is not None:
                nodes.add(node)

    return MappingScore(
        partition=partition,
        communication_cost=mapping.communication_cost(),
        resource_violations=tuple(resource_violations),
        replica_separation_ok=replica_ok,
        complete=mapping.is_complete(),
    )
