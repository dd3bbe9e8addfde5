"""Degraded-mode planning: re-home clusters after HW failures.

Given an :class:`IntegrationOutcome` and a set of failed nodes, the
planner re-maps the software onto the surviving HW graph with the same
§5.4 mapping approaches used at integration time.  When the survivors
cannot host everything, the planner degrades in preference order:

1. *split* clusters holding members whose required resource no surviving
   node offers, shedding only those members (a stranded sensor driver
   must not drag flight control down with it);
2. *shed* whole clusters — preferring clusters whose every member is
   still covered by a replica elsewhere (losing them costs no function),
   then ascending criticality — until the survivors can host the rest;
3. verify the replica-separation invariant (§5.4: no two replicas of one
   module co-located) on the degraded mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AllocationError, InfeasibleAllocationError
from repro.allocation.constraints import ResourceRequirements
from repro.allocation.hw_model import HWGraph
from repro.allocation.mapping import Mapping, map_approach_a, map_approach_b
from repro.core.results import IntegrationOutcome
from repro.obs import current
from repro.resilience.bands import DEFAULT_BANDS, CriticalityBands, process_classes


def surviving_hw(
    hw: HWGraph,
    failed_nodes: tuple[str, ...] | list[str] | set[str],
    failed_links: tuple[tuple[str, str], ...] = (),
) -> HWGraph:
    """The HW graph minus failed nodes and links (incident links go too);
    see :meth:`HWGraph.surviving`.  Raises :class:`AllocationError` for a
    failed node or link that ``hw`` does not have."""
    return hw.surviving(failed_nodes, failed_links)


@dataclass
class DegradationPlan:
    """Result of degraded-mode planning after a failure set.

    Attributes:
        failed_nodes: The failed HW nodes the plan reacted to.
        hw: The surviving HW graph.
        mapping: Degraded mapping of the retained clusters (``None`` when
            nothing could be placed).
        assignment: Original cluster index -> surviving HW node.
        hosted_members: Original cluster index -> members actually hosted
            there (smaller than the original cluster when it was split).
        retained: Original indices of clusters that kept a home.
        shed: Original indices of clusters dropped entirely.
        shed_labels: Display labels of the shed clusters.
        shed_members: Members dropped by splitting stranded clusters.
        uncovered: Origin processes with *no* hosted copy left.
        uncovered_classes: Criticality class of each uncovered process.
        separation_ok: Replica separation holds on the degraded mapping.
        separation_violations: Human-readable separation violations.
        notes: Planner decisions (splits, shedding, fallbacks).
    """

    failed_nodes: tuple[str, ...]
    hw: HWGraph
    mapping: Mapping | None
    assignment: dict[int, str]
    hosted_members: dict[int, tuple[str, ...]]
    retained: tuple[int, ...]
    shed: tuple[int, ...]
    shed_labels: tuple[str, ...]
    shed_members: tuple[str, ...]
    uncovered: tuple[str, ...]
    uncovered_classes: dict[str, str]
    separation_ok: bool
    separation_violations: tuple[str, ...] = ()
    notes: list[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.mapping is not None and self.separation_ok

    def describe(self) -> list[str]:
        lines = [
            f"failed nodes: {', '.join(self.failed_nodes) or '-'}",
            f"retained {len(self.retained)} clusters on "
            f"{len(self.hw)} surviving HW nodes",
        ]
        if self.shed_labels:
            lines.append("shed clusters: " + ", ".join(self.shed_labels))
        if self.shed_members:
            lines.append("shed members: " + ", ".join(self.shed_members))
        if self.uncovered:
            lines.append(
                "uncovered: "
                + ", ".join(
                    f"{name} (class {self.uncovered_classes[name]})"
                    for name in self.uncovered
                )
            )
        if not self.separation_ok:
            lines.extend(f"violation: {v}" for v in self.separation_violations)
        lines.extend(self.notes)
        return lines


def plan_degradation(
    outcome: IntegrationOutcome,
    failed_nodes: tuple[str, ...] | list[str] | set[str],
    failed_links: tuple[tuple[str, str], ...] = (),
    approach: str = "a",
    resources: ResourceRequirements | None = None,
    bands: CriticalityBands = DEFAULT_BANDS,
) -> DegradationPlan:
    """Re-map ``outcome``'s clusters onto the HW surviving the failures.

    ``approach`` selects the §5.4 mapping heuristic (``"a"`` importance of
    tasks, ``"b"`` importance of attributes).  Splitting and shedding only
    happen when the survivors cannot host everything; see the module
    docstring for the preference order.
    """
    if approach not in ("a", "b"):
        raise AllocationError(f"unknown mapping approach {approach!r}")
    state = outcome.condensation.state
    graph = state.graph
    survivors = surviving_hw(outcome.mapping.hw, failed_nodes, failed_links)
    # Every member's replica root (``None`` unless a replica) and origin.
    replica_of = {fcm.name: fcm.replica_of for fcm in graph.fcms()}
    origin = {name: root or name for name, root in replica_of.items()}
    notes: list[str] = []
    rec = current()

    # Working partition: original cluster index -> current member tuple.
    blocks: dict[int, tuple[str, ...]] = {
        index: cluster.members for index, cluster in enumerate(state.clusters)
    }
    shed: list[int] = []
    shed_members: list[str] = []

    # 1. Split clusters around members whose resources became unreachable.
    available: set[str] = set()
    for node in survivors.nodes():
        available |= node.resources
    if resources is not None:
        for index in sorted(blocks):
            members = blocks[index]
            stranded = tuple(
                m for m in members if resources.required_by([m]) - available
            )
            if not stranded:
                continue
            rest = tuple(m for m in members if m not in stranded)
            shed_members.extend(stranded)
            if rest:
                blocks[index] = rest
                notes.append(
                    f"split {state.clusters[index].label}: shed "
                    f"{', '.join(stranded)} (resource unreachable)"
                )
                if rec.enabled:
                    rec.decision(
                        "degrade",
                        "split",
                        subject=state.clusters[index].label,
                        reason="resource unreachable on surviving HW",
                        shed_members=list(stranded),
                    )
            else:
                del blocks[index]
                shed.append(index)
                notes.append(
                    f"shed {state.clusters[index].label} (resource unreachable)"
                )
                if rec.enabled:
                    rec.decision(
                        "degrade",
                        "shed",
                        subject=state.clusters[index].label,
                        reason="resource unreachable on surviving HW",
                    )

    def shed_one(reason: str) -> None:
        victim = _pick_shed(graph, origin, blocks)
        shed.append(victim)
        shed_members.extend(blocks.pop(victim))
        notes.append(f"shed {state.clusters[victim].label} ({reason})")
        if rec.enabled:
            rec.decision(
                "degrade",
                "shed",
                subject=state.clusters[victim].label,
                reason=reason,
            )

    # 2. Shed whole clusters until the survivors can host the rest.
    while len(blocks) > len(survivors):
        shed_one("capacity")

    mapping: Mapping | None = None
    retained: list[int] = []
    while blocks:
        retained = sorted(blocks)
        sub_state = state.with_clusters(blocks[i] for i in retained)
        mapper = map_approach_a if approach == "a" else map_approach_b
        try:
            mapping = mapper(sub_state, survivors, resources)
            break
        except InfeasibleAllocationError as exc:
            shed_one(f"infeasible: {exc}")
            mapping = None
    if not blocks:
        retained = []

    assignment: dict[int, str] = {}
    hosted_members: dict[int, tuple[str, ...]] = {}
    if mapping is not None:
        for sub_index, hw_name in mapping.assignment.items():
            original = retained[sub_index]
            assignment[original] = hw_name
            hosted_members[original] = blocks[original]

    hosted_origins = {
        origin[member] for members in hosted_members.values() for member in members
    }
    uncovered = tuple(sorted(set(origin.values()) - hosted_origins))
    classes = process_classes(graph, bands) if uncovered else {}

    violations = _separation_violations(replica_of, hosted_members, assignment)
    if rec.enabled:
        rec.counter("degrade_plans_total").inc()
        if violations:
            rec.counter("degrade_separation_violations_total").inc(len(violations))

    return DegradationPlan(
        failed_nodes=tuple(sorted(set(failed_nodes))),
        hw=survivors,
        mapping=mapping,
        assignment=assignment,
        hosted_members=hosted_members,
        retained=tuple(retained),
        shed=tuple(sorted(shed)),
        shed_labels=tuple(state.clusters[i].label for i in sorted(shed)),
        shed_members=tuple(shed_members),
        uncovered=uncovered,
        uncovered_classes={name: classes[name] for name in uncovered},
        separation_ok=not violations,
        separation_violations=violations,
        notes=notes,
    )


def _pick_shed(
    graph, origin: dict[str, str], blocks: dict[int, tuple[str, ...]]
) -> int:
    """The next cluster to shed, least harmful first.

    Prefer clusters every member of which has a surviving replica in
    another retained cluster (shedding them drops no function); break
    ties — and fall back when no such cluster exists — by ascending
    maximum member criticality, then by member tuple for determinism.
    ``origin`` maps each member to its origin process.
    """

    def covered_elsewhere(index: int) -> bool:
        other_origins = {
            origin[member]
            for j, members in blocks.items()
            if j != index
            for member in members
        }
        return all(origin[member] in other_origins for member in blocks[index])

    def max_criticality(index: int) -> float:
        return max(
            graph.fcm(member).attributes.criticality
            for member in blocks[index]
        )

    return min(
        blocks,
        key=lambda i: (
            not covered_elsewhere(i),
            max_criticality(i),
            blocks[i],
        ),
    )


def _separation_violations(
    replica_of: dict[str, str | None],
    hosted_members: dict[int, tuple[str, ...]],
    assignment: dict[int, str],
) -> tuple[str, ...]:
    """Replica-separation violations of a (possibly partial) assignment;
    ``replica_of`` maps each member to its replica root (``None`` unless
    a replica)."""
    violations: list[str] = []
    nodes = list(assignment.values())
    if len(set(nodes)) != len(nodes):
        violations.append("two clusters assigned to one HW node")
    placed: dict[str, list[tuple[str, str]]] = {}
    for index, hw_name in assignment.items():
        for member in hosted_members[index]:
            root = replica_of[member]
            if root is not None:
                placed.setdefault(root, []).append((member, hw_name))
    for origin, located in sorted(placed.items()):
        hosts = [hw_name for _member, hw_name in located]
        if len(set(hosts)) != len(hosts):
            violations.append(
                f"replicas of {origin} co-located: "
                + ", ".join(f"{m}@{n}" for m, n in sorted(located))
            )
    return tuple(violations)
