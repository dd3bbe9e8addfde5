"""SW-cluster to HW-node mapping (§5.3-5.4, §6).

Once the SW graph is condensed to at most the HW node count, each cluster
is assigned its own processor.  "If HW nodes have identical
characteristics, the actual mapping ... is straightforward, unless
communication costs between SW modules (or between SW modules and
external resources) need to be considered."  Two satisficing heuristics
(§5.4):

* Approach A — *importance of tasks*: place clusters in decreasing
  importance, each on the node satisfying its resource requirements with
  the lowest influence-weighted communication cost to already-placed
  neighbours (dilation minimisation);
* Approach B — *importance of attributes*: proceed lexicographically over
  attributes (criticality first): the most critical clusters take nodes
  in distinct FCRs, ties broken by the next attribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AllocationError, InfeasibleAllocationError
from repro.allocation.clustering import ClusterState
from repro.allocation.constraints import ResourceRequirements
from repro.allocation.hw_model import HWGraph
from repro.allocation.importance import rank_clusters
from repro.model.attributes import (
    DEFAULT_IMPORTANCE_WEIGHTS,
    ImportanceWeights,
)
from repro.obs import current


@dataclass
class Mapping:
    """A complete assignment of clusters to HW nodes (1:1)."""

    state: ClusterState
    hw: HWGraph
    assignment: dict[int, str] = field(default_factory=dict)

    def node_of(self, cluster_index: int) -> str:
        try:
            return self.assignment[cluster_index]
        except KeyError:
            raise AllocationError(
                f"cluster {cluster_index} not assigned"
            ) from None

    def cluster_on(self, hw_name: str) -> int | None:
        for index, node in self.assignment.items():
            if node == hw_name:
                return index
        return None

    def is_complete(self) -> bool:
        return len(self.assignment) == len(self.state.clusters)

    def communication_cost(self) -> float:
        """Influence-weighted link-cost sum over cluster pairs (dilation)."""
        total = 0.0
        n = len(self.state.clusters)
        for i in range(n):
            for j in range(n):
                if i == j or i not in self.assignment or j not in self.assignment:
                    continue
                influence = self.state.influence(i, j)
                if influence <= 0.0:
                    continue
                total += influence * self.hw.link_cost(
                    self.assignment[i], self.assignment[j]
                )
        return total

    def describe(self) -> list[tuple[str, str]]:
        """(HW node, cluster label) pairs, in HW order."""
        out = []
        for hw_name in self.hw.names():
            index = self.cluster_on(hw_name)
            label = self.state.clusters[index].label if index is not None else "-"
            out.append((hw_name, label))
        return out


def map_approach_a(
    state: ClusterState,
    hw: HWGraph,
    resources: ResourceRequirements | None = None,
    weights: ImportanceWeights = DEFAULT_IMPORTANCE_WEIGHTS,
) -> Mapping:
    """Approach A: "Evaluate importance of each SW node based on its
    attributes.  Map 'most important' SW node onto a HW node such that all
    its resource requirements are satisfied."
    """
    _check_capacity(state, hw)
    reqs = resources or ResourceRequirements()
    mapping = Mapping(state=state, hw=hw)
    free = list(hw.names())
    rec = current()

    for index in rank_clusters(state, weights):
        members = state.clusters[index].members
        candidates = [
            name for name in free
            if reqs.satisfied_on(members, hw.node(name).resources)
        ]
        if not candidates:
            raise InfeasibleAllocationError(
                "no free HW node satisfies resources "
                f"{sorted(reqs.required_by(members))!r} for cluster "
                f"{state.clusters[index].label!r}"
            )
        needed = reqs.required_by(members)
        costs = _placement_costs(mapping, index, candidates)
        best = min(
            range(len(candidates)),
            key=lambda k: (
                costs[k],
                # keep special nodes free
                len(hw.node(candidates[k]).resources - needed),
                candidates[k],
            ),
        )
        chosen = candidates[best]
        if rec.enabled:
            rec.decision(
                "map",
                "place",
                subject=state.clusters[index].label,
                reason=f"min dilation cost {costs[best]:.4f} among "
                f"{len(candidates)} candidate nodes",
                node=chosen,
                approach="a",
            )
        mapping.assignment[index] = chosen
        free.remove(chosen)
    return mapping


def map_approach_b(
    state: ClusterState,
    hw: HWGraph,
    resources: ResourceRequirements | None = None,
) -> Mapping:
    """Approach B: lexicographic over attributes, criticality first.

    "All SW nodes are mapped onto HW nodes based on their criticality.
    Once all FCMs have been assigned by the most important attribute, the
    next most important attribute is considered (breaking ties ...)."
    Clusters sort by (criticality, timing urgency, throughput) and the
    most critical clusters take nodes in distinct FCRs first.
    """
    _check_capacity(state, hw)
    reqs = resources or ResourceRequirements()
    mapping = Mapping(state=state, hw=hw)
    free = list(hw.names())
    rec = current()

    def lexicographic_key(index: int):
        attrs = state.attributes(index)
        urgency = 0.0
        if attrs.timing is not None:
            urgency = 1.0 / (1.0 + attrs.timing.laxity)
        return (
            -attrs.criticality,
            -urgency,
            -attrs.throughput,
            state.clusters[index].members,
        )

    used_fcrs: set[str] = set()
    for index in sorted(range(len(state.clusters)), key=lexicographic_key):
        members = state.clusters[index].members
        candidates = [
            name for name in free
            if reqs.satisfied_on(members, hw.node(name).resources)
        ]
        if not candidates:
            raise InfeasibleAllocationError(
                "no free HW node satisfies resources for cluster "
                f"{state.clusters[index].label!r}"
            )
        fresh_fcr = [n for n in candidates if hw.fcr_of(n) not in used_fcrs]
        pool = fresh_fcr or candidates
        needed = reqs.required_by(members)
        costs = _placement_costs(mapping, index, pool)
        chosen = pool[
            min(
                range(len(pool)),
                key=lambda k: (
                    costs[k],
                    len(hw.node(pool[k]).resources - needed),
                    pool[k],
                ),
            )
        ]
        if rec.enabled:
            rec.decision(
                "map",
                "place",
                subject=state.clusters[index].label,
                reason="fresh FCR preferred"
                if fresh_fcr
                else "no unused FCR left; fell back to lowest dilation",
                node=chosen,
                fcr=hw.fcr_of(chosen),
                approach="b",
            )
        mapping.assignment[index] = chosen
        used_fcrs.add(hw.fcr_of(chosen))
        free.remove(chosen)
    return mapping


def improve_mapping(
    mapping: Mapping,
    resources: ResourceRequirements | None = None,
    max_rounds: int = 10,
) -> int:
    """Greedy pairwise-swap improvement of the assignment ("perturbing
    others", §5.4 Approach B).

    Repeatedly swaps the HW nodes of two clusters whenever the swap
    reduces the total communication cost and both clusters' resource
    requirements stay satisfied.  Returns the number of swaps applied.
    On complete homogeneous HW graphs the cost is permutation-invariant
    and no swap helps; the pass matters on ring/irregular topologies.
    """
    reqs = resources or ResourceRequirements()
    hw = mapping.hw
    swaps = 0
    indices = list(mapping.assignment)
    for _ in range(max_rounds):
        improved = False
        current_cost = mapping.communication_cost()
        for a in indices:
            for b in indices:
                if a >= b:
                    continue
                node_a, node_b = mapping.assignment[a], mapping.assignment[b]
                members_a = mapping.state.clusters[a].members
                members_b = mapping.state.clusters[b].members
                if not reqs.satisfied_on(members_a, hw.node(node_b).resources):
                    continue
                if not reqs.satisfied_on(members_b, hw.node(node_a).resources):
                    continue
                mapping.assignment[a], mapping.assignment[b] = node_b, node_a
                new_cost = mapping.communication_cost()
                if new_cost < current_cost - 1e-12:
                    current_cost = new_cost
                    swaps += 1
                    improved = True
                else:
                    mapping.assignment[a], mapping.assignment[b] = node_a, node_b
        if not improved:
            break
    return swaps


def _placement_costs(
    mapping: Mapping,
    index: int,
    candidates: list[str],
) -> list[float]:
    """Dilation cost of placing ``index`` on each candidate HW node.

    One sweep over the placed clusters computes every candidate's cost:
    the (expensive) cluster-pair influence is evaluated once per placed
    neighbour instead of once per (neighbour, candidate), and each
    candidate's total still accumulates contributions in assignment
    insertion order — the exact float addition sequence of the one-
    candidate-at-a-time scoring it replaces.
    """
    state = mapping.state
    hw = mapping.hw
    inf = float("inf")
    totals = [0.0] * len(candidates)
    for other, node in mapping.assignment.items():
        influence = state.influence(index, other) + state.influence(other, index)
        if influence <= 0.0:
            continue
        for k, name in enumerate(candidates):
            cost = hw.link_cost(name, node)
            if cost == inf:
                # Unconnected nodes: massive but finite penalty so a
                # complete assignment is still found and flagged by
                # goodness checks.
                cost = 1e6
            totals[k] += influence * cost
    return totals


def _check_capacity(state: ClusterState, hw: HWGraph) -> None:
    if len(state.clusters) > len(hw):
        raise InfeasibleAllocationError(
            f"{len(state.clusters)} clusters exceed {len(hw)} HW nodes; "
            "condense the SW graph further"
        )
