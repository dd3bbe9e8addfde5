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

import numpy as np

from repro.errors import AllocationError, InfeasibleAllocationError
from repro.allocation.clustering import ClusterState
from repro.allocation.constraints import ResourceRequirements
from repro.allocation.hw_model import HWGraph
from repro.allocation.importance import rank_clusters
from repro.graphs.matrix import sequential_sum
from repro.model.attributes import (
    DEFAULT_IMPORTANCE_WEIGHTS,
    ImportanceWeights,
)
from repro.obs import current

#: Placement cost of an unlinked (or ``inf``-cost) node pair: massive but
#: finite, so a complete assignment is still found and flagged by the
#: goodness checks.
UNLINKED_PENALTY = 1e6


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
        """Influence-weighted link-cost sum over cluster pairs (dilation).

        Adds ``influence(i, j) * link_cost`` over the assigned ordered
        pairs with positive influence, in row-major order; a pair on
        unlinked HW nodes makes the cost ``inf``.
        """
        placed = [i for i in range(len(self.state.clusters)) if i in self.assignment]
        influence = self.state.partition_view().influence[np.ix_(placed, placed)]
        nodes = self.hw.positions([self.assignment[i] for i in placed])
        links = self.hw.cost_matrix()[1][np.ix_(nodes, nodes)]
        linked = influence > 0.0
        return sequential_sum(influence[linked] * links[linked])

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
    placement = _Placement(Mapping(state=state, hw=hw))
    free = list(hw.names())
    rec = current()

    for index in rank_clusters(state, weights):
        needed = reqs.required_by(state.clusters[index].members)
        candidates = [name for name in free if needed <= hw.node(name).resources]
        if not candidates:
            raise InfeasibleAllocationError(
                "no free HW node satisfies resources "
                f"{sorted(needed)!r} for cluster "
                f"{state.clusters[index].label!r}"
            )
        costs = placement.costs(index, candidates)
        best = _cheapest(costs, candidates, hw, needed)
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
        placement.place(index, chosen)
        free.remove(chosen)
    return placement.mapping


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
    placement = _Placement(Mapping(state=state, hw=hw))
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
        needed = reqs.required_by(state.clusters[index].members)
        candidates = [name for name in free if needed <= hw.node(name).resources]
        if not candidates:
            raise InfeasibleAllocationError(
                "no free HW node satisfies resources for cluster "
                f"{state.clusters[index].label!r}"
            )
        fresh_fcr = [n for n in candidates if hw.fcr_of(n) not in used_fcrs]
        pool = fresh_fcr or candidates
        costs = placement.costs(index, pool)
        chosen = pool[_cheapest(costs, pool, hw, needed)]
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
        placement.place(index, chosen)
        used_fcrs.add(hw.fcr_of(chosen))
        free.remove(chosen)
    return placement.mapping


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


class _Placement:
    """A mapping under construction, with every cluster's running
    dilation cost on every HW node.

    Placing cluster ``o`` on node ``h`` adds ``mutual(i, o) * link(h, c)``
    to the cost of cluster ``i`` on node ``c``, for all ``i`` and ``c``
    at once: one cost column per placed neighbour, added in assignment
    insertion order, which is the float addition sequence of scoring
    each candidate alone.  ``mutual`` is the partition view's influence
    plus its transpose; unlinked node pairs cost
    :data:`UNLINKED_PENALTY`.  A neighbour with zero mutual influence
    adds exact zeros, which change no total.
    """

    def __init__(self, mapping: Mapping) -> None:
        self.mapping = mapping
        influence = mapping.state.partition_view().influence
        self.mutual = influence + influence.T
        self.position, costs = mapping.hw.cost_matrix()
        self.links = np.where(costs == np.inf, UNLINKED_PENALTY, costs)
        self.totals = np.zeros((len(influence), len(costs)))

    def costs(self, index: int, candidates: list[str]) -> list[float]:
        """Dilation cost of placing ``index`` on each candidate HW node."""
        position = self.position
        return self.totals[index, [position[name] for name in candidates]].tolist()

    def place(self, index: int, name: str) -> None:
        self.mapping.assignment[index] = name
        self.totals += np.outer(self.mutual[:, index], self.links[self.position[name]])


def _cheapest(
    costs: list[float], candidates: list[str], hw: HWGraph, needed: frozenset[str]
) -> int:
    """Index of the lowest-cost candidate.  Ties keep special nodes free
    (fewest resources the cluster does not need), then go by name."""
    low = min(costs)
    return min(
        (k for k, cost in enumerate(costs) if cost == low),
        key=lambda k: (len(hw.node(candidates[k]).resources - needed), candidates[k]),
    )


def _check_capacity(state: ClusterState, hw: HWGraph) -> None:
    if len(state.clusters) > len(hw):
        raise InfeasibleAllocationError(
            f"{len(state.clusters)} clusters exceed {len(hw)} HW nodes; "
            "condense the SW graph further"
        )
