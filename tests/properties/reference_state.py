"""Dict-loop reference for :class:`~repro.allocation.clustering.ClusterState`.

``ClusterState`` answers every influence and policy query from the
compiled form of its graph and policy.  This subclass answers the same
queries the way the paper states them, by walking the dict graph pair
by pair: Eq. (4) through ``combine_probabilities``, replica separation
through ``clusters_combinable``, and every policy question through the
policy's own methods, uncached: a violation count is the length of the
policy's reason list, and a growing block asks ``policy.can_combine``
on its members at every probe.  Its partition view is filled pair by
pair from those answers.  The heuristics accept either state, so
running them on both must give bit-identical partitions, mappings,
reason strings and errors.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import partial

import numpy as np

from repro.allocation.clustering import ClusterState, PartitionView
from repro.allocation.compiled import Block
from repro.errors import AllocationError
from repro.influence.cluster import clusters_combinable
from repro.influence.probability import combine_probabilities
from repro.model.attributes import AttributeSet, combine_all_grouped


class ReferenceClusterState(ClusterState):
    """A cluster state whose queries walk the dict graph, uncached."""

    def _combinable(self, first: tuple[str, ...], second: tuple[str, ...]) -> bool:
        return clusters_combinable(self.graph, first, second)

    def raw_influence(self, i: int, j: int) -> float:
        self._check_index(i)
        self._check_index(j)
        if i == j:
            raise AllocationError("influence of a cluster on itself is undefined")
        a, b = self.clusters[i], self.clusters[j]
        return combine_probabilities(
            self.graph.influence(src, dst)
            for src in a.members
            for dst in b.members
        )

    def partition_view(self) -> PartitionView:
        n = len(self.clusters)
        raw = np.zeros((n, n))
        conflict = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(n):
                if i != j:
                    raw[i, j] = self.raw_influence(i, j)
                    conflict[i, j] = self.replica_related(i, j)
        clusters = tuple(cluster.members for cluster in self.clusters)
        return PartitionView.from_matrices(clusters, raw, conflict)

    def attributes(self, i: int) -> AttributeSet:
        self._check_index(i)
        return combine_all_grouped(
            [self.graph.fcm(name).attributes for name in self.clusters[i].members]
        )

    def policy_can_combine(self, first: Iterable[str], second: Iterable[str]) -> bool:
        return self.policy.can_combine(self.graph, first, second)

    def policy_violations(self, first: Iterable[str], second: Iterable[str]) -> list[str]:
        return self.policy.violations(self.graph, first, second)

    def policy_require_combinable(self, first: Iterable[str], second: Iterable[str]) -> None:
        self.policy.require_combinable(self.graph, first, second)

    def policy_block_valid(self, members: Iterable[str]) -> bool:
        return self.policy.block_valid(self.graph, members)

    def policy_block_violations(self, members: Iterable[str]) -> list[str]:
        return self.policy.block_violations(self.graph, members)

    def policy_block_violation_count(self, members: Iterable[str]) -> int:
        return len(self.policy.block_violations(self.graph, members))

    def policy_block(self, members: Iterable[str] = ()) -> Block:
        return Block(partial(self.policy.can_combine, self.graph), members)


# ----------------------------------------------------------------------
# Mapping and scoring, one cluster pair and one HW link at a time
# ----------------------------------------------------------------------
def reference_map(state, hw, approach, resources=None):
    """Approach A or B placed one candidate at a time from per-pair
    ``state.influence`` and ``hw.link_cost`` queries.

    Returns the assignment dict (in placement order); raises what the
    library mappers raise.
    """
    from repro.allocation.constraints import ResourceRequirements
    from repro.allocation.importance import rank_clusters
    from repro.allocation.mapping import _check_capacity
    from repro.errors import InfeasibleAllocationError

    _check_capacity(state, hw)
    reqs = resources or ResourceRequirements()
    assignment: dict[int, str] = {}
    free = list(hw.names())

    def choose(index, pool, needed):
        return min(
            pool,
            key=lambda name: (
                reference_placement_cost(state, hw, assignment, index, name),
                len(hw.node(name).resources - needed),
                name,
            ),
        )

    if approach == "a":
        order = rank_clusters(state)
    else:
        def lexicographic_key(index):
            attrs = state.attributes(index)
            urgency = 0.0
            if attrs.timing is not None:
                urgency = 1.0 / (1.0 + attrs.timing.laxity)
            return (-attrs.criticality, -urgency, -attrs.throughput,
                    state.clusters[index].members)

        order = sorted(range(len(state.clusters)), key=lexicographic_key)
    used_fcrs: set[str] = set()
    for index in order:
        members = state.clusters[index].members
        candidates = [
            name for name in free
            if reqs.satisfied_on(members, hw.node(name).resources)
        ]
        if not candidates:
            if approach == "a":
                raise InfeasibleAllocationError(
                    "no free HW node satisfies resources "
                    f"{sorted(reqs.required_by(members))!r} for cluster "
                    f"{state.clusters[index].label!r}"
                )
            raise InfeasibleAllocationError(
                "no free HW node satisfies resources for cluster "
                f"{state.clusters[index].label!r}"
            )
        needed = reqs.required_by(members)
        if approach == "a":
            chosen = choose(index, candidates, needed)
        else:
            fresh = [n for n in candidates if hw.fcr_of(n) not in used_fcrs]
            chosen = choose(index, fresh or candidates, needed)
            used_fcrs.add(hw.fcr_of(chosen))
        assignment[index] = chosen
        free.remove(chosen)
    return assignment


def reference_placement_cost(state, hw, assignment, index, name):
    """Dilation cost of placing cluster ``index`` on HW node ``name``,
    over the placed neighbours in assignment order; an unlinked pair
    costs 1e6."""
    total = 0.0
    for other, node in assignment.items():
        influence = state.influence(index, other) + state.influence(other, index)
        if influence <= 0.0:
            continue
        cost = hw.link_cost(name, node)
        if cost == float("inf"):
            cost = 1e6
        total += influence * cost
    return total


def reference_communication_cost(state, hw, assignment):
    """Influence-weighted link cost summed pair by pair, row-major."""
    total = 0.0
    n = len(state.clusters)
    for i in range(n):
        for j in range(n):
            if i == j or i not in assignment or j not in assignment:
                continue
            influence = state.influence(i, j)
            if influence > 0.0:
                total += influence * hw.link_cost(assignment[i], assignment[j])
    return total


def reference_cross_influence(state):
    """Sum of raw inter-cluster influences, pair by pair, row-major."""
    total = 0.0
    n = len(state.clusters)
    for i in range(n):
        for j in range(n):
            if i != j:
                total += state.raw_influence(i, j)
    return total
