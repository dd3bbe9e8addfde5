"""Dict-loop reference for :class:`~repro.allocation.clustering.ClusterState`.

``ClusterState`` answers every influence and policy query from the
compiled form of its graph and policy.  This subclass answers the same
queries the way the paper states them, by walking the dict graph pair
by pair: Eq. (4) through ``combine_probabilities``, replica separation
through ``clusters_combinable``, and every policy question through the
policy's own methods, uncached.  The heuristics accept either state, so
running them on both must give bit-identical partitions, mappings,
reason strings and errors.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.allocation.clustering import ClusterState
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
