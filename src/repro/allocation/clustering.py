"""Cluster state: the evolving partition of SW nodes during condensation.

"Since, invariably, the SW graph has a much greater number of nodes than
the HW graph, the SW graph must be condensed" (§5.4).  All condensation
heuristics (H1-H3, Approach B, timing packing) operate on a
:class:`ClusterState`: the immutable expanded influence graph plus a
mutable partition into clusters.  Cluster-to-cluster influence is the
Eq. (4) combination over member edges, with the replica override pinning
replica-related cluster pairs to 0 influence and non-combinable.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import AllocationError, InfluenceError
from repro.allocation import compiled
from repro.allocation.constraints import CombinationPolicy
from repro.graphs import matrix
from repro.influence.influence_graph import InfluenceGraph
from repro.model.attributes import AttributeSet, combine_all_grouped


@dataclass(frozen=True)
class Cluster:
    """One block of the partition: SW FCMs destined for one HW node."""

    members: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise AllocationError("cluster needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise AllocationError("cluster members must be unique")

    @property
    def label(self) -> str:
        """Compact display label, paper style: ``p1a,2a`` for (p1a, p2a)."""
        first, *rest = self.members
        shortened = [first]
        # Strip the longest common alphabetic prefix heuristic is overkill;
        # the paper just drops the leading 'p' on subsequent members.
        for member in rest:
            shortened.append(member.lstrip("p") if member.startswith("p") else member)
        return ",".join(shortened)

    def merged_with(self, other: "Cluster") -> "Cluster":
        return Cluster(self.members + other.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, name: str) -> bool:
        return name in self.members


class _Compiled:
    """The compiled form of one ``(graph, policy)`` pair, plus query caches.

    The :class:`~repro.graphs.matrix.CompiledInfluence` and the
    :class:`~repro.allocation.compiled.CompiledPolicy` are built on first
    use.  Every state derived through :meth:`ClusterState.copy` or
    :meth:`ClusterState.with_clusters` shares one instance; the caches
    key on member tuples, so sharing them across partitions is safe.
    """

    __slots__ = (
        "graph", "policy", "_influence", "_policy",
        "rows", "influence_values", "combinable", "attributes",
    )

    def __init__(self, graph: InfluenceGraph, policy: CombinationPolicy) -> None:
        self.graph = graph
        self.policy = policy
        self._influence = None
        self._policy = None
        self.rows: dict = {}
        self.influence_values: dict = {}
        self.combinable: dict = {}
        self.attributes: dict = {}

    # The compile functions are looked up on their defining modules at
    # call time, so wrappers installed there (tracing hooks) see every
    # compile.
    def influence(self) -> matrix.CompiledInfluence:
        if self._influence is None:
            from repro.faultsim import kernel

            compiled_graph = kernel.compile_graph(self.graph)
            self._influence = matrix.CompiledInfluence.from_weights(
                compiled_graph.names, compiled_graph.weights
            )
        return self._influence

    def compiled_policy(self) -> compiled.CompiledPolicy:
        if self._policy is None:
            self._policy = compiled.compile_policy(self.graph, self.policy)
        return self._policy


class ClusterState:
    """A partition of the expanded SW graph into clusters.

    Created with one singleton cluster per SW node; heuristics call
    :meth:`combine` repeatedly until the desired cluster count is reached.
    The original influence graph is never mutated; cluster-level
    influences are computed from it on demand (Eq. 4).

    Influence and policy queries answer from the compiled form of the
    graph and policy, built once on the first query and cached by member
    tuple; the graph must stay unmutated from then on.  Heuristics route
    policy queries through the ``policy_*`` methods (never
    ``state.policy`` directly) so they share those caches.
    """

    def __init__(
        self,
        graph: InfluenceGraph,
        policy: CombinationPolicy | None = None,
        clusters: list[Cluster] | None = None,
    ) -> None:
        self.graph = graph
        self.policy = policy if policy is not None else CombinationPolicy()
        self._compiled = _Compiled(graph, self.policy)
        if clusters is None:
            self.clusters: list[Cluster] = [
                Cluster((name,)) for name in graph.fcm_names()
            ]
        else:
            flat = [m for c in clusters for m in c.members]
            if len(flat) != len(set(flat)):
                raise AllocationError("clusters overlap")
            unknown = set(flat) - set(graph.fcm_names())
            if unknown:
                raise AllocationError(f"unknown FCMs in clusters: {sorted(unknown)}")
            self.clusters = list(clusters)

    def _rows(self, members: tuple[str, ...]) -> list[int]:
        cache = self._compiled.rows
        rows = cache.get(members)
        if rows is None:
            rows = self._compiled.influence().rows(members)
            cache[members] = rows
        return rows

    def _combinable(self, first: tuple[str, ...], second: tuple[str, ...]) -> bool:
        """Cached :func:`clusters_combinable` (replica-separation predicate)."""
        cache = self._compiled.combinable
        key = (first, second)
        cached = cache.get(key)
        if cached is None:
            if set(first) & set(second):
                raise InfluenceError("clusters overlap")
            graph = self.graph
            cached = not any(
                graph.is_replica_link(a, b) for a in first for b in second
            )
            cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.clusters)

    def cluster_of(self, member: str) -> int:
        for i, cluster in enumerate(self.clusters):
            if member in cluster:
                return i
        raise AllocationError(f"{member!r} not in any cluster")

    def influence(self, i: int, j: int) -> float:
        """Eq. (4) influence of cluster ``i`` on cluster ``j``, with the
        paper's replica override.

        0.0 when the clusters are replica-related ("if any of the
        component nodes had an influence of 0 on the neighbour, then the
        final value is also 0") or when no member edge exists.  This is
        the *decision* semantic heuristics merge by; for scoring real
        fault exposure use :meth:`raw_influence`.
        """
        self._check_index(i)
        self._check_index(j)
        if i == j:
            raise AllocationError("influence of a cluster on itself is undefined")
        a, b = self.clusters[i], self.clusters[j]
        if not self._combinable(a.members, b.members):
            return 0.0
        return self.raw_influence(i, j)

    def raw_influence(self, i: int, j: int) -> float:
        """Eq. (4) combination over member edges, *without* the replica
        override — the actual probability a fault in cluster ``i``
        reaches cluster ``j`` over direct edges."""
        self._check_index(i)
        self._check_index(j)
        if i == j:
            raise AllocationError("influence of a cluster on itself is undefined")
        a, b = self.clusters[i], self.clusters[j]
        key = (a.members, b.members)
        cache = self._compiled.influence_values
        value = cache.get(key)
        if value is None:
            value = self._compiled.influence().group_influence(
                self._rows(a.members), self._rows(b.members)
            )
            cache[key] = value
        return value

    def mutual_influence(self, i: int, j: int) -> float:
        """Sum of influences in each direction — H1's merge criterion."""
        return self.influence(i, j) + self.influence(j, i)

    def replica_related(self, i: int, j: int) -> bool:
        """Whether the clusters hold replicas of one module (never combinable)."""
        self._check_index(i)
        self._check_index(j)
        return not self._combinable(
            self.clusters[i].members, self.clusters[j].members
        )

    def can_combine(self, i: int, j: int) -> bool:
        """Replica constraint plus every policy constraint."""
        self._check_index(i)
        self._check_index(j)
        if i == j:
            return False
        return self.policy_can_combine(
            self.clusters[i].members,
            self.clusters[j].members,
        )

    # ------------------------------------------------------------------
    # Policy queries (answered by the compiled policy)
    # ------------------------------------------------------------------
    def policy_can_combine(self, first: Iterable[str], second: Iterable[str]) -> bool:
        return self._compiled.compiled_policy().can_combine(tuple(first), tuple(second))

    def policy_violations(self, first: Iterable[str], second: Iterable[str]) -> list[str]:
        return self._compiled.compiled_policy().violations(tuple(first), tuple(second))

    def policy_require_combinable(self, first: Iterable[str], second: Iterable[str]) -> None:
        self._compiled.compiled_policy().require_combinable(tuple(first), tuple(second))

    def policy_block_valid(self, members: Iterable[str]) -> bool:
        return self._compiled.compiled_policy().block_valid(tuple(members))

    def policy_block_violations(self, members: Iterable[str]) -> list[str]:
        return self._compiled.compiled_policy().block_violations(tuple(members))

    def attributes(self, i: int) -> AttributeSet:
        """Grouped (§4.3 envelope) combination of the member attributes.

        Clusters are *groupings* — members keep their own timing windows —
        so the timing summary is the occupancy envelope, not the
        most-stringent merge.
        """
        self._check_index(i)
        members = self.clusters[i].members
        cache = self._compiled.attributes
        cached = cache.get(members)
        if cached is None:
            cached = combine_all_grouped(
                [self.graph.fcm(name).attributes for name in members]
            )
            cache[members] = cached
        return cached

    def total_cross_influence(self) -> float:
        """Sum of all inter-cluster influences — the condensation target.

        "Group the nodes into sets such that the sum of weights between
        the sets is minimized."  Uses :meth:`raw_influence`: faults cross
        node boundaries along real edges regardless of replica pins, so
        the score must count them (the override applies to merge
        decisions, not to exposure accounting).
        """
        total = 0.0
        for i in range(len(self.clusters)):
            for j in range(len(self.clusters)):
                if i != j:
                    total += self.raw_influence(i, j)
        return total

    def labels(self) -> list[str]:
        return [cluster.label for cluster in self.clusters]

    def as_partition(self) -> list[list[str]]:
        return [list(cluster.members) for cluster in self.clusters]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def combine(self, i: int, j: int, enforce_policy: bool = True) -> int:
        """Merge clusters ``i`` and ``j``; returns the merged index.

        The merged cluster takes the lower index; later clusters shift
        down by one.  With ``enforce_policy`` (default) the combination
        must pass every hard constraint.
        """
        self._check_index(i)
        self._check_index(j)
        if i == j:
            raise AllocationError("cannot combine a cluster with itself")
        if enforce_policy:
            self.policy_require_combinable(
                self.clusters[i].members,
                self.clusters[j].members,
            )
        lo, hi = sorted((i, j))
        merged = self.clusters[lo].merged_with(self.clusters[hi])
        del self.clusters[hi]
        self.clusters[lo] = merged
        return lo

    def copy(self) -> "ClusterState":
        return self.with_clusters(cluster.members for cluster in self.clusters)

    def with_clusters(self, blocks: Iterable[Iterable[str]]) -> "ClusterState":
        """A state over the same graph and policy, partitioned into
        ``blocks``, sharing this state's compiled form and caches."""
        clone = type(self)(
            self.graph, self.policy, [Cluster(tuple(block)) for block in blocks]
        )
        clone._compiled = self._compiled
        return clone

    def _check_index(self, i: int) -> None:
        if not 0 <= i < len(self.clusters):
            raise AllocationError(f"cluster index {i} out of range")


def initial_state(
    graph: InfluenceGraph,
    policy: CombinationPolicy | None = None,
) -> ClusterState:
    """One singleton cluster per SW node (Fig. 4's starting point)."""
    return ClusterState(graph, policy)


def seeded_state(
    graph: InfluenceGraph,
    blocks: Iterable[Iterable[str]],
    policy: CombinationPolicy | None = None,
) -> ClusterState:
    """A state with a caller-chosen initial partition (used by tests and
    by the mapping stage when re-validating a given reduction)."""
    clusters = [Cluster(tuple(block)) for block in blocks]
    return ClusterState(graph, policy, clusters)
