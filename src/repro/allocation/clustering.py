"""Cluster state: the evolving partition of SW nodes during condensation.

"Since, invariably, the SW graph has a much greater number of nodes than
the HW graph, the SW graph must be condensed" (§5.4).  All condensation
heuristics (H1-H3, Approach B, timing packing) operate on a
:class:`ClusterState`: the immutable expanded influence graph plus a
mutable partition into clusters.  Cluster-to-cluster influence is the
Eq. (4) combination over member edges, with the replica override pinning
replica-related cluster pairs to 0 influence and non-combinable.

Condensation asks the policy about one cluster pair at a time as it
merges, and first-fit loops grow blocks through
:meth:`ClusterState.policy_block`; mapping and scoring read a
:class:`PartitionView`, every pair of the final partition at once, and
H1 starts its pair scores from one.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class PartitionView:
    """Cluster-by-cluster matrices of one partition.

    For ``i != j``, ``raw[i, j]`` is :meth:`ClusterState.raw_influence`,
    ``conflict[i, j]`` is :meth:`ClusterState.replica_related` and
    ``influence[i, j]`` is :meth:`ClusterState.influence`: ``raw`` with
    replica-related pairs pinned to 0.  The diagonals are 0 and False.
    ``clusters`` holds the member tuples the rows and columns follow.
    Views are cached and shared, so their arrays are read-only.
    """

    clusters: tuple[tuple[str, ...], ...]
    raw: np.ndarray
    conflict: np.ndarray
    influence: np.ndarray

    def __post_init__(self) -> None:
        for matrix in (self.raw, self.conflict, self.influence):
            matrix.flags.writeable = False

    @classmethod
    def from_matrices(
        cls,
        clusters: tuple[tuple[str, ...], ...],
        raw: np.ndarray,
        conflict: np.ndarray,
    ) -> "PartitionView":
        return cls(clusters, raw, conflict, np.where(conflict, 0.0, raw))

    def take(self, positions: list[int]) -> "PartitionView":
        """The view of the partition made of the clusters at ``positions``."""
        block = np.ix_(positions, positions)
        return PartitionView(
            tuple(self.clusters[p] for p in positions),
            self.raw[block],
            self.conflict[block],
            self.influence[block],
        )


class _Compiled:
    """The compiled form of one ``(graph, policy)`` pair, plus query caches.

    The :class:`~repro.graphs.matrix.CompiledInfluence`, the
    :class:`~repro.allocation.compiled.CompiledPolicy` and the
    :class:`~repro.allocation.compiled.ReplicaPartners` are built on
    first use.  Every state derived through :meth:`ClusterState.copy` or
    :meth:`ClusterState.with_clusters` shares one instance; the caches
    key on member tuples, so sharing them across partitions is safe.
    The last partition view built is kept too: a partition made only of
    its clusters (a degraded mapping's survivors) takes a sub-view of it.
    """

    __slots__ = (
        "graph", "policy", "_influence", "_policy", "_replicas",
        "_rows", "influence_values", "combinable", "attributes",
        "_view", "_view_position",
    )

    def __init__(self, graph: InfluenceGraph, policy: CombinationPolicy) -> None:
        self.graph = graph
        self.policy = policy
        self._influence = None
        self._policy = None
        self._replicas = None
        self._rows: dict = {}
        self.influence_values: dict = {}
        self.combinable: dict = {}
        self.attributes: dict = {}
        self._view: PartitionView | None = None
        self._view_position: dict = {}

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

    def replicas(self) -> compiled.ReplicaPartners:
        if self._replicas is None:
            self._replicas = compiled.ReplicaPartners(self.graph)
        return self._replicas

    def rows(self, members: tuple[str, ...]) -> list[int]:
        rows = self._rows.get(members)
        if rows is None:
            rows = self._rows[members] = self.influence().rows(members)
        return rows

    def view(self, clusters: tuple[tuple[str, ...], ...]) -> PartitionView:
        """The partition view of ``clusters``, built or taken from the last one."""
        if self._view is not None:
            position = self._view_position
            if all(members in position for members in clusters):
                return self._view.take([position[members] for members in clusters])
        raw = self.influence().partition_influence(
            [self.rows(members) for members in clusters]
        )
        view = PartitionView.from_matrices(clusters, raw, self.conflicts(clusters))
        self._view = view
        self._view_position = {members: i for i, members in enumerate(clusters)}
        return view

    def conflicts(self, clusters: tuple[tuple[str, ...], ...]) -> np.ndarray:
        """``out[i, j]``: some member of cluster ``j`` is a replica
        partner of a member of cluster ``i`` (symmetric; diagonal False)."""
        n = len(clusters)
        out = np.zeros((n, n), dtype=bool)
        replicas = self.replicas()
        cluster_of: dict[str, int] = {}
        for i, members in enumerate(clusters):
            partners = replicas.of(members)
            if not partners:
                continue
            if not cluster_of:
                cluster_of = {m: k for k, block in enumerate(clusters) for m in block}
            for partner in partners:
                j = cluster_of.get(partner)
                if j is not None and j != i:
                    out[i, j] = True
        return out


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
        self._view: PartitionView | None = None
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

    def _combinable(self, first: tuple[str, ...], second: tuple[str, ...]) -> bool:
        """Cached :func:`clusters_combinable` (replica-separation predicate)."""
        cache = self._compiled.combinable
        key = (first, second)
        cached = cache.get(key)
        if cached is None:
            if set(first) & set(second):
                raise InfluenceError("clusters overlap")
            cached = self._compiled.replicas().of(first).isdisjoint(second)
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
            rows = self._compiled.rows
            value = self._compiled.influence().group_influence(
                rows(a.members), rows(b.members)
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

    def policy_block_violation_count(self, members: Iterable[str]) -> int:
        """``len(policy_block_violations(members))``, without the reasons."""
        return self._compiled.compiled_policy().block_violation_count(tuple(members))

    def policy_fully_compiled(self) -> bool:
        """Whether every policy verdict comes from compiled facts, so no
        constraint's own ``check`` runs (:attr:`CompiledPolicy.fully_compiled`)."""
        return self._compiled.compiled_policy().fully_compiled

    def policy_block(self, members: Iterable[str] = ()) -> compiled.Block:
        """A block holding ``members`` that first-fit loops grow one
        member at a time: ``accepts(name)`` answers
        ``policy_can_combine(block.members, [name])``."""
        return self._compiled.compiled_policy().block(members)

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

    def compiled_influence(self) -> matrix.CompiledInfluence:
        """The compiled graph every Eq. (4) answer folds from."""
        return self._compiled.influence()

    def partition_view(self) -> PartitionView:
        """Every cluster pair's influence and replica relation at once.

        Built on first call for the current partition and kept until the
        clusters change.  Mapping and scoring read it; H1 starts its pair
        table from it, and condensation, whose partition changes with
        every merge, keeps that table (``heuristics.base.PairTable``).
        """
        clusters = tuple(cluster.members for cluster in self.clusters)
        view = self._view
        if view is None or view.clusters != clusters:
            view = self._view = self._compiled.view(clusters)
        return view

    def total_cross_influence(self) -> float:
        """Sum of all inter-cluster influences — the condensation target.

        "Group the nodes into sets such that the sum of weights between
        the sets is minimized."  Uses :meth:`raw_influence`: faults cross
        node boundaries along real edges regardless of replica pins, so
        the score must count them (the override applies to merge
        decisions, not to exposure accounting).  The terms are added in
        row-major order, one after another.
        """
        raw = self.partition_view().raw
        return matrix.sequential_sum(raw[~np.eye(len(raw), dtype=bool)])

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
