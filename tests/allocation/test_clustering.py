"""ClusterState: Eq. (4) cluster influence, combination, constraints."""

import pytest

from repro.allocation import (
    Cluster,
    ClusterState,
    CombinationPolicy,
    condense_h1,
    expand_replication,
    initial_state,
    pack_by_timing,
    required_hw_nodes,
    seeded_state,
)
from repro.allocation import compiled
from repro.errors import AllocationError
from repro.faultsim import kernel
from repro.influence import InfluenceGraph
from repro.model import AttributeSet, FCM, Level, TimingConstraint
from repro.workloads import WorkloadSpec, paper_system, random_process_graph

from tests.conftest import make_process


def simple_graph() -> InfluenceGraph:
    g = InfluenceGraph()
    for name in ("a", "b", "c", "d"):
        g.add_fcm(make_process(name))
    g.set_influence("a", "b", 0.5)
    g.set_influence("b", "a", 0.3)
    g.set_influence("a", "c", 0.2)
    g.set_influence("b", "c", 0.7)
    return g


class TestCluster:
    def test_label_paper_style(self):
        c = Cluster(("p1a", "p2a"))
        assert c.label == "p1a,2a"

    def test_label_non_p_names(self):
        c = Cluster(("alpha", "beta"))
        assert c.label == "alpha,beta"

    def test_validation(self):
        with pytest.raises(AllocationError):
            Cluster(())
        with pytest.raises(AllocationError):
            Cluster(("a", "a"))

    def test_merge_and_contains(self):
        c = Cluster(("a",)).merged_with(Cluster(("b",)))
        assert "a" in c and "b" in c and len(c) == 2


class TestClusterState:
    def test_initial_singletons(self):
        state = initial_state(simple_graph())
        assert len(state) == 4
        assert all(len(c) == 1 for c in state.clusters)

    def test_seeded_state_validates(self):
        g = simple_graph()
        state = seeded_state(g, [["a", "b"], ["c"], ["d"]])
        assert len(state) == 3
        with pytest.raises(AllocationError):
            seeded_state(g, [["a"], ["a", "b"]])
        with pytest.raises(AllocationError):
            seeded_state(g, [["a", "zz"]])

    def test_cluster_of(self):
        state = seeded_state(simple_graph(), [["a", "b"], ["c"], ["d"]])
        assert state.cluster_of("b") == 0
        assert state.cluster_of("d") == 2
        with pytest.raises(AllocationError):
            state.cluster_of("zz")

    def test_cluster_influence_eq4(self):
        state = seeded_state(simple_graph(), [["a", "b"], ["c"], ["d"]])
        # {a,b} -> c combines 0.2 and 0.7.
        assert state.influence(0, 1) == pytest.approx(0.76)
        assert state.influence(1, 0) == 0.0

    def test_self_influence_undefined(self):
        state = initial_state(simple_graph())
        with pytest.raises(AllocationError):
            state.influence(0, 0)

    def test_mutual_influence(self):
        state = initial_state(simple_graph())
        i, j = state.cluster_of("a"), state.cluster_of("b")
        assert state.mutual_influence(i, j) == pytest.approx(0.8)

    def test_combine_merges_and_shifts(self):
        state = initial_state(simple_graph())
        merged = state.combine(state.cluster_of("a"), state.cluster_of("b"))
        assert len(state) == 3
        assert set(state.clusters[merged].members) == {"a", "b"}

    def test_combine_self_rejected(self):
        state = initial_state(simple_graph())
        with pytest.raises(AllocationError):
            state.combine(1, 1)

    def test_total_cross_influence_drops_on_merge(self):
        state = initial_state(simple_graph())
        before = state.total_cross_influence()
        state.combine(state.cluster_of("a"), state.cluster_of("b"))
        after = state.total_cross_influence()
        assert after < before

    def test_copy_independent(self):
        state = initial_state(simple_graph())
        clone = state.copy()
        clone.combine(0, 1)
        assert len(state) == 4 and len(clone) == 3

    def test_index_bounds(self):
        state = initial_state(simple_graph())
        with pytest.raises(AllocationError):
            state.influence(0, 99)


class TestWithClusters:
    def test_new_partition_same_graph_and_policy(self):
        state = initial_state(simple_graph())
        other = state.with_clusters([("a", "b"), ("c",), ("d",)])
        assert other.as_partition() == [["a", "b"], ["c"], ["d"]]
        assert state.as_partition() == [["a"], ["b"], ["c"], ["d"]]
        assert other.graph is state.graph and other.policy is state.policy
        assert other.influence(0, 1) == pytest.approx(1 - 0.8 * 0.3)

    def test_rejects_overlapping_blocks(self):
        state = initial_state(simple_graph())
        with pytest.raises(AllocationError, match="overlap"):
            state.with_clusters([("a",), ("a", "b")])

    def test_derived_states_share_one_compile(self, monkeypatch):
        counts = {"graph": 0, "policy": 0}
        compile_graph, compile_policy = kernel.compile_graph, compiled.compile_policy

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(kernel, "compile_graph", counted("graph", compile_graph))
        monkeypatch.setattr(compiled, "compile_policy", counted("policy", compile_policy))
        state = initial_state(simple_graph())
        assert counts == {"graph": 0, "policy": 0}  # built on first query
        derived = [state.copy(), state.with_clusters([("a", "c"), ("b", "d")])]
        for s in (*derived, state):
            s.influence(0, 1)
            s.can_combine(0, 1)
        assert counts == {"graph": 1, "policy": 1}


def replica_pairs_oracle(state: ClusterState) -> set[tuple[int, int]]:
    """Ordered cluster pairs holding replica partners, from the graph's
    partner index alone."""
    graph = state.graph
    out = set()
    for i, first in enumerate(state.clusters):
        partners = set()
        for name in first.members:
            partners |= graph.replica_partners(name)
        for j, second in enumerate(state.clusters):
            if i != j and partners & set(second.members):
                out.add((i, j))
    return out


def replica_related_pairs(state: ClusterState) -> set[tuple[int, int]]:
    n = len(state)
    return {
        (i, j) for i in range(n) for j in range(n)
        if i != j and state.replica_related(i, j)
    }


class TestReplicaRelatedAllPairs:
    def test_paper_example(self):
        graph = expand_replication(paper_system().influence_at(Level.PROCESS))
        state = initial_state(graph)
        assert len(state) * (len(state) - 1) == 132
        expected = replica_pairs_oracle(state)
        assert len(expected) == 10
        assert replica_related_pairs(state) == expected
        condensed = condense_h1(state, 6).state
        assert replica_related_pairs(condensed) == replica_pairs_oracle(condensed)

    def test_generated_ft_system(self):
        spec = WorkloadSpec(
            processes=30, edge_probability=0.2, replicated_fraction=0.4,
            utilization=0.1,
        )
        graph = expand_replication(random_process_graph(spec, seed=3))
        state = initial_state(graph)
        expected = replica_pairs_oracle(state)
        assert expected
        assert replica_related_pairs(state) == expected
        packed = pack_by_timing(state, required_hw_nodes(graph)).state
        assert len(packed) < len(graph)
        assert replica_related_pairs(packed) == replica_pairs_oracle(packed)


class TestReplicaConstraints:
    def make_state(self) -> ClusterState:
        g = InfluenceGraph()
        base = FCM("p", Level.PROCESS, AttributeSet(fault_tolerance=2))
        g.add_fcm(base.replicate("a"))
        g.add_fcm(base.replicate("b"))
        g.link_replicas("pa", "pb")
        g.add_fcm(make_process("q"))
        g.set_influence("pa", "q", 0.5)
        return initial_state(g)

    def test_replica_clusters_not_combinable(self):
        state = self.make_state()
        i, j = state.cluster_of("pa"), state.cluster_of("pb")
        assert not state.can_combine(i, j)
        assert state.replica_related(i, j)
        with pytest.raises(AllocationError, match="rejected"):
            state.combine(i, j)

    def test_replica_cluster_influence_zero(self):
        state = self.make_state()
        i, j = state.cluster_of("pa"), state.cluster_of("pb")
        assert state.influence(i, j) == 0.0

    def test_combination_with_ordinary_node_allowed(self):
        state = self.make_state()
        i, j = state.cluster_of("pa"), state.cluster_of("q")
        assert state.can_combine(i, j)
        state.combine(i, j)
        # The merged {pa, q} still cannot join pb.
        k = state.cluster_of("pb")
        assert not state.can_combine(state.cluster_of("pa"), k)


class TestSchedulingConstraint:
    def test_timing_conflict_blocks_combination(self):
        g = InfluenceGraph()
        g.add_fcm(
            FCM("x", Level.PROCESS, AttributeSet(timing=TimingConstraint(0, 3, 2)))
        )
        g.add_fcm(
            FCM("y", Level.PROCESS, AttributeSet(timing=TimingConstraint(1, 4, 3)))
        )
        state = initial_state(g)
        assert not state.can_combine(0, 1)

    def test_enforce_policy_false_bypasses(self):
        g = InfluenceGraph()
        g.add_fcm(
            FCM("x", Level.PROCESS, AttributeSet(timing=TimingConstraint(0, 3, 2)))
        )
        g.add_fcm(
            FCM("y", Level.PROCESS, AttributeSet(timing=TimingConstraint(1, 4, 3)))
        )
        state = initial_state(g)
        state.combine(0, 1, enforce_policy=False)
        assert len(state) == 1


class TestAttributes:
    def test_grouped_envelope(self):
        g = InfluenceGraph()
        g.add_fcm(
            FCM(
                "x",
                Level.PROCESS,
                AttributeSet(criticality=5, timing=TimingConstraint(0, 10, 3)),
            )
        )
        g.add_fcm(
            FCM(
                "y",
                Level.PROCESS,
                AttributeSet(criticality=9, timing=TimingConstraint(12, 18, 3)),
            )
        )
        state = seeded_state(g, [["x", "y"]])
        attrs = state.attributes(0)
        assert attrs.criticality == 9
        assert attrs.timing.earliest_start == 0
        assert attrs.timing.deadline == 18
        assert attrs.timing.computation_time == 6

    def test_labels_listing(self):
        state = seeded_state(simple_graph(), [["a", "b"], ["c"], ["d"]])
        assert state.labels() == ["a,b", "c", "d"]
        assert state.as_partition() == [["a", "b"], ["c"], ["d"]]
