"""Property-based parity of the compiled allocation queries.

``ClusterState`` compiles the influence graph and combination policy to
array/cached form; its contract is *bit-for-bit* equality with the
dict-loop reference in :mod:`tests.properties.reference_state` —
identical condense partitions, identical Approach A/B mappings
(including tie-break order), identical scores, reason strings and
errors.  These tests drive both over random workloads (sizes 2-300,
disconnected to near-clique) and over the policies with no compiled
fast path, and assert equality, not closeness.  Mapping and scoring
read the partition view, so they are also checked on irregular HW
against a mapper that queries one cluster pair and one HW link at a
time, and the view itself against per-pair queries.
"""

import random
import struct
from dataclasses import dataclass

import numpy as np
import pytest

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.allocation import expand_replication, required_hw_nodes
from repro.allocation.clustering import Cluster, ClusterState
from repro.allocation.constraints import CombinationPolicy, ResourceRequirements
from repro.allocation.goodness import evaluate_mapping
from repro.allocation.heuristics import (
    condense_criticality,
    condense_h1,
    condense_h2,
    condense_h3,
    condense_timing,
    pack_by_timing,
)
from repro.allocation.hw_model import HWGraph, HWNode, fully_connected
from repro.allocation.mapping import Mapping, _Placement, map_approach_a, map_approach_b
from repro.errors import DDSIError
from repro.faultsim.kernel import compile_graph
from repro.graphs.matrix import CompiledInfluence
from repro.model.fcm import Level
from repro.workloads import (
    WorkloadSpec,
    automotive_hw,
    automotive_policy,
    automotive_resources,
    automotive_system,
    paper_system,
    random_process_graph,
)

from tests.properties.reference_state import (
    ReferenceClusterState,
    reference_communication_cost,
    reference_cross_influence,
    reference_map,
    reference_placement_cost,
)

HEURISTICS = {
    "h1": condense_h1,
    "h3": condense_h3,
    "timing": condense_timing,
    "timing-pack": pack_by_timing,
}


def paired_states(graph, policy=None):
    """Two independent states over ``graph``: (reference, compiled)."""
    expanded = expand_replication(graph)
    return (
        ReferenceClusterState(expanded, policy),
        ClusterState(expanded, policy),
    )


def run_both(condense, ref_state, compiled_state, target):
    """Run one heuristic on the reference and the compiled state.

    Either both raise (the same error type and message) or both produce
    the same partition, in the same cluster order.
    """
    try:
        ref_result = condense(ref_state, target)
    except DDSIError as exc:
        with pytest.raises(type(exc)) as raised:
            condense(compiled_state, target)
        assert str(raised.value) == str(exc)
        return None, None
    compiled_result = condense(compiled_state, target)
    ref_clusters = [c.members for c in ref_result.state.clusters]
    compiled_clusters = [c.members for c in compiled_result.state.clusters]
    assert ref_clusters == compiled_clusters
    return ref_result.state, compiled_result.state


@st.composite
def workloads(draw):
    processes = draw(st.integers(min_value=2, max_value=24))
    # 0.0 = fully disconnected, ~0.95 = near-clique.
    edge_p = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.95]))
    replicated = draw(st.floats(min_value=0.0, max_value=0.4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    spec = WorkloadSpec(
        processes=processes,
        edge_probability=edge_p,
        replicated_fraction=replicated,
        utilization=0.15,
    )
    return random_process_graph(spec, seed=seed)


class TestSelfInfluence:
    def test_self_influence_rejected_before_either_engine(self):
        # The graph layer rejects self-loops outright ("an FCM has no
        # defined influence on itself"), so neither state can ever see
        # a diagonal weight — the compiled complements matrix keeps an
        # all-ones diagonal by construction.
        from repro.errors import GraphError

        graph = random_process_graph(WorkloadSpec(processes=3), seed=0)
        with pytest.raises(GraphError, match="self-loop"):
            graph.set_influence("p1", "p1", 0.5)
        compiled = compile_graph(expand_replication(graph))
        influence = CompiledInfluence.from_weights(compiled.names, compiled.weights)
        assert np.all(np.diagonal(influence.weights) == 0.0)


class TestCondenseParity:
    @given(workloads(), st.sampled_from(sorted(HEURISTICS)))
    @settings(max_examples=40, deadline=None)
    def test_partitions_identical(self, graph, heuristic):
        ref_state, compiled_state = paired_states(graph)
        target = max(
            required_hw_nodes(ref_state.graph),
            len(ref_state.graph) // 2,
            1,
        )
        run_both(HEURISTICS[heuristic], ref_state, compiled_state, target)

    @given(workloads())
    @settings(max_examples=20, deadline=None)
    def test_influence_queries_bit_identical(self, graph):
        ref_state, compiled_state = paired_states(graph)
        n = len(ref_state.clusters)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                assert ref_state.influence(i, j) == compiled_state.influence(i, j)
                assert ref_state.raw_influence(i, j) == compiled_state.raw_influence(i, j)

    @given(workloads())
    @settings(max_examples=20, deadline=None)
    def test_policy_answers_identical(self, graph):
        ref_state, compiled_state = paired_states(graph)
        clusters = [c.members for c in ref_state.clusters]
        for first in clusters[:8]:
            for second in clusters[:8]:
                if first == second:
                    continue
                assert ref_state.policy_can_combine(
                    first, second
                ) == compiled_state.policy_can_combine(first, second)
                assert ref_state.policy_violations(
                    first, second
                ) == compiled_state.policy_violations(first, second)


class TestMappingParity:
    @given(workloads(), st.sampled_from(["a", "b"]))
    @settings(max_examples=30, deadline=None)
    def test_assignments_identical_including_order(self, graph, approach):
        ref_state, compiled_state = paired_states(graph)
        target = max(
            required_hw_nodes(ref_state.graph),
            len(ref_state.graph) // 2,
            1,
        )
        ref_state, compiled_state = run_both(
            condense_h1, ref_state, compiled_state, target
        )
        if ref_state is None:
            return
        hw = fully_connected(len(ref_state.clusters))
        mapper = map_approach_a if approach == "a" else map_approach_b
        try:
            ref_map = mapper(ref_state, hw)
        except DDSIError as exc:
            with pytest.raises(type(exc)):
                mapper(compiled_state, hw)
            return
        compiled_map = mapper(compiled_state, hw)
        # Same placements *and* the same placement order: tie-breaks in
        # the batched cost scoring must match the one-at-a-time oracle.
        assert list(ref_map.assignment.items()) == list(
            compiled_map.assignment.items()
        )
        assert ref_map.communication_cost() == compiled_map.communication_cost()


class TestLargeGraphParity:
    """Deterministic big-graph cases hypothesis would be too slow for."""

    @pytest.mark.parametrize("processes", [2, 100, 300])
    def test_sizes_up_to_300(self, processes):
        spec = WorkloadSpec(
            processes=processes,
            edge_probability=min(0.9, 8.0 / processes),
            replicated_fraction=0.1,
            utilization=0.1,
        )
        graph = random_process_graph(spec, seed=7)
        ref_state, compiled_state = paired_states(graph)
        target = max(
            required_hw_nodes(ref_state.graph),
            len(ref_state.graph) // 2,
            1,
        )
        ref_state, compiled_state = run_both(
            pack_by_timing, ref_state, compiled_state, target
        )
        if ref_state is None:
            return
        hw = fully_connected(len(ref_state.clusters))
        ref_map = map_approach_a(ref_state, hw)
        compiled_map = map_approach_a(compiled_state, hw)
        assert list(ref_map.assignment.items()) == list(
            compiled_map.assignment.items()
        )


# ----------------------------------------------------------------------
# Mapping onto irregular HW, against the per-pair reference mapper
# ----------------------------------------------------------------------
RESOURCES = ("bus", "dsp", "io")


def bits(value: float) -> bytes:
    """The float's IEEE bytes: equal only when bit-identical (-0.0 != 0.0)."""
    return struct.pack("<d", value)


def irregular_hw(count: int, seed: int) -> HWGraph:
    """Random link costs, missing links, explicit ``inf`` links, shared
    FCRs and random resources: candidates' placement totals differ, so
    the summation order, the unlinked penalty and every tie-break count."""
    rng = random.Random(seed)
    hw = HWGraph()
    fcrs = rng.randint(1, count)
    for k in range(count):
        hw.add_node(HWNode(
            f"hw{k}",
            fcr=f"fcr{rng.randrange(fcrs)}",
            resources=frozenset(r for r in RESOURCES if rng.random() < 0.4),
        ))
    names = hw.names()
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            roll = rng.random()
            if roll < 0.2:
                continue  # no link
            cost = rng.choice([1.0, 2.0, round(rng.uniform(0.1, 5.0), 3)])
            hw.add_link(a, b, float("inf") if roll < 0.3 else cost)
    return hw


def random_needs(graph, hw: HWGraph, seed: int) -> ResourceRequirements:
    """Some FCMs need one of the resources some HW node offers."""
    rng = random.Random(seed)
    offered = sorted(set().union(*(node.resources for node in hw.nodes())))
    return ResourceRequirements(needs={
        name: frozenset({rng.choice(offered)})
        for name in graph.fcm_names()
        if offered and rng.random() < 0.15
    })


def assert_mapping_matches(ref_state, compiled_state, hw, approach, resources):
    """The library mapper on both states places, costs and scores exactly
    like the per-pair reference mapper; returns whether mapping raised."""
    mapper = map_approach_a if approach == "a" else map_approach_b
    try:
        expected = reference_map(ref_state, hw, approach, resources)
    except DDSIError as exc:
        for state in (ref_state, compiled_state):
            with pytest.raises(type(exc)) as raised:
                mapper(state, hw, resources)
            assert str(raised.value) == str(exc)
        return True
    cost = bits(reference_communication_cost(ref_state, hw, expected))
    cross = bits(reference_cross_influence(ref_state))
    for state in (ref_state, compiled_state):
        mapping = mapper(state, hw, resources)
        assert list(mapping.assignment.items()) == list(expected.items())
        assert bits(mapping.communication_cost()) == cost
        score = evaluate_mapping(mapping, resources)
        assert bits(score.communication_cost) == cost
        assert bits(score.partition.cross_influence) == cross
    return False


class TestIrregularHWParity:
    @given(
        workloads(),
        st.sampled_from(["a", "b"]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=3),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_mappings_and_scores_bit_identical(
        self, graph, approach, seed, spare, with_needs
    ):
        ref_state, compiled_state = paired_states(graph)
        target = max(
            required_hw_nodes(ref_state.graph),
            len(ref_state.graph) // 2,
            1,
        )
        ref_state, compiled_state = run_both(
            condense_h1, ref_state, compiled_state, target
        )
        if ref_state is None:
            return
        hw = irregular_hw(len(ref_state.clusters) + spare, seed)
        needs = random_needs(ref_state.graph, hw, seed) if with_needs else None
        assert_mapping_matches(ref_state, compiled_state, hw, approach, needs)

    @pytest.mark.parametrize("processes", [100, 300])
    @pytest.mark.parametrize("approach", ["a", "b"])
    def test_large_graphs(self, processes, approach):
        spec = WorkloadSpec(
            processes=processes,
            edge_probability=min(0.9, 8.0 / processes),
            replicated_fraction=0.1,
            utilization=0.1,
        )
        graph = random_process_graph(spec, seed=11)
        ref_state, compiled_state = paired_states(graph)
        target = max(required_hw_nodes(ref_state.graph), len(ref_state.graph) // 6)
        ref_state, compiled_state = run_both(
            pack_by_timing, ref_state, compiled_state, target
        )
        hw = irregular_hw(len(ref_state.clusters) + 2, processes)
        assert not assert_mapping_matches(ref_state, compiled_state, hw, approach, None)
        needs = random_needs(ref_state.graph, hw, processes)
        assert_mapping_matches(ref_state, compiled_state, hw, approach, needs)


def assert_placement_costs_match(ref_state, compiled_state, hw, seed):
    """Place every cluster at random; before each placement, every free
    node's cost equals the per-pair reference sum, bit for bit."""
    rng = random.Random(seed)
    placement = _Placement(Mapping(state=compiled_state, hw=hw))
    order = list(range(len(compiled_state.clusters)))
    rng.shuffle(order)
    free = hw.names()
    for index in order:
        assignment = placement.mapping.assignment
        expected = [
            bits(reference_placement_cost(ref_state, hw, assignment, index, name))
            for name in free
        ]
        assert [bits(c) for c in placement.costs(index, free)] == expected
        chosen = rng.choice(free)
        placement.place(index, chosen)
        free = [name for name in free if name != chosen]


class TestPlacementCosts:
    """Candidate totals add neighbour terms in assignment order."""

    @given(workloads(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_placements(self, graph, seed):
        ref_state, compiled_state = paired_states(graph)
        hw = irregular_hw(len(ref_state.clusters) + 2, seed)
        assert_placement_costs_match(ref_state, compiled_state, hw, seed)

    def test_many_neighbours(self):
        spec = WorkloadSpec(processes=80, edge_probability=0.3, replicated_fraction=0.2)
        expanded = expand_replication(random_process_graph(spec, seed=2))
        names = expanded.fcm_names()
        random.Random(2).shuffle(names)
        clusters = [Cluster(tuple(names[k:k + 4])) for k in range(0, len(names), 4)]
        hw = irregular_hw(len(clusters), 9)
        assert_placement_costs_match(
            ReferenceClusterState(expanded, clusters=clusters),
            ClusterState(expanded, clusters=clusters),
            hw,
            9,
        )


# ----------------------------------------------------------------------
# The partition view against per-pair queries
# ----------------------------------------------------------------------
@st.composite
def partitions(draw):
    """An expanded graph and a random or skewed partition of it.

    Skewed: one block holds most FCMs and the rest are singletons, so
    the big block exceeds the joint fold's size cap.
    """
    expanded = expand_replication(draw(workloads()))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    names = expanded.fcm_names()
    rng.shuffle(names)
    if draw(st.booleans()):
        big = max(1, (len(names) * 3) // 4)
        blocks = [names[:big]] + [[name] for name in names[big:]]
    else:
        count = rng.randint(1, len(names))
        blocks = [[] for _ in range(count)]
        for name in names:
            blocks[rng.randrange(count)].append(name)
    return expanded, [tuple(block) for block in blocks if block]


def assert_view_matches_pairs(state, ref_state):
    view = state.partition_view()
    n = len(state.clusters)
    assert view.clusters == tuple(c.members for c in state.clusters)
    assert not np.diagonal(view.raw).any()
    assert not np.diagonal(view.conflict).any()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            assert bits(view.raw[i, j]) == bits(ref_state.raw_influence(i, j))
            assert bits(view.influence[i, j]) == bits(ref_state.influence(i, j))
            assert view.conflict[i, j] == ref_state.replica_related(i, j)
    ref_view = ref_state.partition_view()
    assert view.raw.tobytes() == ref_view.raw.tobytes()
    assert np.array_equal(view.conflict, ref_view.conflict)


class TestPartitionView:
    @given(partitions())
    @settings(max_examples=60, deadline=None)
    def test_view_equals_pair_queries(self, case):
        expanded, blocks = case
        clusters = [Cluster(block) for block in blocks]
        assert_view_matches_pairs(
            ClusterState(expanded, clusters=clusters),
            ReferenceClusterState(expanded, clusters=clusters),
        )

    def test_skewed_200_member_cluster(self):
        spec = WorkloadSpec(processes=240, edge_probability=0.05, replicated_fraction=0.2)
        expanded = expand_replication(random_process_graph(spec, seed=5))
        names = expanded.fcm_names()
        clusters = [Cluster(tuple(names[:200]))] + [Cluster((n,)) for n in names[200:]]
        assert_view_matches_pairs(
            ClusterState(expanded, clusters=clusters),
            ReferenceClusterState(expanded, clusters=clusters),
        )

    def test_follows_merges_and_sub_partitions(self):
        expanded = expand_replication(paper_system().influence_at(Level.PROCESS))
        state = ClusterState(expanded)
        ref_state = ReferenceClusterState(expanded)
        first = state.partition_view()
        assert state.partition_view() is first  # cached per partition
        for merge in ((0, 3), (1, 2), (0, 4)):
            state.combine(*merge, enforce_policy=False)
            ref_state.combine(*merge, enforce_policy=False)
            assert_view_matches_pairs(state, ref_state)
        # A partition made of some of the last view's clusters reads a
        # sub-view of it.
        blocks = [c.members for c in state.clusters][::-2]
        assert_view_matches_pairs(
            state.with_clusters(blocks), ref_state.with_clusters(blocks)
        )


# ----------------------------------------------------------------------
# Policies with no compiled fast path
# ----------------------------------------------------------------------
ALL_HEURISTICS = {**HEURISTICS, "h2": condense_h2, "criticality": condense_criticality}


@dataclass(frozen=True)
class MemberCap:
    """A user constraint class: at most ``limit`` members per cluster."""

    limit: int

    def check(self, graph, first, second):
        if len(first) + len(second) > self.limit:
            return f"merged cluster would exceed {self.limit} members"
        return None


@dataclass
class CriticalitySpreadPolicy(CombinationPolicy):
    """A policy subclass whose ``violations`` adds its own rule."""

    max_spread: float = 5.0

    def violations(self, graph, first, second):
        reasons = super().violations(graph, first, second)
        levels = [
            graph.fcm(name).attributes.criticality for name in (*first, *second)
        ]
        if max(levels) - min(levels) > self.max_spread:
            reasons.append(f"criticality spread exceeds {self.max_spread}")
        return reasons


def pair_violations(state):
    clusters = [c.members for c in state.clusters]
    return [
        state.policy_violations(a, b) for a in clusters for b in clusters if a != b
    ]


def pipeline(state, condense, mapper, hw, resources):
    """Partition, placements and cost, or the error the pipeline raised."""
    try:
        result = condense(state, len(hw))
        mapping = mapper(result.state, hw, resources)
    except DDSIError as exc:
        return type(exc).__name__, str(exc)
    partition = [c.members for c in result.state.clusters]
    return partition, list(mapping.assignment.items()), mapping.communication_cost()


def assert_pipeline_matches(graph, policy, condense, mapper, hw, resources=None):
    """The reference and compiled states agree on one heuristic and
    mapping; returns whether the pipeline raised."""
    ref_state, compiled_state = paired_states(graph, policy)
    assert pair_violations(ref_state) == pair_violations(compiled_state)
    ref_out = pipeline(ref_state, condense, mapper, hw, resources)
    assert pipeline(compiled_state, condense, mapper, hw, resources) == ref_out
    assert pair_violations(ref_state) == pair_violations(compiled_state)
    return isinstance(ref_out[0], str)


def assert_pipelines_match(graph, make_policy, hw, resources=None):
    """Every heuristic x mapping agrees; returns how many runs raised, so
    callers can check the cases exercised both outcomes."""
    return sum(
        assert_pipeline_matches(graph, make_policy(), condense, mapper, hw, resources)
        for condense in ALL_HEURISTICS.values()
        for mapper in (map_approach_a, map_approach_b)
    )


class TestClosurePolicyParity:
    """Constraints and policies with no fast path compile to closures
    over their own methods, and must still match the reference."""

    def test_automotive_policy(self):
        graph = automotive_system().influence_at(Level.PROCESS)
        raised = assert_pipelines_match(
            graph, automotive_policy, automotive_hw(), automotive_resources()
        )
        assert raised == 6  # no free node offers a merged cluster's resources

    # (limit, HW nodes, runs that raise): the 12 expanded paper FCMs fit
    # 4 nodes only at 3+ members per node.
    @pytest.mark.parametrize(
        "limit, nodes, raised", [(2, 4, 12), (3, 4, 2), (3, 6, 0)]
    )
    def test_user_constraint_class(self, limit, nodes, raised):
        def policy():
            base = CombinationPolicy()
            base.constraints.append(MemberCap(limit))
            return base

        graph = paper_system().influence_at(Level.PROCESS)
        assert assert_pipelines_match(graph, policy, fully_connected(nodes)) == raised

    @pytest.mark.parametrize("max_spread, raised", [(0.0, 10), (20.0, 0)])
    def test_policy_subclass_overriding_violations(self, max_spread, raised):
        graph = paper_system().influence_at(Level.PROCESS)
        assert assert_pipelines_match(
            graph, lambda: CriticalitySpreadPolicy(max_spread=max_spread),
            fully_connected(6),
        ) == raised

    @given(
        workloads(),
        st.integers(min_value=1, max_value=4),
        st.booleans(),
        st.sampled_from(sorted(ALL_HEURISTICS)),
        st.sampled_from([map_approach_a, map_approach_b]),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_workloads(self, graph, limit, subclass, heuristic, mapper):
        if subclass:
            policy = CriticalitySpreadPolicy(max_spread=limit * 10.0)
        else:
            policy = CombinationPolicy()
            policy.constraints.append(MemberCap(limit + 1))
        expanded = expand_replication(graph)
        hw = fully_connected(max(required_hw_nodes(expanded), len(expanded) // 2, 1))
        assert_pipeline_matches(graph, policy, ALL_HEURISTICS[heuristic], mapper, hw)
