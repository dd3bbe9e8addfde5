"""Goodness metrics for partitions and mappings (§5.3)."""

import pytest

from repro.allocation import (
    ResourceRequirements,
    condense_h1,
    evaluate_mapping,
    evaluate_partition,
    fully_connected,
    initial_state,
    map_approach_a,
    seeded_state,
)
from repro.allocation.hw_model import HWGraph, HWNode
from repro.influence import InfluenceGraph
from repro.model import AttributeSet, FCM, Level
from repro.workloads import HW_NODE_COUNT

from tests.conftest import make_process


def two_cluster_graph() -> InfluenceGraph:
    g = InfluenceGraph()
    for name, crit in (("a", 10.0), ("b", 2.0), ("c", 8.0), ("d", 1.0)):
        g.add_fcm(FCM(name, Level.PROCESS, AttributeSet(criticality=crit)))
    g.set_influence("a", "b", 0.5)
    g.set_influence("c", "d", 0.4)
    g.set_influence("a", "c", 0.2)
    return g


class TestEvaluatePartition:
    def test_cross_influence(self):
        g = two_cluster_graph()
        state = seeded_state(g, [["a", "b"], ["c", "d"]])
        score = evaluate_partition(state)
        assert score.cross_influence == pytest.approx(0.2)
        assert score.cluster_count == 2
        assert score.feasible

    def test_max_node_criticality(self):
        g = two_cluster_graph()
        state = seeded_state(g, [["a", "c"], ["b", "d"]])
        score = evaluate_partition(state)
        assert score.max_node_criticality == pytest.approx(18.0)

    def test_critical_colocations_counted(self):
        g = two_cluster_graph()
        state = seeded_state(g, [["a", "c"], ["b", "d"]])
        score = evaluate_partition(state, criticality_threshold=5.0)
        assert score.critical_colocations == 1

    def test_dispersed_partition_no_colocations(self):
        g = two_cluster_graph()
        state = seeded_state(g, [["a", "b"], ["c", "d"]])
        score = evaluate_partition(state, criticality_threshold=5.0)
        assert score.critical_colocations == 0

    def test_violations_surface(self):
        from repro.model import TimingConstraint

        g = InfluenceGraph()
        g.add_fcm(
            FCM("x", Level.PROCESS, AttributeSet(timing=TimingConstraint(0, 3, 2)))
        )
        g.add_fcm(
            FCM("y", Level.PROCESS, AttributeSet(timing=TimingConstraint(1, 4, 3)))
        )
        state = seeded_state(g, [["x", "y"]])
        score = evaluate_partition(state)
        assert not score.feasible
        assert score.constraint_violations


class TestEvaluateMapping:
    def test_paper_pipeline_feasible(self, expanded_paper_state):
        result = condense_h1(expanded_paper_state, HW_NODE_COUNT)
        mapping = map_approach_a(result.state, fully_connected(HW_NODE_COUNT))
        score = evaluate_mapping(mapping)
        assert score.feasible
        assert score.replica_separation_ok
        assert score.resource_violations == ()

    def test_resource_violation_detected(self):
        g = InfluenceGraph()
        g.add_fcm(make_process("io"))
        state = initial_state(g)
        hw = HWGraph()
        hw.add_node(HWNode("plain"))
        mapping = map_approach_a(state, hw)  # no resource check requested
        reqs = ResourceRequirements(needs={"io": frozenset({"bus"})})
        score = evaluate_mapping(mapping, resources=reqs)
        assert not score.feasible
        assert any("missing" in v for v in score.resource_violations)

    def test_replica_separation_detects_shared_node(self, expanded_paper_state):
        result = condense_h1(expanded_paper_state, HW_NODE_COUNT)
        mapping = map_approach_a(result.state, fully_connected(HW_NODE_COUNT))
        # Corrupt the assignment: force two clusters onto one node.
        first, second, *_ = list(mapping.assignment)
        mapping.assignment[second] = mapping.assignment[first]
        score = evaluate_mapping(mapping)
        assert not score.replica_separation_ok

    def test_communication_cost_in_score(self, expanded_paper_state):
        result = condense_h1(expanded_paper_state, HW_NODE_COUNT)
        mapping = map_approach_a(result.state, fully_connected(HW_NODE_COUNT))
        score = evaluate_mapping(mapping)
        assert score.communication_cost == pytest.approx(
            mapping.communication_cost()
        )


    def test_score_values_are_python_floats(self, expanded_paper_state):
        # Whatever the cluster sizes, so the repr never shows np.float64.
        for target in (HW_NODE_COUNT, len(expanded_paper_state.clusters)):
            state = expanded_paper_state.copy()
            result = condense_h1(state, target)
            mapping = map_approach_a(result.state, fully_connected(target))
            score = evaluate_mapping(mapping)
            assert type(score.partition.cross_influence) is float
            assert type(score.communication_cost) is float
            assert "float64" not in repr(score)


class TestCompleteness:
    def test_incomplete_mapping_infeasible(self, expanded_paper_state):
        from repro.allocation.mapping import Mapping

        mapping = Mapping(
            state=expanded_paper_state, hw=fully_connected(12)
        )
        score = evaluate_mapping(mapping)
        assert not score.complete
        assert not score.feasible

    def test_partially_assigned_mapping_infeasible(self, expanded_paper_state):
        result = condense_h1(expanded_paper_state, 6)
        mapping = map_approach_a(result.state, fully_connected(6))
        del mapping.assignment[0]
        score = evaluate_mapping(mapping)
        assert not score.feasible
