"""Replication expansion (Fig. 4) and SW-graph helpers."""

import pytest

from repro.allocation import (
    expand_replication,
    replica_names,
    required_hw_nodes,
    total_influence_weight,
)
from repro.core.framework import Heuristic
from repro.errors import AllocationError
from repro.influence import InfluenceGraph
from repro.model import AttributeSet, FCM, Level

from tests.conftest import make_process


def small_replicated() -> InfluenceGraph:
    g = InfluenceGraph()
    g.add_fcm(FCM("p1", Level.PROCESS, AttributeSet(criticality=10, fault_tolerance=3)))
    g.add_fcm(FCM("p2", Level.PROCESS, AttributeSet(criticality=5, fault_tolerance=2)))
    g.add_fcm(make_process("p3"))
    g.set_influence("p1", "p2", 0.7)
    g.set_influence("p2", "p3", 0.4)
    g.set_influence("p3", "p1", 0.1)
    return g


class TestReplicaNames:
    def test_suffixes(self):
        assert replica_names("p1", 3) == ["p1a", "p1b", "p1c"]

    def test_count_validation(self):
        with pytest.raises(AllocationError):
            replica_names("p1", 1)
        with pytest.raises(AllocationError):
            replica_names("p1", 100)


class TestExpandReplication:
    def test_node_count(self):
        expanded = expand_replication(small_replicated())
        assert len(expanded) == 3 + 2 + 1

    def test_paper_example_expands_to_twelve(self, paper_graph):
        assert len(expand_replication(paper_graph)) == 12

    def test_replica_metadata(self):
        expanded = expand_replication(small_replicated())
        assert expanded.fcm("p1a").replica_of == "p1"
        assert expanded.fcm("p1a").attributes.fault_tolerance == 1
        assert expanded.fcm("p3").replica_of is None

    def test_replica_links_pairwise(self):
        expanded = expand_replication(small_replicated())
        for a, b in (("p1a", "p1b"), ("p1a", "p1c"), ("p1b", "p1c")):
            assert expanded.is_replica_link(a, b)
        assert expanded.replica_groups() == [
            {"p1a", "p1b", "p1c"},
            {"p2a", "p2b"},
        ] or sorted(map(sorted, expanded.replica_groups())) == [
            ["p1a", "p1b", "p1c"],
            ["p2a", "p2b"],
        ]

    def test_edges_replicated_bipartite(self):
        expanded = expand_replication(small_replicated())
        # p1 (x3) -> p2 (x2): all 6 pairs carry 0.7.
        for a in ("p1a", "p1b", "p1c"):
            for b in ("p2a", "p2b"):
                assert expanded.influence(a, b) == pytest.approx(0.7)

    def test_edges_to_singleton(self):
        expanded = expand_replication(small_replicated())
        for b in ("p2a", "p2b"):
            assert expanded.influence(b, "p3") == pytest.approx(0.4)
        for a in ("p1a", "p1b", "p1c"):
            assert expanded.influence("p3", a) == pytest.approx(0.1)

    def test_original_untouched(self):
        g = small_replicated()
        expand_replication(g)
        assert len(g) == 3
        assert g.influence("p1", "p2") == 0.7

    def test_factors_carried_to_replica_edges(self):
        from repro.influence import FactorKind, InfluenceFactor

        g = InfluenceGraph()
        g.add_fcm(FCM("p", Level.PROCESS, AttributeSet(fault_tolerance=2)))
        g.add_fcm(make_process("q"))
        g.set_influence(
            "p",
            "q",
            factors=[InfluenceFactor(FactorKind.SHARED_MEMORY, 0.5, 0.5, 0.5)],
        )
        expanded = expand_replication(g)
        assert len(expanded.factors("pa", "q")) == 1
        assert expanded.influence("pa", "q") == pytest.approx(0.125)

    def test_no_replication_is_copy(self, paper_graph):
        g = InfluenceGraph()
        for name in ("x", "y"):
            g.add_fcm(make_process(name))
        g.set_influence("x", "y", 0.5)
        expanded = expand_replication(g)
        assert expanded.fcm_names() == ["x", "y"]
        assert expanded.influence("x", "y") == 0.5


class TestDeferredEdgesInIntegration:
    """Integrates that answer from the compiled graph never install the
    expanded edges; H2 and H3 read the graph, which installs them."""

    @pytest.mark.parametrize(
        "heuristic, installed",
        [
            ("timing-pack", False),
            ("h1", False),
            ("criticality", False),
            ("timing", False),
            ("h2", True),
            ("h3", True),
        ],
    )
    def test_paper_example(self, heuristic, installed):
        from repro.allocation import fully_connected
        from repro.core.framework import (
            FrameworkOptions,
            Heuristic,
            MappingApproach,
            integrate,
        )
        from repro.io.serialization import outcome_to_dict
        from repro.workloads import HW_NODE_COUNT, paper_system

        for mapping in MappingApproach:
            options = FrameworkOptions(heuristic=Heuristic(heuristic), mapping=mapping)
            outcome = integrate(paper_system(), fully_connected(HW_NODE_COUNT), options)
            outcome_to_dict(outcome)
            graph = outcome.condensation.state.graph
            assert ("_deferred" not in vars(graph)) is installed
            assert len(graph.influence_edges()) == 30  # Fig. 4, either way

    @pytest.mark.parametrize("heuristic", [h.value for h in Heuristic])
    def test_loaded_document_levels_stay_deferred(self, heuristic):
        # A loaded level's edges wait in its document columns; the audit,
        # the expansion and the compile answer from them, so no source
        # level installs a dict edge, whatever reads the expanded graph.
        from repro.allocation import fully_connected
        from repro.core.framework import FrameworkOptions, integrate
        from repro.io.serialization import system_from_dict, system_to_dict
        from repro.workloads import random_system

        document = system_to_dict(random_system(10, 2, 2, seed=3))
        system = system_from_dict(document)
        assert len(system.influence) == 3
        options = FrameworkOptions(heuristic=Heuristic(heuristic), influence_budget=0.5)
        integrate(system, fully_connected(5), options)
        for graph in system.influence.values():
            assert graph.edge_columns() is not None
            assert "_deferred" in vars(graph)


class TestHelpers:
    def test_required_hw_nodes(self, expanded_paper_graph):
        assert required_hw_nodes(expanded_paper_graph) == 3  # p1 TMR

    def test_required_hw_nodes_no_replication(self):
        g = InfluenceGraph()
        g.add_fcm(make_process("only"))
        assert required_hw_nodes(g) == 1

    def test_required_hw_nodes_empty(self):
        assert required_hw_nodes(InfluenceGraph()) == 0

    def test_total_influence_weight(self):
        g = small_replicated()
        assert total_influence_weight(g) == pytest.approx(1.2)
