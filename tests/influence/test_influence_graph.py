"""The influence graph: edges, replica links, views."""

import pytest

from repro.errors import GraphError, InfluenceError, ProbabilityError
from repro.influence import FactorKind, InfluenceFactor, InfluenceGraph
from repro.model import AttributeSet, FCM, Level

from tests.conftest import make_process


@pytest.fixture
def graph() -> InfluenceGraph:
    g = InfluenceGraph()
    for name in ("a", "b", "c"):
        g.add_fcm(make_process(name))
    g.set_influence("a", "b", 0.5)
    return g


class TestNodes:
    def test_add_and_query(self, graph):
        assert graph.has_fcm("a")
        assert len(graph) == 3
        assert graph.fcm("a").level is Level.PROCESS

    def test_duplicate_rejected(self, graph):
        with pytest.raises(InfluenceError):
            graph.add_fcm(make_process("a"))

    def test_remove(self, graph):
        graph.remove_fcm("a")
        assert not graph.has_fcm("a")
        assert graph.influence_edges() == []

    def test_missing_raises(self, graph):
        with pytest.raises(InfluenceError):
            graph.fcm("zz")


class TestInfluenceEdges:
    def test_influence_value(self, graph):
        assert graph.influence("a", "b") == 0.5

    def test_absent_edge_is_zero(self, graph):
        assert graph.influence("b", "a") == 0.0
        assert graph.influence("a", "c") == 0.0

    def test_self_influence_undefined(self, graph):
        with pytest.raises(InfluenceError):
            graph.influence("a", "a")

    def test_asymmetry_allowed(self, graph):
        graph.set_influence("b", "a", 0.2)
        assert graph.influence("a", "b") != graph.influence("b", "a")

    def test_update_existing(self, graph):
        graph.set_influence("a", "b", 0.9)
        assert graph.influence("a", "b") == 0.9

    def test_zero_removes_edge(self, graph):
        graph.set_influence("a", "b", 0.0)
        assert graph.influence_edges() == []

    def test_value_xor_factors_required(self, graph):
        with pytest.raises(InfluenceError):
            graph.set_influence("a", "c")
        with pytest.raises(InfluenceError):
            graph.set_influence("a", "c", 0.5, factors=[])

    def test_factors_compute_eq2(self, graph):
        factors = [
            InfluenceFactor.from_probability(FactorKind.TIMING, 0.2),
            InfluenceFactor.from_probability(FactorKind.SHARED_MEMORY, 0.7),
        ]
        value = graph.set_influence("a", "c", factors=factors)
        assert value == pytest.approx(0.76)
        assert graph.influence("a", "c") == pytest.approx(0.76)
        assert len(graph.factors("a", "c")) == 2

    def test_factors_missing_edge_raises(self, graph):
        with pytest.raises(GraphError):
            graph.factors("b", "c")

    def test_out_of_range_rejected(self, graph):
        with pytest.raises(ProbabilityError):
            graph.set_influence("a", "c", 1.5)

    def test_mutual_influence(self, graph):
        graph.set_influence("b", "a", 0.3)
        assert graph.mutual_influence("a", "b") == pytest.approx(0.8)
        assert graph.mutual_influence("b", "a") == pytest.approx(0.8)

    def test_unknown_node_rejected(self, graph):
        with pytest.raises(InfluenceError):
            graph.set_influence("a", "zz", 0.5)


class TestReplicaLinks:
    def make_replicated(self) -> InfluenceGraph:
        g = InfluenceGraph()
        original = FCM("p1", Level.PROCESS, AttributeSet(fault_tolerance=3))
        for suffix in ("a", "b"):
            g.add_fcm(original.replicate(suffix))
        g.add_fcm(make_process("q"))
        return g

    def test_link_and_query(self):
        g = self.make_replicated()
        g.link_replicas("p1a", "p1b")
        assert g.is_replica_link("p1a", "p1b")
        assert g.is_replica_link("p1b", "p1a")
        assert g.influence("p1a", "p1b") == 0.0

    def test_replica_groups(self):
        g = self.make_replicated()
        g.link_replicas("p1a", "p1b")
        assert g.replica_groups() == [{"p1a", "p1b"}]

    def test_non_replicas_cannot_link(self):
        g = self.make_replicated()
        with pytest.raises(InfluenceError):
            g.link_replicas("p1a", "q")

    def test_self_link_rejected(self):
        g = self.make_replicated()
        with pytest.raises(InfluenceError):
            g.link_replicas("p1a", "p1a")

    def test_influence_on_replica_edge_rejected(self):
        g = self.make_replicated()
        g.link_replicas("p1a", "p1b")
        with pytest.raises(InfluenceError, match="fixed at 0"):
            g.set_influence("p1a", "p1b", 0.4)

    def test_replica_links_excluded_from_influence_edges(self):
        g = self.make_replicated()
        g.link_replicas("p1a", "p1b")
        g.set_influence("p1a", "q", 0.3)
        assert g.influence_edges() == [("p1a", "q", 0.3)]

    @pytest.mark.parametrize("linked", [("p1a", "p1b"), ("p1b", "p1a")])
    def test_rejected_link_changes_nothing(self, linked):
        # The influence edge runs against the first direction checked:
        # the call must not install the other direction before it fails.
        g = self.make_replicated()
        g.set_influence("p1b", "p1a", 0.4)
        edges, version = g.influence_edges(), g.version
        with pytest.raises(InfluenceError, match="already exists"):
            g.link_replicas(*linked)
        assert g.influence_edges() == edges == [("p1b", "p1a", 0.4)]
        assert not g.is_replica_link("p1a", "p1b")
        assert g.replica_partners("p1a") == g.replica_partners("p1b") == frozenset()
        assert g.version == version


class TestViews:
    def test_as_digraph_excludes_replicas_by_default(self):
        g = InfluenceGraph()
        base = FCM("p", Level.PROCESS, AttributeSet(fault_tolerance=2))
        g.add_fcm(base.replicate("a"))
        g.add_fcm(base.replicate("b"))
        g.link_replicas("pa", "pb")
        g.add_fcm(make_process("x"))
        g.set_influence("pa", "x", 0.4)
        without = g.as_digraph()
        assert without.edge_count() == 1
        with_links = g.as_digraph(include_replica_links=True)
        assert with_links.edge_count() == 3

    def test_copy_independent(self, graph):
        clone = graph.copy()
        clone.set_influence("a", "b", 0.9)
        assert graph.influence("a", "b") == 0.5

    def test_weight_matrix(self):
        g = InfluenceGraph()
        base = FCM("p", Level.PROCESS, AttributeSet(fault_tolerance=2))
        g.add_fcm(base.replicate("a"))
        g.add_fcm(base.replicate("b"))
        g.link_replicas("pa", "pb")
        g.add_fcm(make_process("x"))
        g.set_influence("pa", "x", 0.4)
        weights = g.weight_matrix()
        assert weights.tolist() == [[0.0, 0.0, 0.4], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        with pytest.raises(ValueError):
            weights[0, 1] = 1.0  # shared, so read-only
        assert g.weight_matrix() is weights
        g.set_influence("x", "pb", 0.25)
        assert g.weight_matrix()[2, 1] == 0.25
        assert weights[2, 1] == 0.0
