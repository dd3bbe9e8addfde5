"""HW graph model."""

import pytest

from repro.allocation import HWGraph, HWNode, fully_connected
from repro.errors import AllocationError


class TestHWNode:
    def test_defaults(self):
        node = HWNode("hw1")
        assert node.fcr == "fcr0"
        assert node.resources == frozenset()

    def test_validation(self):
        with pytest.raises(AllocationError):
            HWNode("")
        with pytest.raises(AllocationError):
            HWNode("x", memory=-1)

    def test_nan_memory_rejected(self):
        with pytest.raises(AllocationError, match="memory must be >= 0, got nan"):
            HWNode("x", memory=float("nan"))

    def test_infinite_memory_accepted(self):
        assert HWNode("x", memory=float("inf")).memory == float("inf")


class TestHWGraph:
    def test_add_and_query(self):
        g = HWGraph()
        g.add_node(HWNode("a", resources=frozenset({"bus"})))
        g.add_node(HWNode("b"))
        g.add_link("a", "b", 2.0)
        assert g.connected("a", "b")
        assert g.link_cost("a", "b") == 2.0
        assert g.link_cost("b", "a") == 2.0
        assert g.has_resource("a", "bus")
        assert not g.has_resource("b", "bus")

    def test_duplicate_node_rejected(self):
        g = HWGraph()
        g.add_node(HWNode("a"))
        with pytest.raises(AllocationError):
            g.add_node(HWNode("a"))

    def test_self_link_rejected(self):
        g = HWGraph()
        g.add_node(HWNode("a"))
        with pytest.raises(AllocationError):
            g.add_link("a", "a")

    def test_negative_cost_rejected(self):
        g = HWGraph()
        g.add_node(HWNode("a"))
        g.add_node(HWNode("b"))
        with pytest.raises(AllocationError):
            g.add_link("a", "b", -1)

    def test_nan_cost_rejected(self):
        g = HWGraph()
        g.add_node(HWNode("a"))
        g.add_node(HWNode("b"))
        with pytest.raises(AllocationError, match="link cost must be >= 0, got nan"):
            g.add_link("a", "b", float("nan"))
        assert not g.connected("a", "b")

    def test_infinite_cost_accepted_as_no_link(self):
        g = HWGraph()
        g.add_node(HWNode("a"))
        g.add_node(HWNode("b"))
        g.add_link("a", "b", float("inf"))
        assert g.connected("a", "b")
        assert g.link_cost("a", "b") == float("inf")

    def test_missing_link_cost_infinite(self):
        g = HWGraph()
        g.add_node(HWNode("a"))
        g.add_node(HWNode("b"))
        assert g.link_cost("a", "b") == float("inf")
        assert g.link_cost("a", "a") == 0.0

    def test_unknown_node_raises(self):
        g = HWGraph()
        with pytest.raises(AllocationError):
            g.node("zz")

    def test_fcr_queries(self):
        g = HWGraph()
        g.add_node(HWNode("a", fcr="left"))
        g.add_node(HWNode("b", fcr="left"))
        g.add_node(HWNode("c", fcr="right"))
        assert g.fcr_of("c") == "right"
        assert {n.name for n in g.nodes_in_fcr("left")} == {"a", "b"}

    def test_all_links_sorted_endpoints(self):
        g = HWGraph()
        for name in ("b", "a"):
            g.add_node(HWNode(name))
        g.add_link("b", "a", 3.0)
        assert g.all_links() == [("a", "b", 3.0)]


class TestFullyConnected:
    def test_structure(self):
        g = fully_connected(4)
        assert len(g) == 4
        assert len(g.all_links()) == 6
        for a in g.names():
            for b in g.names():
                if a != b:
                    assert g.connected(a, b)

    def test_distinct_fcrs(self):
        g = fully_connected(3)
        assert len({g.fcr_of(n) for n in g.names()}) == 3

    def test_shared_fcr_option(self):
        g = fully_connected(3, distinct_fcrs=False)
        assert {g.fcr_of(n) for n in g.names()} == {"fcr0"}

    def test_resources_attached(self):
        g = fully_connected(2, resources={"hw1": frozenset({"bus"})})
        assert g.has_resource("hw1", "bus")

    def test_zero_nodes_rejected(self):
        with pytest.raises(AllocationError):
            fully_connected(0)


class TestCostMatrix:
    def test_matches_link_cost(self):
        g = fully_connected(3, cost=2.0)
        g.add_node(HWNode("x"))
        g.add_link("x", "hw1", 0.5)
        g.add_link("x", "hw2", float("inf"))
        position, costs = g.cost_matrix()
        assert list(position) == g.names()
        for a in g.names():
            for b in g.names():
                assert costs[position[a], position[b]] == g.link_cost(a, b)

    def test_rebuilt_after_changes(self):
        g = fully_connected(2)
        first = g.cost_matrix()
        assert g.cost_matrix() is first
        g.add_node(HWNode("x"))
        assert g.cost_matrix()[1][2, 0] == float("inf")
        g.add_link("x", "hw1", 4.0)
        position, costs = g.cost_matrix()
        assert costs[position["x"], position["hw1"]] == 4.0

    def test_positions(self):
        g = fully_connected(3)
        assert g.positions(["hw3", "hw1"]) == [2, 0]
        with pytest.raises(AllocationError, match="'zz' not in graph"):
            g.positions(["hw1", "zz"])
