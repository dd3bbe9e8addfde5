"""Monte-Carlo fault propagation."""

import random

import pytest

from repro.errors import SimulationError
from repro.faultsim import (
    affected_counts,
    compile_adjacency,
    expected_affected,
    propagate_once,
)
from repro.influence import InfluenceGraph

from tests.conftest import make_process


def chain(p_ab: float, p_bc: float) -> InfluenceGraph:
    g = InfluenceGraph()
    for name in ("a", "b", "c"):
        g.add_fcm(make_process(name))
    if p_ab:
        g.set_influence("a", "b", p_ab)
    if p_bc:
        g.set_influence("b", "c", p_bc)
    return g


class TestPropagateOnce:
    def test_source_always_affected(self):
        g = chain(0.0, 0.0)
        record = propagate_once(g, "a", random.Random(0))
        assert record.affected == {"a"}
        assert record.events[0].fcm == "a"
        assert record.events[0].spontaneous

    def test_certain_edge_always_fires(self):
        g = chain(1.0, 1.0)
        record = propagate_once(g, "a", random.Random(0))
        assert record.affected == {"a", "b", "c"}
        transmissions = record.transmissions
        assert {e.fcm for e in transmissions} == {"b", "c"}
        assert all(e.transmitted_from for e in transmissions)

    def test_direct_only_stops_at_first_wave(self):
        g = chain(1.0, 1.0)
        record = propagate_once(g, "a", random.Random(0), direct_only=True)
        assert record.affected == {"a", "b"}

    def test_no_refault(self):
        g = chain(1.0, 0.0)
        g.set_influence("b", "a", 1.0)
        record = propagate_once(g, "a", random.Random(0))
        # a is already faulty; it appears once.
        assert [e.fcm for e in record.events].count("a") == 1

    def test_unknown_source_rejected(self):
        g = chain(0.5, 0.5)
        with pytest.raises(SimulationError):
            propagate_once(g, "zz", random.Random(0))

    def test_deterministic_under_seed(self):
        g = chain(0.5, 0.5)
        a = propagate_once(g, "a", random.Random(42))
        b = propagate_once(g, "a", random.Random(42))
        assert a.affected == b.affected

    def test_stream_unchanged_by_adjacency_hoist(self, paper_graph):
        """A pre-built adjacency is draw-for-draw the per-trial lookup."""
        source = paper_graph.fcm_names()[0]
        with_hoist = propagate_once(
            paper_graph,
            source,
            random.Random(42),
            adjacency=compile_adjacency(paper_graph),
        )
        without = propagate_once(paper_graph, source, random.Random(42))
        assert with_hoist.affected == without.affected
        assert [e.fcm for e in with_hoist.events] == [
            e.fcm for e in without.events
        ]


class TestAffectedCounts:
    def test_source_count_equals_trials(self):
        g = chain(0.3, 0.3)
        counts = affected_counts(g, "a", trials=200, seed=1)
        assert counts["a"] == 200

    def test_frequencies_track_probabilities(self):
        g = chain(0.5, 1.0)
        counts = affected_counts(g, "a", trials=4000, seed=2)
        assert counts["b"] / 4000 == pytest.approx(0.5, abs=0.05)
        # c is hit iff b is hit (p_bc = 1).
        assert counts["c"] == counts["b"]

    def test_zero_trials_rejected(self):
        g = chain(0.5, 0.5)
        with pytest.raises(SimulationError):
            affected_counts(g, "a", trials=0)


class TestExpectedAffected:
    def test_isolated_node_zero(self):
        g = chain(0.0, 0.0)
        assert expected_affected(g, "a", trials=100, seed=0) == 0.0

    def test_full_chain_two(self):
        g = chain(1.0, 1.0)
        assert expected_affected(g, "a", trials=100, seed=0) == pytest.approx(2.0)

    def test_matches_analytic_on_chain(self):
        from repro.metrics import expected_affected_analytic

        g = chain(0.4, 0.5)
        empirical = expected_affected(g, "a", trials=20000, seed=3)
        analytic = expected_affected_analytic(g, "a")
        # Chain: E = p_ab + p_ab * p_bc = 0.4 + 0.2.
        assert analytic == pytest.approx(0.6)
        assert empirical == pytest.approx(analytic, abs=0.02)
