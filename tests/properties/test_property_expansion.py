"""Property-based oracle for replica expansion (Fig. 4).

The oracle does not use the expansion code: an FCM with fault tolerance
``k > 1`` becomes ``k`` suffixed images, so the expanded weight matrix
is the original one indexed by each image's origin, ``W[img][:, img]``.
The replica blocks of that matrix are 0 because an FCM has no influence
on itself.  The random graphs mix value edges and factor edges (Eq. 2).

Expansion itself caches exactly that gather as the expanded graph's
compile and installs the dict edges only on first read, so the checks
here compile the expanded graph afresh from its dict edges and compare
those edges with a graph built edge by edge.
"""

import random

import numpy as np

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.allocation import expand_replication, replica_names
from repro.faultsim.kernel import compile_graph
from repro.influence import FactorKind, InfluenceFactor, InfluenceGraph
from repro.model import AttributeSet, FCM, Level


@st.composite
def replicated_graphs(draw):
    """A process graph of 2-60 FCMs at FT 1-3, value and factor edges."""
    processes = draw(st.integers(min_value=2, max_value=60))
    fts = draw(
        st.lists(
            st.integers(min_value=1, max_value=3),
            min_size=processes,
            max_size=processes,
        )
    )
    graph = InfluenceGraph()
    names = [f"p{i}" for i in range(1, processes + 1)]
    for name, ft in zip(names, fts):
        graph.add_fcm(
            FCM(name, Level.PROCESS, AttributeSet(criticality=1.0, fault_tolerance=ft))
        )
    edge_p = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    # Edges come from a seeded stream: drawing ~n^2 coins from hypothesis
    # would overrun its example buffer at 60 processes.
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    kinds = list(FactorKind)
    for src in names:
        for dst in names:
            if src == dst or rng.random() >= edge_p:
                continue
            if rng.random() < 0.5:
                graph.set_influence(src, dst, rng.uniform(0.01, 1.0))
            else:
                factors = [
                    InfluenceFactor(
                        rng.choice(kinds), rng.random(), rng.random(), rng.random()
                    )
                    for _ in range(rng.randint(1, 3))
                ]
                graph.set_influence(src, dst, factors=factors)
    return graph


def images_of(graph):
    """Original name -> its expanded names, in the expected order."""
    out = {}
    for fcm in graph.fcms():
        ft = fcm.attributes.fault_tolerance
        out[fcm.name] = replica_names(fcm.name, ft) if ft > 1 else [fcm.name]
    return out


def eager_expansion(graph):
    """The expanded graph built node by node and edge by edge."""
    images = images_of(graph)
    out = InfluenceGraph()
    for fcm in graph.fcms():
        names = images[fcm.name]
        if names == [fcm.name]:
            out.add_fcm(fcm)
            continue
        for name in names:
            out.add_fcm(FCM(
                name, fcm.level, fcm.attributes.with_fault_tolerance(1),
                stateless=fcm.stateless, replica_of=fcm.name,
            ))
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                out.link_replicas(a, b)
    for src, dst, weight in graph.influence_edges():
        factors = graph.factors(src, dst)
        for si in images[src]:
            for di in images[dst]:
                if factors:
                    out.set_influence(si, di, factors=factors)
                else:
                    out.set_influence(si, di, weight)
    return out


def compiles_equal(a, b):
    return (
        a.names == b.names
        and a.index == b.index
        and a.weights.tobytes() == b.weights.tobytes()
        and a.log_survival.tobytes() == b.log_survival.tobytes()
    )


class TestExpansionOracle:
    @given(replicated_graphs())
    @settings(max_examples=60, deadline=None)
    def test_weights_are_origin_indexed(self, graph):
        images = images_of(graph)
        expanded = expand_replication(graph)
        original = compile_graph(graph)
        names = [name for fcm in graph.fcms() for name in images[fcm.name]]
        origin_of = {img: name for name, imgs in images.items() for img in imgs}
        img = np.array([original.index[origin_of[name]] for name in names])
        expected = original.weights[img][:, img]
        # The cached compile, and one built afresh from the dict edges.
        for compiled in (compile_graph(expanded), compile_graph(expanded.copy())):
            assert list(compiled.names) == names
            assert np.array_equal(compiled.weights, expected)
            # Replica blocks (and the diagonal) carry no influence.
            same_origin = img[:, None] == img[None, :]
            assert not compiled.weights[same_origin].any()

    @given(replicated_graphs())
    @settings(max_examples=60, deadline=None)
    def test_replica_groups_are_ft_groups(self, graph):
        images = images_of(graph)
        expanded = expand_replication(graph)
        expected = sorted(sorted(imgs) for imgs in images.values() if len(imgs) > 1)
        assert sorted(sorted(g) for g in expanded.replica_groups()) == expected
        for imgs in images.values():
            for a in imgs:
                assert expanded.replica_partners(a) == frozenset(imgs) - {a}

    @given(replicated_graphs())
    @settings(max_examples=60, deadline=None)
    def test_edge_order_is_source_order_times_image_order(self, graph):
        images = images_of(graph)
        expanded = expand_replication(graph)
        installed = [
            (si, di, w, graph.factors(s, d))
            for s, d, w in graph.influence_edges()
            for si in images[s]
            for di in images[d]
        ]
        # The install order, which every successor and predecessor dict
        # inherits; the replica links went in first.
        order = [
            pair
            for pair, data in expanded._graph.edge_payloads().items()
            if not data["replica"]
        ]
        assert order == [(si, di) for si, di, _w, _f in installed]
        # influence_edges() lists each source's edges together, in
        # install order, with the source edge's weight and factors.
        position = {name: i for i, name in enumerate(expanded.fcm_names())}
        expected = sorted(installed, key=lambda edge: position[edge[0]])
        actual = [
            (s, d, w, expanded.factors(s, d))
            for s, d, w in expanded.influence_edges()
        ]
        assert actual == expected


class TestDeferredEdges:
    """Expansion caches the gathered compile and defers the dict edges."""

    @given(replicated_graphs())
    @settings(max_examples=40, deadline=None)
    def test_first_read_yields_the_eager_build(self, graph):
        eager = eager_expansion(graph)
        expanded = expand_replication(graph)
        assert expanded.fcm_names() == eager.fcm_names()
        assert list(expanded.influence_edge_factors()) == list(
            eager.influence_edge_factors()
        )
        # Node order, edge order (replica links included) and payloads.
        assert list(expanded._graph.adjacency()) == list(eager._graph.adjacency())
        assert list(expanded._graph.edge_payloads().items()) == list(
            eager._graph.edge_payloads().items()
        )

    @given(replicated_graphs())
    @settings(max_examples=40, deadline=None)
    def test_cached_compile_equals_a_fresh_compile(self, graph):
        expanded = expand_replication(graph)
        seeded = compile_graph(expanded)
        assert "_deferred" in vars(expanded)  # compiling read no edge
        assert compiles_equal(seeded, compile_graph(expanded.copy()))
        assert compiles_equal(seeded, compile_graph(eager_expansion(graph)))

    def test_install_keeps_version_and_compile(self):
        graph = _fixed_graph()
        expanded = expand_replication(graph)
        version = expanded.version
        seeded = compile_graph(expanded)
        assert expanded.influence("p1a", "p3") > 0.0  # first read
        assert "_deferred" not in vars(expanded)
        assert expanded.version == version
        assert compile_graph(expanded) is seeded

    def test_mutation_invalidates_the_cached_compile(self):
        graph = _fixed_graph()
        expanded = expand_replication(graph)
        seeded = compile_graph(expanded)
        # No read first: the mutation installs the deferred edges, then
        # adds its own edge after them.
        expanded.set_influence("p3", "p4", 0.25)
        assert list(expanded._graph.edge_payloads())[-1] == ("p3", "p4")
        recompiled = compile_graph(expanded)
        assert recompiled is not seeded
        index = recompiled.index
        assert recompiled.weights[index["p3"], index["p4"]] == 0.25
        assert seeded.weights[index["p3"], index["p4"]] == 0.0
        assert compiles_equal(recompiled, compile_graph(expanded.copy()))

    def test_later_source_changes_do_not_leak(self):
        graph = _fixed_graph()
        before = eager_expansion(graph)
        expanded = expand_replication(graph)
        graph.set_influence("p4", "p3", 0.5)
        graph.set_influence("p1", "p2", 0.0)
        assert list(expanded.influence_edge_factors()) == list(
            before.influence_edge_factors()
        )
        assert compiles_equal(compile_graph(expanded), compile_graph(before))


def _fixed_graph():
    """p1 at FT 2 and p2 at FT 3, p3 and p4 unreplicated."""
    graph = InfluenceGraph()
    for name, ft in (("p1", 2), ("p2", 3), ("p3", 1), ("p4", 1)):
        graph.add_fcm(
            FCM(name, Level.PROCESS, AttributeSet(criticality=1.0, fault_tolerance=ft))
        )
    graph.set_influence("p1", "p2", 0.4)
    graph.set_influence("p2", "p3", 0.3)
    graph.set_influence(
        "p1", "p3", factors=[InfluenceFactor(FactorKind.SHARED_MEMORY, 0.5, 0.5, 0.5)]
    )
    return graph
