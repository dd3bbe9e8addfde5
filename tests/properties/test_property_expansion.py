"""Property-based oracle for replica expansion (Fig. 4).

The oracle does not use the expansion code: an FCM with fault tolerance
``k > 1`` becomes ``k`` suffixed images, so the expanded weight matrix
is the original one indexed by each image's origin, ``W[img][:, img]``.
The replica blocks of that matrix are 0 because an FCM has no influence
on itself.  The random graphs mix value edges and factor edges (Eq. 2).
"""

import random

import pytest

np = pytest.importorskip("numpy")

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


class TestExpansionOracle:
    @given(replicated_graphs())
    @settings(max_examples=60, deadline=None)
    def test_weights_are_origin_indexed(self, graph):
        images = images_of(graph)
        expanded = expand_replication(graph)
        original = compile_graph(graph)
        compiled = compile_graph(expanded)
        names = [name for fcm in graph.fcms() for name in images[fcm.name]]
        assert list(compiled.names) == names
        origin_of = {img: name for name, imgs in images.items() for img in imgs}
        img = np.array([original.index[origin_of[name]] for name in names])
        expected = original.weights[img][:, img]
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
