"""Property-based tests for the truncation of Eq. (3).

Over random sub-stochastic influence matrices with cycles, the
truncated series and its reported tail bound must bracket the closed
form ``(I - P)^{-1} - I``, and separation must not increase as the
truncation order grows.  Examples are derandomized, so the tests are
deterministic.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.influence import InfluenceGraph, compute_separation

from tests.conftest import make_process

ORDERS = range(1, 9)
EPS = 1e-12


@st.composite
def substochastic_graphs(draw) -> InfluenceGraph:
    """2-6 FCMs on a directed ring (so every FCM sits on a cycle), plus
    random chords; each row of ``P`` sums to at most ``rho < 1``."""
    n = draw(st.integers(min_value=2, max_value=6))
    rho = draw(st.integers(min_value=10, max_value=95)) / 100.0
    cells = st.integers(min_value=0, max_value=100)
    raw = draw(
        st.lists(
            st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    weights = np.array(raw, dtype=float) / 100.0
    np.fill_diagonal(weights, 0.0)
    for i in range(n):
        weights[i, (i + 1) % n] = max(weights[i, (i + 1) % n], 0.05)
    row_sums = weights.sum(axis=1, keepdims=True)
    weights *= np.minimum(1.0, rho / row_sums)
    g = InfluenceGraph()
    names = [f"p{i}" for i in range(n)]
    for name in names:
        g.add_fcm(make_process(name))
    for i, src in enumerate(names):
        for j, dst in enumerate(names):
            if weights[i, j] > 0.0:
                g.set_influence(src, dst, float(weights[i, j]))
    return g


class TestEq3Truncation:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(substochastic_graphs())
    def test_truncation_plus_tail_brackets_closed_form(self, graph):
        closed = compute_separation(graph, order=None).transitive
        for order in ORDERS:
            result = compute_separation(graph, order=order)
            assert not result.truncated
            assert np.isfinite(result.tail_bound)
            assert (result.transitive <= closed + EPS).all()
            assert (closed <= result.transitive + result.tail_bound + EPS).all()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(substochastic_graphs())
    def test_separation_does_not_increase_with_order(self, graph):
        names = graph.fcm_names()
        results = [compute_separation(graph, order=o) for o in ORDERS]
        results.append(compute_separation(graph, order=None))
        for src in names:
            for dst in names:
                if src == dst:
                    continue
                for clamp in (False, True):
                    values = [
                        r.separation(src, dst, clamp=clamp) for r in results
                    ]
                    assert all(
                        later <= earlier + EPS
                        for earlier, later in zip(values, values[1:])
                    ), (src, dst, clamp, values)
