"""The surviving HW graph, sliced from its parent, against a rebuild.

``HWGraph.surviving`` copies the parent's node and link dicts and
slices its cost matrix.  The reference adds the surviving nodes and
links one at a time through the public ``add_node``/``add_link`` and
builds its matrix from scratch.  Both must agree on every query, the
matrix bit for bit, and the parent must not change, neither by the
slice nor by a later ``add_link`` on the survivor.

Examples are derandomized.
"""

import itertools
import math

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.allocation.hw_model import HWGraph, HWNode, fully_connected

FAST = settings(derandomize=True, max_examples=120, deadline=None)

COSTS = st.one_of(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.just(math.inf),
    st.just(1.0),
)


@st.composite
def hw_graphs(draw):
    """A fully connected, ring or irregular graph.  Names are inserted
    out of sorted order, FCRs and resources are shared, and each link is
    added with its endpoints in either order."""
    count = draw(st.integers(min_value=1, max_value=9))
    shape = draw(st.sampled_from(["full", "ring", "irregular"]))
    names = draw(st.permutations([f"n{i}" for i in range(count)]))
    if shape == "full":
        if draw(st.booleans()):
            hw = fully_connected(count, prefix="n", cost=draw(COSTS))
            return hw, hw.names(), list(itertools.combinations(hw.names(), 2))
        pairs = list(itertools.combinations(names, 2))
    elif shape == "ring":
        pairs = []
        for i, a in enumerate(names):
            b = names[(i + 1) % count]
            if a != b and (b, a) not in pairs:
                pairs.append((a, b))
    else:
        every = list(itertools.combinations(names, 2))
        pairs = [pair for pair in every if draw(st.booleans())]
    hw = HWGraph()
    for name in names:
        hw.add_node(
            HWNode(
                name,
                fcr=draw(st.sampled_from(["fcr0", "fcr1", "fcr2"])),
                resources=frozenset(
                    draw(st.sets(st.sampled_from(["bus", "gpu", "io"]), max_size=2))
                ),
                memory=draw(st.sampled_from([0.0, 4.0])),
            )
        )
    for a, b in draw(st.permutations(pairs)):
        if draw(st.booleans()):
            a, b = b, a
        hw.add_link(a, b, draw(COSTS))
    return hw, names, pairs


@st.composite
def failures(draw):
    hw, names, pairs = draw(hw_graphs())
    failed = draw(st.sets(st.sampled_from(names)))
    links = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    links = [(b, a) if draw(st.booleans()) else (a, b) for a, b in links]
    return hw, failed, links


def rebuild(hw: HWGraph, failed: set[str], links) -> HWGraph:
    down = {frozenset(link) for link in links}
    out = HWGraph()
    for node in hw.nodes():
        if node.name not in failed:
            out.add_node(node)
    for a, b, cost in hw.all_links():
        if a in failed or b in failed or frozenset((a, b)) in down:
            continue
        out.add_link(a, b, cost)
    return out


def snapshot(hw: HWGraph):
    position, costs = hw.cost_matrix()
    return hw.nodes(), hw.all_links(), list(position.items()), costs.tobytes()


def assert_same_graph(out: HWGraph, ref: HWGraph) -> None:
    assert out.names() == ref.names()
    assert all(a is b for a, b in zip(out.nodes(), ref.nodes()))
    assert out.all_links() == ref.all_links()
    position, costs = out.cost_matrix()
    ref_position, ref_costs = ref.cost_matrix()
    assert list(position.items()) == list(ref_position.items())
    assert costs.shape == ref_costs.shape and costs.dtype == ref_costs.dtype
    assert costs.tobytes() == ref_costs.tobytes()
    for a in out.names():
        assert out.fcr_of(a) == ref.fcr_of(a)
        for b in out.names():
            assert out.link_cost(a, b) == ref.link_cost(a, b)
            assert out.connected(a, b) == ref.connected(a, b)


@FAST
@given(failures())
def test_sliced_survivors_equal_a_rebuild(case):
    hw, failed, links = case
    out = hw.surviving(failed, links)
    assert_same_graph(out, rebuild(hw, failed, links))


@FAST
@given(failures())
def test_parent_unchanged_by_slice_and_by_survivor_edits(case):
    hw, failed, links = case
    before = snapshot(hw)
    cached = hw.cost_matrix()
    out = hw.surviving(failed, links)
    assert hw.cost_matrix() is cached
    assert snapshot(hw) == before
    survivors = out.names()
    if len(survivors) >= 2:
        out.add_link(survivors[0], survivors[-1], 0.25)
        position, costs = out.cost_matrix()
        assert costs[position[survivors[0]], position[survivors[-1]]] == 0.25
    assert hw.cost_matrix() is cached
    assert snapshot(hw) == before
