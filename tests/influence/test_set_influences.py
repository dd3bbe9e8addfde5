"""The edge-install contract shared by ``set_influences`` and ``set_influence``.

``set_influence`` is a one-edge call to the batch routine, so every
malformed edge must fail the same way through both: same exception type,
same message.  A failing batch keeps the edges before the bad one.
"""

import math
from types import SimpleNamespace

import pytest

from repro.errors import GraphError, InfluenceError, ProbabilityError
from repro.influence import FactorKind, InfluenceFactor, InfluenceGraph
from repro.model import AttributeSet, FCM, Level

from tests.conftest import make_process


def graph() -> InfluenceGraph:
    g = InfluenceGraph()
    for name in ("a", "b", "c"):
        g.add_fcm(make_process(name))
    g.add_fcm(FCM("r", Level.PROCESS, AttributeSet(criticality=1.0)))
    g.add_fcm(FCM("ra", Level.PROCESS, AttributeSet(criticality=1.0), replica_of="r"))
    g.add_fcm(FCM("rb", Level.PROCESS, AttributeSet(criticality=1.0), replica_of="r"))
    g.link_replicas("ra", "rb")
    return g


TIMING = InfluenceFactor(FactorKind.TIMING, 0.5, 0.5, 0.5)
# Duck-typed: a real InfluenceFactor cannot hold an out-of-range value.
BAD_FACTOR = SimpleNamespace(kind=FactorKind.TIMING, probability=1.5)

MALFORMED = [
    pytest.param(("zz", "b", 0.5, None), InfluenceError,
                 "FCM 'zz' not in influence graph", id="unknown-source"),
    pytest.param(("a", "zz", 0.5, None), InfluenceError,
                 "FCM 'zz' not in influence graph", id="unknown-target"),
    pytest.param(("a", "a", 0.5, None), GraphError,
                 "self-loop rejected on node 'a'", id="self-loop"),
    pytest.param(("a", "b", 1.5, None), ProbabilityError,
                 "influence 'a' -> 'b' must be in [0, 1], got 1.5", id="above-one"),
    pytest.param(("a", "b", -0.25, None), ProbabilityError,
                 "influence 'a' -> 'b' must be in [0, 1], got -0.25", id="negative"),
    pytest.param(("a", "b", math.nan, None), ProbabilityError,
                 "influence 'a' -> 'b' must be in [0, 1], got nan", id="nan"),
    pytest.param(("a", "b", 0.5, [TIMING]), InfluenceError,
                 "provide exactly one of value= or factors=", id="both"),
    pytest.param(("a", "b", None, None), InfluenceError,
                 "provide exactly one of value= or factors=", id="neither"),
    pytest.param(("a", "b", None, [BAD_FACTOR]), ProbabilityError,
                 "factor[0] (timing) of influence 'a' -> 'b' has probability "
                 "1.5, outside [0, 1]", id="eq2-factor"),
    pytest.param(("ra", "rb", 0.5, None), InfluenceError,
                 "'ra' and 'rb' are replicas; their link weight is fixed at 0",
                 id="replica-pair"),
]


class TestMalformedEdges:
    @pytest.mark.parametrize("edge, error, message", MALFORMED)
    def test_single_edge_call(self, edge, error, message):
        source, target, value, factors = edge
        with pytest.raises(error) as excinfo:
            graph().set_influence(source, target, value, factors)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("edge, error, message", MALFORMED)
    def test_batch_keeps_edges_before_the_bad_one(self, edge, error, message):
        g = graph()
        with pytest.raises(error) as excinfo:
            g.set_influences(
                [("b", "c", 0.25, None), ("c", "b", None, [TIMING]), edge,
                 ("c", "a", 0.75, None)]
            )
        assert str(excinfo.value) == message
        assert g.influence_edges() == [("b", "c", 0.25), ("c", "b", 0.125)]
        assert g.factors("c", "b") == (TIMING,)


class TestInstallSemantics:
    def test_single_call_returns_stored_weight(self):
        g = graph()
        assert g.set_influence("a", "b", 0.4) == 0.4
        assert g.set_influence("a", "c", factors=[TIMING]) == 0.125
        assert g.set_influence("a", "b", 0.0) == 0.0

    def test_zero_removes_the_edge(self):
        g = graph()
        g.set_influences([("a", "b", 0.4, None), ("a", "c", 0.3, None)])
        g.set_influences([("a", "b", 0.0, None)])
        assert g.influence_edges() == [("a", "c", 0.3)]
        assert g.influence("a", "b") == 0.0

    def test_zero_self_loop_is_a_no_op(self):
        g = graph()
        assert g.set_influence("a", "a", 0.0) == 0.0
        assert g.influence_edges() == []

    def test_duplicate_overwrites_in_place(self):
        g = graph()
        g.set_influences(
            [("a", "b", 0.4, None), ("a", "c", 0.3, None), ("a", "b", None, [TIMING])]
        )
        assert g.influence_edges() == [("a", "b", 0.125), ("a", "c", 0.3)]
        assert g.factors("a", "b") == (TIMING,)
        g.set_influence("a", "b", 0.9)
        assert g.influence_edges() == [("a", "b", 0.9), ("a", "c", 0.3)]
        assert g.factors("a", "b") == ()

    def test_consumes_a_generator(self):
        g = graph()
        g.set_influences((src, "c", 0.5, None) for src in ("a", "b"))
        assert g.influence_edges() == [("a", "c", 0.5), ("b", "c", 0.5)]

    def test_every_batch_bumps_the_version(self):
        g = graph()
        before = g.version
        g.set_influences([("a", "b", 0.4, None)])
        assert g.version > before
