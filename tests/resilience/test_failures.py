"""Failure models and sequence drawing."""

import random

import pytest

from repro import fully_connected
from repro.errors import SimulationError
from repro.resilience.failures import (
    FailureEvent,
    FailureKind,
    FailureScenario,
    FCRFailureRates,
    draw_failure_sequence,
)
from repro.workloads.automotive import automotive_hw
from repro.workloads.avionics import avionics_hw
from repro.workloads.failure_scenarios import (
    automotive_failure_rates,
    avionics_failure_rates,
)


class TestFailureEvent:
    def test_node_event(self):
        event = FailureEvent(time=1.0, kind=FailureKind.PERMANENT_NODE, node="hw1")
        assert event.node == "hw1"

    def test_transient_needs_repair_time(self):
        with pytest.raises(SimulationError):
            FailureEvent(time=1.0, kind=FailureKind.TRANSIENT_NODE, node="hw1")

    def test_permanent_rejects_repair_time(self):
        with pytest.raises(SimulationError):
            FailureEvent(
                time=1.0,
                kind=FailureKind.PERMANENT_NODE,
                node="hw1",
                repair_time=2.0,
            )

    def test_link_event_carries_link(self):
        event = FailureEvent(time=0.0, kind=FailureKind.LINK, link=("hw1", "hw2"))
        assert event.link == ("hw1", "hw2")
        with pytest.raises(SimulationError):
            FailureEvent(time=0.0, kind=FailureKind.LINK, node="hw1")


class TestFailureScenario:
    def test_events_must_be_time_ordered(self):
        with pytest.raises(SimulationError):
            FailureScenario(
                name="bad",
                events=(
                    FailureEvent(time=5.0, kind=FailureKind.PERMANENT_NODE, node="a"),
                    FailureEvent(time=1.0, kind=FailureKind.PERMANENT_NODE, node="b"),
                ),
            )


class TestRates:
    def test_uniform_covers_every_fcr(self):
        hw = fully_connected(4)
        rates = FCRFailureRates.uniform(hw, permanent=0.1)
        for name in hw.names():
            assert rates.permanent_rate(hw.fcr_of(name)) == 0.1

    def test_negative_rate_rejected(self):
        with pytest.raises(SimulationError):
            FCRFailureRates(permanent={"fcr1": -0.1})


class TestDrawSequence:
    def test_draws_requested_count(self):
        hw = fully_connected(6)
        rates = FCRFailureRates.uniform(hw)
        events = draw_failure_sequence(hw, rates, 3, random.Random(0))
        assert len(events) == 3
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_permanent_nodes_do_not_fail_twice(self):
        hw = fully_connected(3)
        rates = FCRFailureRates.uniform(hw, permanent=1.0, transient=0.0)
        events = draw_failure_sequence(hw, rates, 10, random.Random(1))
        # Only three nodes exist; after all die, the rates burn out.
        assert len(events) == 3
        assert len({e.node for e in events}) == 3

    def test_horizon_truncates(self):
        hw = fully_connected(6)
        rates = FCRFailureRates.uniform(hw, permanent=0.0001, transient=0.0)
        events = draw_failure_sequence(hw, rates, 50, random.Random(0), horizon=1.0)
        assert all(e.time < 1.0 for e in events)

    def test_deterministic_given_seed(self):
        hw = fully_connected(6)
        rates = FCRFailureRates.uniform(hw, link_rate=0.01)
        a = draw_failure_sequence(hw, rates, 5, random.Random(7))
        b = draw_failure_sequence(hw, rates, 5, random.Random(7))
        assert a == b


def _rate_set(label):
    if label == "avionics":
        return avionics_hw(6), avionics_failure_rates()
    if label == "automotive":
        return automotive_hw(), automotive_failure_rates()
    hw = fully_connected(6)
    return hw, FCRFailureRates.uniform(hw, link_rate=0.01)


# Six events per draw as (time, kind, node or link, repair time), each
# sequence holding a link failure.  A change to the choice order or to
# the random numbers a draw consumes moves these.
PINNED_DRAWS = {
    ("avionics", 2): [
        (24.50466553053382, "link", ("cab1", "cab3"), 0.0),
        (24.963038439646017, "transient", "cab1", 10.829027333509202),
        (35.448806191818484, "transient", "cab5", 2.210199215144815),
        (42.78158310715976, "transient", "cab5", 5.222228351938446),
        (44.13930029945219, "transient", "cab4", 3.000618103655421),
        (54.24781516812644, "link", ("cab4", "cab6"), 0.0),
    ],
    ("avionics", 3): [
        (2.1314690449699474, "transient", "cab4", 2.7717857875152774),
        (9.395305636141913, "transient", "cab5", 0.406647207449698),
        (9.499270014531204, "transient", "cab6", 1.801395119853152),
        (11.593428968552637, "link", ("cab4", "cab6"), 0.0),
        (16.596386291997813, "transient", "cab6", 3.8816273060796496),
        (24.62052875999541, "transient", "cab2", 6.044857440767796),
    ],
    ("automotive", 2): [
        (21.69683927182682, "link", ("ecu1", "ecu4"), 0.0),
        (22.10679250744125, "transient", "ecu1", 5.414513666754601),
        (31.48490873649691, "transient", "ecu3", 1.1050996075724075),
        (38.043096541062695, "transient", "ecu3", 2.611114175969223),
        (39.25739290318339, "transient", "ecu2", 1.5003090518277105),
        (48.29810690544839, "link", ("ecu3", "ecu4"), 0.0),
    ],
    ("automotive", 3): [
        (1.8872382169004744, "transient", "ecu3", 1.3858928937576387),
        (8.31876019866732, "transient", "ecu3", 0.203323603724849),
        (8.410811992032839, "transient", "ecu4", 0.900697559926576),
        (10.26501523257265, "link", ("ecu3", "ecu4"), 0.0),
        (14.739491148611645, "transient", "ecu4", 1.9408136530398248),
        (21.916012933370062, "transient", "ecu1", 3.022428720383898),
    ],
    # Links of permanently lost nodes (hw4, hw6, then hw2) leave the draw.
    ("uniform", 0): [
        (6.202023703550743, "link", ("hw2", "hw5"), 0.0),
        (8.083793170935545, "permanent", "hw4", 0.0),
        (11.41381526287578, "transient", "hw5", 7.657724237973414),
        (13.094832208633221, "permanent", "hw6", 0.0),
        (18.93206980115783, "link", ("hw2", "hw3"), 0.0),
        (23.95039195772449, "transient", "hw2", 7.048924667473893),
    ],
    ("uniform", 1): [
        (0.48097021369836385, "link", ("hw3", "hw5"), 0.0),
        (5.456725128686855, "transient", "hw3", 3.4202938982980013),
        (7.515042686852363, "link", ("hw1", "hw5"), 0.0),
        (13.067138659102216, "permanent", "hw2", 0.0),
        (13.207416827730752, "link", ("hw3", "hw6"), 0.0),
        (16.115033466876838, "link", ("hw1", "hw6"), 0.0),
    ],
}


class TestPinnedLinkDraws:
    """Draws with ``link_rate > 0`` under the avionics, automotive and
    uniform rate sets, pinned as literals."""

    @pytest.mark.parametrize("label, seed", sorted(PINNED_DRAWS))
    def test_events_pinned(self, label, seed):
        hw, rates = _rate_set(label)
        events = draw_failure_sequence(hw, rates, 6, random.Random(seed))
        drawn = [
            (e.time, e.kind.value, e.link or e.node, e.repair_time) for e in events
        ]
        assert drawn == PINNED_DRAWS[label, seed]
