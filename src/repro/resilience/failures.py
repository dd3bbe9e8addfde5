"""Hardware failure models: what goes wrong, where, and when.

Three failure classes cover the paper's FCR argument (§5.1 — "a HW fault
is assumed contained within one FCR"):

* *permanent node loss* — the processor never returns;
* *transient node outage* — the processor returns after a repair time;
* *link failure* — one communication link drops (permanently).

Failures are drawn from per-FCR rates (:class:`FCRFailureRates`) as
competing exponential clocks, or scripted explicitly as a
:class:`FailureScenario` — the DAVOS-style campaign input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import SimulationError
from repro.allocation.hw_model import HWGraph


class FailureKind(Enum):
    """Hardware failure classes."""

    PERMANENT_NODE = "permanent"
    TRANSIENT_NODE = "transient"
    LINK = "link"


@dataclass(frozen=True)
class FailureEvent:
    """One hardware failure at a point in simulated time.

    Attributes:
        time: Simulated time of occurrence (>= 0).
        kind: Failure class.
        node: Failed node name (node failures).
        link: Failed link endpoints, sorted (link failures).
        repair_time: Outage duration for transient failures (> 0).
    """

    time: float
    kind: FailureKind
    node: str | None = None
    link: tuple[str, str] | None = None
    repair_time: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0.0:
            raise SimulationError("failure time must be >= 0")
        if self.kind is FailureKind.LINK:
            if self.link is None or self.node is not None:
                raise SimulationError("link failures carry link=, not node=")
        else:
            if self.node is None or self.link is not None:
                raise SimulationError("node failures carry node=, not link=")
        if self.kind is FailureKind.TRANSIENT_NODE and self.repair_time <= 0.0:
            raise SimulationError("transient failures need repair_time > 0")
        if self.kind is not FailureKind.TRANSIENT_NODE and self.repair_time != 0.0:
            raise SimulationError("only transient failures carry a repair_time")


@dataclass(frozen=True)
class FailureScenario:
    """A named, scripted failure sequence (events in time order)."""

    name: str
    events: tuple[FailureEvent, ...]
    description: str = ""

    def __post_init__(self) -> None:
        times = [event.time for event in self.events]
        if times != sorted(times):
            raise SimulationError("scenario events must be in time order")


@dataclass(frozen=True)
class FCRFailureRates:
    """Per-FCR failure rates (exponential, per unit of simulated time).

    Attributes:
        permanent: FCR label -> permanent node-loss rate.
        transient: FCR label -> transient outage rate.
        link_rate: Rate per HW link for permanent link failures.
        mean_repair_time: Mean of the (exponential) transient repair time.
    """

    permanent: dict[str, float] = field(default_factory=dict)
    transient: dict[str, float] = field(default_factory=dict)
    link_rate: float = 0.0
    mean_repair_time: float = 5.0

    def __post_init__(self) -> None:
        for label, rate in {**self.permanent, **self.transient}.items():
            if rate < 0.0:
                raise SimulationError(f"negative failure rate for FCR {label!r}")
        if self.link_rate < 0.0:
            raise SimulationError("link_rate must be >= 0")
        if self.mean_repair_time <= 0.0:
            raise SimulationError("mean_repair_time must be > 0")

    @classmethod
    def uniform(
        cls,
        hw: HWGraph,
        permanent: float = 0.005,
        transient: float = 0.02,
        link_rate: float = 0.0,
        mean_repair_time: float = 5.0,
    ) -> "FCRFailureRates":
        """Identical rates for every FCR present in ``hw``."""
        fcrs = sorted({hw.fcr_of(name) for name in hw.names()})
        return cls(
            permanent={fcr: permanent for fcr in fcrs},
            transient={fcr: transient for fcr in fcrs},
            link_rate=link_rate,
            mean_repair_time=mean_repair_time,
        )

    def permanent_rate(self, fcr: str) -> float:
        return self.permanent.get(fcr, 0.0)

    def transient_rate(self, fcr: str) -> float:
        return self.transient.get(fcr, 0.0)


def draw_failure_sequence(
    hw: HWGraph,
    rates: FCRFailureRates,
    count: int,
    rng: random.Random,
    horizon: float | None = None,
) -> list[FailureEvent]:
    """Draw up to ``count`` failures as competing exponential clocks.

    Each alive node contributes its FCR's permanent and transient rates;
    each intact link contributes ``link_rate``.  A permanently failed node
    stops failing (it is gone); transiently failed nodes may fail again —
    the planner treats overlapping outages cumulatively.  Returns fewer
    than ``count`` events when the horizon is reached or every rate has
    burned out.
    """
    if count < 0:
        raise SimulationError("count must be >= 0")
    alive = sorted(hw.names())
    alive_set = set(alive)
    intact_links = (
        sorted((a, b) for a, b, _cost in hw.all_links())
        if rates.link_rate > 0.0
        else []
    )
    events: list[FailureEvent] = []
    now = 0.0
    while len(events) < count:
        choices: list[tuple[float, FailureKind, str | tuple[str, str]]] = []
        for name in alive:
            fcr = hw.fcr_of(name)
            if rates.permanent_rate(fcr) > 0.0:
                choices.append(
                    (rates.permanent_rate(fcr), FailureKind.PERMANENT_NODE, name)
                )
            if rates.transient_rate(fcr) > 0.0:
                choices.append(
                    (rates.transient_rate(fcr), FailureKind.TRANSIENT_NODE, name)
                )
        for link in intact_links:
            if link[0] in alive_set and link[1] in alive_set:
                choices.append((rates.link_rate, FailureKind.LINK, link))
        total = sum(rate for rate, _kind, _target in choices)
        if total <= 0.0:
            break
        now += rng.expovariate(total)
        if horizon is not None and now >= horizon:
            break
        pick = rng.random() * total
        for rate, kind, target in choices:
            pick -= rate
            if pick <= 0.0:
                break
        if kind is FailureKind.LINK:
            assert isinstance(target, tuple)
            events.append(FailureEvent(time=now, kind=kind, link=target))
            intact_links.remove(target)
        elif kind is FailureKind.PERMANENT_NODE:
            assert isinstance(target, str)
            events.append(FailureEvent(time=now, kind=kind, node=target))
            alive.remove(target)
            alive_set.discard(target)
        else:
            assert isinstance(target, str)
            repair = rng.expovariate(1.0 / rates.mean_repair_time)
            events.append(
                FailureEvent(time=now, kind=kind, node=target, repair_time=repair)
            )
    return events
