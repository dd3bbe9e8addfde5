"""FCM attributes and their combination semantics.

Each FCM carries an attribute set: criticality, fault-tolerance
(replication) requirement, timing constraints (earliest start time EST,
task completion deadline TCD, computation time CT), throughput, and
security level.  Section 4.3 of the paper specifies how attributes combine
when FCMs are integrated: "the resulting FCM will usually have the most
stringent component values (e.g. max criticality, min deadline), or an
aggregate (e.g., sum of throughputs)".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum
from functools import reduce

from repro.errors import AttributeError_


class SecurityLevel(IntEnum):
    """Information-security classification of an FCM's data.

    Combination takes the most stringent (highest) level.
    """

    UNCLASSIFIED = 0
    RESTRICTED = 1
    CONFIDENTIAL = 2
    SECRET = 3


@dataclass(frozen=True)
class TimingConstraint:
    """An aperiodic timing window: run ``computation_time`` units of work
    somewhere in ``[earliest_start, deadline]``.

    Matches the paper's (EST, TCD, CT) triple.  A window is *degenerate*
    when the computation cannot even fit alone.
    """

    earliest_start: float
    deadline: float
    computation_time: float

    def __post_init__(self) -> None:
        problems = timing_problems(self.earliest_start, self.deadline, self.computation_time)
        if problems:
            raise AttributeError_(problems[0][1])

    @property
    def window(self) -> float:
        """Length of the feasible interval."""
        return self.deadline - self.earliest_start

    @property
    def laxity(self) -> float:
        """Slack available: window minus computation time."""
        return self.window - self.computation_time

    def fits_alone(self) -> bool:
        """Whether the work fits in the window on a dedicated processor."""
        return not timing_problems(self.earliest_start, self.deadline, self.computation_time)

    def overlaps(self, other: "TimingConstraint") -> bool:
        """Whether the two feasible windows intersect in time."""
        return (
            self.earliest_start < other.deadline - 1e-12
            and other.earliest_start < self.deadline - 1e-12
        )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.earliest_start, self.deadline, self.computation_time)

    def combine(self, other: "TimingConstraint") -> "TimingConstraint":
        """Most-stringent combination for a *merged* FCM (§4.3).

        A merged module runs as one body of code, so it inherits the
        earliest start (it may begin as soon as any part may), the
        *minimum* deadline (most stringent), and the *sum* of computation
        times (all the work must happen).  Raises if the result is
        degenerate — such FCMs cannot be merged.
        """
        return TimingConstraint(
            earliest_start=min(self.earliest_start, other.earliest_start),
            deadline=min(self.deadline, other.deadline),
            computation_time=self.computation_time + other.computation_time,
        )

    def combine_grouped(self, other: "TimingConstraint") -> "TimingConstraint":
        """Envelope combination for *grouped* (co-located) FCMs.

        Grouped modules keep their own windows; the cluster's summary
        timing is the occupancy envelope: earliest start, latest deadline,
        total work.  Built without the degeneracy check — a summary of an
        overloaded cluster is still a useful descriptor (its laxity simply
        goes negative).
        """
        return _unchecked_timing(
            min(self.earliest_start, other.earliest_start),
            max(self.deadline, other.deadline),
            self.computation_time + other.computation_time,
        )


def timing_problems(
    earliest_start: float, deadline: float, computation_time: float
) -> list[tuple[str | None, str]]:
    """Each rule the window (EST, TCD, CT) breaks, as ``(field, message)``;
    field ``None`` is the window as a whole.

    The one statement of the timing rules: :class:`TimingConstraint`
    raises the first, the document reader reports each at its JSON path.
    The deadline is compared with a valid start only, and the work's fit
    only when every other rule holds.
    """
    problems: list[tuple[str | None, str]] = []
    if not computation_time >= 0:
        problems.append(("computation_time", f"computation_time must be >= 0, got {computation_time}"))
    if not earliest_start >= 0:
        problems.append(("earliest_start", f"earliest_start must be >= 0, got {earliest_start}"))
        return problems
    if not deadline >= earliest_start:
        bound = f"earliest_start {earliest_start}"
        problems.append(("deadline", f"deadline must be >= {bound}, got {deadline}"))
    elif not problems and not computation_time <= deadline - earliest_start + 1e-12:
        problems.append((
            None,
            f"degenerate window: {computation_time} units of work cannot fit in "
            f"[{earliest_start}, {deadline}]",
        ))
    return problems


def _unchecked_timing(
    earliest_start: float,
    deadline: float,
    computation_time: float,
) -> TimingConstraint:
    """A TimingConstraint bypassing the degeneracy check (summaries only)."""
    constraint = object.__new__(TimingConstraint)
    object.__setattr__(constraint, "earliest_start", earliest_start)
    object.__setattr__(constraint, "deadline", deadline)
    object.__setattr__(constraint, "computation_time", computation_time)
    return constraint


@dataclass(frozen=True)
class AttributeSet:
    """The dependability-relevant attributes of one FCM.

    Attributes:
        criticality: Non-negative importance of correct function; larger is
            more critical (the paper's ``C`` column).
        fault_tolerance: Required number of concurrent replicas (``FT``);
            1 means no replication, 3 means TMR.
        timing: Optional timing constraint (``EST, TCD, CT``).
        throughput: Work rate the FCM must sustain (arbitrary units/sec);
            aggregates by sum on integration.
        security: Security classification; combines by max.
        communication_rate: Messages per unit time the FCM exchanges with
            peers; aggregates by sum.
    """

    criticality: float = 0.0
    fault_tolerance: int = 1
    timing: TimingConstraint | None = None
    throughput: float = 0.0
    security: SecurityLevel = SecurityLevel.UNCLASSIFIED
    communication_rate: float = 0.0

    def __post_init__(self) -> None:
        problems = attribute_problems(
            self.criticality, self.fault_tolerance, self.throughput, self.communication_rate
        )
        if problems:
            raise AttributeError_(problems[0][1])

    @property
    def replicated(self) -> bool:
        return self.fault_tolerance > 1

    def combine(self, other: "AttributeSet") -> "AttributeSet":
        """Attribute combination on FCM integration (paper §4.3).

        Most stringent wins for criticality, security and fault tolerance;
        throughput and communication rate aggregate by sum; timing combines
        via :meth:`TimingConstraint.combine` (or passes through when only
        one side has a constraint).
        """
        return self._combined(other, TimingConstraint.combine)

    def combine_grouped(self, other: "AttributeSet") -> "AttributeSet":
        """Attribute combination for *grouped* (co-located) FCMs.

        Identical to :meth:`combine` except timing, which takes the
        occupancy envelope instead of the most-stringent merge (grouped
        modules keep their own windows, so a single merged window would be
        spuriously strict).
        """
        return self._combined(other, TimingConstraint.combine_grouped)

    def _combined(self, other: "AttributeSet", combine_timing) -> "AttributeSet":
        """The §4.3 rules, stated once; ``combine_timing`` merges two windows."""
        if self.timing is None:
            timing = other.timing
        elif other.timing is None:
            timing = self.timing
        else:
            timing = combine_timing(self.timing, other.timing)
        return AttributeSet(
            criticality=max(self.criticality, other.criticality),
            fault_tolerance=max(self.fault_tolerance, other.fault_tolerance),
            timing=timing,
            throughput=self.throughput + other.throughput,
            security=max(self.security, other.security),
            communication_rate=self.communication_rate + other.communication_rate,
        )

    def with_fault_tolerance(self, fault_tolerance: int) -> "AttributeSet":
        """Copy with a different replication requirement (used when
        expanding replicas: each replica itself needs FT = 1)."""
        return replace(self, fault_tolerance=fault_tolerance)


def attribute_problems(
    criticality: float, fault_tolerance: int, throughput: float, communication_rate: float
) -> list[tuple[str, str]]:
    """Each domain rule of Table 1 the values break, as ``(field, message)``.

    The one statement of those rules: :class:`AttributeSet` raises the
    first, the document reader reports each at its JSON path.  NaN breaks
    every rule; only criticality must also be finite.
    """
    problems: list[tuple[str, str]] = []
    if not 0 <= criticality < math.inf:
        problems.append(("criticality", f"criticality must be finite and >= 0, got {criticality}"))
    if not fault_tolerance >= 1:
        problems.append(("fault_tolerance", f"fault_tolerance must be >= 1, got {fault_tolerance}"))
    if not throughput >= 0:
        problems.append(("throughput", f"throughput must be >= 0, got {throughput}"))
    if not communication_rate >= 0:
        problems.append(("communication_rate", f"communication_rate must be >= 0, got {communication_rate}"))
    return problems


@dataclass(frozen=True)
class ImportanceWeights:
    """Static relative weights for the importance value of §5.1.

    ``importance(N_i)`` is the weighted sum of the node's attribute values
    using these predefined weights.  Timing importance uses *urgency* —
    inverse laxity — so tighter windows score higher.
    """

    criticality: float = 1.0
    fault_tolerance: float = 0.5
    timing_urgency: float = 0.25
    throughput: float = 0.1
    security: float = 0.25
    communication_rate: float = 0.05

    def __post_init__(self) -> None:
        values = (
            self.criticality,
            self.fault_tolerance,
            self.timing_urgency,
            self.throughput,
            self.security,
            self.communication_rate,
        )
        if any(v < 0 or not math.isfinite(v) for v in values):
            raise AttributeError_("importance weights must be finite and >= 0")

    def importance(self, attributes: AttributeSet) -> float:
        """Weighted-sum importance of an FCM (paper §5.1)."""
        urgency = 0.0
        if attributes.timing is not None:
            # +1 keeps zero-laxity (fully rigid) windows finite and maximal;
            # negative laxity (overloaded grouped summaries) clamps to the
            # maximal urgency.
            urgency = 1.0 / (1.0 + max(0.0, attributes.timing.laxity))
        return (
            self.criticality * attributes.criticality
            + self.fault_tolerance * (attributes.fault_tolerance - 1)
            + self.timing_urgency * urgency
            + self.throughput * attributes.throughput
            + self.security * float(attributes.security)
            + self.communication_rate * attributes.communication_rate
        )


DEFAULT_IMPORTANCE_WEIGHTS = ImportanceWeights()


def combine_all(attribute_sets: list[AttributeSet]) -> AttributeSet:
    """Fold :meth:`AttributeSet.combine` over a nonempty list."""
    return _fold(attribute_sets, AttributeSet.combine)


def combine_all_grouped(attribute_sets: list[AttributeSet]) -> AttributeSet:
    """Fold :meth:`AttributeSet.combine_grouped` over a nonempty list."""
    return _fold(attribute_sets, AttributeSet.combine_grouped)


def _fold(attribute_sets: list[AttributeSet], combine) -> AttributeSet:
    if not attribute_sets:
        raise AttributeError_("cannot combine an empty attribute list")
    return reduce(combine, attribute_sets)
