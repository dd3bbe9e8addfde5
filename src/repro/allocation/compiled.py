"""Compiled combination-policy checks: how every allocation stage asks them.

Condensation heuristics ask ``can this pair of clusters merge?`` tens of
thousands of times; the scalar :class:`~repro.allocation.constraints.
CombinationPolicy` answers each query from scratch — rebuilding
:class:`~repro.scheduling.task_model.Job` objects per member and running
the full processor-demand test per call.  This module compiles a policy
against one (immutable) expanded influence graph:

* per-FCM facts (job timing triples, density contributions,
  criticalities, security levels, replica partners) are extracted once;
* per-cluster aggregates (job tuples, sequential work sums, release /
  deadline extremes) are cached by member tuple and merged pair checks
  are memoized;
* the exact demand test gains an O(1) *full-window prefilter*: the
  interval ``[min release, max deadline]`` always contains every job, so
  a merged cluster whose total work exceeds that span is infeasible
  before any window enumeration.

Three queries answer from those facts: ``can_combine`` (and
``block_valid``, pair by pair), the violation *count* of a block
(:meth:`CompiledPolicy.block_violation_count`, H2's ejection score), and
a growing block (:meth:`CompiledPolicy.block`), whose running aggregates
make a first-fit probe O(1).  Every answer is **bit-identical** to the
scalar policy: sums are folded in the scalar's sequence order (float
addition is not associative), the demand comparison uses the same
``_EPS``, and reason *strings* are produced by delegating to the scalar
policy, which runs only when a violation exists.

Every policy compiles.  A constraint with no fast path (periodic tasks,
user classes, or schedulability over an FCM whose timing is infeasible
alone) becomes a closure over its own ``check``, memoized like the rest;
a :class:`CombinationPolicy` subclass, which may override any
aggregation, answers every query through its own methods.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import InfluenceError, SchedulingError
from repro.allocation.constraints import (
    CombinationPolicy,
    CriticalityExclusion,
    PeriodicSchedulability,
    ReplicaSeparation,
    Schedulability,
    SecuritySeparation,
)
from repro.influence.influence_graph import InfluenceGraph
from repro.scheduling.edf import _EPS, demand_feasible_triples
from repro.scheduling.feasibility import FeasibilityMethod
from repro.scheduling.task_model import Job

Members = tuple[str, ...]

_EMPTY: frozenset[str] = frozenset()

#: Feasibility methods the compiled demand and density checks reproduce.
_FAST_METHODS = (FeasibilityMethod.EXACT, FeasibilityMethod.DENSITY)

#: Constraint classes whose reason texts are fixed and contain no "/".
_FIXED_REASONS = frozenset({
    ReplicaSeparation,
    Schedulability,
    CriticalityExclusion,
    SecuritySeparation,
    PeriodicSchedulability,
})


class _SchedAgg:
    """A block's scheduling aggregates, folded member by member.

    ``work`` and ``density`` are *sequential* left folds in member order
    — the addition sequence the scalar test performs over the
    full-window demand and the density sum.  A growing block keeps one
    and adds each new member to it, so its sums are the same folds.
    """

    __slots__ = ("jobs", "work", "min_r", "max_d", "density")

    def __init__(self) -> None:
        self.jobs: list[tuple[float, float, float]] = []
        self.work = 0.0
        self.min_r: float | None = None
        self.max_d: float | None = None
        self.density = 0.0

    def add(self, job: tuple[float, float, float] | None, density: float | None) -> None:
        if job is None:
            return
        r, d, w = job
        self.jobs.append(job)
        self.work += w
        if self.min_r is None or r < self.min_r:
            self.min_r = r
        if self.max_d is None or d > self.max_d:
            self.max_d = d
        if density is not None:
            self.density += density


class _SchedFacts:
    """Per-FCM scheduling facts plus per-block cached aggregates."""

    __slots__ = ("jobs_of", "density_of", "_aggs")

    def __init__(self, graph: InfluenceGraph) -> None:
        self.jobs_of: dict[str, tuple[float, float, float] | None] = {}
        self.density_of: dict[str, float | None] = {}
        self._aggs: dict[Members, _SchedAgg] = {}
        for fcm in graph.fcms():
            timing = fcm.attributes.timing
            if timing is None:
                self.jobs_of[fcm.name] = None
                self.density_of[fcm.name] = None
                continue
            # Raises SchedulingError for a window that cannot fit its own
            # work; the constraint then runs its own check instead.
            job = Job.from_timing(fcm.name, timing)
            self.jobs_of[fcm.name] = (job.release, job.deadline, job.work)
            window = job.deadline - job.release
            self.density_of[fcm.name] = (
                job.work / window if window > 0 else None
            )

    def add(self, agg: _SchedAgg, name: str) -> None:
        agg.add(self.jobs_of[name], self.density_of[name])

    def agg(self, block: Members) -> _SchedAgg:
        """The aggregates of ``block``, cached; never mutate the result."""
        cached = self._aggs.get(block)
        if cached is None:
            cached = self._aggs[block] = _SchedAgg()
            for name in block:
                self.add(cached, name)
        return cached


# The exact demand test; a module global looked up at call time, so a
# wrapper installed here (a tracing hook) sees every call.
_demand_feasible = demand_feasible_triples


# -- one verdict per constraint, shared by pair checks and growing blocks --
def _demand_ok(agg: _SchedAgg, jobs: Sequence[tuple[float, float, float]]) -> bool:
    """Whether ``agg``'s jobs followed by ``jobs`` pass the demand test.

    The full-window bound goes first: ``[min release, max deadline]``
    holds every job, and its demand is the sequential work sum (the
    first block's terms before the second's), so a sum above the span
    rejects before any window enumeration.
    """
    if not agg.jobs and not jobs:
        return True
    work, min_r, max_d = agg.work, agg.min_r, agg.max_d
    for r, d, w in jobs:
        work += w
        if min_r is None or r < min_r:
            min_r = r
        if max_d is None or d > max_d:
            max_d = d
    if max_d > min_r and work > (max_d - min_r) + _EPS:
        return False
    return _demand_feasible((*agg.jobs, *jobs))


def _density_ok(density: float, contributions) -> bool:
    """Whether ``density`` plus each contribution in turn stays <= 1."""
    for contribution in contributions:
        if contribution is not None:
            density += contribution
    return density <= 1.0 + 1e-12


def _critical_ok(top_a: float | None, top_b: float | None, threshold: float) -> bool:
    """Not both blocks hold a process at or above ``threshold``.

    ``top`` is a block's highest criticality (None when empty):
    criticalities are finite, so "some member is at or above the
    threshold" is "the highest member is".
    """
    return (
        top_a is None
        or top_b is None
        or not (top_a >= threshold and top_b >= threshold)
    )


def _span_union(
    a: tuple[int, int] | None, b: tuple[int, int] | None
) -> tuple[int, int] | None:
    """The (lowest, highest) security level of two blocks together."""
    if a is None:
        return b
    if b is None:
        return a
    return (a[0] if a[0] <= b[0] else b[0], a[1] if a[1] >= b[1] else b[1])


class ReplicaPartners:
    """Replica partners of member blocks, cached by member tuple.

    A block's partners are the union of its members' replica partners.
    Two blocks hold replicas of one module exactly when one block's
    partners meet the other block's members.
    """

    __slots__ = ("_of", "_unions")

    def __init__(self, graph: InfluenceGraph) -> None:
        self._of: dict[str, frozenset[str]] = {}
        for name in graph.fcm_names():
            partners = graph.replica_partners(name)
            if partners:
                self._of[name] = partners
        self._unions: dict[Members, frozenset[str]] = {}

    def of(self, block: Members) -> frozenset[str]:
        cached = self._unions.get(block)
        if cached is None:
            out: set[str] = set()
            for name in block:
                linked = self._of.get(name)
                if linked:
                    out |= linked
            cached = frozenset(out) if out else _EMPTY
            self._unions[block] = cached
        return cached


class CompiledPolicy:
    """A :class:`CombinationPolicy` specialized to one influence graph.

    Boolean queries (:meth:`can_combine`, :meth:`block_valid`) run on
    compiled facts and memoized per member-tuple pair;
    :meth:`block_violation_count` runs every check and memoizes per
    member pair; queries that need reason strings delegate to the scalar
    policy when (and only when) a violation actually exists, so every
    string matches the scalar output verbatim.
    """

    def __init__(self, graph: InfluenceGraph, policy: CombinationPolicy) -> None:
        self.graph = graph
        self.policy = policy
        self._sched: _SchedFacts | None = None
        self._pair_memo: dict[tuple[Members, Members], bool] = {}
        self._pair_violations: dict[tuple[str, str], int] = {}
        self._has_replica_sep = False
        self._replicas: ReplicaPartners | None = None
        self._criticality: dict[str, float] | None = None
        self._levels: dict[str, int] | None = None
        self._member_sets: dict[Members, frozenset[str]] = {}
        self._top_criticality: dict[Members, float | None] = {}
        self._sec_range: dict[Members, tuple[int, int] | None] = {}
        compiled = [self._compile(constraint) for constraint in policy.constraints]
        self._checks = [check for check, _probe in compiled]
        # The growing block's probe for each check, in constraint order;
        # None when some constraint has no running form.
        probes = [probe for _check, probe in compiled]
        self._probes = None if None in probes else probes
        kinds = [type(constraint) for constraint in policy.constraints]
        # A violation count equals the de-duplicated reason list's length
        # only when no two reasons can share a text.
        self._countable = (
            len(set(kinds)) == len(kinds)
            and _FIXED_REASONS.issuperset(kinds)
            and not any("/" in name for name in graph.fcm_names())
        )

    @property
    def fully_compiled(self) -> bool:
        """Whether every verdict comes from compiled facts: no constraint
        answers through its own ``check``, so a query runs no user code."""
        return self._probes is not None

    def _compile(self, constraint) -> tuple:
        """(pair check, growing-block probe or None) of one constraint."""
        graph = self.graph
        if isinstance(constraint, ReplicaSeparation):
            self._has_replica_sep = True
            self._replicas = ReplicaPartners(graph)
            return self._check_replicas, (_RunningBlock.partners_ok, None)
        if isinstance(constraint, Schedulability) and (
            constraint.method in _FAST_METHODS
        ) and self._sched_facts(graph):
            if constraint.method is FeasibilityMethod.DENSITY:
                return self._check_density, (_RunningBlock.density_ok, None)
            return self._check_demand, (_RunningBlock.demand_ok, None)
        if isinstance(constraint, CriticalityExclusion):
            if self._criticality is None:
                self._criticality = {
                    fcm.name: fcm.attributes.criticality for fcm in graph.fcms()
                }
            threshold = constraint.threshold
            return (
                self._make_criticality_check(threshold),
                (_RunningBlock.criticality_ok, threshold),
            )
        if isinstance(constraint, SecuritySeparation):
            if self._levels is None:
                self._levels = {
                    fcm.name: int(fcm.attributes.security) for fcm in graph.fcms()
                }
            max_span = constraint.max_span
            return (
                self._make_security_check(max_span),
                (_RunningBlock.span_ok, max_span),
            )
        return self._make_generic_check(constraint), None

    def _sched_facts(self, graph: InfluenceGraph) -> bool:
        """Build the scheduling facts once; False when some FCM's timing
        is infeasible alone, so the constraint's own check raises."""
        if self._sched is None:
            try:
                self._sched = _SchedFacts(graph)
            except SchedulingError:
                return False
        return True

    # -- per-block cached facts ---------------------------------------
    def _members(self, block: Members) -> frozenset[str]:
        cached = self._member_sets.get(block)
        if cached is None:
            cached = frozenset(block)
            self._member_sets[block] = cached
        return cached

    def _top(self, block: Members) -> float | None:
        """The block's highest member criticality (None when empty)."""
        cache = self._top_criticality
        cached = cache.get(block)
        if cached is None and block not in cache:
            criticality = self._criticality
            cached = cache[block] = max(
                (criticality[n] for n in block), default=None
            )
        return cached

    # -- compiled constraint checks (True = no violation) -------------
    def _check_replicas(self, first: Members, second: Members) -> bool:
        return self._replicas.of(first).isdisjoint(self._members(second))

    def _check_demand(self, first: Members, second: Members) -> bool:
        sched = self._sched
        return _demand_ok(sched.agg(first), sched.agg(second).jobs)

    def _check_density(self, first: Members, second: Members) -> bool:
        sched = self._sched
        density_of = sched.density_of
        return _density_ok(
            sched.agg(first).density, (density_of.get(n) for n in second)
        )

    def _make_criticality_check(self, threshold: float):
        top = self._top

        def check(first: Members, second: Members) -> bool:
            return _critical_ok(top(first), top(second), threshold)

        return check

    def _make_security_check(self, max_span: int):
        levels = self._levels
        sec_range = self._sec_range

        def span_of(block: Members) -> tuple[int, int] | None:
            cached = sec_range.get(block)
            if cached is None and block not in sec_range:
                values = [levels[n] for n in block]
                cached = (min(values), max(values)) if values else None
                sec_range[block] = cached
            return cached

        def check(first: Members, second: Members) -> bool:
            lo, hi = _span_union(span_of(first), span_of(second))
            return hi - lo <= max_span

        return check

    def _make_generic_check(self, constraint):
        graph = self.graph

        def check(first: Members, second: Members) -> bool:
            return constraint.check(graph, first, second) is None

        return check

    # -- policy surface ------------------------------------------------
    def can_combine(self, first: Members, second: Members) -> bool:
        key = (first, second)
        cached = self._pair_memo.get(key)
        if cached is not None:
            return cached
        if self._has_replica_sep and (self._members(first) & self._members(second)):
            # The policy's own violations() reaches clusters_combinable()
            # regardless of other violations (it never short-circuits), so
            # the overlap error must fire here too.
            raise InfluenceError("clusters overlap")
        result = True
        for check in self._checks:
            if not check(first, second):
                result = False
                break
        self._pair_memo[key] = result
        return result

    def violations(self, first: Members, second: Members) -> list[str]:
        if self.can_combine(first, second):
            return []
        return self.policy.violations(self.graph, first, second)

    def require_combinable(self, first: Members, second: Members) -> None:
        if not self.can_combine(first, second):
            self.policy.require_combinable(self.graph, first, second)

    def block_valid(self, members: Members) -> bool:
        block = tuple(members)
        for i, a in enumerate(block):
            pair_a = (a,)
            for b in block[i + 1:]:
                if not self.can_combine(pair_a, (b,)):
                    return False
        if len(block) > 1 and not self.can_combine(block[:1], block[1:]):
            return False
        return True

    def block_violations(self, members: Members) -> list[str]:
        block = tuple(members)
        if self.block_valid(block):
            return []
        return self.policy.block_violations(self.graph, block)

    def block_violation_count(self, members: Members) -> int:
        """``len(block_violations(members))``, counted on the compiled checks.

        Like the scalar policy, runs every check on every internal pair
        (memoized per pair) and on ``(block[:1], block[1:])``.  A block
        with a repeated member, or a policy whose reasons could share a
        text, takes the scalar list: two constraints of one type, a
        constraint class whose text is not fixed, or an FCM name holding
        "/" (pair reasons read ``a/b: ...``).
        """
        block = tuple(members)
        if not self._countable or len(set(block)) != len(block):
            return len(self.policy.block_violations(self.graph, block))
        checks = self._checks
        memo = self._pair_violations
        total = 0
        for i, a in enumerate(block):
            first = (a,)
            for b in block[i + 1:]:
                count = memo.get((a, b))
                if count is None:
                    second = (b,)
                    count = memo[a, b] = sum(
                        not check(first, second) for check in checks
                    )
                total += count
        if len(block) > 1:
            first, rest = block[:1], block[1:]
            total += sum(not check(first, rest) for check in checks)
        return total

    def block(self, members: Iterable[str] = ()) -> "Block":
        """A block that grows one member at a time, holding ``members``."""
        if self._probes is None:
            return Block(self.can_combine, members)
        return _RunningBlock(self, members)


class Block:
    """A block of members that grows one member at a time.

    ``accepts(name)`` answers ``can_combine(tuple(members), (name,))``,
    overlap error included; ``add(name)`` appends ``name``.  This class
    asks that query each time; :class:`_RunningBlock` keeps aggregates.
    """

    __slots__ = ("members", "_can_combine")

    def __init__(self, can_combine, members: Iterable[str] = ()) -> None:
        self._can_combine = can_combine
        self.members: list[str] = []
        for name in members:
            self.add(name)

    def __len__(self) -> int:
        return len(self.members)

    def accepts(self, name: str) -> bool:
        return self._can_combine(tuple(self.members), (name,))

    def add(self, name: str) -> None:
        self.members.append(name)


class _RunningBlock(Block):
    """A block whose aggregates run in member order as it grows.

    It keeps the partner union, the highest criticality, the security
    span and the scheduling aggregates (:class:`_SchedAgg`: job list,
    work sum, min release, max deadline, density sum) of its members, the
    values the pair checks read from their per-block caches.  Each probe
    hands them to the same verdict as the pair check, so it costs O(1)
    plus a demand test when the full-window bound does not reject.
    Probes run in constraint order and stop at the first rejection, as
    ``can_combine`` does.
    """

    __slots__ = ("_policy", "_names", "_partners", "_sched", "_top", "_span")

    def __init__(self, policy: CompiledPolicy, members: Iterable[str]) -> None:
        self._policy = policy
        self._names: set[str] = set()
        self._partners: set[str] = set()
        self._sched = _SchedAgg()
        self._top: float | None = None
        self._span: tuple[int, int] | None = None
        super().__init__(policy.can_combine, members)

    def accepts(self, name: str) -> bool:
        policy = self._policy
        if policy._has_replica_sep and name in self._names:
            raise InfluenceError("clusters overlap")
        for probe, param in policy._probes:
            if not probe(self, name, param):
                return False
        return True

    def add(self, name: str) -> None:
        self.members.append(name)
        self._names.add(name)
        policy = self._policy
        if policy._replicas is not None:
            self._partners |= policy._replicas.of((name,))
        if policy._sched is not None:
            policy._sched.add(self._sched, name)
        if policy._criticality is not None:
            value = policy._criticality[name]
            if self._top is None or value > self._top:
                self._top = value
        if policy._levels is not None:
            level = policy._levels[name]
            self._span = _span_union(self._span, (level, level))

    # -- probes: (block, name, constraint parameter) -> no violation ----
    def partners_ok(self, name: str, _param) -> bool:
        return name not in self._partners

    def demand_ok(self, name: str, _param) -> bool:
        job = self._policy._sched.jobs_of[name]
        return _demand_ok(self._sched, () if job is None else (job,))

    def density_ok(self, name: str, _param) -> bool:
        return _density_ok(self._sched.density, (self._policy._sched.density_of[name],))

    def criticality_ok(self, name: str, threshold: float) -> bool:
        return _critical_ok(self._top, self._policy._criticality[name], threshold)

    def span_ok(self, name: str, max_span: int) -> bool:
        level = self._policy._levels[name]
        lo, hi = _span_union(self._span, (level, level))
        return hi - lo <= max_span


class _SubclassPolicy(CompiledPolicy):
    """A :class:`CombinationPolicy` subclass may override any aggregation,
    so every query goes to its own methods."""

    _probes = None

    def __init__(self, graph: InfluenceGraph, policy: CombinationPolicy) -> None:
        self.graph = graph
        self.policy = policy

    def can_combine(self, first: Members, second: Members) -> bool:
        return self.policy.can_combine(self.graph, first, second)

    def violations(self, first: Members, second: Members) -> list[str]:
        return self.policy.violations(self.graph, first, second)

    def require_combinable(self, first: Members, second: Members) -> None:
        self.policy.require_combinable(self.graph, first, second)

    def block_valid(self, members: Members) -> bool:
        return self.policy.block_valid(self.graph, members)

    def block_violations(self, members: Members) -> list[str]:
        return self.policy.block_violations(self.graph, members)

    def block_violation_count(self, members: Members) -> int:
        return len(self.policy.block_violations(self.graph, members))


def compile_policy(
    graph: InfluenceGraph,
    policy: CombinationPolicy,
) -> CompiledPolicy:
    """Compile ``policy`` against ``graph``.

    Constraint checks are assumed pure: answers are memoized per member
    tuple pair, and a query stops at the first rejecting constraint.
    """
    if type(policy) is not CombinationPolicy:
        return _SubclassPolicy(graph, policy)
    return CompiledPolicy(graph, policy)
