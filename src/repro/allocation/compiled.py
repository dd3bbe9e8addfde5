"""Compiled combination-policy checks: how every allocation stage asks them.

Condensation heuristics ask ``can this pair of clusters merge?`` tens of
thousands of times; the scalar :class:`~repro.allocation.constraints.
CombinationPolicy` answers each query from scratch — rebuilding
:class:`~repro.scheduling.task_model.Job` objects per member and running
the full processor-demand test per call.  This module compiles a policy
against one (immutable) expanded influence graph:

* per-FCM facts (job timing triples, density contributions, criticality
  flags, security levels, replica partners) are extracted once;
* per-cluster aggregates (job tuples, sequential work sums, release /
  deadline extremes) are cached by member tuple and merged pair checks
  are memoized;
* the exact demand test gains an O(1) *full-window prefilter*: the
  interval ``[min release, max deadline]`` always contains every job, so
  a merged cluster whose total work exceeds that span is infeasible
  before any window enumeration.

Every answer is **bit-identical** to the scalar policy: sums are folded
in the scalar's sequence order (float addition is not associative), the
demand comparison uses the same ``_EPS``, and reason *strings* are
produced by delegating to the scalar policy — the compiled layer only
fast-paths the (overwhelmingly common) "no violation" answer.

Every policy compiles.  A constraint with no fast path (periodic tasks,
user classes, or schedulability over an FCM whose timing is infeasible
alone) becomes a closure over its own ``check``, memoized like the rest;
a :class:`CombinationPolicy` subclass, which may override any
aggregation, answers every query through its own methods.
"""

from __future__ import annotations

from repro.errors import InfluenceError, SchedulingError
from repro.allocation.constraints import (
    CombinationPolicy,
    CriticalityExclusion,
    ReplicaSeparation,
    Schedulability,
    SecuritySeparation,
)
from repro.influence.influence_graph import InfluenceGraph
from repro.scheduling.edf import _EPS
from repro.scheduling.feasibility import FeasibilityMethod
from repro.scheduling.task_model import Job

Members = tuple[str, ...]

_EMPTY: frozenset[str] = frozenset()

#: Feasibility methods the compiled demand and density checks reproduce.
_FAST_METHODS = (FeasibilityMethod.EXACT, FeasibilityMethod.DENSITY)


class _SchedFacts:
    """Per-FCM scheduling facts plus per-block cached aggregates."""

    __slots__ = ("jobs_of", "density_of", "_aggs")

    def __init__(self, graph: InfluenceGraph) -> None:
        self.jobs_of: dict[str, tuple[float, float, float] | None] = {}
        self.density_of: dict[str, float | None] = {}
        self._aggs: dict[Members, tuple] = {}
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

    def agg(self, block: Members) -> tuple:
        """(jobs, work_sum, min_release, max_deadline, density_sum).

        ``work_sum`` and ``density_sum`` are *sequential* left folds in
        member order — the same addition sequence the scalar test
        performs over the full-window demand and the density sum.
        """
        cached = self._aggs.get(block)
        if cached is not None:
            return cached
        jobs: list[tuple[float, float, float]] = []
        work_sum = 0.0
        min_r = None
        max_d = None
        density_sum = 0.0
        jobs_of = self.jobs_of
        density_of = self.density_of
        for name in block:
            triple = jobs_of[name]
            if triple is None:
                continue
            r, d, w = triple
            jobs.append(triple)
            work_sum += w
            if min_r is None or r < min_r:
                min_r = r
            if max_d is None or d > max_d:
                max_d = d
            contribution = density_of[name]
            if contribution is not None:
                density_sum += contribution
        result = (tuple(jobs), work_sum, min_r, max_d, density_sum)
        self._aggs[block] = result
        return result


def _demand_feasible(jobs: tuple[tuple[float, float, float], ...]) -> bool:
    """Exact replica of :func:`repro.scheduling.edf.demand_feasible`
    over (release, deadline, work) triples — no Job construction."""
    if not jobs:
        return True
    releases = sorted({r for r, _d, _w in jobs})
    deadlines = sorted({d for _r, d, _w in jobs})
    for t1 in releases:
        lo = t1 - _EPS
        for t2 in deadlines:
            if t2 <= t1:
                continue
            hi = t2 + _EPS
            demand = 0.0
            for r, d, w in jobs:
                if r >= lo and d <= hi:
                    demand += w
            if demand > (t2 - t1) + _EPS:
                return False
    return True


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
    compiled facts and memoized per member-tuple pair; queries that need
    reason strings delegate to the scalar policy when (and only when) a
    violation actually exists, so every string matches the scalar output
    verbatim.
    """

    def __init__(self, graph: InfluenceGraph, policy: CombinationPolicy) -> None:
        self.graph = graph
        self.policy = policy
        self._sched: _SchedFacts | None = None
        self._pair_memo: dict[tuple[Members, Members], bool] = {}
        self._checks: list = []
        self._has_replica_sep = False
        self._replicas: ReplicaPartners | None = None
        self._member_sets: dict[Members, frozenset[str]] = {}
        self._crit_any: dict[Members, bool] = {}
        self._sec_range: dict[Members, tuple[int, int] | None] = {}
        for constraint in policy.constraints:
            if isinstance(constraint, ReplicaSeparation):
                self._has_replica_sep = True
                self._replicas = ReplicaPartners(graph)
                self._checks.append(self._check_replicas)
            elif isinstance(constraint, Schedulability) and (
                constraint.method in _FAST_METHODS
            ) and self._sched_facts(graph):
                if constraint.method is FeasibilityMethod.DENSITY:
                    self._checks.append(self._check_density)
                else:
                    self._checks.append(self._check_demand)
            elif isinstance(constraint, CriticalityExclusion):
                threshold = constraint.threshold
                flags = {
                    fcm.name: fcm.attributes.criticality >= threshold
                    for fcm in graph.fcms()
                }
                self._checks.append(self._make_criticality_check(flags))
            elif isinstance(constraint, SecuritySeparation):
                levels = {
                    fcm.name: int(fcm.attributes.security)
                    for fcm in graph.fcms()
                }
                self._checks.append(self._make_security_check(levels, constraint.max_span))
            else:
                self._checks.append(self._make_generic_check(constraint))

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

    # -- compiled constraint checks (True = no violation) -------------
    def _check_replicas(self, first: Members, second: Members) -> bool:
        return self._replicas.of(first).isdisjoint(self._members(second))

    def _check_demand(self, first: Members, second: Members) -> bool:
        sched = self._sched
        jobs_a, work_a, min_a, max_a = sched.agg(first)[:4]
        jobs_b, work_b, min_b, max_b = sched.agg(second)[:4]
        if not jobs_a and not jobs_b:
            return True
        # Merged full-window aggregates, folded in scalar order: the
        # demand over [min release, max deadline] is the sequential sum
        # of every job's work (first's members precede second's).
        work = work_a
        for _r, _d, w in jobs_b:
            work += w
        if min_a is None:
            min_r, max_d = min_b, max_b
        elif min_b is None:
            min_r, max_d = min_a, max_a
        else:
            min_r = min_a if min_a <= min_b else min_b
            max_d = max_a if max_a >= max_b else max_b
        if max_d > min_r and work > (max_d - min_r) + _EPS:
            return False
        return _demand_feasible(jobs_a + jobs_b)

    def _check_density(self, first: Members, second: Members) -> bool:
        sched = self._sched
        density = sched.agg(first)[4]
        density_of = sched.density_of
        for name in second:
            contribution = density_of.get(name)
            if contribution is not None:
                density += contribution
        return density <= 1.0 + 1e-12

    def _make_criticality_check(self, flags: dict[str, bool]):
        crit_any = self._crit_any

        def check(first: Members, second: Members) -> bool:
            a = crit_any.get(first)
            if a is None:
                a = crit_any[first] = any(flags[n] for n in first)
            if not a:
                return True
            b = crit_any.get(second)
            if b is None:
                b = crit_any[second] = any(flags[n] for n in second)
            return not b

        return check

    def _make_security_check(self, levels: dict[str, int], max_span: int):
        sec_range = self._sec_range

        def span_of(block: Members) -> tuple[int, int] | None:
            cached = sec_range.get(block)
            if cached is None and block not in sec_range:
                values = [levels[n] for n in block]
                cached = (min(values), max(values)) if values else None
                sec_range[block] = cached
            return cached

        def check(first: Members, second: Members) -> bool:
            a = span_of(first)
            b = span_of(second)
            if a is None:
                lo, hi = b
            elif b is None:
                lo, hi = a
            else:
                lo = a[0] if a[0] <= b[0] else b[0]
                hi = a[1] if a[1] >= b[1] else b[1]
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


class _SubclassPolicy(CompiledPolicy):
    """A :class:`CombinationPolicy` subclass may override any aggregation,
    so every query goes to its own methods."""

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
