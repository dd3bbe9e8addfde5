"""Condense's fast paths against answers computed from scratch.

* The pair table: at every merge of H1 and of timing refinement, the
  table's pick equals a rescan of every pair, the loop condense ran
  after each merge before the table existed.  A synthetic score whose
  values tie within 1e-15 exercises the tie-break rule.  H1's merged
  rows, folded at once, equal ``mutual_influence`` bit for bit; under a
  fully compiled policy no pick asks a pair below the stop, and a user
  check that raises raises at the merge a rescan would.
* The violation count: equals ``len(policy.block_violations(...))`` on
  random blocks and policies, including the policies where reasons can
  share a text and the count takes the reason list.
* The growing block: every probe equals the scalar
  ``policy.can_combine(graph, tuple(block), (name,))``, errors included,
  over random growth orders, with windows that tie within ``_EPS``.

Examples are derandomized.
"""

import random
import struct
from dataclasses import dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.allocation import expand_replication, required_hw_nodes
from repro.allocation.clustering import ClusterState
from repro.allocation.compiled import _RunningBlock
from repro.allocation.constraints import (
    CombinationPolicy,
    CriticalityExclusion,
    PeriodicSchedulability,
    ReplicaSeparation,
    Schedulability,
    SecuritySeparation,
)
from repro.allocation.heuristics import H1Influence, TimingRefinement
from repro.allocation.heuristics.base import PairTable, best_combinable_pair
from repro.allocation.heuristics.h1_influence import InfluenceTable, _mutual_influence
from repro.allocation.heuristics.timing import _slack_score
from repro.errors import DDSIError, InfeasibleAllocationError
from repro.graphs.matrix import _GATHER_MIN
from repro.influence import InfluenceGraph
from repro.model import AttributeSet, TimingConstraint
from repro.model.attributes import SecurityLevel
from repro.model.fcm import process
from repro.obs import Recorder, use
from repro.scheduling.feasibility import FeasibilityMethod
from repro.workloads import WorkloadSpec, random_process_graph

FAST = settings(derandomize=True, max_examples=25, deadline=None)


@st.composite
def workloads(draw):
    spec = WorkloadSpec(
        processes=draw(st.integers(min_value=2, max_value=14)),
        edge_probability=draw(st.sampled_from([0.0, 0.2, 0.6, 0.95])),
        replicated_fraction=draw(st.sampled_from([0.0, 0.2, 0.4])),
        utilization=draw(st.sampled_from([0.15, 0.4])),
    )
    return random_process_graph(spec, seed=draw(st.integers(0, 10_000)))


# ----------------------------------------------------------------------
# The pair table
# ----------------------------------------------------------------------
def rescan(state, score, require_positive=False):
    """Every pair asked afresh, in (i, j) order."""
    best = None
    n = len(state.clusters)
    for i in range(n):
        for j in range(i + 1, n):
            if not state.can_combine(i, j):
                continue
            value = score(state, i, j)
            if require_positive and value <= 0.0:
                continue
            if best is None or value > best[2] + 1e-15:
                best = (i, j, value)
    return best


# Within 1e-15 of each other, except the last three.
TIES = (0.5, 0.5 + 4e-16, 0.5 + 9e-16, 0.5 + 1.3e-15, 0.5 + 2.2e-15,
        0.0, -0.25, float("-inf"))


def tie_score(state, i, j):
    """A function of the two member tuples, over values that tie."""
    key = "|".join(state.clusters[i].members) + "#" + "|".join(
        state.clusters[j].members
    )
    return random.Random(key).choice(TIES)


def nan_score(state, i, j):
    """Like :func:`tie_score`, with NaN among the values."""
    key = "nan:" + "|".join(state.clusters[i].members) + "#" + "|".join(
        state.clusters[j].members
    )
    return random.Random(key).choice(TIES + (float("nan"),) * 3)


HEURISTICS = {
    "h1": (H1Influence, _mutual_influence),
    "timing": (TimingRefinement, _slack_score),
}


class TestPairTable:
    @given(workloads(), st.sampled_from(sorted(HEURISTICS)), st.integers(0, 3))
    @FAST
    def test_every_merge_picks_the_rescan_pair(self, graph, name, outside):
        heuristic_class, score = HEURISTICS[name]
        heuristic = heuristic_class()
        state = ClusterState(expand_replication(graph))
        target = max(required_hw_nodes(state.graph), 1)
        steps = 0
        while len(state) > target:
            expected = rescan(state, score)
            table = heuristic.pair_table(state, score)
            assert table.best(require_positive=True) == rescan(state, score, True)
            if expected is None:
                assert heuristic.step(state) is None
                break
            i, j, value = expected
            pair = (state.clusters[i].members, state.clusters[j].members)
            step = heuristic.step(state)
            assert (step.first, step.second) == pair
            if name == "h1":
                assert step.mutual_influence == value
            assert table.follows(state, score)
            steps += 1
            if steps == outside and len(state) > 2:
                # A merge outside the loop: the next step rebuilds.
                state.combine(0, 1, enforce_policy=False)
                assert not table.follows(state, score)

    @given(workloads(), st.booleans())
    @FAST
    def test_ties_within_1e15(self, graph, require_positive):
        state = ClusterState(expand_replication(graph))
        table = PairTable(state, tie_score)
        while True:
            expected = rescan(state, tie_score, require_positive)
            assert table.best(require_positive) == expected
            assert best_combinable_pair(state, tie_score, require_positive) == expected
            if expected is None:
                break
            table.combine(expected[0], expected[1])

    @given(workloads(), st.booleans())
    @FAST
    def test_nan_scores_as_in_a_rescan(self, graph, require_positive):
        # The scan keeps a NaN score only as its first combinable pair.
        state = ClusterState(expand_replication(graph))
        table = PairTable(state, nan_score)
        while True:
            expected = rescan(state, nan_score, require_positive)
            found = table.best(require_positive)
            assert (found is None) == (expected is None)
            if expected is None:
                break
            assert found[:2] == expected[:2]
            assert bits(found[2]) == bits(expected[2])
            table.combine(expected[0], expected[1])

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_rejected_pairs_counted_per_scan(self, name, monkeypatch):
        spec = WorkloadSpec(processes=14, edge_probability=0.3,
                            replicated_fraction=0.4, utilization=0.4)
        state = ClusterState(expand_replication(random_process_graph(spec, seed=3)))
        target = max(required_hw_nodes(state.graph), 1)
        # The counter counts every verdict the condense asks that comes
        # back non-combinable, and nothing else.
        can_combine = ClusterState.can_combine
        rejected = 0

        def counted(self, i, j):
            nonlocal rejected
            combinable = can_combine(self, i, j)
            rejected += not combinable
            return combinable

        monkeypatch.setattr(ClusterState, "can_combine", counted)
        rec = Recorder()
        with use(rec):
            try:
                HEURISTICS[name][0]().condense(state, target)
            except InfeasibleAllocationError:
                pass
        assert rejected > 0
        assert rec.counter("condense_pairs_rejected_total").value() == rejected

    def test_merged_pairs_asked_when_a_rescan_would(self):
        # A check that raises on a 4-member union: the rescan after the
        # last merge never asks (abc, d), the rescan of a further step does.
        graph = InfluenceGraph()
        for name in "abcd":
            graph.add_fcm(process(name))
        policy = CombinationPolicy([ReplicaSeparation(), RaisesAtFour()])
        result = H1Influence().condense(ClusterState(graph, policy), 2)
        assert [c.members for c in result.clusters] == [("a", "b", "c"), ("d",)]
        with pytest.raises(DDSIError, match="four members"):
            H1Influence().condense(ClusterState(graph, policy), 1)

    def test_picks_follow_the_scan_not_the_maximum(self):
        graph = InfluenceGraph()
        for k in range(4):
            graph.add_fcm(process(f"p{k}"))
        state = ClusterState(graph)
        values = {(0, 1): 0.0, (0, 2): 1.5e-15, (0, 3): 2.4e-15,
                  (1, 2): 0.0, (1, 3): 2.6e-15, (2, 3): 3.6e-15}

        def score(_state, i, j):
            return values[i, j]

        # Kept: 0.0, then 1.5e-15; 2.4e-15 is within 1e-15 of it, 2.6e-15
        # is not, and 3.6e-15 is within 1e-15 of 2.6e-15.
        assert PairTable(state, score).best() == (1, 3, 2.6e-15)
        assert rescan(state, score) == (1, 3, 2.6e-15)


class AskLog(ClusterState):
    """A state that logs the pairs asked through ``can_combine``."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.asked: list[tuple[int, int]] = []

    def can_combine(self, i, j):
        self.asked.append((i, j))
        return super().can_combine(i, j)


def bits(value):
    return struct.pack("<d", value)


def assert_rows_fold(state):
    """Merge by H1 as far as the policy allows; after every merge, each
    score of the merged cluster's row is ``mutual_influence`` bit for
    bit.  Returns how many checked pairs multiply more than
    ``_GATHER_MIN`` factors, and how many are replica-related."""
    table = InfluenceTable(state, _mutual_influence)
    n = len(state)
    for i in range(n):
        for j in range(i + 1, n):
            assert bits(table.values[i, j]) == bits(state.mutual_influence(i, j))
    large = related = 0
    while (found := table.best()) is not None:
        lo = table.combine(found[0], found[1])
        size = len(state.clusters[lo])
        for k in range(len(state)):
            if k == lo:
                continue
            i, j = min(k, lo), max(k, lo)
            assert bits(table.values[i, j]) == bits(state.mutual_influence(i, j))
            large += size * len(state.clusters[k]) > _GATHER_MIN
            related += state.replica_related(i, j)
    return large, related


def rescan_condense(state, score, target):
    """Condense by a rescan of every pair at every merge."""
    while len(state) > target:
        found = rescan(state, score)
        if found is None:
            raise InfeasibleAllocationError("no feasible combination")
        state.combine(found[0], found[1])


@dataclass(frozen=True)
class RaisesOnUnion:
    """A user check that raises on one union of members."""

    members: frozenset

    def check(self, graph, first, second):
        if frozenset(first + second) == self.members:
            raise DDSIError("raised on " + ",".join(sorted(self.members)))
        return None


class TestScoreFirst:
    @given(workloads())
    @FAST
    def test_merged_rows_equal_mutual_influence(self, graph):
        # Replica separation alone: clusters grow until only replicas
        # are left apart.
        policy = CombinationPolicy([ReplicaSeparation()])
        assert_rows_fold(ClusterState(expand_replication(graph), policy))

    def test_merged_rows_past_the_gather_size(self):
        # Small weights keep each product near 1, where the order of its
        # factors shows in the last bits of the influence.
        rng = random.Random(5)
        graph = InfluenceGraph()
        names = [f"p{k}" for k in range(40)]
        for name in names:
            tolerance = 2 if rng.random() < 0.3 else 1
            graph.add_fcm(process(name, AttributeSet(fault_tolerance=tolerance)))
        for source in names:
            for target in names:
                if source != target and rng.random() < 0.3:
                    graph.set_influence(source, target, rng.uniform(0.001, 0.05))
        large, related = assert_rows_fold(ClusterState(
            expand_replication(graph), CombinationPolicy([ReplicaSeparation()])
        ))
        assert large > 0 and related > 0

    @given(workloads(), st.sampled_from(sorted(HEURISTICS)))
    @FAST
    def test_no_pair_asked_below_the_stop(self, graph, name):
        heuristic_class, score = HEURISTICS[name]
        state = AskLog(expand_replication(graph))
        assert state.policy_fully_compiled()
        heuristic = heuristic_class()
        target = max(required_hw_nodes(state.graph), 1)
        while len(state) > target:
            table = heuristic.pair_table(state, score)
            state.asked.clear()
            found = table.best()
            asked = set(state.asked)
            # Walk every pair as best() does: descending score, ties in
            # (i, j) order.  An asked pair may lie at most 1e-15 below the
            # lowest combinable pair before it.
            n = len(state)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            values = {pair: score(state, *pair) for pair in pairs}
            lowest = None
            for pair in sorted(pairs, key=lambda pair: -values[pair]):
                if pair in asked:
                    assert lowest is None or not lowest > values[pair] + 1e-15
                if ClusterState.can_combine(state, *pair):
                    lowest = values[pair]
            if found is None:
                break
            table.combine(found[0], found[1])

    def test_no_pair_asked_below_the_stop_on_a_gap(self):
        # Distinct influences: each pick leaves pairs unasked.
        spec = WorkloadSpec(processes=14, edge_probability=0.6,
                            replicated_fraction=0.2, utilization=0.15)
        state = AskLog(expand_replication(random_process_graph(spec, seed=3)))
        table = InfluenceTable(state, _mutual_influence)
        n = len(state)
        found = table.best()
        assert found is not None
        assert len(set(state.asked)) < n * (n - 1) // 2

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_raising_check_raises_at_the_rescan_merge(self, name):
        # a-b is the top pair, then ab-c; the check raises on the
        # low-scoring union {a, b, e}, which the second rescan asks.
        graph = InfluenceGraph()
        for member in "abcde":
            graph.add_fcm(process(member))
        graph.set_influence("a", "b", 0.9)
        graph.set_influence("b", "c", 0.5)
        policy = CombinationPolicy(
            [ReplicaSeparation(), RaisesOnUnion(frozenset("abe"))]
        )
        heuristic_class, score = HEURISTICS[name]
        rescanned = ClusterState(graph, policy)
        with pytest.raises(DDSIError, match="raised on a,b,e"):
            rescan_condense(rescanned, score, 1)
        condensed = ClusterState(graph, policy)
        assert not condensed.policy_fully_compiled()
        with pytest.raises(DDSIError, match="raised on a,b,e"):
            heuristic_class().condense(condensed, 1)
        assert condensed.clusters == rescanned.clusters
        assert len(condensed) == 4


# ----------------------------------------------------------------------
# Hand-built processes: windows on a few points, some within _EPS
# ----------------------------------------------------------------------
POINTS = (0.0, 1e-10, 2.0 - 5e-10, 2.0, 2.0 + 5e-10, 4.0, 4.0 + 1e-10, 7.0)


def random_processes(rng, count, names=None):
    graph = InfluenceGraph()
    for k in range(count):
        timing = None
        if rng.random() < 0.85:
            start, end = sorted(rng.sample(POINTS, 2))
            window = end - start
            work = rng.choice([0.0, window / 4, window / 3, window / 2, window])
            timing = TimingConstraint(start, end, work)
        attributes = AttributeSet(
            criticality=rng.choice([0.0, 1.0, 5.0, 9.0]),
            fault_tolerance=2 if rng.random() < 0.2 else 1,
            timing=timing,
            security=SecurityLevel(rng.randrange(4)),
        )
        graph.add_fcm(process(names[k] if names else f"p{k}", attributes))
    return expand_replication(graph)


def random_policy(rng):
    options = [
        ReplicaSeparation(),
        Schedulability(),
        Schedulability(FeasibilityMethod.DENSITY),
        CriticalityExclusion(1.0),
        CriticalityExclusion(5.0),
        SecuritySeparation(rng.randrange(3)),
    ]
    chosen = [c for c in options if rng.random() < 0.6]
    rng.shuffle(chosen)
    return CombinationPolicy(chosen)


SLASHED = ("a", "b", "c", "a/b", "b/c", "a/b/c", "c/a", "b/a", "x")


@dataclass(frozen=True)
class SameText:
    """A user constraint whose text equals CriticalityExclusion(5.0)'s."""

    def check(self, graph, first, second):
        if len(first) + len(second) > 3:
            return "both clusters contain processes with criticality >= 5.0"
        return None


@dataclass(frozen=True)
class RaisesAtFour:
    """A user constraint whose check raises instead of returning a reason."""

    def check(self, graph, first, second):
        if len(first) + len(second) >= 4:
            raise DDSIError("four members")
        return None


@dataclass
class SubclassPolicy(CombinationPolicy):
    """A policy subclass: every query goes through its own methods."""


# ----------------------------------------------------------------------
# The violation count
# ----------------------------------------------------------------------
def assert_count_matches(graph, policy, rng):
    state = ClusterState(graph, policy)
    names = graph.fcm_names()
    for size in range(len(names) + 1):
        block = rng.sample(names, size)
        try:
            expected = len(policy.block_violations(graph, block))
        except DDSIError as exc:
            with pytest.raises(type(exc)):
                state.policy_block_violation_count(block)
            continue
        assert state.policy_block_violation_count(block) == expected


class TestViolationCount:
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    @FAST
    def test_random_blocks_and_policies(self, seed, fallback, slashes):
        rng = random.Random(seed)
        count = rng.randint(2, len(SLASHED))
        graph = random_processes(
            rng, count, rng.sample(SLASHED, count) if slashes else None
        )
        policy = random_policy(rng)
        if fallback:
            policy.constraints.append(rng.choice([
                CriticalityExclusion(5.0),  # two of one type, if drawn twice
                SameText(),
                PeriodicSchedulability(),
                Schedulability(),
            ]))
        assert_count_matches(graph, policy, rng)

    def test_two_constraints_of_one_type(self):
        graph = random_processes(random.Random(3), 6)
        policy = CombinationPolicy([CriticalityExclusion(0.0), CriticalityExclusion(0.0)])
        block = graph.fcm_names()
        # Every pair fails both constraints with one text, as does the
        # whole block: one reason each, not two.
        reasons = len(block) * (len(block) - 1) // 2 + 1
        assert len(policy.block_violations(graph, block)) == reasons
        assert ClusterState(graph, policy).policy_block_violation_count(block) == reasons

    def test_user_class_text(self):
        rng = random.Random(4)
        graph = random_processes(rng, 5)
        policy = CombinationPolicy([CriticalityExclusion(5.0), SameText()])
        assert_count_matches(graph, policy, rng)

    def test_slash_in_names(self):
        # (x/y, z) and (x, y/z) both read "x/y/z: ...".
        names = ["x", "x/y", "y/z", "z"]
        graph = InfluenceGraph()
        for name in names:
            graph.add_fcm(process(name, AttributeSet(criticality=9.0)))
        policy = CombinationPolicy([CriticalityExclusion(5.0)])
        assert len(policy.block_violations(graph, names)) == 6
        assert ClusterState(graph, policy).policy_block_violation_count(names) == 6

    def test_policy_subclass(self):
        rng = random.Random(5)
        graph = random_processes(rng, 6)
        assert_count_matches(graph, SubclassPolicy(), rng)


# ----------------------------------------------------------------------
# The growing block
# ----------------------------------------------------------------------
def assert_probes_match(graph, policy, rng, fast):
    state = ClusterState(graph, policy)
    names = graph.fcm_names()
    rng.shuffle(names)
    block = state.policy_block(names[:1])
    assert isinstance(block, _RunningBlock) is fast
    for _ in range(3 * len(names)):
        name = rng.choice(names)
        members = tuple(block.members)
        try:
            expected = policy.can_combine(graph, members, (name,))
        except DDSIError as exc:
            with pytest.raises(type(exc)) as raised:
                block.accepts(name)
            assert str(raised.value) == str(exc)
            continue
        assert block.accepts(name) == expected
        assert state.policy_can_combine(members, [name]) == expected
        if name not in members and (expected or rng.random() < 0.3):
            block.add(name)
    assert len(block) == len(block.members)


class TestGrowingBlock:
    @given(st.integers(0, 2**32 - 1))
    @FAST
    def test_random_growth_orders(self, seed):
        rng = random.Random(seed)
        graph = random_processes(rng, rng.randint(2, 12))
        assert_probes_match(graph, random_policy(rng), rng, fast=True)

    @pytest.mark.parametrize("method", list(FeasibilityMethod))
    def test_each_feasibility_method(self, method):
        rng = random.Random(6)
        graph = random_processes(rng, 12)
        policy = CombinationPolicy([ReplicaSeparation(), Schedulability(method)])
        fast = method in (FeasibilityMethod.EXACT, FeasibilityMethod.DENSITY)
        assert_probes_match(graph, policy, rng, fast=fast)

    def test_policies_without_fast_paths(self):
        rng = random.Random(7)
        graph = random_processes(rng, 10)
        for policy in (
            CombinationPolicy([ReplicaSeparation(), SameText()]),
            SubclassPolicy(),
        ):
            assert_probes_match(graph, policy, rng, fast=False)

    def test_two_criticality_thresholds(self):
        # Each threshold decides for itself: a block that clears 5.0 may
        # still fail 1.0.
        graph = InfluenceGraph()
        for name in ("a", "b", "c"):
            graph.add_fcm(process(name, AttributeSet(criticality=3.0)))
        policy = CombinationPolicy([CriticalityExclusion(5.0), CriticalityExclusion(1.0)])
        state = ClusterState(graph, policy)
        assert not state.policy_can_combine(["a"], ["b"])
        assert not state.policy_block(["a"]).accepts("b")
        assert_probes_match(graph, policy, random.Random(9), fast=True)

    def test_empty_block(self):
        graph = random_processes(random.Random(8), 4)
        state = ClusterState(graph)
        block = state.policy_block()
        assert not block
        name = graph.fcm_names()[0]
        assert block.accepts(name) == state.policy_can_combine((), [name])
