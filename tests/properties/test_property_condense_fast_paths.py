"""Condense's fast paths against answers computed from scratch.

* The pair table: at every merge of H1 and of timing refinement, the
  table's pick equals a rescan of every pair, the loop condense ran
  after each merge before the table existed.  A synthetic score whose
  values tie within 1e-15 exercises the tie-break rule.
* The violation count: equals ``len(policy.block_violations(...))`` on
  random blocks and policies, including the policies where reasons can
  share a text and the count takes the reason list.
* The growing block: every probe equals the scalar
  ``policy.can_combine(graph, tuple(block), (name,))``, errors included,
  over random growth orders, with windows that tie within ``_EPS``.

Examples are derandomized.
"""

import random
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
from repro.allocation.heuristics.h1_influence import _mutual_influence
from repro.allocation.heuristics.timing import _slack_score
from repro.errors import DDSIError, InfeasibleAllocationError
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

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_rejected_pairs_counted_per_scan(self, name):
        spec = WorkloadSpec(processes=14, edge_probability=0.3,
                            replicated_fraction=0.4, utilization=0.4)
        state = ClusterState(expand_replication(random_process_graph(spec, seed=3)))
        target = max(required_hw_nodes(state.graph), 1)
        # Each step scans every pair of the partition it starts from.
        replay, expected = state.copy(), 0
        while len(replay) > target:
            n = len(replay)
            expected += sum(
                not replay.can_combine(i, j) for i in range(n) for j in range(i + 1, n)
            )
            if HEURISTICS[name][0]().step(replay) is None:
                break
        assert expected > 0
        rec = Recorder()
        with use(rec):
            try:
                HEURISTICS[name][0]().condense(state, target)
            except InfeasibleAllocationError:
                pass
        assert rec.counter("condense_pairs_rejected_total").value() == expected

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
