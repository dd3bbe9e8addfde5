"""Memoized degraded-mode planning in resilience campaigns.

A campaign plans each distinct failure state once and reuses the plan:
``plan_degradation`` is deterministic, and trials copy a plan's dicts
before mutating them.  The reference here is the planning the memo
replaces, a fresh ``plan_degradation`` per event.  Both must give the
same trial results and the exact same ``ResilienceReport`` at equal
seeds, including under pooled execution.
"""

import random

import pytest

from repro import IntegrationFramework, fully_connected, paper_system
from repro.core.framework import FrameworkOptions, Heuristic
from repro.exec.batching import derive_seed
from repro.exec.runner import ExecPolicy
from repro.obs import Recorder, use
from repro.resilience import campaign
from repro.resilience.bands import origin_of
from repro.resilience.degradation import plan_degradation
from repro.resilience.failures import FCRFailureRates, draw_failure_sequence
from repro.resilience.recovery import DEFAULT_POLICIES
from repro.workloads.generators import random_system


def paper_outcome():
    options = FrameworkOptions(heuristic=Heuristic.H1)
    return IntegrationFramework(paper_system(), options).integrate(
        fully_connected(6)
    )


def generated_outcome():
    system = random_system(
        processes=20, tasks_per_process=1, procedures_per_task=1, seed=42
    )
    options = FrameworkOptions(heuristic=Heuristic.TIMING_PACK)
    return IntegrationFramework(system, options).integrate(fully_connected(8))


def fresh_planner(outcome):
    """The un-memoized reference: a new plan for every event."""

    def planner(failed_now, links):
        return plan_degradation(outcome, list(failed_now), failed_links=links)

    return planner


def fresh_planning_report(monkeypatch, outcome, **kwargs):
    """``run_resilience_campaign`` with every trial on the reference."""
    simulate = campaign._simulate_trial

    def unmemoized(outcome, events, rng, horizon, policies, _planner, origin):
        return simulate(
            outcome, events, rng, horizon, policies, fresh_planner(outcome), origin
        )

    with monkeypatch.context() as patch:
        patch.setattr(campaign, "_simulate_trial", unmemoized)
        return campaign.run_resilience_campaign(outcome, **kwargs)


class TestVectorBitIdentity:
    """Memoized campaigns against fresh planning, report for report."""

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_reports_bit_identical(self, monkeypatch, seed):
        outcome = paper_outcome()
        memoized = campaign.run_resilience_campaign(
            outcome, failures=2, trials=40, seed=seed
        )
        reference = fresh_planning_report(
            monkeypatch, outcome, failures=2, trials=40, seed=seed
        )
        assert memoized == reference

    def test_identical_under_sharded_execution(self, monkeypatch):
        outcome = paper_outcome()
        reference = fresh_planning_report(
            monkeypatch, outcome, failures=2, trials=40, seed=5
        )
        pooled = campaign.run_resilience_campaign(
            outcome, failures=2, trials=40, seed=5,
            policy=ExecPolicy(workers=2),
        )
        assert reference == pooled

    def test_generated_workload_bit_identical(self, monkeypatch):
        outcome = generated_outcome()
        memoized = campaign.run_resilience_campaign(
            outcome, failures=3, trials=30, seed=11
        )
        reference = fresh_planning_report(
            monkeypatch, outcome, failures=3, trials=30, seed=11
        )
        assert memoized == reference


class TestVectorResolution:
    """What the memo saves: plans per distinct state, not per event."""

    def test_memoized_planning_reduces_plan_events(self, monkeypatch):
        def plans_made(run):
            recorder = Recorder()
            with use(recorder):
                run()
            return recorder.counter("degrade_plans_total").value()

        outcome = paper_outcome()
        memoized = plans_made(
            lambda: campaign.run_resilience_campaign(
                outcome, failures=2, trials=40, seed=0
            )
        )
        reference = plans_made(
            lambda: fresh_planning_report(
                monkeypatch, outcome, failures=2, trials=40, seed=0
            )
        )
        assert 0 < memoized < reference


class TestMemoSafety:
    """One planner shared by many trials answers like fresh planning."""

    @pytest.mark.parametrize("make_outcome", [paper_outcome, generated_outcome])
    def test_shared_memo_matches_fresh_plans(self, make_outcome):
        outcome = make_outcome()
        hw = outcome.mapping.hw
        rates = FCRFailureRates.uniform(hw)
        graph = outcome.condensation.state.graph
        shared = campaign._memoized_planner(outcome)

        def origin(member):
            return origin_of(graph, member)

        def trial(seed, planner):
            rng = random.Random(derive_seed(seed, 0))
            events = draw_failure_sequence(hw, rates, 2, rng, 100.0)
            return campaign._simulate_trial(
                outcome, events, rng, 100.0, DEFAULT_POLICIES, planner, origin
            )

        for seed in range(40):
            assert trial(seed, shared) == trial(seed, fresh_planner(outcome))
