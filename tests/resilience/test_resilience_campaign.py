"""End-to-end resilience campaigns and framework wiring."""

import pytest

from repro import IntegrationFramework, fully_connected, paper_system
from repro.errors import SimulationError
from repro.resilience import (
    FailureEvent,
    FailureKind,
    FailureScenario,
    replay_scenario,
    run_resilience_campaign,
)
from repro.workloads import avionics_cabinet_loss, avionics_failure_rates


def paper_outcome():
    return IntegrationFramework(paper_system()).integrate(fully_connected(6))


class TestCampaign:
    def test_report_shape(self):
        report = run_resilience_campaign(
            paper_outcome(), failures=2, trials=20, seed=0
        )
        assert report.trials == 20
        assert set(report.availability) == {"A", "B", "C"}
        assert report.class_sizes == {"A": 2, "B": 2, "C": 4}
        for value in report.availability.values():
            assert 0.0 <= value <= 1.0

    def test_planner_never_violates_separation(self):
        report = run_resilience_campaign(
            paper_outcome(), failures=2, trials=50, seed=0
        )
        assert report.separation_violations == 0

    def test_class_a_outlives_lower_classes(self):
        report = run_resilience_campaign(
            paper_outcome(), failures=2, trials=50, seed=0
        )
        assert report.availability["A"] >= report.availability["C"]

    def test_same_seed_identical_reports(self):
        outcome = paper_outcome()
        a = run_resilience_campaign(outcome, failures=2, trials=30, seed=42)
        b = run_resilience_campaign(outcome, failures=2, trials=30, seed=42)
        assert a == b

    def test_different_seeds_vary(self):
        outcome = paper_outcome()
        a = run_resilience_campaign(outcome, failures=2, trials=30, seed=1)
        b = run_resilience_campaign(outcome, failures=2, trials=30, seed=2)
        assert a != b

    def test_invalid_arguments_rejected(self):
        outcome = paper_outcome()
        with pytest.raises(SimulationError):
            run_resilience_campaign(outcome, trials=0)
        with pytest.raises(SimulationError):
            run_resilience_campaign(outcome, failures=0)
        with pytest.raises(SimulationError):
            run_resilience_campaign(outcome, horizon=0.0)


class TestScenarioReplay:
    def test_scripted_scenario_runs(self):
        scenario = FailureScenario(
            name="one-node",
            events=(
                FailureEvent(
                    time=10.0, kind=FailureKind.PERMANENT_NODE, node="hw2"
                ),
            ),
        )
        report = replay_scenario(paper_outcome(), scenario, seed=0)
        assert report.trials == 1
        assert report.separation_violations == 0
        # A single node loss never takes down a class-A process.
        assert report.class_a_outages == 0
        assert report.availability["A"] > 0.9

    def test_replay_is_deterministic(self):
        scenario = FailureScenario(
            name="one-node",
            events=(
                FailureEvent(
                    time=5.0,
                    kind=FailureKind.TRANSIENT_NODE,
                    node="hw3",
                    repair_time=4.0,
                ),
            ),
        )
        outcome = paper_outcome()
        a = replay_scenario(outcome, scenario, seed=9)
        b = replay_scenario(outcome, scenario, seed=9)
        assert a == b


class TestFrameworkWiring:
    def test_degrade_uses_configured_approach(self):
        framework = IntegrationFramework(paper_system())
        outcome = framework.integrate(fully_connected(6))
        plan = framework.degrade(outcome, ["hw4"])
        assert plan.feasible
        assert "hw4" not in plan.assignment.values()

    def test_validate_under_failures_appends_note(self):
        framework = IntegrationFramework(paper_system())
        outcome = framework.integrate(fully_connected(6))
        report = framework.validate_under_failures(
            outcome, failures=2, trials=10, seed=0
        )
        assert report.trials == 10
        assert any("resilience validation" in note for note in outcome.notes)


class TestWorkloadScenarios:
    def test_avionics_scenario_and_rates_exist(self):
        scenario = avionics_cabinet_loss()
        assert scenario.events
        times = [event.time for event in scenario.events]
        assert times == sorted(times)
        rates = avionics_failure_rates()
        assert rates.permanent_rate("fcr1") < rates.permanent_rate("fcr4")
