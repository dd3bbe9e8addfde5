"""Degraded-mode planning — including the headline acceptance property:
killing any single HW node on the 8-process paper example never drops a
criticality-A cluster, and replicas are never co-located."""

import itertools

import pytest

from repro import IntegrationFramework, fully_connected, paper_system
from repro.allocation.hw_model import HWNode
from repro.errors import AllocationError
from repro.resilience.campaign import replay_scenario
from repro.resilience.degradation import plan_degradation, surviving_hw
from repro.resilience.failures import FailureEvent, FailureKind, FailureScenario


def paper_outcome():
    return IntegrationFramework(paper_system()).integrate(fully_connected(6))


class TestSurvivingHW:
    def test_removes_nodes_and_incident_links(self):
        hw = fully_connected(4)
        out = surviving_hw(hw, ["hw1"])
        assert "hw1" not in out.names()
        assert len(out) == 3
        for a, b, _cost in out.all_links():
            assert "hw1" not in (a, b)

    def test_removes_failed_links(self):
        hw = fully_connected(3)
        out = surviving_hw(hw, [], failed_links=(("hw1", "hw2"),))
        links = {frozenset((a, b)) for a, b, _ in out.all_links()}
        assert frozenset(("hw1", "hw2")) not in links
        assert frozenset(("hw1", "hw3")) in links

    def test_unknown_node_rejected(self):
        with pytest.raises(AllocationError):
            surviving_hw(fully_connected(3), ["nope"])

    def test_link_with_unknown_endpoint_rejected(self):
        with pytest.raises(AllocationError, match=r"\('hw1', 'nope'\)"):
            surviving_hw(fully_connected(3), [], failed_links=(("hw1", "nope"),))

    def test_link_between_unlinked_nodes_rejected(self):
        hw = fully_connected(2)
        hw.add_node(HWNode("hw3"))
        hw.add_link("hw2", "hw3")
        only_unlinked = r"unknown HW links failed: \[\('hw3', 'hw1'\)\]"
        with pytest.raises(AllocationError, match=only_unlinked):
            surviving_hw(hw, [], failed_links=(("hw2", "hw3"), ("hw3", "hw1")))

    def test_link_of_a_failed_node_is_known(self):
        hw = fully_connected(3)
        out = surviving_hw(hw, ["hw1"], failed_links=(("hw2", "hw1"),))
        assert out.all_links() == [("hw2", "hw3", 1.0)]

    def test_degrade_rejects_unknown_link(self):
        framework = IntegrationFramework(paper_system())
        outcome = framework.integrate(fully_connected(6))
        with pytest.raises(AllocationError, match="unknown HW links failed"):
            framework.degrade(outcome, [], failed_links=(("hw1", "hw9"),))

    def test_scenario_with_unknown_link_rejected(self):
        scenario = FailureScenario(
            name="cut-nothing",
            events=(
                FailureEvent(time=1.0, kind=FailureKind.LINK, link=("hw1", "hw9")),
            ),
        )
        with pytest.raises(AllocationError, match="unknown HW links failed"):
            replay_scenario(paper_outcome(), scenario)


class TestSingleNodeLoss:
    """ISSUE acceptance: any single node loss keeps every class-A process
    hosted and never co-locates two replicas of one process."""

    def test_class_a_survives_any_single_node_loss(self):
        outcome = paper_outcome()
        for node in outcome.mapping.hw.names():
            plan = plan_degradation(outcome, [node])
            assert plan.feasible, f"plan infeasible after losing {node}"
            a_lost = [
                name
                for name, label in plan.uncovered_classes.items()
                if label == "A"
            ]
            assert not a_lost, f"class-A {a_lost} uncovered after losing {node}"

    def test_no_replica_colocated_after_any_single_node_loss(self):
        outcome = paper_outcome()
        graph = outcome.condensation.state.graph
        for node in outcome.mapping.hw.names():
            plan = plan_degradation(outcome, [node])
            assert plan.separation_ok, plan.separation_violations
            # Belt and braces: recompute replica placements independently
            # and demand distinct hosts per origin process.
            placements: dict[str, list[str]] = {}
            for index, hw_name in plan.assignment.items():
                for member in plan.hosted_members[index]:
                    fcm = graph.fcm(member)
                    if fcm.replica_of is not None:
                        placements.setdefault(fcm.replica_of, []).append(hw_name)
            for origin, hosts in placements.items():
                assert len(hosts) == len(set(hosts)), (node, origin, hosts)

    def test_one_cluster_per_surviving_node_at_most(self):
        outcome = paper_outcome()
        for node in outcome.mapping.hw.names():
            plan = plan_degradation(outcome, [node])
            nodes = list(plan.assignment.values())
            assert len(nodes) == len(set(nodes))
            assert node not in nodes


class TestDoubleNodeLoss:
    def test_two_node_loss_sheds_but_stays_separated(self):
        outcome = paper_outcome()
        names = outcome.mapping.hw.names()
        for pair in itertools.combinations(names, 2):
            plan = plan_degradation(outcome, list(pair))
            assert plan.separation_ok, (pair, plan.separation_violations)
            # Six clusters onto four nodes: exactly two shed.
            assert len(plan.shed) == 2, (pair, plan.shed)

    def test_shedding_prefers_low_criticality(self):
        outcome = paper_outcome()
        plan = plan_degradation(outcome, ["hw1", "hw2"])
        classes = plan.uncovered_classes
        assert all(label != "A" for label in classes.values()), classes


class TestNoFailure:
    def test_empty_failure_set_keeps_everything(self):
        outcome = paper_outcome()
        plan = plan_degradation(outcome, [])
        assert plan.feasible
        assert not plan.shed
        assert not plan.uncovered
        assert len(plan.assignment) == len(outcome.mapping.assignment)


class TestDeterminism:
    def test_same_inputs_same_plan(self):
        outcome = paper_outcome()
        a = plan_degradation(outcome, ["hw3", "hw5"])
        b = plan_degradation(outcome, ["hw3", "hw5"])
        assert a.assignment == b.assignment
        assert a.shed == b.shed
        assert a.uncovered == b.uncovered

    def test_unknown_approach_rejected(self):
        with pytest.raises(AllocationError):
            plan_degradation(paper_outcome(), ["hw1"], approach="z")
