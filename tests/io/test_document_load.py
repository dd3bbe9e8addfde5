"""Loading a system document through its edge columns."""

from __future__ import annotations

import json

import pytest

from repro.allocation import fully_connected
from repro.core.framework import FrameworkOptions, Heuristic, MappingApproach, integrate
from repro.errors import DDSIError
from repro.io import ValidationFailure, system_from_dict, validate_system_dict
from repro.io.serialization import outcome_to_dict, system_to_dict
from repro.io.validation import _LineFinder
from repro.workloads import (
    HW_NODE_COUNT,
    automotive_hw,
    automotive_system,
    avionics_hw,
    avionics_system,
    paper_system,
    random_system,
)
from tests.properties import reference_validation


def _two_processes(influence: dict) -> dict:
    return {
        "format": "ddsi-system",
        "version": 1,
        "name": "no-task-fcms",
        "fcms": [
            {"name": "p1", "level": "PROCESS"},
            {"name": "p1r", "level": "PROCESS", "replica_of": "p1"},
        ],
        "links": [],
        "influence": influence,
    }


class TestLevelWithoutFCMs:
    """A level with no FCMs still checks that its names are at the level."""

    def test_edge(self):
        doc = _two_processes(
            {"TASK": {"edges": [{"source": "p1", "target": "p1r", "value": 0.5}]}}
        )
        issues = validate_system_dict(doc)
        assert [issue.describe() for issue in issues] == [
            "influence.TASK.edges[0].source: FCM 'p1' is not at level TASK",
            "influence.TASK.edges[0].target: FCM 'p1r' is not at level TASK",
        ]
        with pytest.raises(ValidationFailure):
            system_from_dict(doc)

    def test_replica_link(self):
        doc = _two_processes({"TASK": {"replica_links": [["p1", "p1r"]]}})
        issues = validate_system_dict(doc)
        assert [issue.describe() for issue in issues] == [
            "influence.TASK.replica_links[0]: FCM 'p1' is not at level TASK",
            "influence.TASK.replica_links[0]: FCM 'p1r' is not at level TASK",
        ]
        with pytest.raises(ValidationFailure):
            system_from_dict(doc)

    def test_empty_fcm_list(self):
        doc = _two_processes(
            {"PROCESS": {"edges": [{"source": "p1", "target": "p1r", "value": 0.5}]}}
        )
        doc["fcms"] = []
        assert [issue.describe() for issue in validate_system_dict(doc)] == [
            "influence.PROCESS.edges[0].source: references unknown FCM 'p1'",
            "influence.PROCESS.edges[0].target: references unknown FCM 'p1r'",
        ]

    def test_unreadable_fcm_list_flags_it_alone(self):
        doc = _two_processes(
            {"PROCESS": {"edges": [{"source": "p1", "target": "p1r", "value": 0.5}]}}
        )
        doc["fcms"] = {"p1": "PROCESS"}
        assert [issue.path for issue in validate_system_dict(doc)] == ["fcms"]


class TestReplicaLinkAgainstLoadedEdges:
    """A replica link is checked against the edge rows that load."""

    @staticmethod
    def _issues(*edges: dict) -> list[str]:
        doc = _two_processes(
            {"PROCESS": {"edges": list(edges), "replica_links": [["p1", "p1r"]]}}
        )
        return [issue.describe() for issue in validate_system_dict(doc)]

    def test_live_edge(self):
        assert self._issues({"source": "p1", "target": "p1r", "value": 0.5}) == [
            "influence.PROCESS.replica_links[0]: influence edge 'p1' -> 'p1r' "
            "already exists; replicas cannot also influence each other"
        ]

    def test_removed_edge(self):
        assert self._issues(
            {"source": "p1", "target": "p1r", "value": 0.5},
            {"source": "p1", "target": "p1r", "value": 0.0},
        ) == []

    def test_defective_row_loads_nothing(self):
        # Reported once, at its own path; the per-row checker the columns
        # replaced reported the link too, and let a defective zero-like
        # row remove an earlier edge.
        assert self._issues({"source": "p1r", "target": "p1", "value": 1.5}) == [
            "influence.PROCESS.edges[0].value: influence probability must be "
            "in [0, 1], got 1.5"
        ]
        assert self._issues(
            {"source": "p1", "target": "p1r", "value": 0.5},
            {"source": "p1", "target": "p1r", "value": False},
        ) == [
            "influence.PROCESS.edges[1].value: must be a number, got False",
            "influence.PROCESS.replica_links[0]: influence edge 'p1' -> 'p1r' "
            "already exists; replicas cannot also influence each other",
        ]


class TestLineFinder:
    TOKENS = ("p1", "p2", "ghost", "with \"quotes\"", "é", "")

    @pytest.mark.parametrize("separator", ["\n", "\r\n", "\r", " ", "\x1c", "\x85", "\x0b"])
    def test_lines_equal_the_first_line_scan(self, separator):
        lines = ['{', '  "a": "p1",', '  "b": "p2", "c": "p1",', '  "d": ["p2"]', '}']
        text = separator.join(lines) + separator
        old = reference_validation._LineFinder(text)
        new = _LineFinder(text)
        for token in self.TOKENS * 2:  # repeated lookups hit the memo
            assert new.line_of(token) == old.line_of(token)
        assert new.line_of("p2") == 3
        assert new.line_of("ghost") is None

    def test_no_text_or_token(self):
        assert _LineFinder(None).line_of("p1") is None
        assert _LineFinder("").line_of("p1") is None
        assert _LineFinder('"p1"').line_of(None) is None

    def test_split_once_and_only_for_a_flag(self):
        class CountingText(str):
            splits = finds = 0

            def splitlines(self, *args, **kwargs):
                CountingText.splits += 1
                return super().splitlines(*args, **kwargs)

            def find(self, *args, **kwargs):
                CountingText.finds += 1
                return super().find(*args, **kwargs)

        doc = system_to_dict(paper_system())
        text = CountingText(json.dumps(doc, indent=2))
        assert validate_system_dict(doc, text) == []
        assert (CountingText.splits, CountingText.finds) == (0, 0)
        edges = doc["influence"]["PROCESS"]["edges"]
        for edge in edges[:3]:
            edge["target"] = "ghost"
        issues = validate_system_dict(doc, CountingText(json.dumps(doc, indent=2)))
        assert [issue.message for issue in issues] == ["references unknown FCM 'ghost'"] * 3
        assert len({issue.line for issue in issues}) == 1
        assert (CountingText.splits, CountingText.finds) == (1, 1)


WORKLOADS = {
    "paper": (paper_system, lambda: fully_connected(HW_NODE_COUNT)),
    "avionics": (avionics_system, avionics_hw),
    "automotive": (automotive_system, automotive_hw),
    "random": (lambda: random_system(8, 2, 2, seed=5), lambda: fully_connected(5)),
}


def _outcome(system, hw, options):
    try:
        return outcome_to_dict(integrate(system, hw, options))
    except DDSIError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestLoadedEqualsInMemory:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_heuristic_and_mapping(self, workload):
        build, hw = WORKLOADS[workload]
        text = json.dumps(system_to_dict(build()))
        for heuristic in Heuristic:
            for mapping in MappingApproach:
                options = FrameworkOptions(heuristic=heuristic, mapping=mapping)
                loaded = system_from_dict(json.loads(text))
                assert _outcome(loaded, hw(), options) == _outcome(build(), hw(), options)
