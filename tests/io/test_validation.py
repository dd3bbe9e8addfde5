"""Aggregated document validation: one report, every defect, exit 2."""

import copy
import json

import pytest

from repro.cli import main
from repro.io import (
    ValidationFailure,
    dump_system,
    load_system,
    system_from_dict,
    validate_system_dict,
)
from repro.io.serialization import system_to_dict
from repro.model import Level
from repro.workloads import paper_system


def good_doc() -> dict:
    return system_to_dict(paper_system())


class TestCleanDocuments:
    def test_paper_system_validates_clean(self):
        assert validate_system_dict(good_doc()) == []

    def test_round_trip_still_works(self, tmp_path):
        path = tmp_path / "sys.json"
        dump_system(paper_system(), str(path))
        assert load_system(str(path)).name == paper_system().name


class TestAggregation:
    def test_multiple_defects_reported_together(self):
        doc = good_doc()
        doc["fcms"][0]["attributes"]["criticality"] = -1
        doc["fcms"][1]["level"] = "MODULE"
        doc["fcms"][2].pop("name")
        with pytest.raises(ValidationFailure) as excinfo:
            system_from_dict(doc)
        issues = excinfo.value.issues
        assert len(issues) >= 3
        paths = [issue.path for issue in issues]
        assert "fcms[0].attributes.criticality" in paths
        assert "fcms[1].level" in paths
        assert "fcms[2].name" in paths
        # Everything is in one message, not one-defect-per-raise.
        message = str(excinfo.value)
        assert "validation issues" in message
        assert "criticality" in message and "MODULE" in message

    def test_line_context_from_file(self, tmp_path):
        doc = good_doc()
        doc["fcms"][0]["attributes"]["criticality"] = -3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(ValidationFailure) as excinfo:
            load_system(str(path))
        issue = excinfo.value.issues[0]
        # Line hints are best-effort: they locate the offending FCM's
        # entry (by name), not the exact attribute line.
        assert issue.line is not None
        name = doc["fcms"][0]["name"]
        assert name in path.read_text().splitlines()[issue.line - 1]

    def test_invalid_json_reports_parse_line(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{\n  "format": "ddsi-system",\n  "fcms": [\n')
        with pytest.raises(ValidationFailure) as excinfo:
            load_system(str(path))
        assert "invalid JSON" in str(excinfo.value)
        assert excinfo.value.issues[0].line is not None

    def test_cyclic_hierarchy_detected(self):
        doc = good_doc()
        names = [f["name"] for f in doc["fcms"][:3]]
        doc["links"] = [
            {"child": names[0], "parent": names[1]},
            {"child": names[1], "parent": names[2]},
            {"child": names[2], "parent": names[0]},
        ]
        # All three are processes: R1 rejects each link, so no cycle can
        # form (a parent sits exactly one level up).
        with pytest.raises(ValidationFailure) as excinfo:
            system_from_dict(doc)
        issues = excinfo.value.issues
        assert [issue.path for issue in issues] == ["links[0]", "links[1]", "links[2]"]
        assert all(issue.message.startswith("R1: ") for issue in issues)

    def test_cli_exits_2_with_full_report(self, tmp_path, capsys):
        doc = good_doc()
        doc["fcms"][0]["attributes"]["criticality"] = -1
        doc["fcms"][1]["level"] = "NOPE"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc, indent=2))
        code = main(["audit", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "2 validation issues" in err
        assert "criticality" in err and "NOPE" in err


def _mutations():
    """20 distinct corruptions of a valid system document."""

    def m(description, apply):
        return pytest.param(apply, id=description)

    def set_path(doc, keys, value):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return [
        m("wrong-format", lambda d: set_path(d, ["format"], "nope")),
        m("future-version", lambda d: set_path(d, ["version"], 99)),
        m("string-version", lambda d: set_path(d, ["version"], "one")),
        m("fcms-not-list", lambda d: set_path(d, ["fcms"], {"a": 1})),
        m("fcm-not-object", lambda d: d["fcms"].__setitem__(0, "x")),
        m("missing-name", lambda d: d["fcms"][0].pop("name")),
        m("empty-name", lambda d: set_path(d, ["fcms", 0, "name"], "")),
        m("duplicate-name",
          lambda d: set_path(d, ["fcms", 1, "name"], d["fcms"][0]["name"])),
        m("missing-level", lambda d: d["fcms"][0].pop("level")),
        m("unknown-level", lambda d: set_path(d, ["fcms", 0, "level"], "MODULE")),
        m("negative-criticality",
          lambda d: set_path(d, ["fcms", 0, "attributes", "criticality"], -0.5)),
        m("criticality-not-number",
          lambda d: set_path(d, ["fcms", 0, "attributes", "criticality"], "hi")),
        m("zero-fault-tolerance",
          lambda d: set_path(d, ["fcms", 0, "attributes", "fault_tolerance"], 0)),
        m("unknown-security",
          lambda d: set_path(d, ["fcms", 0, "attributes", "security"], "ULTRA")),
        m("degenerate-timing",
          lambda d: set_path(d, ["fcms", 0, "attributes", "timing"],
                             {"earliest_start": 5, "deadline": 6,
                              "computation_time": 10})),
        m("unknown-replica-origin",
          lambda d: set_path(d, ["fcms", 0, "replica_of"], "ghost")),
        m("link-unknown-child",
          lambda d: d.__setitem__(
              "links", [{"child": "ghost", "parent": d["fcms"][0]["name"]}])),
        m("self-parent",
          lambda d: d.__setitem__(
              "links", [{"child": d["fcms"][0]["name"],
                         "parent": d["fcms"][0]["name"]}])),
        m("edge-unknown-target",
          lambda d: d["influence"]["PROCESS"]["edges"].append(
              {"source": d["fcms"][0]["name"], "target": "ghost",
               "value": 0.5})),
        m("edge-probability-above-one",
          lambda d: set_path(
              d, ["influence", "PROCESS", "edges", 0, "value"], 1.5)),
    ]


class TestFuzzMutations:
    @pytest.mark.parametrize("mutate", _mutations())
    def test_every_mutation_caught_as_validation_failure(self, mutate):
        doc = copy.deepcopy(good_doc())
        # Normalise edge 0 to a plain-value edge so value mutations apply.
        edges = doc["influence"]["PROCESS"]["edges"]
        if "value" not in edges[0]:
            edges[0] = {
                "source": edges[0]["source"],
                "target": edges[0]["target"],
                "value": 0.5,
            }
        mutate(doc)
        with pytest.raises(ValidationFailure) as excinfo:
            system_from_dict(doc)
        assert len(excinfo.value.issues) >= 1
        for issue in excinfo.value.issues:
            assert issue.path
            assert issue.message

    def test_mutation_count_is_twenty(self):
        assert len(_mutations()) == 20


def replica_doc(edges, replica_links) -> dict:
    """Four processes: ``ra`` and ``rb`` replicate ``r``; ``q`` stands alone."""
    return {
        "format": "ddsi-system",
        "version": 1,
        "name": "replicas",
        "fcms": [
            {"name": "r", "level": "PROCESS"},
            {"name": "ra", "level": "PROCESS", "replica_of": "r"},
            {"name": "rb", "level": "PROCESS", "replica_of": "r"},
            {"name": "q", "level": "PROCESS"},
        ],
        "links": [],
        "influence": {
            "PROCESS": {"edges": edges, "replica_links": replica_links},
        },
    }


class TestGraphRulesFlaggedAtPaths:
    """Defects the graph layer rejects are flagged before it sees them."""

    def assert_flagged(self, doc, path, fragment):
        issues = validate_system_dict(doc)
        assert [issue.path for issue in issues] == [path]
        assert fragment in issues[0].message
        with pytest.raises(ValidationFailure):
            system_from_dict(doc)

    def test_self_loop_edge(self):
        doc = replica_doc([{"source": "q", "target": "q", "value": 0.3}], [])
        self.assert_flagged(doc, "influence.PROCESS.edges[0]", "self-loop")

    def test_self_loop_factor_edge(self):
        factor = {"kind": "timing", "p_occurrence": 0.5,
                  "p_transmission": 0.5, "p_effect": 0.5}
        doc = replica_doc([{"source": "q", "target": "q", "factors": [factor]}], [])
        self.assert_flagged(doc, "influence.PROCESS.edges[0]", "self-loop")

    def test_replica_link_across_origins(self):
        doc = replica_doc([], [["ra", "q"]])
        self.assert_flagged(
            doc, "influence.PROCESS.replica_links[0]", "not replicas of the same"
        )

    def test_replica_link_duplicating_an_edge(self):
        doc = replica_doc([{"source": "rb", "target": "ra", "value": 0.3}], [["ra", "rb"]])
        self.assert_flagged(
            doc, "influence.PROCESS.replica_links[0]", "'rb' -> 'ra' already exists"
        )

    def test_replica_link_duplicating_a_factor_edge(self):
        factor = {"kind": "timing", "p_occurrence": 0.5,
                  "p_transmission": 0.5, "p_effect": 0.5}
        doc = replica_doc(
            [{"source": "ra", "target": "rb", "factors": [factor]}], [["ra", "rb"]]
        )
        self.assert_flagged(
            doc, "influence.PROCESS.replica_links[0]", "'ra' -> 'rb' already exists"
        )

    def test_origin_and_its_replica_may_link(self):
        doc = replica_doc([], [["r", "ra"], ["ra", "rb"]])
        assert validate_system_dict(doc) == []
        graph = system_from_dict(doc).influence[Level.PROCESS]
        assert graph.is_replica_link("r", "ra")
        assert graph.is_replica_link("ra", "rb")

    def test_edges_that_load_as_no_influence_do_not_clash(self):
        # A zero value is no edge, and a later zero removes an earlier edge.
        zero_factor = {"kind": "timing", "p_occurrence": 0.0,
                       "p_transmission": 0.5, "p_effect": 0.5}
        doc = replica_doc(
            [
                {"source": "ra", "target": "rb", "value": 0.4},
                {"source": "ra", "target": "rb", "value": 0.0},
                {"source": "rb", "target": "ra", "factors": [zero_factor]},
            ],
            [["ra", "rb"]],
        )
        assert validate_system_dict(doc) == []
        system_from_dict(doc)


def three_level_doc() -> dict:
    """One process, its task and the task's procedure, one timing window."""
    return {
        "format": "ddsi-system",
        "version": 1,
        "name": "three-levels",
        "fcms": [
            {"name": "p1", "level": "PROCESS", "attributes": {
                "criticality": 2.0,
                "timing": {"earliest_start": 0, "deadline": 10, "computation_time": 2},
            }},
            {"name": "t1", "level": "TASK"},
            {"name": "f1", "level": "PROCEDURE"},
        ],
        "links": [
            {"child": "t1", "parent": "p1"},
            {"child": "f1", "parent": "t1"},
        ],
        "influence": {},
    }


class TestModelRulesAtPaths:
    """The model's rules, reported once each at the JSON path they break."""

    def issues(self, doc) -> list[str]:
        text = json.dumps(doc, indent=2)
        data = json.loads(text)
        issues = validate_system_dict(data, text)
        with pytest.raises(ValidationFailure) as excinfo:
            system_from_dict(data, text=text)
        assert list(excinfo.value.issues) == issues
        return [f"{issue.path}: {issue.message}" for issue in issues]

    @pytest.mark.parametrize(
        "mutate, expected",
        [
            (
                lambda d: d["fcms"][0]["attributes"].update(criticality=float("inf")),
                "fcms[0].attributes.criticality: criticality must be finite and >= 0, got inf",
            ),
            (
                lambda d: d["fcms"][0]["attributes"]["timing"].update(deadline=float("nan")),
                "fcms[0].attributes.timing.deadline: "
                "deadline must be >= earliest_start 0, got nan",
            ),
            (
                lambda d: d["fcms"][0]["attributes"].update(throughput=float("nan")),
                "fcms[0].attributes.throughput: throughput must be >= 0, got nan",
            ),
            (
                lambda d: d["links"].insert(0, {"child": "p1", "parent": "t1"}),
                "links[0]: R1: 'p1' (PROCESS) cannot attach to 't1' (TASK); "
                "a parent sits exactly one level up",
            ),
        ],
        ids=["infinite-criticality", "nan-deadline", "nan-throughput", "process-to-task"],
    )
    def test_defect_the_model_rejects_is_one_issue(self, mutate, expected):
        doc = three_level_doc()
        mutate(doc)
        assert self.issues(doc) == [expected]

    def test_every_rule_an_entry_breaks(self):
        doc = three_level_doc()
        doc["fcms"][0]["attributes"].update(criticality=-1, fault_tolerance=0)
        doc["fcms"][0]["attributes"]["timing"].update(computation_time=-2)
        assert self.issues(doc) == [
            "fcms[0].attributes.timing.computation_time: "
            "computation_time must be >= 0, got -2",
            "fcms[0].attributes.criticality: criticality must be finite and >= 0, got -1",
            "fcms[0].attributes.fault_tolerance: fault_tolerance must be >= 1, got 0",
        ]

    def test_a_second_parent_at_the_wrong_level_breaks_r1_and_r2(self):
        doc = three_level_doc()
        doc["links"].append({"child": "f1", "parent": "p1"})
        assert self.issues(doc) == [
            "links[2]: R1: 'f1' (PROCEDURE) cannot attach to 'p1' (PROCESS); "
            "a parent sits exactly one level up",
            "links[2]: R2: 'f1' already has parent 't1'; an FCM may not be "
            "shared — duplicate it instead",
        ]

    def test_failed_entry_still_registers(self):
        # p1's attributes fail, yet its level still checks the link
        # below, and its name still resolves in the influence section.
        doc = three_level_doc()
        doc["fcms"][0]["attributes"]["criticality"] = "high"
        doc["fcms"].append({"name": "p2", "level": "PROCESS"})
        doc["links"].append({"child": "p2", "parent": "p1"})
        doc["influence"] = {
            "PROCESS": {"edges": [{"source": "p1", "target": "p2", "value": 0.5}]}
        }
        assert self.issues(doc) == [
            "fcms[0].attributes.criticality: must be a number, got 'high'",
            "links[2]: R1: 'p2' (PROCESS) cannot attach to 'p1' (PROCESS); "
            "a parent sits exactly one level up",
        ]

    def test_fcm_name_rule_named_by_path(self):
        doc = three_level_doc()
        doc["fcms"].append({"name": "9 lives", "level": "PROCESS"})
        [issue] = self.issues(doc)
        assert issue.startswith("fcms[3].name: invalid FCM name '9 lives'")

    def test_graph_document_reads_fcms_the_same_way(self):
        from repro.io import graph_from_dict, graph_to_dict
        from repro.workloads import paper_influence_graph

        doc = graph_to_dict(paper_influence_graph())
        doc["fcms"][1]["attributes"]["criticality"] = float("inf")
        doc["version"] = "one"
        with pytest.raises(ValidationFailure) as excinfo:
            graph_from_dict(doc)
        assert [issue.path for issue in excinfo.value.issues] == [
            "version", "fcms[1].attributes.criticality",
        ]

    def test_attributes_from_dict_names_the_field(self):
        from repro.io import attributes_from_dict

        with pytest.raises(ValidationFailure) as excinfo:
            attributes_from_dict({"throughput": float("nan"), "security": "ULTRA"})
        assert [issue.path for issue in excinfo.value.issues] == [
            "attributes.security", "attributes.throughput",
        ]
