"""JSON round-trip of systems and HW graphs."""

import json

import pytest

from repro.allocation import fully_connected
from repro.io import (
    SerializationError,
    dump_hw,
    dump_system,
    hw_from_dict,
    hw_to_dict,
    load_hw,
    load_system,
    system_from_dict,
    system_to_dict,
)
from repro.model import Level
from repro.workloads import avionics_hw, avionics_system, paper_system


class TestSystemRoundTrip:
    def test_paper_system(self):
        original = paper_system()
        clone = system_from_dict(system_to_dict(original))
        assert clone.name == original.name
        assert clone.hierarchy.names() == original.hierarchy.names()
        g0 = original.influence[Level.PROCESS]
        g1 = clone.influence[Level.PROCESS]
        assert sorted(g0.influence_edges()) == sorted(g1.influence_edges())

    def test_avionics_system_with_factors(self):
        original = avionics_system()
        clone = system_from_dict(system_to_dict(original))
        g0 = original.influence[Level.PROCESS]
        g1 = clone.influence[Level.PROCESS]
        # Factor decompositions survive.
        f0 = g0.factors("sensor_io", "flight_ctl")
        f1 = g1.factors("sensor_io", "flight_ctl")
        assert f0 == f1
        # Hierarchy links survive.
        assert (
            clone.hierarchy.parent_of("flight_ctl.voter").name == "flight_ctl"
        )
        clone.require_valid()

    def test_attributes_survive(self):
        original = paper_system()
        clone = system_from_dict(system_to_dict(original))
        a0 = original.hierarchy.get("p1").attributes
        a1 = clone.hierarchy.get("p1").attributes
        assert a0 == a1

    def test_replica_links_survive(self):
        from repro.allocation import expand_replication
        from repro.io.serialization import influence_to_dict
        from repro.workloads import paper_influence_graph

        expanded = expand_replication(paper_influence_graph())
        data = influence_to_dict(expanded)
        assert sorted(map(sorted, data["replica_links"]))  # nonempty
        # p1 has three replicas -> three pairwise links.
        p1_links = [
            pair for pair in data["replica_links"] if pair[0].startswith("p1")
        ]
        assert len(p1_links) == 3

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "system.json"
        dump_system(paper_system(), str(path))
        clone = load_system(str(path))
        assert clone.name == "icdcs98-example"

    def test_integration_works_after_reload(self, tmp_path):
        from repro import IntegrationFramework

        path = tmp_path / "system.json"
        dump_system(paper_system(), str(path))
        outcome = IntegrationFramework(load_system(str(path))).integrate(
            fully_connected(6)
        )
        assert outcome.feasible


class TestHWRoundTrip:
    def test_avionics_hw(self):
        original = avionics_hw(6)
        clone = hw_from_dict(hw_to_dict(original))
        assert clone.names() == original.names()
        assert clone.node("cab1").resources == frozenset({"sensor_bus"})
        assert clone.all_links() == original.all_links()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "hw.json"
        dump_hw(fully_connected(4), str(path))
        clone = load_hw(str(path))
        assert len(clone) == 4


def hw_doc(nodes=None, links=None):
    return {
        "format": "ddsi-hw",
        "version": 1,
        "nodes": [{"name": "a"}, {"name": "b"}] if nodes is None else nodes,
        "links": [] if links is None else links,
    }


class TestHWDocumentErrors:
    """Malformed HW documents fail with the JSON path of the defect."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            (hw_doc(links=[{"a": "a"}]), r"links\[0\]\.b: missing"),
            (hw_doc(links=[{"b": "a"}]), r"links\[0\]\.a: missing"),
            (hw_doc(nodes=[{"name": "a"}, {"fcr": "x"}]), r"nodes\[1\]\.name: missing"),
            (
                hw_doc(links=[{"a": "a", "b": "b", "cost": "cheap"}]),
                r"links\[0\]\.cost: expected a number, got 'cheap'",
            ),
            (
                hw_doc(links=[{"a": "a", "b": "b", "cost": True}]),
                r"links\[0\]\.cost: expected a number",
            ),
            (
                hw_doc(links=[{"a": "a", "b": "b", "cost": float("nan")}]),
                r"links\[0\]\.cost: must not be NaN",
            ),
            (
                hw_doc(nodes=[{"name": "a", "memory": float("nan")}]),
                r"nodes\[0\]\.memory: must not be NaN",
            ),
            (
                hw_doc(links=[{"a": "a", "b": "b"}, {"a": "a", "b": "zz"}]),
                r"links\[1\]: HW node 'zz' not in graph",
            ),
            (
                hw_doc(links=[{"a": "a", "b": "b", "cost": -1}]),
                r"links\[0\]: link cost must be >= 0",
            ),
            (hw_doc(nodes=[{"name": "a"}, {"name": "a"}]), r"nodes\[1\]: HW node 'a' already"),
            (hw_doc(nodes=[{"name": 7}]), r"nodes\[0\]\.name: expected a string"),
            (hw_doc(nodes=[{"name": "a", "resources": "bus"}]), r"nodes\[0\]\.resources"),
            (hw_doc(nodes=["a"]), r"nodes\[0\]: expected an object"),
            (hw_doc(links={"a": "b"}), r"links: expected a list"),
        ],
    )
    def test_defect_named_by_path(self, doc, message):
        with pytest.raises(SerializationError, match=message):
            hw_from_dict(doc)

    def test_infinite_cost_accepted(self):
        hw = hw_from_dict(
            hw_doc(
                nodes=[{"name": "a", "memory": float("inf")}, {"name": "b"}],
                links=[{"a": "a", "b": "b", "cost": float("inf")}],
            )
        )
        assert hw.link_cost("a", "b") == float("inf")
        assert hw.node("a").memory == float("inf")

    def test_json_nan_token_rejected_on_load(self, tmp_path):
        path = tmp_path / "hw.json"
        path.write_text(
            '{"format": "ddsi-hw", "version": 1, "nodes": [{"name": "a"}, '
            '{"name": "b"}], "links": [{"a": "a", "b": "b", "cost": NaN}]}'
        )
        with pytest.raises(SerializationError, match=r"links\[0\]\.cost"):
            load_hw(str(path))


class TestErrorHandling:
    def test_wrong_format_tag(self):
        with pytest.raises(SerializationError, match="format"):
            system_from_dict({"format": "something-else", "version": 1})

    def test_future_version_rejected(self):
        with pytest.raises(SerializationError, match="version"):
            system_from_dict({"format": "ddsi-system", "version": 99})

    def test_unknown_level_rejected(self):
        data = {
            "format": "ddsi-system",
            "version": 1,
            "name": "x",
            "fcms": [{"name": "a", "level": "MODULE", "attributes": {}}],
        }
        with pytest.raises(SerializationError, match="level"):
            system_from_dict(data)

    def test_unknown_security_rejected(self):
        data = {
            "format": "ddsi-system",
            "version": 1,
            "name": "x",
            "fcms": [
                {
                    "name": "a",
                    "level": "PROCESS",
                    "attributes": {"security": "ULTRA"},
                }
            ],
        }
        with pytest.raises(SerializationError, match="security"):
            system_from_dict(data)

    def test_non_object_rejected(self):
        with pytest.raises(SerializationError):
            system_from_dict([1, 2, 3])  # type: ignore[arg-type]

    def test_json_is_stable(self, tmp_path):
        path = tmp_path / "a.json"
        dump_system(paper_system(), str(path))
        first = json.loads(path.read_text())
        dump_system(paper_system(), str(path))
        second = json.loads(path.read_text())
        assert first == second


class TestOutcomeExport:
    def test_outcome_to_dict(self, tmp_path):
        from repro import IntegrationFramework
        from repro.io import dump_outcome, outcome_to_dict

        outcome = IntegrationFramework(paper_system()).integrate(
            fully_connected(6)
        )
        data = outcome_to_dict(outcome)
        assert data["format"] == "ddsi-outcome"
        assert data["feasible"] is True
        assert len(data["clusters"]) == 6
        members = sorted(
            m for cluster in data["clusters"] for m in cluster["members"]
        )
        assert len(members) == 12  # every replica accounted for
        nodes = [c["hw_node"] for c in data["clusters"]]
        assert len(set(nodes)) == 6

        path = tmp_path / "outcome.json"
        dump_outcome(outcome, str(path))
        reloaded = json.loads(path.read_text())
        assert reloaded == data

    def test_outcome_records_scores_and_notes(self):
        from repro import IntegrationFramework
        from repro.io import outcome_to_dict

        outcome = IntegrationFramework(paper_system()).integrate(
            fully_connected(6)
        )
        data = outcome_to_dict(outcome)
        assert data["scores"]["complete"] is True
        assert data["scores"]["cross_influence"] > 0
        assert any("condensed to" in note for note in data["notes"])


class TestGraphRoundTrip:
    """Standalone influence-graph serialization (shard task specs)."""

    def test_paper_graph_round_trips_through_json(self):
        from repro.io import graph_from_dict, graph_to_dict
        from repro.workloads import paper_influence_graph

        original = paper_influence_graph()
        payload = json.loads(json.dumps(graph_to_dict(original)))
        clone = graph_from_dict(payload)
        assert clone.fcm_names() == original.fcm_names()
        assert sorted(clone.influence_edges()) == sorted(
            original.influence_edges()
        )
        for fcm in original.fcms():
            twin = next(f for f in clone.fcms() if f.name == fcm.name)
            assert twin.level == fcm.level
            assert twin.attributes == fcm.attributes

    def test_replica_links_survive(self):
        from repro.allocation import expand_replication
        from repro.io import graph_from_dict, graph_to_dict
        from repro.workloads import paper_influence_graph

        original = expand_replication(paper_influence_graph())
        clone = graph_from_dict(graph_to_dict(original))
        assert sorted(
            sorted(g) for g in clone.replica_groups()
        ) == sorted(sorted(g) for g in original.replica_groups())

    def test_campaign_identical_after_round_trip(self):
        from repro.faultsim.campaign import run_campaign
        from repro.io import graph_from_dict, graph_to_dict
        from repro.workloads import paper_influence_graph

        original = paper_influence_graph()
        clone = graph_from_dict(graph_to_dict(original))
        partition = [[name] for name in original.fcm_names()]
        a = run_campaign(original, partition, trials=50, seed=3)
        b = run_campaign(clone, partition, trials=50, seed=3)
        assert a == b

    def test_wrong_format_rejected(self):
        from repro.io import graph_from_dict

        with pytest.raises(SerializationError):
            graph_from_dict({"format": "ddsi-system", "fcms": []})
