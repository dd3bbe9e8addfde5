"""Property tests for the columnar document load.

Validation reads each level's edge rows once into columns
(:class:`~repro.influence.columns.EdgeColumns`) and settles most rows
with array tests; a loaded graph defers its dict edges and answers its
compile, replica expansion and the audit from the columns.  Two oracles:

* on documents with defective edge rows, the issues equal those of the
  per-row checker the columns replaced
  (``tests/properties/reference_validation.py``), lines included (the
  two differ only where a defective row joins two linked replicas:
  the columns test a replica link against the rows that load, see
  ``tests/io/test_document_load.py``);
* on valid documents, each level equals the graph that
  ``_load_influence`` builds eagerly, edge by edge: its first read, its
  version, its compile, its replica expansion and its audit.
"""

from __future__ import annotations

import json
import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.allocation import expand_replication
from repro.faultsim.kernel import compile_graph
from repro.influence import InfluenceGraph
from repro.io.serialization import _load_factors, system_from_dict
from repro.io.validation import validate_system_dict
from repro.verification.checks import audit_system
from tests.properties.reference_validation import reference_issues
from tests.properties.test_property_expansion import compiles_equal

LEVELS = ("PROCESS", "TASK", "PROCEDURE")
KINDS = (
    "parameter_passing", "global_variable", "shared_memory",
    "message_passing", "timing", "resource_sharing",
)


def _factor(rng: random.Random) -> dict:
    return {
        "kind": rng.choice(KINDS),
        "p_occurrence": rng.choice((0.0, rng.random(), 1)),
        "p_transmission": rng.random(),
        "p_effect": rng.random(),
    }


def _document(rng: random.Random) -> dict:
    """A valid three-level document: 2-6 processes, one task and one
    procedure each, maybe a replica of ``p1``, and edge rows that mix
    values (some ints), factors, repeated pairs and zero rows."""
    processes = rng.randint(2, 6)
    fcms, links = [], []
    names = {level: [] for level in LEVELS}
    for p in range(1, processes + 1):
        chain = (f"p{p}", f"p{p}.t1", f"p{p}.t1.f1")
        for level, name in zip(LEVELS, chain):
            attributes = {"criticality": rng.uniform(0.0, 10.0)}
            if level == "PROCESS":
                attributes["fault_tolerance"] = rng.choice((1, 1, 2, 3))
            fcms.append({"name": name, "level": level, "attributes": attributes})
            names[level].append(name)
        links += [
            {"child": chain[1], "parent": chain[0]},
            {"child": chain[2], "parent": chain[1]},
        ]
    replica_links: list[list[str]] = []
    if rng.random() < 0.4:
        fcms.append({"name": "p1r", "level": "PROCESS", "replica_of": "p1"})
        names["PROCESS"].append("p1r")
        replica_links = [["p1", "p1r"]] + ([["p1r", "p1"]] if rng.random() < 0.3 else [])
    influence = {}
    for level in LEVELS:
        level_names = names[level]
        pairs = [
            (a, b) for a in level_names for b in level_names
            if a != b and {a, b} != {"p1", "p1r"}
        ]
        edges: list[dict] = []
        for _ in range(rng.randint(0, 2 * len(level_names))):
            if edges and rng.random() < 0.2:
                # A repeated pair: a new value, or a zero that removes it.
                earlier = rng.choice(edges)
                source, target = earlier["source"], earlier["target"]
            else:
                source, target = rng.choice(pairs)
            roll = rng.random()
            if roll < 0.25:
                row = {"source": source, "target": target,
                       "factors": [_factor(rng) for _ in range(rng.randint(0, 3))]}
            elif roll < 0.35:
                row = {"source": source, "target": target, "value": rng.choice((0, 1, 0.0))}
            else:
                row = {"source": source, "target": target, "value": rng.uniform(0.01, 1.0)}
            if rng.random() < 0.1:
                row["note"] = "extra keys are ignored"
            edges.append(row)
        influence[level] = {
            "edges": edges,
            "replica_links": replica_links if level == "PROCESS" else [],
        }
    return {
        "format": "ddsi-system", "version": 1, "name": "columns",
        "fcms": fcms, "links": links, "influence": influence,
    }


# Row defects, each applied to one row of one level.
VALUE_DEFECTS = (True, False, "0.5", None, float("nan"), float("inf"),
                 float("-inf"), -0.25, 1.5, 10**400, [0.5])
FACTOR_DEFECTS = (
    lambda f: f.update(kind="bogus"),
    lambda f: f.pop("p_effect"),
    lambda f: f.update(p_occurrence=1.5),
    lambda f: f.update(p_transmission=True),
    lambda f: f.update(p_effect=float("nan")),
)


def _break(rng: random.Random, doc: dict) -> None:
    level = rng.choice(LEVELS)
    edges = doc["influence"][level]["edges"]
    other = rng.choice([lvl for lvl in LEVELS if lvl != level])
    other_name = next(f["name"] for f in doc["fcms"] if f["level"] == other)
    rows = [i for i, row in enumerate(edges) if type(row) is dict]
    if not rows:
        rows = [len(edges)]
        edges.append({"source": "p1", "target": "p2", "value": 0.5})
    i = rng.choice(rows)
    row = edges[i]
    kind = rng.randrange(12)
    if kind == 0:
        row.pop("factors", None)
        row["value"] = rng.choice(VALUE_DEFECTS)
    elif kind == 1:
        row.pop(rng.choice(("source", "target", "value", "factors")), None)
    elif kind == 2:
        edges[i] = rng.choice(([row.get("source"), 0.5], "edge", None, 3, 0.5))
    elif kind == 3:
        row.pop("value", None)
        row["factors"] = [_factor(rng) for _ in range(rng.randint(1, 2))]
        rng.choice(FACTOR_DEFECTS)(row["factors"][0])
    elif kind == 4:
        row.pop("value", None)
        row["factors"] = rng.choice(({"kind": "timing"}, "timing", ["timing"], None))
    elif kind == 5:
        row["value"], row["factors"] = 0.5, []
    elif kind == 6:
        row[rng.choice(("source", "target"))] = "ghost"
    elif kind == 7:
        row[rng.choice(("source", "target"))] = other_name
    elif kind == 8:
        row["target"] = row.get("source")
        if rng.random() < 0.5:
            row.pop("factors", None)
            row["value"] = rng.choice((0.0, 0, 0.3))
    elif kind == 9:
        row[rng.choice(("source", "target"))] = rng.choice(("", 7, ["p1"], {"n": 1}))
    elif kind == 10:
        doc["influence"][level]["replica_links"].append(
            rng.choice((["p1", "ghost"], ["p1", other_name], ["p2", "p2"], "p1"))
        )
    else:
        # A defective row between valid ones at either end of a level.
        edges.insert(rng.choice((0, len(edges))), {"source": "p1", "value": 0.5})


def _round_trip(doc: dict) -> tuple[dict, str]:
    text = json.dumps(doc, indent=2)
    return json.loads(text), text


def _load_influence(graph: InfluenceGraph, data: dict) -> None:
    """Install ``data``'s edge rows, then its replica links, one by one."""
    graph.set_influences(
        (edge["source"], edge["target"], None, _load_factors(edge["factors"]))
        if "factors" in edge
        else (edge["source"], edge["target"], edge["value"], None)
        for edge in data.get("edges", [])
    )
    for a, b in data.get("replica_links", []):
        graph.link_replicas(a, b)


def _eager_level(graph: InfluenceGraph, section: dict) -> InfluenceGraph:
    """``graph``'s FCMs with ``section`` installed edge by edge."""
    eager = InfluenceGraph()
    for fcm in graph.fcms():
        eager.add_fcm(fcm)
    _load_influence(eager, section)
    return eager


def _eager_system(data: dict):
    system = system_from_dict(data)
    for level, graph in list(system.influence.items()):
        system.influence[level] = _eager_level(graph, data["influence"][level.name])
    return system


def _dict_state(graph: InfluenceGraph):
    digraph = graph._graph
    return (
        [(node, list(targets.items())) for node, targets in digraph.adjacency().items()],
        [(node, list(sources.items())) for node, sources in digraph._pred.items()],
        list(digraph.edge_payloads().items()),
    )


def _all_deferred(system) -> bool:
    return all(g.edge_columns() is not None for g in system.influence.values())


seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestIssuesMatchThePerRowChecker:
    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_defective_rows(self, seed, defects):
        rng = random.Random(seed)
        doc = _document(rng)
        for _ in range(defects):
            _break(rng, doc)
        data, text = _round_trip(doc)
        issues = validate_system_dict(data, text)
        assert issues == reference_issues(data, text)
        assert issues  # every defect above is one

    @given(seeds)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_valid_documents(self, seed):
        data, text = _round_trip(_document(random.Random(seed)))
        assert validate_system_dict(data, text) == reference_issues(data, text) == []


class TestLoadedLevelsEqualTheEagerBuild:
    @given(seeds)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_compile_then_first_read(self, seed):
        data, _text = _round_trip(_document(random.Random(seed)))
        loaded = system_from_dict(data)
        eager = _eager_system(data)
        for level, graph in loaded.influence.items():
            reference = eager.influence[level]
            version = graph.version
            assert version == reference.version
            # Compiled from the columns: no edge installed.
            assert compiles_equal(compile_graph(graph), compile_graph(reference))
            assert graph.edge_columns() is not None
            assert _dict_state(graph) == _dict_state(reference)  # the first read
            assert graph.edge_columns() is None
            assert graph.version == version
            for a in graph.fcm_names():
                assert graph.replica_partners(a) == reference.replica_partners(a)

    @given(seeds)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_column_reads(self, seed):
        data, _text = _round_trip(_document(random.Random(seed)))
        loaded = system_from_dict(data)
        eager = _eager_system(data)
        for level, graph in loaded.influence.items():
            reference = eager.influence[level]
            assert graph.influence_edges() == reference.influence_edges()
            assert list(graph.influence_edge_factors()) == list(
                reference.influence_edge_factors()
            )
            assert list(graph.factor_edges()) == list(reference.factor_edges())
            snapshot = graph.snapshot_edge_factors()
            assert list(snapshot()) == list(reference.influence_edge_factors())
            assert graph.edge_columns() is not None

    @given(seeds)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_expansion(self, seed):
        data, _text = _round_trip(_document(random.Random(seed)))
        loaded = system_from_dict(data)
        graph = next(g for lvl, g in loaded.influence.items() if lvl.name == "PROCESS")
        reference = _eager_level(graph, data["influence"]["PROCESS"])
        expanded = expand_replication(graph)
        expected = expand_replication(reference)
        assert compiles_equal(compile_graph(expanded), compile_graph(expected))
        assert graph.edge_columns() is not None
        # The expanded edges install on their first read, from the
        # source's columns; the source stays deferred.
        assert _dict_state(expanded) == _dict_state(expected)
        assert graph.edge_columns() is not None

    @given(seeds)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_audit(self, seed):
        data, _text = _round_trip(_document(random.Random(seed)))
        loaded = system_from_dict(data)
        eager = _eager_system(data)
        for budget in (1.0, 0.3):
            for floor in (0.0, 0.5):
                report = audit_system(loaded, budget, floor)
                expected = audit_system(eager, budget, floor)
                assert report.describe() == expected.describe()
                assert report.passed == expected.passed
        assert _all_deferred(loaded)
        # The audit read the cached compiles and wrote nothing into them.
        for level, graph in loaded.influence.items():
            fresh = compile_graph(eager.influence[level].copy())
            assert compiles_equal(compile_graph(graph), fresh)
