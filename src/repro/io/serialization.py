"""JSON serialization of systems, HW graphs, and outcomes.

A downstream user describes their system once (by hand or from tooling)
and feeds it to the framework — so the on-disk format must round-trip
everything the model holds: FCMs with full attribute sets, hierarchy
links, per-level influence graphs with factor decompositions and replica
links, and HW graphs with FCRs/resources/link costs.

The format is plain JSON with a ``format`` tag and explicit versioning.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.errors import AllocationError, DDSIError
from repro.allocation.hw_model import HWGraph, HWNode
from repro.influence.factors import FactorKind, InfluenceFactor
from repro.influence.influence_graph import InfluenceGraph
from repro.model.attributes import AttributeSet
from repro.model.fcm import Level
from repro.model.system import SoftwareSystem

FORMAT_SYSTEM = "ddsi-system"
FORMAT_HW = "ddsi-hw"
VERSION = 1


class SerializationError(DDSIError):
    """Malformed or incompatible serialized data."""


# ----------------------------------------------------------------------
# Attributes
# ----------------------------------------------------------------------
def attributes_to_dict(attrs: AttributeSet) -> dict[str, Any]:
    out: dict[str, Any] = {
        "criticality": attrs.criticality,
        "fault_tolerance": attrs.fault_tolerance,
        "throughput": attrs.throughput,
        "security": attrs.security.name,
        "communication_rate": attrs.communication_rate,
    }
    if attrs.timing is not None:
        out["timing"] = {
            "earliest_start": attrs.timing.earliest_start,
            "deadline": attrs.timing.deadline,
            "computation_time": attrs.timing.computation_time,
        }
    return out


def attributes_from_dict(data: dict[str, Any]) -> AttributeSet:
    """Read one attribute object as a document's FCM entries are read;
    raises :class:`~repro.io.validation.ValidationFailure` naming each
    defect (``attributes.criticality``)."""
    from repro.io.validation import ValidationFailure, _collector, _read_attributes

    issues, flag = _collector()
    attributes = _read_attributes(data, "attributes", flag, None)
    if issues:
        raise ValidationFailure(issues)
    return attributes


# ----------------------------------------------------------------------
# Influence graphs
# ----------------------------------------------------------------------
def _edge_to_dict(graph: InfluenceGraph, src: str, dst: str, weight: float) -> dict[str, Any]:
    out: dict[str, Any] = {"source": src, "target": dst}
    factors = graph.factors(src, dst)
    if factors:
        out["factors"] = [
            {
                "kind": f.kind.value,
                "p_occurrence": f.p_occurrence,
                "p_transmission": f.p_transmission,
                "p_effect": f.p_effect,
            }
            for f in factors
        ]
    else:
        out["value"] = weight
    return out


def influence_to_dict(graph: InfluenceGraph) -> dict[str, Any]:
    replica_links = []
    seen: set[frozenset[str]] = set()
    for group in graph.replica_groups():
        members = sorted(group)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                key = frozenset((a, b))
                if graph.is_replica_link(a, b) and key not in seen:
                    seen.add(key)
                    replica_links.append([a, b])
    return {
        "edges": [
            _edge_to_dict(graph, src, dst, w)
            for src, dst, w in graph.influence_edges()
        ],
        "replica_links": replica_links,
    }


def _load_influence(
    graph: InfluenceGraph,
    data: dict[str, Any],
) -> None:
    graph.set_influences(
        (edge["source"], edge["target"], None, _load_factors(edge["factors"]))
        if "factors" in edge
        else (edge["source"], edge["target"], edge["value"], None)
        for edge in data.get("edges", [])
    )
    for a, b in data.get("replica_links", []):
        graph.link_replicas(a, b)


def _load_factors(entries: list[dict[str, Any]]) -> list[InfluenceFactor]:
    return [
        InfluenceFactor(
            FactorKind(f["kind"]),
            f["p_occurrence"],
            f["p_transmission"],
            f["p_effect"],
        )
        for f in entries
    ]


FORMAT_GRAPH = "ddsi-influence-graph"


def graph_to_dict(graph: InfluenceGraph) -> dict[str, Any]:
    """Serialize a standalone influence graph, FCM nodes included.

    :func:`influence_to_dict` captures only edges (the system document
    stores FCMs separately); this captures the whole graph, so a worker
    process can rebuild it from JSON alone — the shard-campaign task
    spec crossing the subprocess transport depends on it.
    """
    document = {
        "format": FORMAT_GRAPH,
        "version": VERSION,
        "fcms": [
            {
                "name": fcm.name,
                "level": fcm.level.name,
                "attributes": attributes_to_dict(fcm.attributes),
                "stateless": fcm.stateless,
                "replica_of": fcm.replica_of,
            }
            for fcm in graph.fcms()
        ],
    }
    document.update(influence_to_dict(graph))
    return document


def graph_from_dict(data: dict[str, Any]) -> InfluenceGraph:
    """Rebuild a standalone influence graph from :func:`graph_to_dict`;
    its header and FCM entries are read as a system document's are."""
    from repro.io.validation import read_document

    graph = InfluenceGraph()
    for fcm in read_document(data, FORMAT_GRAPH):
        graph.add_fcm(fcm)
    _load_influence(graph, data)
    return graph


# ----------------------------------------------------------------------
# Systems
# ----------------------------------------------------------------------
def system_to_dict(system: SoftwareSystem) -> dict[str, Any]:
    fcms = []
    links = []
    for fcm in system.hierarchy:
        entry: dict[str, Any] = {
            "name": fcm.name,
            "level": fcm.level.name,
            "attributes": attributes_to_dict(fcm.attributes),
        }
        if not fcm.stateless:
            entry["stateless"] = False
        if fcm.replica_of is not None:
            entry["replica_of"] = fcm.replica_of
        fcms.append(entry)
        parent = system.hierarchy.parent_of(fcm.name)
        if parent is not None:
            links.append({"child": fcm.name, "parent": parent.name})
    return {
        "format": FORMAT_SYSTEM,
        "version": VERSION,
        "name": system.name,
        "fcms": fcms,
        "links": links,
        "influence": {
            level.name: influence_to_dict(graph)
            for level, graph in system.influence.items()
        },
    }


def system_from_dict(
    data: dict[str, Any],
    source: str | None = None,
    text: str | None = None,
) -> SoftwareSystem:
    """Build a system from a ``ddsi-system`` document.

    Validation walks the whole document once, so *every* defect is
    reported at once, with JSON-path (and, given ``text``, line)
    context.  The walk builds the FCM hierarchy and reads each level's
    edge rows into columns; the system is assembled from them, and each
    influence graph takes its edges from the columns
    (:meth:`InfluenceGraph.defer_columns`): no dict edge is installed
    until something reads one.
    """
    from repro.io.validation import ValidationFailure, validate_system_dict

    built: dict[str, Any] = {}
    issues = validate_system_dict(data, text=text, columns=built)
    if issues:
        raise ValidationFailure(issues, source=source)
    system = SoftwareSystem(name=data.get("name", "unnamed"), hierarchy=built["hierarchy"])
    for level_name, graph_data in data.get("influence", {}).items():
        system.influence_at(Level[level_name]).defer_columns(
            built[level_name], graph_data.get("replica_links", [])
        )
    return system


def dump_system(system: SoftwareSystem, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(system_to_dict(system), handle, indent=2)


def _read_json(path: str) -> tuple[str, Any]:
    """The file's text and its JSON value; invalid JSON raises a
    :class:`~repro.io.validation.ValidationFailure` naming the line."""
    with open(path) as handle:
        text = handle.read()
    try:
        return text, json.loads(text)
    except json.JSONDecodeError as exc:
        from repro.io.validation import ValidationFailure, ValidationIssue

        raise ValidationFailure(
            [ValidationIssue("$", f"invalid JSON: {exc.msg}", exc.lineno)],
            source=path,
        ) from exc


def load_system(path: str) -> SoftwareSystem:
    text, data = _read_json(path)
    return system_from_dict(data, source=path, text=text)


# ----------------------------------------------------------------------
# HW graphs
# ----------------------------------------------------------------------
def hw_to_dict(hw: HWGraph) -> dict[str, Any]:
    return {
        "format": FORMAT_HW,
        "version": VERSION,
        "nodes": [
            {
                "name": node.name,
                "fcr": node.fcr,
                "resources": sorted(node.resources),
                "memory": node.memory,
            }
            for node in hw.nodes()
        ],
        "links": [
            {"a": a, "b": b, "cost": cost} for a, b, cost in hw.all_links()
        ],
    }


def hw_from_dict(data: dict[str, Any]) -> HWGraph:
    """Build a HW graph from a ``ddsi-hw`` document.

    A bad header raises :class:`~repro.io.validation.ValidationFailure`,
    as a system document's does.  A malformed entry raises
    :class:`SerializationError` naming its JSON path (``links[0].b:
    missing``), model errors included (``links[2]: HW node 'x' not in
    graph``).  Costs and memory must be numbers; NaN is rejected and
    ``Infinity`` accepted (an ``inf`` link costs the same as no link).
    """
    from repro.io.validation import read_document

    read_document(data, FORMAT_HW)
    hw = HWGraph()
    for i, entry in enumerate(_hw_entries(data, "nodes")):
        path = f"nodes[{i}]"
        resources = entry.get("resources", [])
        if not isinstance(resources, list) or not all(
            isinstance(r, str) for r in resources
        ):
            raise SerializationError(f"{path}.resources: expected a list of strings")
        try:
            hw.add_node(
                HWNode(
                    name=_hw_string(entry, "name", path),
                    fcr=_hw_string(entry, "fcr", path, "fcr0"),
                    resources=frozenset(resources),
                    memory=_hw_number(entry, "memory", path, 0.0),
                )
            )
        except AllocationError as exc:
            raise SerializationError(f"{path}: {exc}") from exc
    for i, link in enumerate(_hw_entries(data, "links")):
        path = f"links[{i}]"
        a = _hw_string(link, "a", path)
        b = _hw_string(link, "b", path)
        cost = _hw_number(link, "cost", path, 1.0)
        try:
            hw.add_link(a, b, cost)
        except AllocationError as exc:
            raise SerializationError(f"{path}: {exc}") from exc
    return hw


def _hw_entries(data: dict[str, Any], key: str) -> list[dict[str, Any]]:
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise SerializationError(f"{key}: expected a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SerializationError(f"{key}[{i}]: expected an object")
    return entries


def _hw_string(entry: dict[str, Any], key: str, path: str, default: str | None = None) -> str:
    value = entry.get(key, default)
    if value is None:
        raise SerializationError(f"{path}.{key}: missing")
    if not isinstance(value, str):
        raise SerializationError(f"{path}.{key}: expected a string, got {value!r}")
    return value


def _hw_number(entry: dict[str, Any], key: str, path: str, default: float) -> float:
    value = entry.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SerializationError(f"{path}.{key}: expected a number, got {value!r}")
    if math.isnan(value):
        raise SerializationError(f"{path}.{key}: must not be NaN")
    return value


def dump_hw(hw: HWGraph, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(hw_to_dict(hw), handle, indent=2)


def load_hw(path: str) -> HWGraph:
    return hw_from_dict(_read_json(path)[1])


# ----------------------------------------------------------------------
# Integration outcomes
# ----------------------------------------------------------------------
def outcome_to_dict(outcome: "Any") -> dict[str, Any]:
    """Serialize an :class:`~repro.core.results.IntegrationOutcome`.

    One-way (reports are regenerated, not reloaded): records the cluster
    partition, the HW assignment, the goodness scores, audit findings and
    notes — everything a downstream deployment step needs.
    """
    state = outcome.condensation.state
    score = outcome.score
    return {
        "format": "ddsi-outcome",
        "version": VERSION,
        "system": outcome.system_name,
        "heuristic": outcome.condensation.heuristic,
        "feasible": outcome.feasible,
        "clusters": [
            {
                "label": cluster.label,
                "members": list(cluster.members),
                "hw_node": outcome.mapping.assignment.get(index),
            }
            for index, cluster in enumerate(state.clusters)
        ],
        "scores": {
            "cross_influence": score.partition.cross_influence,
            "max_node_criticality": score.partition.max_node_criticality,
            "critical_colocations": score.partition.critical_colocations,
            "communication_cost": score.communication_cost,
            "replica_separation_ok": score.replica_separation_ok,
            "complete": score.complete,
            "constraint_violations": list(score.partition.constraint_violations),
            "resource_violations": list(score.resource_violations),
        },
        "audit_findings": outcome.audit.describe(),
        "notes": list(outcome.notes),
    }


def dump_outcome(outcome: "Any", path: str) -> None:
    with open(path, "w") as handle:
        json.dump(outcome_to_dict(outcome), handle, indent=2)
