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
from typing import Any

from repro.errors import DDSIError
from repro.allocation.hw_model import HWGraph, HWNode
from repro.influence.factors import FactorKind, InfluenceFactor
from repro.influence.influence_graph import InfluenceGraph
from repro.model.attributes import AttributeSet, SecurityLevel, TimingConstraint
from repro.model.fcm import FCM, Level
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
    timing = None
    if "timing" in data and data["timing"] is not None:
        t = data["timing"]
        timing = TimingConstraint(
            t["earliest_start"], t["deadline"], t["computation_time"]
        )
    try:
        security = SecurityLevel[data.get("security", "UNCLASSIFIED")]
    except KeyError as exc:
        raise SerializationError(f"unknown security level {data['security']!r}") from exc
    return AttributeSet(
        criticality=data.get("criticality", 0.0),
        fault_tolerance=data.get("fault_tolerance", 1),
        timing=timing,
        throughput=data.get("throughput", 0.0),
        security=security,
        communication_rate=data.get("communication_rate", 0.0),
    )


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
    """Rebuild a standalone influence graph from :func:`graph_to_dict`."""
    _check_header(data, FORMAT_GRAPH)
    graph = InfluenceGraph()
    for entry in data.get("fcms", []):
        try:
            level = Level[entry["level"]]
        except KeyError as exc:
            raise SerializationError(
                f"unknown level {entry.get('level')!r}"
            ) from exc
        graph.add_fcm(
            FCM(
                name=entry["name"],
                level=level,
                attributes=attributes_from_dict(entry.get("attributes", {})),
                stateless=entry.get("stateless", True),
                replica_of=entry.get("replica_of"),
            )
        )
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
    # Walk the whole document first so *every* defect is reported at
    # once, with JSON-path (and, given ``text``, line) context; the
    # legacy per-field raises below remain as a backstop.
    from repro.io.validation import ValidationFailure, validate_system_dict

    issues = validate_system_dict(data, text=text)
    if issues:
        raise ValidationFailure(issues, source=source)
    _check_header(data, FORMAT_SYSTEM)
    system = SoftwareSystem(name=data.get("name", "unnamed"))
    for entry in data.get("fcms", []):
        try:
            level = Level[entry["level"]]
        except KeyError as exc:
            raise SerializationError(
                f"unknown level {entry.get('level')!r}"
            ) from exc
        system.hierarchy.add(
            FCM(
                name=entry["name"],
                level=level,
                attributes=attributes_from_dict(entry.get("attributes", {})),
                stateless=entry.get("stateless", True),
                replica_of=entry.get("replica_of"),
            )
        )
    for link in data.get("links", []):
        system.hierarchy.attach(link["child"], link["parent"])
    for level_name, graph_data in data.get("influence", {}).items():
        try:
            level = Level[level_name]
        except KeyError as exc:
            raise SerializationError(f"unknown level {level_name!r}") from exc
        graph = system.influence_at(level)
        _load_influence(graph, graph_data)
    return system


def dump_system(system: SoftwareSystem, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(system_to_dict(system), handle, indent=2)


def load_system(path: str) -> SoftwareSystem:
    with open(path) as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        from repro.io.validation import ValidationFailure, ValidationIssue

        raise ValidationFailure(
            [ValidationIssue("$", f"invalid JSON: {exc.msg}", exc.lineno)],
            source=path,
        ) from exc
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
    _check_header(data, FORMAT_HW)
    hw = HWGraph()
    for entry in data.get("nodes", []):
        hw.add_node(
            HWNode(
                name=entry["name"],
                fcr=entry.get("fcr", "fcr0"),
                resources=frozenset(entry.get("resources", [])),
                memory=entry.get("memory", 0.0),
            )
        )
    for link in data.get("links", []):
        hw.add_link(link["a"], link["b"], link.get("cost", 1.0))
    return hw


def dump_hw(hw: HWGraph, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(hw_to_dict(hw), handle, indent=2)


def load_hw(path: str) -> HWGraph:
    with open(path) as handle:
        return hw_from_dict(json.load(handle))


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


def _check_header(data: dict[str, Any], expected_format: str) -> None:
    if not isinstance(data, dict):
        raise SerializationError("expected a JSON object")
    if data.get("format") != expected_format:
        raise SerializationError(
            f"expected format {expected_format!r}, got {data.get('format')!r}"
        )
    version = data.get("version", VERSION)
    if version > VERSION:
        raise SerializationError(
            f"file version {version} is newer than supported {VERSION}"
        )
