"""Output checks and the output digest, run outside the timed region.

The integrate checks read the emitted ``ddsi-outcome`` document and
compare it with what the input document implies (every expanded FCM
placed exactly once, replicas apart, clusters on distinct existing HW
nodes) and with a score recomputed from the returned mapping.  The
campaign checks compare trial counts and bounds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter

SCORE_FIELDS = (
    "cross_influence",
    "max_node_criticality",
    "critical_colocations",
    "communication_cost",
    "replica_separation_ok",
    "complete",
    "constraint_violations",
    "resource_violations",
)


def score_fields(score) -> dict:
    """A ``MappingScore`` in the shape ``outcome_to_dict`` emits it."""
    return {
        "cross_influence": score.partition.cross_influence,
        "max_node_criticality": score.partition.max_node_criticality,
        "critical_colocations": score.partition.critical_colocations,
        "communication_cost": score.communication_cost,
        "replica_separation_ok": score.replica_separation_ok,
        "complete": score.complete,
        "constraint_violations": list(score.partition.constraint_violations),
        "resource_violations": list(score.resource_violations),
    }


def check_integration(
    expected: dict[str, str],
    hw_nodes: set[str],
    emitted: dict,
    recomputed: dict,
) -> list[str]:
    """Problems with one emitted outcome; empty when it is correct.

    ``expected`` maps each expanded FCM name to its origin process (see
    ``inputs.expected_members``), ``hw_nodes`` names the HW graph's
    nodes and ``recomputed`` is :func:`score_fields` of
    ``evaluate_mapping`` re-run on the returned mapping.
    """
    problems = []
    scores = emitted.get("scores", {})
    for name in SCORE_FIELDS:
        if scores.get(name) != recomputed[name]:
            problems.append(
                f"score {name}: emitted {scores.get(name)!r}, "
                f"recomputed {recomputed[name]!r}"
            )
    if not emitted.get("feasible"):
        return problems
    clusters = emitted.get("clusters", [])
    placed = Counter(m for cluster in clusters for m in cluster["members"])
    for member, count in sorted(placed.items()):
        if count > 1:
            problems.append(f"{member} is in {count} clusters")
        if member not in expected:
            problems.append(f"{member} is not an expanded FCM of the input")
    for member in sorted(set(expected) - set(placed)):
        problems.append(f"{member} is in no cluster")
    nodes = [cluster["hw_node"] for cluster in clusters]
    for node, count in sorted(Counter(nodes).items(), key=str):
        if node not in hw_nodes:
            problems.append(f"cluster on unknown HW node {node!r}")
        elif count > 1:
            problems.append(f"{count} clusters share HW node {node}")
    node_of = {m: cluster["hw_node"] for cluster in clusters for m in cluster["members"]}
    replicas: dict[str, list[str]] = {}
    for member, origin in expected.items():
        if member != origin and member in node_of:
            replicas.setdefault(origin, []).append(node_of[member])
    for origin, where in sorted(replicas.items()):
        if len(set(where)) != len(where):
            problems.append(f"replicas of {origin} share a HW node: {sorted(where)}")
    return problems


def result_fields(result) -> dict:
    """A campaign result's compared fields (timings and reports excluded)."""
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.compare
    }


def check_campaign(kind: str, result, trials: int) -> list[str]:
    """Problems with one campaign result; empty when it is correct."""
    problems = []
    if result.trials != trials:
        problems.append(f"{kind}: {result.trials} trials, requested {trials}")
    if kind == "faultsim" and not 0.0 <= result.cross_cluster_rate <= 1.0:
        problems.append(f"faultsim: escape rate {result.cross_cluster_rate} outside [0, 1]")
    if kind == "resilience":
        if result.separation_violations:
            problems.append(
                f"resilience: {result.separation_violations} degraded plans "
                "violate replica separation"
            )
        for label, value in result.availability.items():
            if not 0.0 <= value <= 1.0:
                problems.append(f"resilience: class {label} availability {value}")
    return problems


class Digest:
    """SHA-256 over canonical JSON of each op's output, in op order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.items = 0

    def add(self, output) -> None:
        self._hash.update(json.dumps(output, sort_keys=True).encode())
        self._hash.update(b"\n")
        self.items += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
