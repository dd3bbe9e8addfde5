"""Aggregated validation of serialized system documents.

:func:`repro.io.serialization.system_from_dict` historically failed on the
*first* malformed field it touched, with whatever exception the model
layer happened to raise.  For hand-written workload files that means an
edit-run-fail loop, one defect per round trip.  This module walks the
whole document up front and reports *every* problem at once, each tagged
with a JSON path (``fcms[3].attributes.criticality``) and, when the raw
file text is available, a best-effort line number.

The report is raised as :class:`ValidationFailure`, a subclass of
:class:`~repro.io.serialization.SerializationError` — so it inherits the
CLI's exit-code-2 handling and existing ``except SerializationError``
call sites keep working.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.errors import ProbabilityError
from repro.influence.factors import FactorKind
from repro.influence.probability import combine_probabilities
from repro.io.serialization import SerializationError
from repro.model.attributes import SecurityLevel
from repro.model.fcm import Level


@dataclass(frozen=True)
class ValidationIssue:
    """One defect found in a serialized document.

    Attributes:
        path: JSON path of the offending value, e.g.
            ``fcms[2].attributes.security`` or ``links[0]``.
        message: What is wrong with the value.
        line: Best-effort 1-based line number in the source file, when the
            raw text was available and the value could be located.
    """

    path: str
    message: str
    line: int | None = None

    def describe(self) -> str:
        where = f" (line {self.line})" if self.line is not None else ""
        return f"{self.path}{where}: {self.message}"


class ValidationFailure(SerializationError):
    """A document failed validation; ``issues`` holds every defect found.

    Subclasses :class:`SerializationError`, so existing ``except`` sites
    keep working and the CLI's error path (exit code 2) applies.
    """

    def __init__(
        self, issues: list[ValidationIssue], source: str | None = None
    ) -> None:
        self.issues = tuple(issues)
        self.source = source
        label = source or "document"
        noun = "issue" if len(self.issues) == 1 else "issues"
        lines = [f"{label}: {len(self.issues)} validation {noun}"]
        lines += [f"  - {issue.describe()}" for issue in self.issues]
        super().__init__("\n".join(lines))


# ----------------------------------------------------------------------
# Line hints
# ----------------------------------------------------------------------
class _LineFinder:
    """Best-effort mapping from a JSON token to its line in the raw text.

    Exact positions would need a lossless parser; for error messages a
    first-occurrence scan of the quoted token is enough, and degrades to
    ``None`` (path-only context) when the text is unavailable or the
    token appears nowhere.
    """

    def __init__(self, text: str | None) -> None:
        self._lines = text.splitlines() if text else []

    def line_of(self, token: str | None) -> int | None:
        if token is None or not self._lines:
            return None
        needle = json.dumps(token)
        for number, line in enumerate(self._lines, start=1):
            if needle in line:
                return number
        return None


# Exact types a JSON number loads as (``bool`` is not one of them).
_PLAIN_NUMBERS = (float, int)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ----------------------------------------------------------------------
# System documents
# ----------------------------------------------------------------------
def validate_system_dict(
    data: Any, text: str | None = None
) -> list[ValidationIssue]:
    """Every defect in a ``ddsi-system`` document, in document order.

    Checks the header, FCM entries (names, levels, attribute ranges),
    hierarchy links (endpoints, duplicate parents, cycles), and influence
    sections (levels, edge endpoints, self-loops, probability ranges,
    factor kinds, replica links between FCMs of one original that no
    influence edge joins).  Returns an empty list when the document is
    well-formed enough for
    :func:`~repro.io.serialization.system_from_dict` to succeed.
    """
    finder = _LineFinder(text)
    issues: list[ValidationIssue] = []

    def flag(path: str, message: str, token: str | None = None) -> None:
        issues.append(ValidationIssue(path, message, finder.line_of(token)))

    if not isinstance(data, dict):
        flag("$", "expected a JSON object")
        return issues

    _check_header_fields(data, flag, expected_format="ddsi-system")

    fcm_names = _check_fcms(data, flag)
    _check_links(data, flag, fcm_names)
    _check_influence(data, flag, fcm_names)
    return issues


def _check_header_fields(data: dict, flag, expected_format: str) -> None:
    fmt = data.get("format")
    if fmt != expected_format:
        flag(
            "format",
            f"expected format {expected_format!r}, got {fmt!r}",
            "format",
        )
    version = data.get("version", 1)
    if not isinstance(version, int) or isinstance(version, bool):
        flag("version", f"version must be an integer, got {version!r}", "version")
    elif version > 1:
        flag(
            "version",
            f"file version {version} is newer than supported 1",
            "version",
        )


def _check_fcms(data: dict, flag) -> dict[str, str]:
    """Validate ``fcms`` entries; returns name -> level-name for valid ones."""
    fcms = data.get("fcms", [])
    names: dict[str, str] = {}
    if not isinstance(fcms, list):
        flag("fcms", f"must be a list, got {type(fcms).__name__}", "fcms")
        return names
    valid_levels = {level.name for level in Level}
    for i, entry in enumerate(fcms):
        path = f"fcms[{i}]"
        if not isinstance(entry, dict):
            flag(path, "must be an object")
            continue
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            flag(f"{path}.name", f"missing or empty FCM name (got {name!r})")
            name = None
        elif name in names:
            flag(f"{path}.name", f"duplicate FCM name {name!r}", name)
        level = entry.get("level")
        if level is None:
            flag(f"{path}.level", "missing level", name)
        elif level not in valid_levels:
            flag(
                f"{path}.level",
                f"unknown level {level!r} (expected one of "
                f"{sorted(valid_levels)})",
                level if isinstance(level, str) else name,
            )
            level = None
        if name is not None:
            names.setdefault(name, level if isinstance(level, str) else "")
        _check_attributes(entry.get("attributes"), f"{path}.attributes", flag, name)
        replica_of = entry.get("replica_of")
        if replica_of is not None and not isinstance(replica_of, str):
            flag(f"{path}.replica_of", f"must be a string, got {replica_of!r}", name)
    # replica_of endpoints need the full name set, so a second pass:
    for i, entry in enumerate(fcms):
        if not isinstance(entry, dict):
            continue
        replica_of = entry.get("replica_of")
        if isinstance(replica_of, str) and replica_of not in names:
            flag(
                f"fcms[{i}].replica_of",
                f"references unknown FCM {replica_of!r}",
                replica_of,
            )
    return names


def _check_attributes(attrs: Any, path: str, flag, token: str | None) -> None:
    if attrs is None:
        return
    if not isinstance(attrs, dict):
        flag(path, f"must be an object, got {type(attrs).__name__}", token)
        return
    for key in ("criticality", "throughput", "communication_rate"):
        if key in attrs:
            value = attrs[key]
            if not _is_number(value):
                flag(f"{path}.{key}", f"must be a number, got {value!r}", token)
            elif value < 0:
                flag(f"{path}.{key}", f"must be >= 0, got {value}", token)
    if "fault_tolerance" in attrs:
        ft = attrs["fault_tolerance"]
        if not isinstance(ft, int) or isinstance(ft, bool) or ft < 1:
            flag(
                f"{path}.fault_tolerance",
                f"must be an integer >= 1, got {ft!r}",
                token,
            )
    if "security" in attrs:
        security = attrs["security"]
        if security not in SecurityLevel.__members__:
            flag(
                f"{path}.security",
                f"unknown security level {security!r} (expected one of "
                f"{list(SecurityLevel.__members__)})",
                security if isinstance(security, str) else token,
            )
    timing = attrs.get("timing")
    if timing is not None:
        _check_timing(timing, f"{path}.timing", flag, token)


def _check_timing(timing: Any, path: str, flag, token: str | None) -> None:
    if not isinstance(timing, dict):
        flag(path, f"must be an object, got {type(timing).__name__}", token)
        return
    values: dict[str, float] = {}
    for key in ("earliest_start", "deadline", "computation_time"):
        if key not in timing:
            flag(f"{path}.{key}", "missing required timing field", token)
        elif not _is_number(timing[key]):
            flag(f"{path}.{key}", f"must be a number, got {timing[key]!r}", token)
        else:
            values[key] = float(timing[key])
    if len(values) != 3:
        return
    est, tcd, ct = (
        values["earliest_start"],
        values["deadline"],
        values["computation_time"],
    )
    if est < 0:
        flag(f"{path}.earliest_start", f"must be >= 0, got {est}", token)
    if ct < 0:
        flag(f"{path}.computation_time", f"must be >= 0, got {ct}", token)
    if tcd < est:
        flag(
            f"{path}.deadline",
            f"deadline {tcd} is before earliest_start {est}",
            token,
        )
    elif ct >= 0 and est >= 0 and ct > (tcd - est) + 1e-12:
        flag(
            path,
            f"degenerate window: {ct} units of work cannot fit in "
            f"[{est}, {tcd}]",
            token,
        )


def _check_links(data: dict, flag, fcm_names: dict[str, str]) -> None:
    links = data.get("links", [])
    if not isinstance(links, list):
        flag("links", f"must be a list, got {type(links).__name__}", "links")
        return
    parent_of: dict[str, str] = {}
    for i, link in enumerate(links):
        path = f"links[{i}]"
        if not isinstance(link, dict):
            flag(path, "must be an object")
            continue
        child = link.get("child")
        parent = link.get("parent")
        ok = True
        for role, value in (("child", child), ("parent", parent)):
            if not isinstance(value, str) or not value:
                flag(f"{path}.{role}", f"missing or invalid {role} (got {value!r})")
                ok = False
            elif fcm_names and value not in fcm_names:
                flag(
                    f"{path}.{role}",
                    f"references unknown FCM {value!r}",
                    value,
                )
                ok = False
        if not ok:
            continue
        if child == parent:
            flag(path, f"FCM {child!r} linked to itself", child)
            continue
        if child in parent_of:
            flag(
                path,
                f"FCM {child!r} already has parent {parent_of[child]!r}",
                child,
            )
            continue
        parent_of[child] = parent
    # Cycle detection over the parent map: follow each chain upward.
    cleared: set[str] = set()
    for start in parent_of:
        trail: list[str] = []
        seen: set[str] = set()
        node = start
        while node in parent_of and node not in cleared:
            if node in seen:
                cycle = trail[trail.index(node):] + [node]
                flag(
                    "links",
                    "cyclic hierarchy: " + " -> ".join(repr(n) for n in cycle),
                    node,
                )
                break
            seen.add(node)
            trail.append(node)
            node = parent_of[node]
        cleared.update(seen)


def _check_influence(data: dict, flag, fcm_names: dict[str, str]) -> None:
    influence = data.get("influence", {})
    if not isinstance(influence, dict):
        flag(
            "influence",
            f"must be an object, got {type(influence).__name__}",
            "influence",
        )
        return
    valid_levels = {level.name for level in Level}
    for level_name, section in influence.items():
        path = f"influence.{level_name}"
        if level_name not in valid_levels:
            flag(
                path,
                f"unknown level {level_name!r} (expected one of "
                f"{sorted(valid_levels)})",
                level_name,
            )
            continue
        if not isinstance(section, dict):
            flag(path, f"must be an object, got {type(section).__name__}")
            continue
        # FCMs whose own level failed validation (stored as "") act as
        # wildcards here, so one bad level doesn't cascade into spurious
        # "not at this level" reports for every edge touching the FCM.
        at_level = {
            name
            for name, lvl in fcm_names.items()
            if lvl == level_name or lvl == ""
        }
        _check_edges(section, path, flag, fcm_names, at_level, level_name)
        _check_replica_links(
            section, path, flag, fcm_names, at_level, level_name, data.get("fcms")
        )


def _check_edges(
    section: dict,
    path: str,
    flag,
    fcm_names: dict[str, str],
    at_level: set[str],
    level_name: str,
) -> None:
    edges = section.get("edges", [])
    if not isinstance(edges, list):
        flag(f"{path}.edges", f"must be a list, got {type(edges).__name__}")
        return
    for i, edge in enumerate(edges):
        # One cheap test passes a well-formed value edge between two
        # distinct FCMs of this level; only the edges that fail it pay
        # for the per-field checks and their JSON paths.
        if type(edge) is dict and "factors" not in edge:
            source = edge.get("source")
            target = edge.get("target")
            value = edge.get("value")
            if (
                type(source) is str
                and type(target) is str
                and source != target
                and source in at_level
                and target in at_level
                and type(value) in _PLAIN_NUMBERS
                and 0.0 <= value <= 1.0
            ):
                continue
        _check_edge(edge, f"{path}.edges[{i}]", flag, fcm_names, at_level, level_name)


def _check_edge(
    edge: Any,
    epath: str,
    flag,
    fcm_names: dict[str, str],
    at_level: set[str],
    level_name: str,
) -> None:
    if not isinstance(edge, dict):
        flag(epath, "must be an object")
        return
    for role in ("source", "target"):
        value = edge.get(role)
        if not isinstance(value, str) or not value:
            flag(f"{epath}.{role}", f"missing or invalid {role} (got {value!r})")
        elif fcm_names and value not in fcm_names:
            flag(f"{epath}.{role}", f"references unknown FCM {value!r}", value)
        elif at_level and value not in at_level:
            flag(
                f"{epath}.{role}",
                f"FCM {value!r} is not at level {level_name}",
                value,
            )
    source = edge.get("source")
    if isinstance(source, str) and source and source == edge.get("target"):
        flag(epath, f"FCM {source!r} cannot influence itself (self-loop)", source)
    has_value = "value" in edge
    has_factors = "factors" in edge
    if has_value == has_factors:
        flag(epath, "must carry exactly one of 'value' or 'factors'")
        return
    if has_value:
        value = edge["value"]
        if not _is_number(value):
            flag(f"{epath}.value", f"must be a number, got {value!r}")
        elif not 0.0 <= value <= 1.0:
            flag(
                f"{epath}.value",
                f"influence probability must be in [0, 1], got {value}",
            )
    else:
        _check_factors(edge["factors"], f"{epath}.factors", flag)


def _check_factors(factors: Any, path: str, flag) -> None:
    if not isinstance(factors, list):
        flag(path, f"must be a list, got {type(factors).__name__}")
        return
    valid_kinds = {kind.value for kind in FactorKind}
    for i, factor in enumerate(factors):
        fpath = f"{path}[{i}]"
        if not isinstance(factor, dict):
            flag(fpath, "must be an object")
            continue
        kind = factor.get("kind")
        if kind not in valid_kinds:
            flag(
                f"{fpath}.kind",
                f"unknown factor kind {kind!r} (expected one of "
                f"{sorted(valid_kinds)})",
                kind if isinstance(kind, str) else None,
            )
        for key in ("p_occurrence", "p_transmission", "p_effect"):
            if key not in factor:
                flag(f"{fpath}.{key}", "missing factor probability")
            elif not _is_number(factor[key]):
                flag(f"{fpath}.{key}", f"must be a number, got {factor[key]!r}")
            elif not 0.0 <= factor[key] <= 1.0:
                flag(
                    f"{fpath}.{key}",
                    f"probability must be in [0, 1], got {factor[key]}",
                )


def _check_replica_links(
    section: dict,
    path: str,
    flag,
    fcm_names: dict[str, str],
    at_level: set[str],
    level_name: str,
    fcms: Any,
) -> None:
    links = section.get("replica_links", [])
    if not isinstance(links, list):
        flag(
            f"{path}.replica_links",
            f"must be a list, got {type(links).__name__}",
        )
        return
    # Built on the first well-formed link: most sections have none.
    origins: dict[str, str] | None = None
    live: set[tuple[str, str]] | None = None
    for i, pair in enumerate(links):
        lpath = f"{path}.replica_links[{i}]"
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(n, str) for n in pair)
        ):
            flag(lpath, f"must be a pair of FCM names, got {pair!r}")
            continue
        a, b = pair
        ok = a != b
        if not ok:
            flag(lpath, f"FCM {a!r} linked as a replica of itself", a)
        for name in pair:
            if fcm_names and name not in fcm_names:
                flag(lpath, f"references unknown FCM {name!r}", name)
                ok = False
            elif at_level and name not in at_level:
                flag(lpath, f"FCM {name!r} is not at level {level_name}", name)
                ok = False
        if not ok:
            continue
        if origins is None:
            origins = _replica_origins(fcms)
            live = _live_pairs(section.get("edges", []))
        pair_origins = {origins.get(a, a), origins.get(b, b)}
        if len(pair_origins) != 1:
            flag(
                lpath,
                f"{a!r} and {b!r} are not replicas of the same original "
                f"(origins {sorted(pair_origins)!r})",
                a,
            )
        for src, dst in ((a, b), (b, a)):
            if (src, dst) in live:
                flag(
                    lpath,
                    f"influence edge {src!r} -> {dst!r} already exists; "
                    "replicas cannot also influence each other",
                    src,
                )


def _replica_origins(fcms: Any) -> dict[str, str]:
    """FCM name -> the original it replicates, for declared replicas."""
    if not isinstance(fcms, list):
        return {}
    return {
        entry["name"]: entry["replica_of"]
        for entry in fcms
        if isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("replica_of"), str)
        and entry["replica_of"]
    }


def _live_pairs(edges: Any) -> set[tuple[str, str]]:
    """``(source, target)`` pairs that load as influence edges.

    Edges apply in document order, so a later zero influence removes an
    earlier edge.  Malformed edges are flagged on their own and skipped.
    """
    live: set[tuple[str, str]] = set()
    if not isinstance(edges, list):
        return live
    for edge in edges:
        try:
            pair = (edge["source"], edge["target"])
            if "factors" in edge:
                value = combine_probabilities(
                    f["p_occurrence"] * f["p_transmission"] * f["p_effect"]
                    for f in edge["factors"]
                )
            else:
                value = edge["value"]
            if value != 0.0:
                live.add(pair)
            else:
                live.discard(pair)
        except (TypeError, KeyError, ProbabilityError):
            continue
    return live
