"""Aggregated validation of serialized documents.

Failing on the *first* malformed field means an edit-run-fail loop for
hand-written workload files, one defect per round trip.  This module
walks the whole document once, building the model objects as it reads
each entry, and reports *every* problem at once, each tagged with a JSON
path (``fcms[3].attributes.criticality``) and, when the raw file text is
available, a best-effort line number.  The rules of :mod:`repro.model`
(attribute and timing domains, R1, R2) are reported in its messages;
this module checks only JSON shape, types and cross-references.

The report is raised as :class:`ValidationFailure`, a subclass of
:class:`~repro.io.serialization.SerializationError` — so it inherits the
CLI's exit-code-2 handling and existing ``except SerializationError``
call sites keep working.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import AttributeError_, HierarchyError, ModelError
from repro.influence.columns import EdgeColumns
from repro.influence.factors import FactorKind
from repro.influence.probability import influence_from_factors
from repro.io.serialization import SerializationError, _load_factors
from repro.model.attributes import (
    AttributeSet, SecurityLevel, TimingConstraint, attribute_problems, timing_problems,
)
from repro.model.fcm import FCM, Level
from repro.model.hierarchy import FCMHierarchy


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

    Exact positions would need a lossless parser; for error messages the
    first occurrence of the quoted token is enough, and degrades to
    ``None`` (path-only context) when the text is unavailable or the
    token appears nowhere.  The text is split into lines on the first
    lookup, so a valid document costs nothing; each token is found once.
    A quoted token holds no character that :meth:`str.splitlines` breaks
    on, so its first occurrence lies on the first line that contains it.
    """

    def __init__(self, text: str | None) -> None:
        self._text = text
        self._starts: list[int] | None = None
        self._found: dict[str, int | None] = {}

    def line_of(self, token: str | None) -> int | None:
        if token is None or not self._text:
            return None
        if token not in self._found:
            if self._starts is None:
                self._starts = [0]
                for line in self._text.splitlines(keepends=True):
                    self._starts.append(self._starts[-1] + len(line))
            at = self._text.find(json.dumps(token))
            self._found[token] = None if at < 0 else bisect_right(self._starts, at)
        return self._found[token]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _collector(text: str | None = None):
    """An empty issue list and the ``flag(path, message, token)`` that
    appends to it, with the token's line in ``text``."""
    finder = _LineFinder(text)
    issues: list[ValidationIssue] = []

    def flag(path: str, message: str, token: str | None = None) -> None:
        issues.append(ValidationIssue(path, message, finder.line_of(token)))

    return issues, flag


# ----------------------------------------------------------------------
# Documents
# ----------------------------------------------------------------------
def validate_system_dict(
    data: Any,
    text: str | None = None,
    columns: dict[str, EdgeColumns | FCMHierarchy] | None = None,
) -> list[ValidationIssue]:
    """Every defect in a ``ddsi-system`` document, in document order.

    Checks the header, FCM entries (names, levels, attributes), hierarchy
    links (endpoints, rules R1 and R2), and influence sections (levels,
    edge endpoints, self-loops, probability ranges, factor kinds, replica
    links between FCMs of one original that no influence edge joins).
    Returns an empty list when the document is well-formed enough for
    :func:`~repro.io.serialization.system_from_dict` to succeed.

    One walk reads each entry once and builds what the system is made
    of: the FCM hierarchy, and each level's edge rows as
    :class:`EdgeColumns`.  Given a ``columns`` dict, validation stores
    them there, the columns by level name and the hierarchy under
    ``"hierarchy"`` (when no issue is returned, the loader assembles the
    system from them).
    """
    issues, flag = _collector(text)
    if not isinstance(data, dict):
        flag("$", "expected a JSON object")
        return issues

    _check_header_fields(data, flag, expected_format="ddsi-system")

    fcm_names = _check_fcms(data, flag)
    _check_links(data, flag, fcm_names)
    built = {} if columns is None else columns
    if fcm_names is not None:
        built["hierarchy"] = fcm_names.hierarchy
    _check_influence(data, flag, fcm_names, built)
    return issues


def read_document(data: Any, expected_format: str) -> FCMHierarchy:
    """Check a graph or HW document's header and read its FCM entries (a
    HW document has none) as a system document's are read; raises
    :class:`ValidationFailure` listing every defect.  A replica may name
    an origin outside the document (expanded graphs' task specs do)."""
    issues, flag = _collector()
    if not isinstance(data, dict):
        flag("$", "expected a JSON object")
        raise ValidationFailure(issues)
    _check_header_fields(data, flag, expected_format)
    entries = _check_fcms(data, flag, known_origins=False)
    if issues:
        raise ValidationFailure(issues)
    return entries.hierarchy


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


class _Entries(dict):
    """What a document's ``fcms`` list holds: FCM name -> level name (""
    when the entry's level failed) for each named entry, and the
    ``hierarchy`` of the FCMs the entries built."""

    hierarchy: FCMHierarchy


def _check_fcms(data: dict, flag, known_origins: bool = True) -> _Entries | None:
    """Read ``fcms`` entries into FCMs; returns what they hold.

    ``None`` when ``fcms`` is not a list: then no name can be checked, and
    the other sections skip their endpoint checks instead of flagging
    every name as unknown.  An entry whose attributes fail still joins
    the hierarchy, with default attributes, so no other section
    cascades.  With ``known_origins`` a replica must name an FCM here.
    """
    fcms = data.get("fcms", [])
    if not isinstance(fcms, list):
        flag("fcms", f"must be a list, got {type(fcms).__name__}", "fcms")
        return None
    entries = _Entries()
    entries.hierarchy = FCMHierarchy()
    add = entries.hierarchy.add
    valid_levels = {level.name for level in Level}
    replicas: list[tuple[int, str]] = []
    for i, entry in enumerate(fcms):
        path = f"fcms[{i}]"
        if not isinstance(entry, dict):
            flag(path, "must be an object")
            continue
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            flag(f"{path}.name", f"missing or empty FCM name (got {name!r})")
            name = None
        level = entry.get("level")
        if level is None:
            flag(f"{path}.level", "missing level", name)
        elif not isinstance(level, str) or level not in valid_levels:
            flag(
                f"{path}.level",
                f"unknown level {level!r} (expected one of "
                f"{sorted(valid_levels)})",
                level if isinstance(level, str) else name,
            )
            level = None
        if name is not None:
            entries.setdefault(name, level or "")
        attributes = _read_attributes(entry.get("attributes"), f"{path}.attributes", flag, name)
        replica_of = entry.get("replica_of")
        if replica_of is not None and not isinstance(replica_of, str):
            flag(f"{path}.replica_of", f"must be a string, got {replica_of!r}", name)
            replica_of = None
        elif replica_of is not None:
            replicas.append((i, replica_of))
        if name is None or level is None:
            continue
        stateless = entry.get("stateless", True)
        try:
            add(FCM(name, Level[level], attributes or AttributeSet(), stateless, replica_of))
        except ModelError as exc:
            flag(f"{path}.name", str(exc), name)
    if known_origins:
        for i, replica_of in replicas:
            if replica_of not in entries:
                flag(
                    f"fcms[{i}].replica_of",
                    f"references unknown FCM {replica_of!r}",
                    replica_of,
                )
    return entries


def _read_attributes(attrs: Any, path: str, flag, token: str | None) -> AttributeSet | None:
    """The entry's attribute set, or ``None`` once each defect is flagged:
    the types here, the domain rules as :mod:`repro.model` states them."""
    if attrs is None:
        return AttributeSet()
    if not isinstance(attrs, dict):
        flag(path, f"must be an object, got {type(attrs).__name__}", token)
        return None
    typed = True
    values = {
        "criticality": 0.0, "fault_tolerance": 1, "throughput": 0.0, "communication_rate": 0.0
    }
    for key in values:
        if key not in attrs:
            continue
        value, integer = attrs[key], key == "fault_tolerance"
        if _is_number(value) and (isinstance(value, int) or not integer):
            values[key] = value
        else:
            noun = "an integer" if integer else "a number"
            flag(f"{path}.{key}", f"must be {noun}, got {value!r}", token)
            typed = False
    security = attrs.get("security", "UNCLASSIFIED")
    if not isinstance(security, str) or security not in SecurityLevel.__members__:
        flag(
            f"{path}.security",
            f"unknown security level {security!r} (expected one of "
            f"{list(SecurityLevel.__members__)})",
            security if isinstance(security, str) else token,
        )
        typed, security = False, "UNCLASSIFIED"
    timing = attrs.get("timing")
    if timing is not None:
        timing = _read_timing(timing, f"{path}.timing", flag, token)
        typed = typed and timing is not None
    try:
        attributes = AttributeSet(timing=timing, security=SecurityLevel[security], **values)
    except AttributeError_:
        for key, message in attribute_problems(**values):
            flag(f"{path}.{key}", message, token)
        return None
    return attributes if typed else None


def _read_timing(timing: Any, path: str, flag, token: str | None) -> TimingConstraint | None:
    if not isinstance(timing, dict):
        flag(path, f"must be an object, got {type(timing).__name__}", token)
        return None
    values = []
    for key in ("earliest_start", "deadline", "computation_time"):
        if key not in timing:
            flag(f"{path}.{key}", "missing required timing field", token)
        elif not _is_number(timing[key]):
            flag(f"{path}.{key}", f"must be a number, got {timing[key]!r}", token)
        else:
            values.append(timing[key])
    if len(values) != 3:
        return None
    try:
        return TimingConstraint(*values)
    except AttributeError_:
        for key, message in timing_problems(*values):
            flag(path if key is None else f"{path}.{key}", message, token)
        return None


def _check_links(data: dict, flag, fcm_names: _Entries | None) -> None:
    """Check each link's endpoints, then attach it: the hierarchy states
    R1 and R2, and each rule it rejects is flagged at the link."""
    links = data.get("links", [])
    if not isinstance(links, list):
        flag("links", f"must be a list, got {type(links).__name__}", "links")
        return
    hierarchy = None if fcm_names is None else fcm_names.hierarchy
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
            elif fcm_names is not None and value not in fcm_names:
                flag(
                    f"{path}.{role}",
                    f"references unknown FCM {value!r}",
                    value,
                )
                ok = False
        # An endpoint whose entry failed is not in the hierarchy; its
        # entry is flagged already.
        if not ok or hierarchy is None or child not in hierarchy or parent not in hierarchy:
            continue
        try:
            hierarchy.attach(child, parent)
        except HierarchyError:
            for problem in hierarchy.link_problems(child, parent):
                flag(path, problem, child)


def _check_influence(
    data: dict,
    flag,
    fcm_names: _Entries | None,
    columns: dict[str, EdgeColumns | FCMHierarchy],
) -> None:
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
        # Position of each FCM at this level, in document order (the
        # order its influence graph holds them).  FCMs whose own level
        # failed validation (stored as "") act as wildcards here, so one
        # bad level doesn't cascade into spurious "not at this level"
        # reports for every edge touching the FCM.
        index = {
            name: position
            for position, name in enumerate(
                name
                for name, lvl in (fcm_names or {}).items()
                if lvl == level_name or lvl == ""
            )
        }
        rows = _check_edges(section, path, flag, fcm_names, index, level_name)
        columns[level_name] = rows
        _check_replica_links(section, path, flag, fcm_names, index, level_name, rows)


def _check_edges(
    section: dict,
    path: str,
    flag,
    fcm_names: dict[str, str] | None,
    index: dict[str, int],
    level_name: str,
) -> EdgeColumns:
    """Check a level's edge rows and read them into columns.

    One pass reads each value row whose keys and types are in order into
    source and target positions (-1 for a name not at the level) and a
    value; array tests then settle endpoints, self-loops, range and NaN.
    Only the rows they cannot settle (not an object, a missing key, a
    value that is not a float, a factor row) or that fail them go
    through :func:`_check_edge`, which reports each defect at its JSON
    path.  A defective row stays in the columns as a zero row at
    positions -1, which removes no pair and loads nothing.
    """
    edges = section.get("edges", [])
    if not isinstance(edges, list):
        flag(f"{path}.edges", f"must be a list, got {type(edges).__name__}")
        edges = []
    sources: list[int] = []
    targets: list[int] = []
    values: list[float] = []
    position = index.get
    for edge in edges:
        try:
            if "factors" not in edge:
                value = edge["value"]
                if type(value) is float:
                    source = position(edge["source"], -1)
                    target = position(edge["target"], -1)
                    sources.append(source)
                    targets.append(target)
                    values.append(value)
                    continue
        except (KeyError, TypeError):
            pass
        sources.append(-1)
        targets.append(-1)
        values.append(0.0)
    rows = len(edges)
    source = np.fromiter(sources, dtype=np.intp, count=rows)
    target = np.fromiter(targets, dtype=np.intp, count=rows)
    value = np.fromiter(values, dtype=float, count=rows)
    settled = (source >= 0) & (target >= 0) & (source != target)
    settled &= (value >= 0.0) & (value <= 1.0)  # NaN fails both
    factors: dict[int, tuple] = {}
    for row in np.flatnonzero(~settled).tolist():
        edge = edges[row]
        found: list[tuple] = []
        _check_edge(
            edge, f"{path}.edges[{row}]", lambda *issue: found.append(issue),
            fcm_names, index, level_name,
        )
        for issue in found:
            flag(*issue)
        # Without an FCM list (already flagged) no name resolves.
        if found or fcm_names is None:
            source[row] = target[row] = -1
            value[row] = 0.0
            continue
        # A clean row the pass could not read: an int value or factors.
        source[row] = index[edge["source"]]
        target[row] = index[edge["target"]]
        if "factors" in edge:
            factors[row] = tuple(_load_factors(edge["factors"]))
            value[row] = influence_from_factors(factors[row])
        else:
            value[row] = float(edge["value"])
    return EdgeColumns(tuple(index), source, target, value, factors)


def _check_edge(
    edge: Any,
    epath: str,
    flag,
    fcm_names: dict[str, str] | None,
    at_level: dict[str, int],
    level_name: str,
) -> None:
    if not isinstance(edge, dict):
        flag(epath, "must be an object")
        return
    for role in ("source", "target"):
        value = edge.get(role)
        if not isinstance(value, str) or not value:
            flag(f"{epath}.{role}", f"missing or invalid {role} (got {value!r})")
        elif fcm_names is not None and value not in fcm_names:
            flag(f"{epath}.{role}", f"references unknown FCM {value!r}", value)
        elif fcm_names is not None and value not in at_level:
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
    fcm_names: _Entries | None,
    at_level: dict[str, int],
    level_name: str,
    rows: EdgeColumns,
) -> None:
    links = section.get("replica_links", [])
    if not isinstance(links, list):
        flag(
            f"{path}.replica_links",
            f"must be a list, got {type(links).__name__}",
        )
        return
    hierarchy = None if fcm_names is None else fcm_names.hierarchy
    # Built on the first well-formed link: most sections have none.
    live: set[tuple[int, int]] | None = None
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
            if fcm_names is not None and name not in fcm_names:
                flag(lpath, f"references unknown FCM {name!r}", name)
                ok = False
            elif fcm_names is not None and name not in at_level:
                flag(lpath, f"FCM {name!r} is not at level {level_name}", name)
                ok = False
        if not ok:
            continue
        if live is None:
            # The (source, target) positions that load as edges.
            live = set(
                zip(rows.source[rows.live].tolist(), rows.target[rows.live].tolist())
            )
        # An FCM whose entry failed is not in the hierarchy; its entry is
        # flagged already.
        if hierarchy is not None and a in hierarchy and b in hierarchy:
            pair_origins = {hierarchy.get(name).replica_of or name for name in pair}
            if len(pair_origins) != 1:
                flag(
                    lpath,
                    f"{a!r} and {b!r} are not replicas of the same original "
                    f"(origins {sorted(pair_origins)!r})",
                    a,
                )
        for src, dst in ((a, b), (b, a)):
            if (at_level.get(src), at_level.get(dst)) in live:
                flag(
                    lpath,
                    f"influence edge {src!r} -> {dst!r} already exists; "
                    "replicas cannot also influence each other",
                    src,
                )
