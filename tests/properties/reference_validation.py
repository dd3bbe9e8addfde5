"""Per-row reference for the influence part of document validation.

:func:`repro.io.validation.validate_system_dict` reads each level's edge
rows once into columns and settles most of them with array tests; only
the rows those cannot settle go through its per-field checks.  This
module keeps the checker it replaced, unchanged: every edge row passes
one cheap test or goes through the per-field checks, and line hints
come from a first-line scan of the text.  The sections other than
``influence`` are checked by the live module, so on documents whose
defects are all in the influence sections the two must report the same
issues, in the same order, with the same paths, messages and lines.

One rule differs: this checker tests "not at level" only when the level
has FCMs, where the live one tests it whenever the FCM list could be
read.  Documents that give every level at least one FCM see no
difference.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ProbabilityError
from repro.influence.factors import FactorKind
from repro.influence.probability import combine_probabilities
from repro.io import validation
from repro.io.validation import ValidationIssue, _is_number
from repro.model.fcm import Level

_PLAIN_NUMBERS = (float, int)


class _LineFinder:
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


def reference_issues(data: Any, text: str | None = None) -> list[ValidationIssue]:
    """:func:`validate_system_dict`'s issues, influence sections checked
    row by row."""
    finder = _LineFinder(text)
    issues: list[ValidationIssue] = []

    def flag(path: str, message: str, token: str | None = None) -> None:
        issues.append(ValidationIssue(path, message, finder.line_of(token)))

    if not isinstance(data, dict):
        flag("$", "expected a JSON object")
        return issues
    validation._check_header_fields(data, flag, expected_format="ddsi-system")
    fcm_names = validation._check_fcms(data, flag)
    validation._check_links(data, flag, fcm_names)
    _check_influence(data, flag, fcm_names or {})
    return issues


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
