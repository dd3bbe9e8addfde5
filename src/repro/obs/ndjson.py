"""NDJSON (newline-delimited JSON) trace I/O and validation.

A trace file is one JSON object per line: a leading ``meta`` record,
then ``span`` and ``decision`` records in completion order (see
``docs/OBSERVABILITY.md`` for the schema).  The loader is strict — any
malformed line raises :class:`~repro.errors.ObservabilityError` with the
line number — and :func:`validate_trace` performs the structural checks
the CI gate runs over emitted traces.
"""

from __future__ import annotations

import json

from repro.errors import ObservabilityError

_SPAN_KEYS = {"sid", "parent", "name", "depth", "t_start", "t_end", "dur_s"}
_DECISION_KEYS = {"seq", "category", "action", "subject", "reason", "span"}

#: Record types this version of the tooling understands.  Anything else
#: is *tolerated* by validation and merely counted (forward
#: compatibility: older tools must survive traces from newer writers).
_KNOWN_KINDS = {"meta", "span", "decision", "profile"}


def dump_ndjson(events, path_or_file) -> None:
    """Write ``events`` (dicts) as NDJSON to a path or open file."""
    if hasattr(path_or_file, "write"):
        _write(events, path_or_file)
        return
    try:
        with open(path_or_file, "w") as handle:
            _write(events, handle)
    except OSError as exc:
        raise ObservabilityError(
            f"cannot write trace file {path_or_file!r}: {exc}"
        ) from exc


def _write(events, handle) -> None:
    for event in events:
        handle.write(json.dumps(event, separators=(",", ":")) + "\n")


def load_ndjson(path_or_file) -> list[dict]:
    """Parse an NDJSON file into a list of dicts (blank lines skipped)."""
    if hasattr(path_or_file, "read"):
        return _parse(path_or_file, getattr(path_or_file, "name", "<stream>"))
    try:
        with open(path_or_file) as handle:
            return _parse(handle, str(path_or_file))
    except OSError as exc:
        raise ObservabilityError(
            f"cannot read trace file {path_or_file!r}: {exc}"
        ) from exc


def _parse(handle, label: str) -> list[dict]:
    events: list[dict] = []
    for lineno, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"{label}:{lineno}: malformed NDJSON line: {exc}"
            ) from exc
        if not isinstance(event, dict):
            raise ObservabilityError(
                f"{label}:{lineno}: NDJSON line is not a JSON object"
            )
        events.append(event)
    return events


#: Provenance keys a version-2 meta line must carry (workload and
#: git_sha are optional: not every run names a workload or has git).
_PROVENANCE_KEYS = {"repro_version", "python", "machine"}


def trace_meta(events: list[dict]) -> dict | None:
    """The trace's leading ``meta`` record, or ``None`` when absent."""
    for event in events:
        if event.get("type") == "meta":
            return event
        break
    return None


def validate_trace(events: list[dict]) -> list[str]:
    """Structural problems of a parsed trace (empty list = valid).

    Checks: every known record ``type`` carries its required keys, span
    parents reference emitted sids and never loop back (a span that is
    its own ancestor), closed spans have
    ``t_end >= t_start``, and version-2 meta lines carry a provenance
    block (version-1 traces, which predate provenance, stay valid).
    Records with *unknown* types are tolerated — count them with
    :func:`unknown_kind_counts` — so this tooling survives traces
    written by newer versions that add event kinds.
    """
    problems: list[str] = []
    sids: set[int] = set()
    parents: dict[int, int | None] = {}
    for event in events:
        if event.get("type") == "span":
            sids.add(event.get("sid", -1))
            if event.get("sid") is not None:
                parents[event["sid"]] = event.get("parent")
    looped = parent_cycles(parents)
    for i, event in enumerate(events):
        where = f"event {i}"
        kind = event.get("type")
        if kind == "meta":
            if event.get("format") != "repro-trace":
                problems.append(f"{where}: meta record has no repro-trace format tag")
            version = event.get("version")
            if not isinstance(version, int) or version < 1:
                problems.append(f"{where}: meta record has no format version")
            elif version >= 2:
                provenance = event.get("provenance")
                if not isinstance(provenance, dict):
                    problems.append(
                        f"{where}: v{version} meta record has no provenance block"
                    )
                else:
                    missing = _PROVENANCE_KEYS - set(provenance)
                    if missing:
                        problems.append(
                            f"{where}: provenance missing keys {sorted(missing)}"
                        )
            continue
        if kind == "span":
            missing = _SPAN_KEYS - set(event)
            if missing:
                problems.append(f"{where}: span missing keys {sorted(missing)}")
                continue
            parent = event["parent"]
            if parent is not None and parent not in sids:
                problems.append(
                    f"{where}: span {event['sid']} has unknown parent {parent}"
                )
            if event["sid"] in looped:
                problems.append(
                    f"{where}: span {event['sid']} is in a parent cycle"
                )
            if event["t_end"] is not None and event["t_end"] < event["t_start"]:
                problems.append(f"{where}: span {event['sid']} ends before it starts")
            attrs = event.get("attrs") or {}
            if attrs.get("remote") and event["t_end"] is None:
                # Merged distributed traces must close every worker span:
                # the supervisor's graft closes even spans the worker died
                # inside, so an open remote span means a broken merge.
                problems.append(
                    f"{where}: remote span {event['sid']} never closed"
                )
            continue
        if kind == "decision":
            missing = _DECISION_KEYS - set(event)
            if missing:
                problems.append(f"{where}: decision missing keys {sorted(missing)}")
            continue
        if kind == "profile":
            if "kind" not in event:
                problems.append(f"{where}: profile record has no kind")
            else:
                owner = event.get("span")
                if owner is not None and owner not in sids:
                    problems.append(
                        f"{where}: profile record references unknown span {owner}"
                    )
            continue
        # Unknown kinds are tolerated, not errors (forward compatibility).
    return problems


def parent_cycles(parents: dict) -> set:
    """The sids whose parent chain leads back to themselves.

    ``parents`` maps each span sid to its parent sid (``None`` for a
    root); a sid the chain reaches but that has no entry ends the walk
    like a root does.  Descendants of a cycle are not themselves in it.
    """
    looped: set = set()
    settled: set = set()
    for start in parents:
        chain: dict = {}
        node = start
        while node is not None and node in parents and node not in settled:
            if node in chain:
                looped.update(list(chain)[chain[node]:])
                break
            chain[node] = len(chain)
            node = parents[node]
        settled.update(chain)
    return looped


def unknown_kind_counts(events: list[dict]) -> dict[str, int]:
    """Count records whose ``type`` this tooling does not understand.

    Keys are the unknown type strings (``"<missing>"`` for records with
    no ``type`` at all); traces from newer writers report here instead
    of failing validation.
    """
    counts: dict[str, int] = {}
    for event in events:
        kind = event.get("type")
        if kind in _KNOWN_KINDS:
            continue
        label = kind if isinstance(kind, str) else "<missing>"
        counts[label] = counts.get(label, 0) + 1
    return counts
