"""NDJSON (newline-delimited JSON) trace I/O and validation.

A trace file is one JSON object per line: a leading ``meta`` record,
then ``span``, ``decision`` and ``profile`` records in completion order
and, in a finished version-3 trace, one closing ``metrics`` record (see
``docs/OBSERVABILITY.md`` for the schema).  The loader is strict — any
malformed line raises :class:`~repro.errors.ObservabilityError` with the
line number — except :func:`load_live_trace`, which reads the complete
lines of a trace still being written.  :func:`validate_trace` performs
the structural checks the CI gate runs over emitted traces.
"""

from __future__ import annotations

import json

from repro.errors import ObservabilityError

_SPAN_KEYS = {"sid", "parent", "name", "depth", "t_start", "t_end", "dur_s"}
_DECISION_KEYS = {"seq", "category", "action", "subject", "reason", "span"}

_NUMBER = (int, float)

#: What each checked type is called in a problem line.
_WANT = {int: "an integer", _NUMBER: "a number", str: "a string", dict: "an object"}

#: record type -> field -> accepted type, for every field a reader
#: uses.  A missing or null field always passes and reads as its default.
#: Its keys are the record types this version of the tooling understands;
#: anything else is *tolerated* by validation and merely counted (forward
#: compatibility: older tools must survive traces from newer writers).
_FIELDS = {
    "meta": {"provenance": dict},
    "span": {
        "sid": int, "parent": int, "name": str, "t_start": _NUMBER,
        "t_end": _NUMBER, "dur_s": _NUMBER, "attrs": dict,
    },
    "decision": {"category": str, "action": str, "span": int, "attrs": dict},
    "profile": {
        "kind": str, "span": int, "shard": int, "pid": int, "hz": _NUMBER,
        "t": _NUMBER, "stacks": dict, "samples": int,
        "rss_peak_bytes": _NUMBER, "cpu_s": _NUMBER,
        "gc_collections": int, "gc_pause_s": _NUMBER,
    },
    "metrics": {
        "spans": int, "decisions": int, "profiles": int, "snapshot": dict,
    },
}

#: ``exec`` decision attrs the lease-health section reads.
_EXEC_ATTRS = {
    "shard": int, "heartbeats": int, "shards": int, "entries": int,
    "corrupt_lines": int, "lines": int, "batches": int,
    "from_checkpoint": int, "stderr_tail": str,
}


def _typed(record: dict, kind: str, fields: dict, prefix: str = "") -> list[str]:
    return [
        f"{kind} field '{prefix}{key}' must be {_WANT[want]}, "
        f"not {type(value).__name__}"
        for key, want in fields.items()
        if (value := record.get(key)) is not None
        and (isinstance(value, bool) or not isinstance(value, want))
    ]


def wrong_fields(event: dict) -> list[str]:
    """The fields of one trace record a reader could not use.

    The one definition of a well-typed field, shared by
    :func:`validate_trace` and :func:`repro.obs.report.index_trace`:
    every field a reader uses must be null or of its type, an ``exec``
    decision's lease-health attrs too, and a profile record's ``stacks``
    must map to integer counts.  Each problem reads ``"<type> field
    '<name>' must be <kind>, not <type>"``; records of unknown type
    have none.
    """
    kind = event.get("type")
    if not isinstance(kind, str) or kind not in _FIELDS:
        return []
    problems = _typed(event, kind, _FIELDS[kind])
    if problems:
        return problems
    if kind == "decision" and event.get("category") == "exec":
        return _typed(event.get("attrs") or {}, kind, _EXEC_ATTRS, "attrs.")
    if kind == "profile":
        for count in (event.get("stacks") or {}).values():
            if isinstance(count, bool) or not isinstance(count, int):
                return [
                    "profile field 'stacks' must map stacks to integer "
                    f"counts, not {type(count).__name__}"
                ]
    return []


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


def load_live_trace(path) -> list[dict]:
    """The complete lines of a trace that may still be being written.

    A missing file reads as no events; an unterminated last line (a
    record the writer has not finished) is left out.  Complete lines
    must parse, as in :func:`load_ndjson`.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except FileNotFoundError:
        return []
    except OSError as exc:
        raise ObservabilityError(
            f"cannot read trace file {path!r}: {exc}"
        ) from exc
    complete = text[: text.rfind("\n") + 1]
    return _parse(complete.splitlines(keepends=True), str(path))


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


def is_live_prefix(meta: dict | None, closed: bool) -> bool:
    """Whether a trace is the live prefix of a run still going.

    A version-3 trace is written as the run goes and ``closed`` by its
    ``metrics`` record; older traces were written whole at exit.
    """
    version = (meta or {}).get("version")
    return isinstance(version, int) and version >= 3 and not closed


def validate_trace(events: list[dict]) -> list[str]:
    """Structural problems of a parsed trace (empty list = valid).

    Checks: every field a reader uses has its type (:func:`wrong_fields`;
    a record with a wrong-typed field gets no further checks), every
    known record ``type`` carries its required keys, no two spans share
    a sid, span parents reference emitted sids and never loop back (a
    span that is its own ancestor), closed spans have
    ``t_end >= t_start``, and version-2+ meta lines carry a provenance
    block (version-1 traces, which predate provenance, stay valid).  A
    version-3 trace's ``metrics`` record must be its last, with counts
    that match the records before it; without one the trace is a live
    prefix, whose spans may name parents (and profile records spans)
    that have not closed yet.  Records with *unknown* types are
    tolerated — count them with :func:`unknown_kind_counts` — so this
    tooling survives traces written by newer versions that add event
    kinds.
    """
    problems: list[str] = []
    wrong = [wrong_fields(event) for event in events]
    first_at: dict[int, int] = {}  # sid -> index of the span that has it
    parents: dict[int, int | None] = {}
    counts = dict.fromkeys(("span", "decision", "profile", "metrics"), 0)
    for i, event in enumerate(events):
        sid = event.get("sid")
        kind = event.get("type")
        if kind == "span" and not wrong[i] and sid is not None:
            first_at.setdefault(sid, i)
            parents[sid] = event.get("parent")
        if kind in counts:
            counts[kind] += 1
    looped = parent_cycles(parents)
    live = is_live_prefix(trace_meta(events), counts["metrics"] > 0)
    for i, event in enumerate(events):
        where = f"event {i}"
        if wrong[i]:
            problems.extend(f"{where}: {problem}" for problem in wrong[i])
            continue
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
            sid = event["sid"]
            if first_at.get(sid, i) != i:
                problems.append(
                    f"{where}: span {sid} reuses the sid of event {first_at[sid]}"
                )
            parent = event["parent"]
            if parent is not None and parent not in first_at and not live:
                problems.append(
                    f"{where}: span {sid} has unknown parent {parent}"
                )
            if sid in looped:
                problems.append(f"{where}: span {sid} is in a parent cycle")
            t_start, t_end = event["t_start"], event["t_end"]
            if t_end is not None and t_start is not None and t_end < t_start:
                problems.append(f"{where}: span {sid} ends before it starts")
            attrs = event.get("attrs") or {}
            if attrs.get("remote") and t_end is None:
                # Merged distributed traces must close every worker span:
                # the supervisor's graft closes even spans the worker died
                # inside, so an open remote span means a broken merge.
                problems.append(f"{where}: remote span {sid} never closed")
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
                if owner is not None and owner not in first_at and not live:
                    problems.append(
                        f"{where}: profile record references unknown span {owner}"
                    )
            continue
        if kind == "metrics":
            if i != len(events) - 1:
                problems.append(f"{where}: metrics record is not the last record")
            for key in ("spans", "decisions", "profiles"):
                if event.get(key) not in (None, counts[key[:-1]]):
                    problems.append(
                        f"{where}: metrics record counts {event[key]} {key}, "
                        f"the trace holds {counts[key[:-1]]}"
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
        if isinstance(kind, str) and kind in _FIELDS:
            continue
        label = kind if isinstance(kind, str) else "<missing>"
        counts[label] = counts.get(label, 0) + 1
    return counts
