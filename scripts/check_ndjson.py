#!/usr/bin/env python
"""Validate repro NDJSON files; exit nonzero on any problem.

Sniffs each file's first meta line and dispatches:

* ``repro-exec-checkpoint`` — structural checkpoint + manifest
  validation (:func:`repro.exec.validate_checkpoint`): batch ranges
  inside the campaign, manifest/checkpoint identity agreement, and no
  manifest claiming completion over coverage gaps.  Torn lines are
  tolerated (the format survives crashes by design) and surfaced in
  the label.
* ``repro-worker-telemetry`` — raw worker-telemetry batch streams as
  written by ``--telemetry-stream``: per-lease monotonic sequence
  numbers (``telemetry`` and ``profile`` batches share one sequence),
  epoch anchors, and well-formed inner span/decision/profile events
  (see :func:`repro.obs.telemetry.validate_telemetry_stream`).
* anything else — trace validation: every line must parse as JSON,
  span/decision/profile records must carry the required keys, every
  field ``repro report`` reads must have its type, and span sids must
  be unique with a consistent parent structure
  (see :func:`repro.obs.ndjson.validate_trace`).  Merged distributed
  traces validate here too: grafted worker spans must be closed
  (``remote`` spans with no ``t_end`` are flagged) and parented
  inside the supervisor's tree.  Records of *unknown* type are
  tolerated and counted in the label (forward compatibility with
  newer writers).

Usage::

    PYTHONPATH=src python scripts/check_ndjson.py trace.ndjson \
        checkpoint.ndjson [more.ndjson ...]
"""

from __future__ import annotations

import json
import sys

from repro.errors import ObservabilityError
from repro.exec import validate_checkpoint
from repro.exec.checkpoint import CHECKPOINT_FORMAT
from repro.obs import index_trace, load_ndjson, trace_meta, validate_trace
from repro.obs.telemetry import TELEMETRY_FORMAT, validate_telemetry_stream


def _sniff_format(path: str) -> str | None:
    """The ``format`` tag of the file's first decodable line, if any."""
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    return None
                if isinstance(record, dict):
                    return record.get("format")
                return None
    except OSError:
        return None
    return None


def check_file(path: str) -> tuple[list[str], str]:
    """(problems, format label) for one NDJSON file (no problems = valid)."""
    if _sniff_format(path) == CHECKPOINT_FORMAT:
        return validate_checkpoint(path)
    try:
        events = load_ndjson(path)
    except ObservabilityError as exc:
        return [str(exc)], "?"
    except OSError as exc:
        return [f"cannot read {path}: {exc}"], "?"
    meta = trace_meta(events)
    label = (
        f"{meta.get('format', '?')} v{meta.get('version', '?')}"
        if meta is not None
        else "no meta line"
    )
    if meta is not None and meta.get("format") == TELEMETRY_FORMAT:
        return validate_telemetry_stream(events), label
    problems = validate_trace(events)
    if not problems:
        # A valid trace indexes cleanly: the index and the validator
        # judge fields by the same table.
        unknown = index_trace(events).unknown
        if unknown:
            label += f", {sum(unknown.values())} unknown-kind event(s)"
    return problems, label


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_ndjson.py FILE [FILE ...]", file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        problems, label = check_file(path)
        if problems:
            failed = True
            print(f"{path}: INVALID ({label})")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"{path}: ok ({label})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
