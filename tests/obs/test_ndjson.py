"""NDJSON round-trip, strict loading, and trace validation."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    Recorder,
    dump_ndjson,
    load_ndjson,
    unknown_kind_counts,
    validate_trace,
)


@pytest.fixture
def recorded():
    rec = Recorder()
    with rec.span("pipeline", system="paper"):
        with rec.span("audit"):
            pass
        with rec.span("condense"):
            rec.decision("condense", "merge", subject="p1 + p2", reason="H1")
    rec.close()  # a finished trace: every parent is in it
    return rec


def before_closing(rec, *records):
    """``rec``'s finished trace with ``records`` before its closing one."""
    events = rec.events()
    return events[:-1] + list(records) + events[-1:]


class TestRoundTrip:
    def test_write_then_load_identical(self, recorded, tmp_path):
        path = tmp_path / "trace.ndjson"
        recorded.write_trace(str(path))
        assert load_ndjson(str(path)) == recorded.events()

    def test_round_trip_preserves_attrs(self, recorded, tmp_path):
        path = tmp_path / "trace.ndjson"
        recorded.write_trace(str(path))
        spans = [e for e in load_ndjson(str(path)) if e["type"] == "span"]
        pipeline = next(s for s in spans if s["name"] == "pipeline")
        assert pipeline["attrs"] == {"system": "paper"}

    def test_one_object_per_line(self, recorded, tmp_path):
        path = tmp_path / "trace.ndjson"
        recorded.write_trace(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(recorded.events())

    def test_file_object_round_trip(self, recorded, tmp_path):
        path = tmp_path / "trace.ndjson"
        with open(path, "w") as handle:
            dump_ndjson(recorded.events(), handle)
        with open(path) as handle:
            assert load_ndjson(handle) == recorded.events()


class TestStrictLoading:
    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"type":"meta","format":"repro-trace"}\nnot json\n')
        with pytest.raises(ObservabilityError, match=":2:"):
            load_ndjson(str(path))

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text("[1,2,3]\n")
        with pytest.raises(ObservabilityError, match="not a JSON object"):
            load_ndjson(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.ndjson"
        path.write_text('{"a":1}\n\n{"b":2}\n')
        assert load_ndjson(str(path)) == [{"a": 1}, {"b": 2}]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ObservabilityError, match="cannot read"):
            load_ndjson(str(tmp_path / "absent.ndjson"))


class TestValidateTrace:
    def test_recorded_trace_is_valid(self, recorded):
        assert validate_trace(recorded.events()) == []

    def test_bad_meta_format_flagged(self):
        problems = validate_trace([{"type": "meta", "format": "other"}])
        assert any("format" in p for p in problems)

    def test_span_missing_keys_flagged(self):
        problems = validate_trace([{"type": "span", "sid": 1}])
        assert any("missing keys" in p for p in problems)

    def test_unknown_parent_flagged(self, recorded):
        events = recorded.events()
        spans = [e for e in events if e["type"] == "span"]
        spans[0]["parent"] = 999
        assert any("unknown parent" in p for p in validate_trace(events))

    def test_negative_duration_flagged(self):
        span = {
            "type": "span", "sid": 1, "parent": None, "name": "x",
            "depth": 0, "t_start": 2.0, "t_end": 1.0, "dur_s": -1.0,
        }
        assert any("ends before" in p for p in validate_trace([span]))

    def test_profile_event_without_kind_flagged(self):
        problems = validate_trace([{"type": "profile"}])
        assert any("no kind" in p for p in problems)

    def test_profile_event_span_must_exist(self, recorded):
        events = before_closing(recorded, {
            "type": "profile", "kind": "stacks", "span": 999,
            "hz": 97.0, "samples": 1, "stacks": {"a;b": 1},
        })
        assert any("unknown span" in p for p in validate_trace(events))

    def test_profile_event_unattributed_span_ok(self):
        rec = Recorder()
        with rec.span("s"):
            pass
        rec.profile_event({"type": "profile", "kind": "stacks", "span": None,
                           "hz": 97.0, "samples": 1, "stacks": {"a;b": 1}})
        rec.close()
        assert validate_trace(rec.events()) == []


SPAN = {
    "type": "span", "sid": 1, "parent": None, "name": "s", "depth": 0,
    "t_start": 0.0, "t_end": 1.0, "dur_s": 1.0,
}

#: Hand-written traces that ``repro report`` cannot read, each with the
#: one problem line the validator must print for it.
BAD_TRACES = {
    "list sid": (
        [dict(SPAN, sid=[1])],
        "event 1: span field 'sid' must be an integer, not list",
    ),
    "list parent": (
        [SPAN, dict(SPAN, sid=2, parent=[1])],
        "event 2: span field 'parent' must be an integer, not list",
    ),
    "string dur_s": (
        [dict(SPAN, dur_s="1.0")],
        "event 1: span field 'dur_s' must be a number, not str",
    ),
    "shared sid": (
        [SPAN, dict(SPAN, name="t")],
        "event 2: span 1 reuses the sid of event 1",
    ),
}


class TestCheckNdjsonScript:
    """The CI validator and the trace readers agree on what is valid."""

    @pytest.mark.parametrize("case", sorted(BAD_TRACES))
    def test_bad_trace_invalid_with_one_problem_line(self, case, tmp_path):
        import os
        import subprocess
        import sys

        events, problem = BAD_TRACES[case]
        path = tmp_path / "bad.ndjson"
        dump_ndjson(Recorder().events() + events, str(path))
        proc = subprocess.run(
            [sys.executable, "scripts/check_ndjson.py", str(path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == [
            f"{path}: INVALID (repro-trace v3)",
            f"  - {problem}",
        ]


class TestUnknownKinds:
    """Forward compatibility: newer writers may add event kinds."""

    def test_unknown_type_tolerated(self, recorded):
        events = before_closing(recorded, {"type": "mystery", "payload": 1})
        assert validate_trace(events) == []

    def test_unknown_kinds_counted(self, recorded):
        events = recorded.events() + [
            {"type": "mystery"},
            {"type": "mystery"},
            {"type": "hologram"},
            {"no_type_at_all": True},
        ]
        counts = unknown_kind_counts(events)
        assert counts == {"mystery": 2, "hologram": 1, "<missing>": 1}

    def test_known_kinds_not_counted(self, recorded):
        events = recorded.events() + [
            {"type": "profile", "kind": "stacks", "span": None,
             "hz": 97.0, "samples": 0, "stacks": {}},
        ]
        assert unknown_kind_counts(events) == {}

    def test_unknown_kind_round_trips_through_ndjson(self, recorded, tmp_path):
        events = before_closing(recorded, {"type": "mystery", "payload": 1})
        path = tmp_path / "future.ndjson"
        dump_ndjson(events, str(path))
        loaded = load_ndjson(str(path))
        assert validate_trace(loaded) == []
        assert unknown_kind_counts(loaded) == {"mystery": 1}
