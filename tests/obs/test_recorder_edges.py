"""Recorder edge cases: decisions outside spans, mid-run trace writes."""

import json

from repro.obs import Recorder, load_ndjson, validate_trace


class TestDecisionWithNoOpenSpan:
    def test_span_field_is_null(self):
        rec = Recorder()
        event = rec.decision("exec", "resume", subject="cp", reason="restart")
        assert event.span is None

    def test_round_trips_through_ndjson(self, tmp_path):
        rec = Recorder()
        rec.decision("exec", "resume", subject="cp", reason="restart")
        path = tmp_path / "t.ndjson"
        rec.write_trace(path)
        events = load_ndjson(path)
        assert validate_trace(events) == []
        (decision,) = [e for e in events if e["type"] == "decision"]
        assert decision["span"] is None

    def test_decision_after_spans_closed(self):
        rec = Recorder()
        with rec.span("s"):
            pass
        event = rec.decision("exec", "complete")
        assert event.span is None


class TestWriteTraceWithOpenSpans:
    def test_open_spans_flushed_with_null_end(self, tmp_path):
        rec = Recorder()
        rec.span("outer")
        rec.span("inner")
        path = tmp_path / "t.ndjson"
        rec.write_trace(path)
        events = load_ndjson(path)
        assert validate_trace(events) == []
        spans = [e for e in events if e["type"] == "span"]
        assert {s["name"] for s in spans} == {"outer", "inner"}
        assert all(s["t_end"] is None for s in spans)
        assert all(s["dur_s"] == 0.0 for s in spans)

    def test_every_line_is_json(self, tmp_path):
        rec = Recorder()
        rec.span("open")
        path = tmp_path / "t.ndjson"
        rec.write_trace(path)
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_events_idempotent_while_open(self):
        rec = Recorder()
        rec.span("open")
        first = rec.events()
        second = rec.events()
        assert [e["type"] for e in first] == [e["type"] for e in second]

    def test_closing_after_flush_emits_closed_span(self):
        rec = Recorder()
        active = rec.span("late")
        rec.events()  # mid-run flush
        active.__exit__(None, None, None)
        spans = [e for e in rec.events() if e["type"] == "span"]
        assert len(spans) == 1
        assert spans[0]["t_end"] is not None

    def test_closing_span_count_includes_open(self):
        rec = Recorder()
        with rec.span("closed"):
            pass
        rec.span("open")
        rec.close()
        closing = rec.events()[-1]
        assert closing["type"] == "metrics"
        assert closing["spans"] == 2
