"""``repro report`` on degenerate traces.

Empty files, meta-only traces, traces whose spans were still open at
write time, and hand-written spans missing fields must render clean
messages, not tracebacks or misleading rows.
"""

from repro.obs import Recorder, index_trace, render_report


def report(events, **kwargs):
    return render_report(index_trace(events), **kwargs)


class TestEmptyAndMetaOnly:
    def test_empty_event_list(self):
        assert report([]) == "trace is empty (no events)"
        assert report([], tree=True) == "trace is empty (no events)"

    def test_meta_only_trace(self):
        events = Recorder().events()
        assert report(events) == "trace contains no spans"
        assert report(events, tree=True) == "trace contains no spans"

    def test_decisions_without_spans_still_render(self):
        rec = Recorder()
        rec.decision("condense", "merge", subject="p1", reason="test")
        text = report(rec.events(), tree=True)
        assert "Decision events" in text
        assert "Per-stage timing" not in text
        assert "Critical path" not in text
        assert "Span tree" not in text


class TestOpenSpans:
    def _open_trace(self):
        rec = Recorder()
        rec.span("pipeline")  # never closed
        return rec.events()

    def test_open_span_counted(self):
        assert "note: 1 span(s) still open" in report(self._open_trace())

    def test_summary_annotates_open_spans(self):
        text = report(self._open_trace())
        assert "pipeline (1 open)" in text
        assert "still open" in text

    def test_stats_track_open_count(self):
        events = self._open_trace()
        events[1]["dur_s"] = 5.0  # an open span counts as 0 whatever it says
        row = next(
            line for line in report(events).splitlines()
            if line.startswith("pipeline (1 open)")
        )
        assert row.split()[3:] == ["1", "0.00", "0.00", "0.00"]

    def test_tree_marks_open_spans(self):
        assert "pipeline  0.00ms (open)" in report(self._open_trace(), tree=True)

    def test_mixed_open_and_closed(self):
        rec = Recorder()
        with rec.span("done"):
            pass
        rec.span("pending")
        text = report(rec.events())
        assert "pending (1 open)" in text
        assert "done (1 open)" not in text


class TestMalformedSpans:
    def test_span_missing_name(self):
        events = [{"type": "span", "sid": 1, "parent": None,
                   "t_start": 0.0, "t_end": 0.01, "dur_s": 0.01}]
        text = report(events, tree=True)
        assert "?     1      10.00" in text
        assert text.endswith("Span tree\n?  10.00ms")

    def test_span_missing_duration(self):
        events = [{"type": "span", "sid": 1, "parent": None, "name": "s",
                   "t_start": 0.0, "t_end": 0.01}]
        text = report(events, tree=True)
        assert "s     1      0.00" in text
        assert "root span has zero recorded duration" in text
        assert text.endswith("Span tree\ns  0.00ms")

    def test_truncated_trace_orphan_promoted_to_root(self):
        # Parent sid 99 was lost (file truncated): the child still shows.
        events = [
            {"type": "span", "sid": 2, "parent": 99, "name": "orphan",
             "t_start": 0.0, "t_end": 0.01, "dur_s": 0.01},
        ]
        text = report(events, tree=True)
        assert "Critical path" in text
        assert text.endswith("Span tree\norphan  10.00ms")


class TestForwardCompatNotes:
    def test_unknown_kinds_noted_not_fatal(self):
        rec = Recorder()
        with rec.span("work"):
            pass
        events = rec.events() + [
            {"type": "hologram", "x": 1},
            {"type": "hologram", "x": 2},
        ]
        text = report(events)
        assert "2 event(s) of unknown kind skipped" in text
        assert "hologram" in text
        assert "newer repro" in text

    def test_profile_events_noted(self):
        rec = Recorder()
        with rec.span("work"):
            pass
        rec.profile_event({
            "type": "profile", "kind": "stacks", "span": None,
            "hz": 97.0, "samples": 1, "stacks": {"a.py:f": 1},
        })
        text = report(rec.events())
        assert "profile events: 1 · 1 stack samples at 97 Hz" in text
        assert "Sample attribution by span" in text

    def test_clean_trace_has_no_notes(self):
        rec = Recorder()
        with rec.span("work"):
            pass
        text = report(rec.events())
        assert "unknown kind" not in text
        assert "profile" not in text
        assert "note:" not in text
