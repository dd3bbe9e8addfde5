"""Span nesting, ordering determinism, decisions, ambient recorder."""

import pytest

from repro.obs import NULL_RECORDER, Recorder, current, use


class TestSpans:
    def test_nesting_assigns_parent_and_depth(self):
        rec = Recorder()
        with rec.span("outer"):
            with rec.span("middle"):
                with rec.span("inner"):
                    pass
        outer, middle, inner = rec.spans
        assert outer.parent is None and outer.depth == 0
        assert middle.parent == outer.sid and middle.depth == 1
        assert inner.parent == middle.sid and inner.depth == 2

    def test_siblings_share_parent(self):
        rec = Recorder()
        with rec.span("pipeline"):
            with rec.span("audit"):
                pass
            with rec.span("condense"):
                pass
        pipeline, audit, condense = rec.spans
        assert audit.parent == pipeline.sid
        assert condense.parent == pipeline.sid
        assert audit.depth == condense.depth == 1

    def test_structure_deterministic_across_runs(self):
        def run():
            rec = Recorder()
            with rec.span("pipeline"):
                for name in ("audit", "expand", "condense"):
                    with rec.span(name):
                        pass
            return [(s.sid, s.parent, s.name, s.depth) for s in rec.spans]

        assert run() == run()

    def test_events_completion_ordered(self):
        rec = Recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        names = [e["name"] for e in rec.events() if e["type"] == "span"]
        assert names == ["inner", "outer"]  # inner closes first

    def test_meta_line_first(self):
        rec = Recorder()
        with rec.span("only"):
            pass
        rec.close()
        events = rec.events()
        assert events[0]["type"] == "meta"
        assert events[0]["format"] == "repro-trace"
        assert events[-1]["type"] == "metrics"
        assert events[-1]["spans"] == 1

    def test_open_span_flushed_with_null_end(self):
        rec = Recorder()
        rec.span("never-closed")
        spans = [e for e in rec.events() if e["type"] == "span"]
        assert len(spans) == 1
        assert spans[0]["t_end"] is None
        assert spans[0]["dur_s"] == 0.0

    def test_span_times_monotonic(self):
        rec = Recorder()
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
        a, b = rec.spans
        assert a.t_end >= a.t_start
        assert b.t_start >= a.t_end

    def test_set_attaches_attributes(self):
        rec = Recorder()
        with rec.span("expand", system="paper") as span:
            span.set(processes=8)
        assert rec.spans[0].attrs == {"system": "paper", "processes": 8}

    def test_exception_closes_span(self):
        rec = Recorder()
        with pytest.raises(ValueError):
            with rec.span("doomed"):
                raise ValueError("boom")
        assert rec.spans[0].t_end is not None


class TestDecisions:
    def test_decision_records_innermost_span(self):
        rec = Recorder()
        with rec.span("condense"):
            rec.decision("condense", "merge", subject="p1 + p2", reason="H1")
        decision = rec.decisions[0]
        assert decision.span == rec.spans[0].sid
        assert decision.category == "condense"
        assert decision.action == "merge"

    def test_decision_sequence_increases(self):
        rec = Recorder()
        first = rec.decision("rule", "violation", subject="R1")
        second = rec.decision("rule", "violation", subject="R2")
        assert second.seq > first.seq


class TestAmbientRecorder:
    def test_default_is_null_recorder(self):
        assert current() is NULL_RECORDER

    def test_use_installs_and_restores(self):
        rec = Recorder()
        with use(rec):
            assert current() is rec
        assert current() is NULL_RECORDER

    def test_use_nests(self):
        outer, inner = Recorder(), Recorder()
        with use(outer):
            with use(inner):
                assert current() is inner
            assert current() is outer

    def test_timed_observes_into_histogram(self):
        rec = Recorder()
        with rec.timed("power_series_s", form="truncated"):
            pass
        snap = rec.metrics.snapshot()["metrics"]["power_series_s"]
        assert snap["series"]["form=truncated"]["count"] == 1
