"""Exporters: Chrome trace-event JSON and collapsed flamegraph stacks."""

import json

from repro.obs import Recorder, index_trace
from repro.obs.analyze import to_chrome_trace as _to_chrome_trace
from repro.obs.analyze import to_collapsed_stacks as _to_collapsed_stacks


def to_chrome_trace(events):
    return _to_chrome_trace(index_trace(events))


def to_collapsed_stacks(events):
    return _to_collapsed_stacks(index_trace(events))


def _recorded():
    rec = Recorder()
    rec.set_provenance(workload="unit")
    with rec.span("pipeline"):
        with rec.span("condense", heuristic="h1"):
            rec.decision("condense", "merge", subject="p1 + p2", reason="H1")
        with rec.span("map"):
            pass
    return rec.events()


class TestChromeTrace:
    def test_document_shape(self):
        doc = to_chrome_trace(_recorded())
        assert set(doc) >= {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        json.dumps(doc)  # must be serialisable

    def test_spans_become_complete_events(self):
        doc = to_chrome_trace(_recorded())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"pipeline", "condense", "map"}
        for event in complete:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["pid"] == 1

    def test_timestamps_in_microseconds(self):
        events = [
            {
                "type": "span", "sid": 1, "parent": None, "name": "s",
                "depth": 0, "t_start": 0.5, "t_end": 1.5, "dur_s": 1.0,
            }
        ]
        (record,) = to_chrome_trace(events)["traceEvents"]
        assert record["ts"] == 500_000.0
        assert record["dur"] == 1_000_000.0

    def test_decisions_become_instants_at_owner_start(self):
        doc = to_chrome_trace(_recorded())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        instant = instants[0]
        assert instant["name"] == "condense.merge"
        assert instant["args"]["subject"] == "p1 + p2"
        condense = next(
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "condense"
        )
        assert instant["ts"] == condense["ts"]

    def test_span_attrs_carried_in_args(self):
        doc = to_chrome_trace(_recorded())
        condense = next(
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "condense"
        )
        assert condense["args"]["heuristic"] == "h1"

    def test_provenance_in_other_data(self):
        doc = to_chrome_trace(_recorded())
        assert doc["otherData"]["workload"] == "unit"

    def test_open_span_exported_with_zero_duration(self):
        rec = Recorder()
        rec.span("never-closed")
        doc = to_chrome_trace(rec.events())
        (record,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert record["dur"] == 0.0
        assert record["args"]["open"] is True


class TestCollapsedStacks:
    def test_stacks_are_semicolon_paths(self):
        text = to_collapsed_stacks(_recorded())
        stacks = {line.rsplit(" ", 1)[0] for line in text.splitlines()}
        assert "pipeline;condense" in stacks

    def test_values_are_positive_integer_microseconds(self):
        for line in to_collapsed_stacks(_recorded()).splitlines():
            value = line.rsplit(" ", 1)[1]
            assert int(value) > 0

    def test_self_time_semantics(self):
        # root 10ms with a 4ms child: root's own line carries 6ms.
        events = [
            {"type": "span", "sid": 1, "parent": None, "name": "root",
             "depth": 0, "t_start": 0.0, "t_end": 0.010, "dur_s": 0.010},
            {"type": "span", "sid": 2, "parent": 1, "name": "leaf",
             "depth": 1, "t_start": 0.0, "t_end": 0.004, "dur_s": 0.004},
        ]
        lines = dict(
            line.rsplit(" ", 1) for line in to_collapsed_stacks(events).splitlines()
        )
        assert int(lines["root"]) == 6000
        assert int(lines["root;leaf"]) == 4000

    def test_semicolons_in_names_escaped(self):
        events = [
            {"type": "span", "sid": 1, "parent": None, "name": "a;b",
             "depth": 0, "t_start": 0.0, "t_end": 0.001, "dur_s": 0.001},
        ]
        text = to_collapsed_stacks(events)
        assert text.startswith("a,b ")

    def test_repeated_stacks_merge(self):
        events = [
            {"type": "span", "sid": i, "parent": None, "name": "hot",
             "depth": 0, "t_start": 0.0, "t_end": 0.002, "dur_s": 0.002}
            for i in (1, 2)
        ]
        (line,) = to_collapsed_stacks(events).splitlines()
        assert line == "hot 4000"

    def test_empty_trace_is_empty_output(self):
        assert to_collapsed_stacks([]) == ""


class TestProfileExport:
    def profiled_events(self):
        rec = Recorder()
        with rec.span("hot") as span:
            pass
        sid = span.sid
        rec.profile_event({
            "type": "profile", "kind": "stacks", "span": sid,
            "hz": 100.0, "samples": 3,
            "stacks": {"a.py:main;a.py:leaf": 3},
        })
        rec.profile_event({
            "type": "profile", "kind": "stacks", "span": None,
            "hz": 100.0, "samples": 1, "stacks": {"b.py:idle": 1},
        })
        rec.profile_event({
            "type": "profile", "kind": "resource", "t": 0.05,
            "rss_bytes": 1000, "cpu_user_s": 0.1, "cpu_sys_s": 0.02,
        })
        rec.profile_event({
            "type": "profile", "kind": "resource_summary", "pid": 1,
            "hz": 100.0, "samples": 4, "rss_peak_bytes": 2000,
            "cpu_user_s": 0.1, "cpu_sys_s": 0.02, "cpu_s": 0.12,
            "gc_collections": 0, "gc_pause_s": 0.0, "shard": 2,
        })
        return rec.events()

    def test_collapsed_samples_under_profile_root(self):
        text = to_collapsed_stacks(self.profiled_events())
        lines = dict(
            line.rsplit(" ", 1) for line in text.splitlines() if line
        )
        # 3 samples at 100 Hz = 30ms, attributed to the owning span name
        assert lines["profile;hot;a.py:main;a.py:leaf"] == "30000"
        assert lines["profile;unattributed;b.py:idle"] == "10000"

    def test_chrome_resource_counter_tracks(self):
        doc = to_chrome_trace(self.profiled_events())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert names == {"process.rss", "process.cpu"}
        rss = next(e for e in counters if e["name"] == "process.rss")
        assert rss["args"]["rss_bytes"] == 1000
        assert rss["ts"] == 0.05 * 1_000_000

    def test_chrome_summary_instant_named_by_shard(self):
        doc = to_chrome_trace(self.profiled_events())
        instants = [
            e for e in doc["traceEvents"]
            if e["ph"] == "i" and e["cat"] == "profile"
        ]
        (summary,) = instants
        assert summary["name"] == "profile.resources.shard2"
        assert summary["args"]["rss_peak_bytes"] == 2000
