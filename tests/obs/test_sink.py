"""The trace sink: one file per run, written as records close (v3)."""

import pytest

from repro.allocation.hw_model import fully_connected
from repro.core.framework import IntegrationFramework
from repro.errors import ObservabilityError
from repro.exec import ExecPolicy, run_sharded
from repro.exec.backend import combine_selftest, selftest_spec, selftest_task
from repro.obs import (
    Recorder,
    index_trace,
    load_live_trace,
    load_ndjson,
    use,
    validate_trace,
)
from repro.workloads import HW_NODE_COUNT, paper_system


def traced_pipeline(path) -> Recorder:
    rec = Recorder()
    rec.open_sink(path)
    framework = IntegrationFramework(paper_system())
    with use(rec):
        outcome = framework.integrate(fully_connected(HW_NODE_COUNT))
        framework.validate_by_campaign(outcome, trials=50, seed=0)
    rec.close()
    return rec


def span(sid, parent, name="s"):
    return {
        "type": "span", "sid": sid, "parent": parent, "name": name,
        "depth": 0, "t_start": 0.0, "t_end": 1.0, "dur_s": 1.0,
    }


def meta(version):
    return {
        "type": "meta", "format": "repro-trace", "version": version,
        "provenance": {"repro_version": "x", "python": "3", "machine": "m"},
    }


def closing(spans=0, decisions=0, profiles=0):
    return {
        "type": "metrics", "spans": spans, "decisions": decisions,
        "profiles": profiles,
        "snapshot": {"format": "repro-metrics", "version": 1, "metrics": {}},
    }


class TestSink:
    def test_finished_file_equals_events(self, tmp_path):
        path = str(tmp_path / "t.ndjson")
        rec = traced_pipeline(path)
        events = load_ndjson(path)
        assert events == rec.events()
        assert validate_trace(events) == []
        assert events[0]["version"] == 3 and "spans" not in events[0]
        assert events[-1]["type"] == "metrics"
        assert events[-1]["spans"] == len(rec.spans)
        assert events[-1]["decisions"] == len(rec.decisions)
        assert "faultsim_trials_total" in events[-1]["snapshot"]["metrics"]

    def test_records_reach_the_file_as_they_close(self, tmp_path):
        path = str(tmp_path / "t.ndjson")
        rec = Recorder()
        rec.open_sink(path)
        with rec.span("outer"):
            with rec.span("inner"):
                pass
            rec.decision("exec", "lease_grant", shard=0)
            live = load_live_trace(path)
            assert [e["type"] for e in live] == ["meta", "span", "decision"]
            assert validate_trace(live) == []  # "outer" is still open
        rec.close()
        assert [e["type"] for e in load_ndjson(path)] == [
            "meta", "span", "decision", "span", "metrics",
        ]

    def test_close_records_open_spans_and_is_final(self, tmp_path):
        path = str(tmp_path / "t.ndjson")
        rec = Recorder()
        rec.open_sink(path)
        rec.span("never-closed")
        rec.close()
        rec.close()
        rec.decision("exec", "late")
        events = load_ndjson(path)
        assert events == rec.events()
        assert [e["type"] for e in events] == ["meta", "span", "metrics"]
        assert events[1]["t_end"] is None
        assert validate_trace(events) == []

    def test_unwritable_sink_raises(self, tmp_path):
        with pytest.raises(ObservabilityError):
            Recorder().open_sink(str(tmp_path / "missing" / "t.ndjson"))

    def test_load_live_trace_skips_the_unterminated_line(self, tmp_path):
        path = tmp_path / "t.ndjson"
        assert load_live_trace(str(path)) == []
        path.write_text('{"type":"meta"}\n{"type":"sp')
        assert load_live_trace(str(path)) == [{"type": "meta"}]


class TestLivePrefixes:
    @pytest.mark.timeout(60)
    def test_every_prefix_of_a_two_slot_campaign_trace_validates(
        self, tmp_path
    ):
        path = str(tmp_path / "t.ndjson")
        rec = Recorder()
        rec.open_sink(path)
        spec = selftest_spec()
        with use(rec):
            run_sharded(
                selftest_task(spec["params"]), trials=1024, seed=5,
                kind="selftest", params=spec["params"],
                policy=ExecPolicy(workers=2), shards=4, backend="local",
                combine=combine_selftest,
            )
        rec.close()
        events = load_ndjson(path)
        assert events == rec.events()
        assert sum(e["type"] == "meta" for e in events) == 1
        assert any(
            (e.get("attrs") or {}).get("remote") for e in events
            if e["type"] == "span"
        )
        for cut in range(len(events) + 1):
            assert validate_trace(events[:cut]) == [], cut
        assert index_trace(events[:-1]).metrics is None
        assert index_trace(events).metrics == events[-1]

    def test_finished_v3_trace_with_dangling_parent_fails(self):
        events = [meta(3), span(2, 1), closing(spans=1)]
        assert any("unknown parent 1" in p for p in validate_trace(events))
        assert validate_trace(events[:-1]) == []  # live: 1 is still open

    def test_v2_trace_validates_as_before(self):
        assert any(
            "unknown parent 1" in p
            for p in validate_trace([meta(2), span(2, 1)])
        )
        assert validate_trace([meta(2), span(1, None), span(2, 1)]) == []

    def test_metrics_record_ends_the_trace_with_matching_counts(self):
        assert validate_trace([meta(3), span(1, None), closing(spans=1)]) == []
        problems = validate_trace(
            [meta(3), closing(spans=2), span(1, None)]
        )
        assert "event 1: metrics record is not the last record" in problems
        assert (
            "event 1: metrics record counts 2 spans, the trace holds 1"
            in problems
        )
