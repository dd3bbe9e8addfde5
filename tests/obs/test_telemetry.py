"""Distributed telemetry: worker capture, grafting, exports."""

from types import SimpleNamespace

import pytest

from repro.errors import ObservabilityError
from repro.obs import Recorder, validate_trace
from repro.obs.metrics import to_prometheus_text
from repro.obs.telemetry import (
    LeaseTelemetry,
    TelemetryMerger,
    make_context,
    mint_run_id,
)

LEASE = {"id": 1, "shard": 0, "attempt": 1, "start": 0, "size": 512}


def worker_batches(lease=LEASE, blocks=2, fail_last=False):
    """Run a LeaseTelemetry through a lease; return the emitted batches."""
    messages = []
    telem = LeaseTelemetry(make_context("run0"), lease, messages.append)
    for index in range(blocks):
        start = lease["start"] + index * 256
        with telem.block_span(index, start, 256):
            pass
        telem.flush()
    if fail_last:
        telem.error(lease["start"], 256, "boom")
        telem.finish("error")
    else:
        telem.finish("done")
    return messages


class TestRunContext:
    def test_run_ids_short_and_unique(self):
        ids = {mint_run_id() for _ in range(32)}
        assert len(ids) == 32
        assert all(len(r) == 12 for r in ids)

    def test_context_carries_run_id(self):
        assert make_context("abc") == {"run_id": "abc"}


class TestLeaseTelemetry:
    def test_flush_ships_only_closed_events(self):
        messages = worker_batches(blocks=2)
        # two per-block flushes plus the final batch
        assert len(messages) == 3
        first = messages[0]
        assert first["type"] == "telemetry"
        assert first["lease"] == 1 and first["shard"] == 0
        names = [e.get("name") for e in first["events"] if e["type"] == "span"]
        # The lease root is still open — only the block span has shipped.
        assert "worker.block" in names
        assert "worker.lease" not in names

    def test_final_batch_closes_root(self):
        final = worker_batches(blocks=1)[-1]
        assert final["final"] is True
        roots = [
            e for e in final["events"]
            if e["type"] == "span" and e["name"] == "worker.lease"
        ]
        assert len(roots) == 1
        assert roots[0]["t_end"] is not None
        assert roots[0]["attrs"]["status"] == "done"
        assert "counters" not in final

    def test_sequence_numbers_increase(self):
        messages = worker_batches(blocks=3)
        assert [m["seq"] for m in messages] == [1, 2, 3, 4]

    def test_flush_without_new_events_emits_nothing(self):
        messages = []
        telem = LeaseTelemetry(make_context("r"), LEASE, messages.append)
        telem.flush()  # ships the lease_serve decision recorded at accept
        telem.flush()  # nothing new closed since — no message
        assert len(messages) == 1

    def test_error_path_records_decision(self):
        final = worker_batches(blocks=1, fail_last=True)[-1]
        decisions = [e for e in final["events"] if e["type"] == "decision"]
        assert any(d["action"] == "block_error" for d in decisions)
        root = next(
            e for e in final["events"]
            if e["type"] == "span" and e["name"] == "worker.lease"
        )
        assert root["attrs"]["status"] == "error"


class TestGraftEvents:
    def graft(self, batches, t_offset=0.0):
        rec = Recorder()
        with rec.span("exec.shards") as parent:
            events = [e for b in batches for e in b["events"]]
            rec.graft_events(
                events,
                parent_sid=parent.sid,
                parent_depth=parent.depth,
                t_offset=t_offset,
            )
        rec.close()
        return rec

    def test_worker_tree_reparents_under_supervisor_span(self):
        rec = self.graft(worker_batches(blocks=2))
        assert validate_trace(rec.events()) == []
        remote = [s for s in rec.spans if s.attrs.get("remote")]
        lease = next(s for s in remote if s.name == "worker.lease")
        blocks = [s for s in remote if s.name == "worker.block"]
        shards_span = next(s for s in rec.spans if s.name == "exec.shards")
        assert lease.parent == shards_span.sid
        assert all(b.parent == lease.sid for b in blocks)
        assert all(b.depth == lease.depth + 1 for b in blocks)

    def test_unknown_parent_reparents_onto_anchor(self):
        rec = Recorder()
        with rec.span("exec.shards") as parent:
            rec.graft_events(
                [{
                    "type": "span", "sid": 7, "parent": 999,
                    "name": "worker.block", "depth": 1,
                    "t_start": 0.1, "t_end": 0.2, "attrs": {},
                }],
                parent_sid=parent.sid,
                parent_depth=parent.depth,
            )
        orphan = next(s for s in rec.spans if s.name == "worker.block")
        assert orphan.parent == parent.sid
        rec.close()
        assert validate_trace(rec.events()) == []

    def test_clock_offset_applied_and_clamped(self):
        batches = worker_batches(blocks=1)
        skewed = self.graft(batches, t_offset=5.0)
        lease = next(
            s for s in skewed.spans
            if s.name == "worker.lease" and s.attrs.get("remote")
        )
        assert lease.t_start >= 5.0
        # A pathological negative offset cannot produce negative times.
        past = self.graft(worker_batches(blocks=1), t_offset=-1e9)
        for span in past.spans:
            if span.attrs.get("remote"):
                assert span.t_start == 0.0
                assert span.t_end >= span.t_start

    def test_open_remote_span_closed_at_start(self):
        rec = Recorder()
        with rec.span("exec.shards") as parent:
            rec.graft_events(
                [{
                    "type": "span", "sid": 3, "parent": None,
                    "name": "worker.lease", "depth": 0,
                    "t_start": 1.5, "t_end": None, "attrs": {},
                }],
                parent_sid=parent.sid,
                parent_depth=parent.depth,
            )
        span = next(s for s in rec.spans if s.name == "worker.lease")
        assert span.t_end == span.t_start == 1.5
        rec.close()
        assert validate_trace(rec.events()) == []

    def test_decisions_remap_to_grafted_spans(self):
        rec = self.graft(worker_batches(blocks=1))
        grafted = [d for d in rec.decisions if d.category == "worker"]
        assert grafted
        lease = next(
            s for s in rec.spans
            if s.name == "worker.lease" and s.attrs.get("remote")
        )
        assert any(d.span == lease.sid for d in grafted)


class TestValidateMergedTrace:
    def test_unclosed_remote_span_is_flagged(self):
        events = [
            {"type": "meta", "format": "repro-trace", "version": 2},
            {
                "type": "span", "sid": 1, "parent": None, "name": "w",
                "depth": 0, "t_start": 0.0, "t_end": None, "dur_s": None,
                "attrs": {"remote": True},
            },
        ]
        problems = validate_trace(events)
        assert any("remote span 1 never closed" in p for p in problems)


class TestTelemetryMerger:
    def test_graft_deferred_until_settle(self):
        rec = Recorder()
        with rec.span("exec.shards") as parent:
            merger = TelemetryMerger(
                rec, "run0", parent_sid=parent.sid,
                parent_depth=parent.depth,
            )
            for message in worker_batches(blocks=2):
                merger.add(message)
            assert merger.worker_spans == 0
            merger.settle(1)
        assert merger.worker_spans == 3  # lease root + two blocks
        rec.close()
        assert validate_trace(rec.events()) == []

    def test_straggler_after_settle_grafts_immediately(self):
        rec = Recorder()
        with rec.span("exec.shards") as parent:
            merger = TelemetryMerger(
                rec, "run0", parent_sid=parent.sid,
                parent_depth=parent.depth,
            )
            merger.settle(1)
            merger.add(worker_batches(blocks=1)[0])
        assert merger.worker_spans == 1
        rec.close()
        assert validate_trace(rec.events()) == []

    def test_replayed_batches_graft_once(self):
        rec = Recorder()
        merger = TelemetryMerger(rec, "run0")
        for message in worker_batches(blocks=2):
            merger.add(message)
            merger.add(dict(message))  # the transport delivered it twice
        merger.settle_all()
        assert merger.batches == 3
        blocks = [s for s in rec.spans if s.name == "worker.block"]
        assert sorted(s.attrs["start"] for s in blocks) == [0, 256]

    def test_disabled_recorder_never_grafted(self):
        merger = TelemetryMerger(SimpleNamespace(enabled=False), "run0")
        for message in worker_batches(blocks=1):
            merger.add(message)
        merger.settle_all()
        assert merger.worker_spans == 0


class TestPrometheusExport:
    def snapshot(self):
        rec = Recorder()
        rec.counter("resilience_failures_total").inc(100, kind="node")
        rec.gauge("faultsim_trials_per_s").set(1234.5)
        hist = rec.histogram("spread", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 1.7, 5.0):
            hist.observe(value)
        return rec.metrics.snapshot()

    def test_counters_and_gauges_rendered(self):
        text = to_prometheus_text(self.snapshot())
        assert "# TYPE resilience_failures_total counter" in text
        assert 'resilience_failures_total{kind="node"} 100.0' in text
        assert "faultsim_trials_per_s 1234.5" in text

    def test_histogram_buckets_are_cumulative(self):
        text = to_prometheus_text(self.snapshot())
        assert 'spread_bucket{le="1.0"} 1' in text
        assert 'spread_bucket{le="2.0"} 3' in text
        assert 'spread_bucket{le="+Inf"} 4' in text
        assert "spread_count 4" in text

    def test_rejects_untagged_snapshot(self):
        with pytest.raises(ObservabilityError):
            to_prometheus_text({"metrics": {}})

    def test_label_values_escaped(self):
        rec = Recorder()
        rec.counter("c").inc(rule='say "hi"')
        text = to_prometheus_text(rec.metrics.snapshot())
        assert 'rule="say \\"hi\\""' in text
