"""Distributed tracing over shard workers: merge, skew, chaos, CLI.

The tentpole contract under test: a sharded campaign with telemetry on
produces ONE merged trace-format-v2 file containing spans from every
engaged worker, readable by ``repro report`` — and the campaign result
is bit-identical to the telemetry-off run.
"""

import json

import pytest

from repro.cli import main
from repro.exec import ExecPolicy, ShardChaos, run_sharded
from repro.exec.backend import combine_selftest, selftest_spec, selftest_task
from repro.obs import (
    Recorder,
    dump_ndjson,
    index_trace,
    load_ndjson,
    render_report,
    use,
    validate_trace,
)
from repro.obs.report import critical_path, exec_health
from repro.obs.telemetry import (
    LeaseTelemetry,
    TelemetryMerger,
    load_status,
    make_context,
    validate_telemetry_stream,
)

SPEC = selftest_spec()
TASK = selftest_task(SPEC["params"])


def merge(payloads):
    merged = payloads[0]
    for payload in payloads[1:]:
        merged = combine_selftest(merged, payload)
    return merged


def sharded(trials, seed, *, recorder=None, backend="local", shards=2,
            chaos=None, **kwargs):
    policy = ExecPolicy(workers=2, backoff_base=0.01, backoff_max=0.02)
    call = dict(
        trials=trials, seed=seed, kind="selftest", params=SPEC["params"],
        policy=policy, shards=shards, backend=backend,
        combine=combine_selftest, chaos=chaos, **kwargs,
    )
    if backend == "subprocess":
        call["task_spec"] = SPEC
    if recorder is None:
        return run_sharded(TASK, **call)
    with use(recorder):
        return run_sharded(TASK, **call)


def remote_spans(recorder, name=None):
    spans = [s for s in recorder.spans if s.attrs.get("remote")]
    if name is not None:
        spans = [s for s in spans if s.name == name]
    return spans


class TestMergedTrace:
    @pytest.mark.timeout(60)
    def test_local_backend_merges_every_workers_spans(self):
        recorder = Recorder()
        payloads, report = sharded(1024, 11, recorder=recorder)
        plain, _ = sharded(1024, 11)
        assert merge(payloads) == merge(plain)  # telemetry-off bit-identity
        assert validate_trace(recorder.events()) == []
        leases = remote_spans(recorder, "worker.lease")
        assert {s.attrs["shard"] for s in leases} == {0, 1}
        assert all(s.attrs["run_id"] == report.run_id for s in leases)
        assert remote_spans(recorder, "worker.block")
        assert report.worker_spans >= len(leases)
        assert report.telemetry_batches > 0

    @pytest.mark.timeout(120)
    def test_subprocess_backend_four_shards_end_to_end(self, tmp_path):
        status = str(tmp_path / "status.json")
        stream = str(tmp_path / "telemetry.ndjson")
        recorder = Recorder()
        payloads, report = sharded(
            1024, 3, recorder=recorder, backend="subprocess", shards=4,
            status_file=status, telemetry_stream=stream,
        )
        plain, _ = sharded(1024, 3, backend="subprocess", shards=4)
        assert merge(payloads) == merge(plain)
        assert validate_trace(recorder.events()) == []
        leases = remote_spans(recorder, "worker.lease")
        assert {s.attrs["shard"] for s in leases} == {0, 1, 2, 3}
        assert validate_telemetry_stream(load_ndjson(stream)) == []
        doc = load_status(status)
        assert doc["complete"] is True
        assert doc["trials_done"] == 1024
        assert doc["run_id"] == report.run_id
        assert report.telemetry_stream_path == stream

    @pytest.mark.timeout(60)
    def test_stream_without_recorder_still_captures_workers(self, tmp_path):
        # --telemetry-stream with tracing off: the NullRecorder gets no
        # grafts, but the raw stream must still be written and valid.
        stream = str(tmp_path / "only-stream.ndjson")
        payloads, report = sharded(512, 7, telemetry_stream=stream)
        plain, _ = sharded(512, 7)
        assert merge(payloads) == merge(plain)
        events = load_ndjson(stream)
        assert validate_telemetry_stream(events) == []
        assert events[0]["run_id"] == report.run_id
        assert report.worker_spans == 0  # nothing to graft into

    @pytest.mark.timeout(60)
    def test_telemetry_off_entirely_when_unobserved(self):
        _, report = sharded(512, 7)
        assert report.run_id is None
        assert report.telemetry_batches == 0

    @pytest.mark.timeout(60)
    def test_shard_killed_mid_span_trace_stays_valid(self):
        recorder = Recorder()
        payloads, report = sharded(
            1024, 5, recorder=recorder,
            chaos=ShardChaos(kill_shards=frozenset({1})),
        )
        plain, _ = sharded(1024, 5)
        assert merge(payloads) == merge(plain)
        assert report.shard_crashes >= 1
        assert validate_trace(recorder.events()) == []
        # The killed worker's shipped spans survive; every one is closed.
        assert all(s.t_end is not None for s in remote_spans(recorder))


class TestAnalyzeMergedTrace:
    """``repro report`` over merged multi-process traces."""

    def merged_trace_file(self, tmp_path, recorder):
        path = str(tmp_path / "merged.ndjson")
        dump_ndjson(recorder.events(), path)
        return path

    def skewed_recorder(self, offsets, out_of_order=False):
        """Graft two synthetic workers with different clock epochs."""
        rec = Recorder()
        with rec.span("exec.shards") as parent:
            merger = TelemetryMerger(
                rec, "run0", parent_sid=parent.sid,
                parent_depth=parent.depth,
            )
            for lease_id, offset in enumerate(offsets, start=1):
                messages = []
                telem = LeaseTelemetry(
                    make_context("run0"),
                    {"id": lease_id, "shard": lease_id - 1, "attempt": 1,
                     "start": 0, "size": 256},
                    messages.append,
                )
                with telem.block_span(0, 0, 256):
                    pass
                telem.flush()
                telem.finish("done")
                for message in messages:
                    message["epoch_unix"] = rec.epoch_unix + offset
                if out_of_order:
                    messages.reverse()
                for message in messages:
                    merger.add(message)
                merger.settle(lease_id)
        return rec

    def test_clock_skewed_workers_produce_one_valid_tree(self, tmp_path):
        rec = self.skewed_recorder(offsets=(4.0, -1e6))
        events = rec.events()
        assert validate_trace(events) == []
        index = index_trace(events)
        shards_span = next(
            s for s in index.roots if s.name == "exec.shards"
        )
        leases = index.children.get(shards_span.sid, [])
        # Both workers land under the one supervisor span.
        assert [s.name for s in leases] == ["worker.lease"] * 2
        assert all(s.t_start >= 0.0 for s in leases)  # skew clamped
        path = self.merged_trace_file(tmp_path, rec)
        assert main(["report", path, "--tree"]) == 0

    def test_out_of_order_batches_still_build_the_tree(self, tmp_path):
        # The lease root arrives before the blocks it parents.
        rec = self.skewed_recorder(offsets=(0.0,), out_of_order=True)
        events = rec.events()
        assert validate_trace(events) == []
        lease = next(
            s for s in rec.spans
            if s.name == "worker.lease" and s.attrs.get("remote")
        )
        block = next(
            s for s in rec.spans
            if s.name == "worker.block" and s.attrs.get("remote")
        )
        assert block.parent == lease.sid
        assert main(["report", self.merged_trace_file(tmp_path, rec)]) == 0

    @pytest.mark.timeout(60)
    def test_critical_path_descends_into_worker_spans(self):
        recorder = Recorder()
        sharded(1024, 11, recorder=recorder)
        steps = critical_path(index_trace(recorder.events()))
        names = [step.name for step in steps]
        assert "exec.shards" in names
        assert "worker.lease" in names

    @pytest.mark.timeout(60)
    def test_digest_reads_shard_lanes_from_merged_trace(self):
        recorder = Recorder()
        sharded(1024, 11, recorder=recorder)
        health = exec_health(index_trace(recorder.events()))
        assert set(health.lanes) == {0, 1}
        assert all(lane.leases >= 1 for lane in health.lanes.values())
        assert health.backend == "local"
        assert health.shard_plan == 2

    @pytest.mark.timeout(60)
    def test_digest_counts_chaos_lease_outcomes(self):
        recorder = Recorder()
        sharded(
            1024, 5, recorder=recorder,
            chaos=ShardChaos(kill_shards=frozenset({1})),
        )
        health = exec_health(index_trace(recorder.events()))
        lane = health.lanes[1]
        assert lane.crashes >= 1
        assert lane.redispatches + lane.rescues >= 1
        assert health.lanes[0].crashes == 0


class TestWatchAndMetricsCli:
    def status_doc(self, complete=True):
        return {
            "format": "repro-campaign-status",
            "version": 1,
            "run_id": "cafecafecafe",
            "kind": "faultsim",
            "backend": "subprocess",
            "trials": 512,
            "trials_done": 512 if complete else 256,
            "elapsed_s": 1.5,
            "trials_per_s": 341.3,
            "complete": complete,
            "updated_unix": 0,
            "shards": [{
                "shard": 0, "start": 0, "size": 512, "blocks_total": 2,
                "blocks_done": 2, "trials_done": 512, "trials_per_s": 341.3,
                "heartbeat_lag_s": 0.05, "leases": 1, "redispatches": 0,
                "expiries": 0, "crashes": 0, "rescued_blocks": 0,
                "heartbeats": 2, "state": "done",
            }],
        }

    def test_watch_once_renders_status(self, tmp_path, capsys):
        path = tmp_path / "status.json"
        path.write_text(json.dumps(self.status_doc()))
        assert main(["exec", "watch", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "run cafecafecafe" in out
        assert "[complete]" in out
        assert "beat lag" in out

    def test_watch_once_rejects_non_status_file(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        path.write_text("{}")
        assert main(["exec", "watch", str(path), "--once"]) != 0

    def test_metrics_export_prom(self, tmp_path, capsys):
        rec = Recorder()
        rec.counter("faultsim_trials_total").inc(512, engine="scalar")
        metrics_file = tmp_path / "metrics.json"
        metrics_file.write_text(json.dumps(rec.metrics.snapshot()))
        out_file = tmp_path / "metrics.prom"
        assert main([
            "metrics", "export", str(metrics_file),
            "--format", "prom", "-o", str(out_file),
        ]) == 0
        text = out_file.read_text()
        assert "# TYPE faultsim_trials_total counter" in text
        assert 'faultsim_trials_total{engine="scalar"} 512.0' in text

    def test_metrics_export_to_stdout(self, tmp_path, capsys):
        rec = Recorder()
        rec.gauge("g").set(1.0)
        metrics_file = tmp_path / "metrics.json"
        metrics_file.write_text(json.dumps(rec.metrics.snapshot()))
        assert main(["metrics", "export", str(metrics_file)]) == 0
        assert "# TYPE g gauge" in capsys.readouterr().out

    def test_metrics_export_rejects_untagged_json(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text('{"not": "metrics"}')
        assert main(["metrics", "export", str(path)]) != 0


class TestProfiledSharded:
    """--profile over shard workers: profile batches ride the telemetry
    stream and merge with the same sid-remap/dedup machinery."""

    @pytest.mark.timeout(60)
    def test_profile_events_merge_from_every_shard(self):
        recorder = Recorder()
        payloads, report = sharded(1024, 11, recorder=recorder, profile=251.0)
        plain, _ = sharded(1024, 11)
        assert merge(payloads) == merge(plain)  # profiling bit-identity
        events = recorder.events()
        assert validate_trace(events) == []
        summaries = [
            e for e in events
            if e.get("type") == "profile"
            and e.get("kind") == "resource_summary"
        ]
        assert {e.get("shard") for e in summaries} == {0, 1}
        assert all(e.get("remote") for e in summaries)
        assert all(e.get("rss_peak_bytes", 0) > 0 for e in summaries)
        assert all(e.get("hz") == 251.0 for e in summaries)

    @pytest.mark.timeout(60)
    def test_profiled_stream_validates_and_reports(self, tmp_path):
        stream = str(tmp_path / "telemetry.ndjson")
        recorder = Recorder()
        sharded(1024, 11, recorder=recorder, profile=251.0,
                telemetry_stream=stream)
        assert validate_telemetry_stream(load_ndjson(stream)) == []
        batches = [
            e for e in load_ndjson(stream) if e.get("type") == "profile"
        ]
        assert batches, "no profile batches reached the telemetry stream"
        report = render_report(index_trace(recorder.events()))
        assert "Per-shard process resources" in report

    @pytest.mark.timeout(60)
    def test_killed_shard_still_merges_survivor_profiles(self):
        recorder = Recorder()
        payloads, report = sharded(
            1024, 11, recorder=recorder, profile=251.0,
            chaos=ShardChaos(kill_shards=frozenset({1})),
        )
        plain, _ = sharded(1024, 11)
        assert merge(payloads) == merge(plain)
        events = recorder.events()
        assert validate_trace(events) == []
        summaries = [
            e for e in events
            if e.get("type") == "profile"
            and e.get("kind") == "resource_summary"
        ]
        # the surviving shard's summary must land; the redispatched
        # remainder of the dead shard reports under a fresh lease too
        assert any(e.get("shard") == 0 for e in summaries)

    @pytest.mark.timeout(60)
    def test_profile_without_recorder_flows_to_stream(self, tmp_path):
        # --profile + --telemetry-stream but no ambient recorder: the
        # supervisor still turns telemetry on so the batches reach disk.
        stream = str(tmp_path / "telemetry.ndjson")
        payloads, report = sharded(
            1024, 11, profile=251.0, telemetry_stream=stream,
        )
        plain, _ = sharded(1024, 11)
        assert merge(payloads) == merge(plain)
        records = load_ndjson(stream)
        assert validate_telemetry_stream(records) == []
        assert any(e.get("type") == "profile" for e in records)
