"""Distributed tracing over shard workers: merge, skew, chaos, CLI.

The contract under test: a sharded campaign with telemetry on produces
ONE merged trace file, written as the run goes, containing spans from
every engaged worker, readable by ``repro report`` and tailed live by
``repro exec watch`` — and the campaign result is bit-identical to the
telemetry-off run.
"""

import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.exec import ExecPolicy, ShardChaos, run_sharded
from repro.exec.backend import (
    ForkPoolBackend,
    combine_selftest,
    selftest_spec,
    selftest_task,
)
from repro.obs import (
    Recorder,
    dump_ndjson,
    index_trace,
    load_ndjson,
    render_report,
    use,
    validate_trace,
)
from repro.obs.metrics import to_prometheus_text
from repro.obs.report import critical_path, exec_health
from repro.obs.telemetry import LeaseTelemetry, TelemetryMerger, make_context

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
    try:
        with use(recorder):
            return run_sharded(TASK, **call)
    finally:
        recorder.close()  # a finished trace: every parent is in it


def traced_to_file(path, trials, seed, **kwargs):
    """A sharded run whose recorder streams its trace to ``path``."""
    recorder = Recorder()
    recorder.open_sink(path)
    return recorder, sharded(trials, seed, recorder=recorder, **kwargs)


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
        path = str(tmp_path / "trace.ndjson")
        recorder, (payloads, report) = traced_to_file(
            path, 1024, 3, backend="subprocess", shards=4,
        )
        plain, _ = sharded(1024, 3, backend="subprocess", shards=4)
        assert merge(payloads) == merge(plain)
        events = load_ndjson(path)
        assert events == recorder.events()
        assert validate_trace(events) == []
        leases = remote_spans(recorder, "worker.lease")
        assert {s.attrs["shard"] for s in leases} == {0, 1, 2, 3}
        assert all(s.attrs["run_id"] == report.run_id for s in leases)
        index = index_trace(events)
        assert exec_health(index).completed
        assert index.metrics["spans"] == len(recorder.spans)

    @pytest.mark.timeout(60)
    def test_prebuilt_backend_carries_the_runs_context(self):
        recorder = Recorder()
        with ForkPoolBackend(TASK, 11) as backend:
            payloads, report = sharded(1024, 11, recorder=recorder,
                                       backend=backend)
        plain, _ = sharded(1024, 11)
        assert merge(payloads) == merge(plain)
        leases = remote_spans(recorder, "worker.lease")
        assert {s.attrs["shard"] for s in leases} == {0, 1}
        assert all(s.attrs["run_id"] == report.run_id for s in leases)

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
        rec.close()
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


def live_prefix(path, tmp_path):
    """Cut a finished trace after its first ``lease_done`` decision and
    add a torn, unterminated line: what a reader sees mid-run."""
    lines = Path(path).read_text().splitlines(keepends=True)
    cut = next(
        i for i, line in enumerate(lines) if '"lease_done"' in line
    ) + 1
    prefix = tmp_path / "prefix.ndjson"
    prefix.write_text("".join(lines[:cut]) + lines[cut][: len(lines[cut]) // 2])
    return str(prefix), lines[cut:]


class TestWatchAndMetricsCli:
    @pytest.fixture(scope="class")
    def finished(self, tmp_path_factory):
        """The trace of a 2-shard faultsim campaign run by the CLI."""
        path = str(tmp_path_factory.mktemp("watch") / "trace.ndjson")
        assert main([
            "faultsim", "--workload", "paper", "--trials", "1024",
            "--seed", "3", "--shards", "2", "--backend", "local",
            "--workers", "2", "--trace", path,
        ]) == 0
        return path

    def test_watch_once_renders_status(self, finished, capsys):
        assert main(["exec", "watch", finished, "--once"]) == 0
        out = capsys.readouterr().out
        assert "[ended]" in out
        assert "Per-shard lease health (backend: local)" in out
        assert "completed: 2 batches" in out

    def test_watch_once_on_torn_live_prefix(self, finished, tmp_path, capsys):
        prefix, _ = live_prefix(finished, tmp_path)
        assert main(["exec", "watch", prefix, "--once"]) == 0
        out = capsys.readouterr().out
        assert "[running]" in out
        assert "[ended]" not in out
        assert "Per-shard lease health (backend: local)" in out
        assert "completed: NO" in out

    @pytest.mark.timeout(30)
    def test_watch_exits_when_the_metrics_record_lands(
        self, finished, tmp_path, capsys
    ):
        prefix, rest = live_prefix(finished, tmp_path)
        codes = []
        watcher = threading.Thread(daemon=True, target=lambda: codes.append(
            main(["exec", "watch", prefix, "--interval", "0.05"])
        ))
        watcher.start()
        watcher.join(0.3)
        assert watcher.is_alive()  # still running: no metrics record yet
        with open(prefix, "a") as handle:
            handle.write(rest[0][len(rest[0]) // 2:] + "".join(rest[1:]))
        watcher.join(10)
        assert not watcher.is_alive() and codes == [0]
        assert "[ended]" in capsys.readouterr().out

    @pytest.mark.timeout(30)
    def test_watch_reads_a_v2_trace_as_finished(self, tmp_path, capsys):
        # Version-2 traces were written whole at exit: nothing to wait for.
        path = str(tmp_path / "v2.ndjson")
        dump_ndjson([
            {"type": "meta", "format": "repro-trace", "version": 2},
            {"type": "decision", "category": "exec", "action": "lease_grant",
             "attrs": {"shard": 0}},
        ], path)
        assert main(["exec", "watch", path, "--interval", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "[ended]" in out and "Per-shard lease health" in out

    def test_watch_once_rejects_non_trace_file(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        path.write_text("{}\n")
        assert main(["exec", "watch", str(path), "--once"]) != 0

    def test_metrics_export_prom(self, finished, tmp_path, capsys):
        out_file = tmp_path / "metrics.prom"
        assert main([
            "metrics", "export", finished, "--format", "prom",
            "-o", str(out_file),
        ]) == 0
        text = out_file.read_text()
        run = to_prometheus_text(load_ndjson(finished)[-1]["snapshot"])
        assert "# TYPE faultsim_trials_total counter" in run
        assert set(run.splitlines()) <= set(text.splitlines())
        assert "# TYPE process_resident_memory_bytes gauge" in text

    def test_metrics_export_to_stdout(self, tmp_path, capsys):
        path = str(tmp_path / "trace.ndjson")
        rec = Recorder()
        rec.open_sink(path)
        rec.gauge("g").set(1.0)
        rec.close()
        assert main(["metrics", "export", path]) == 0
        assert "# TYPE g gauge\ng 1.0" in capsys.readouterr().out

    def test_metrics_export_rejects_untagged_json(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text('{"not": "metrics"}')
        assert main(["metrics", "export", str(path)]) != 0

    def test_metrics_export_needs_a_finished_trace(
        self, finished, tmp_path, capsys
    ):
        prefix, _ = live_prefix(finished, tmp_path)
        (tmp_path / "whole.ndjson").write_text(
            Path(prefix).read_text().rsplit("\n", 1)[0] + "\n"
        )
        assert main(["metrics", "export", str(tmp_path / "whole.ndjson")]) == 2
        assert "no closing metrics record" in capsys.readouterr().err


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
        path = str(tmp_path / "trace.ndjson")
        traced_to_file(path, 1024, 11, profile=251.0)
        events = load_ndjson(path)
        assert validate_trace(events) == []
        profiles = [e for e in events if e.get("type") == "profile"]
        assert profiles, "no profile batches reached the trace"
        assert events[-1]["profiles"] == len(profiles)
        report = render_report(index_trace(events))
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
    def test_profile_without_recorder_ships_nothing(self):
        # No recorder, no trace context: workers neither record nor
        # profile, and the result is the same.
        payloads, report = sharded(1024, 11, profile=251.0)
        plain, _ = sharded(1024, 11)
        assert merge(payloads) == merge(plain)
        assert report.run_id is None
        assert report.telemetry_batches == 0
