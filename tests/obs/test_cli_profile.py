"""CLI surface of the profiler: ``--profile``, the profile sections of
``repro report``, and the process gauges in ``repro metrics export``."""

from repro.cli import main
from repro.obs import Recorder, load_ndjson, validate_trace
from repro.obs.profile import DEFAULT_PROFILE_HZ


class TestProfileFlag:
    def test_integrate_with_profile_writes_profile_events(self, tmp_path):
        trace = tmp_path / "trace.ndjson"
        assert main([
            "integrate", "--workload", "paper",
            "--profile", "--trace", str(trace),
        ]) == 0
        events = load_ndjson(str(trace))
        assert validate_trace(events) == []
        profs = [e for e in events if e.get("type") == "profile"]
        assert profs, "--profile produced no profile events"
        summary = next(
            e for e in profs if e.get("kind") == "resource_summary"
        )
        assert summary["hz"] == DEFAULT_PROFILE_HZ
        assert summary["rss_peak_bytes"] > 0
        assert events[-1]["profiles"] == len(profs)

    def test_profile_accepts_custom_rate(self, tmp_path):
        trace = tmp_path / "trace.ndjson"
        assert main([
            "integrate", "--workload", "paper",
            "--profile", "50", "--trace", str(trace),
        ]) == 0
        events = load_ndjson(str(trace))
        summary = next(
            e for e in events
            if e.get("type") == "profile"
            and e.get("kind") == "resource_summary"
        )
        assert summary["hz"] == 50.0

    def test_non_finite_rate_exits_2(self, capsys):
        # An infinite rate would be a zero timer interval: no sampling.
        assert main([
            "faultsim", "--workload", "paper", "--trials", "64",
            "--profile", "inf",
        ]) == 2
        assert "finite" in capsys.readouterr().err

    def test_trace_without_profile_flag_has_no_profile_events(self, tmp_path):
        trace = tmp_path / "trace.ndjson"
        assert main([
            "integrate", "--workload", "paper", "--trace", str(trace),
        ]) == 0
        events = load_ndjson(str(trace))
        assert not any(e.get("type") == "profile" for e in events)
        assert events[-1]["profiles"] == 0


class TestProfileReportCommand:
    def test_report_renders_tables(self, tmp_path, capsys):
        trace = tmp_path / "trace.ndjson"
        assert main([
            "integrate", "--workload", "paper",
            "--profile", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Per-shard process resources" in out
        assert "profile events: " in out

    def test_report_on_unprofiled_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.ndjson"
        Recorder().write_trace(str(trace))
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "profile events" not in out
        assert "Per-shard process resources" not in out


class TestMetricsExportProcessGauges:
    def test_export_without_file_exposes_process_gauges(self, capsys):
        assert main(["metrics", "export", "--format", "prom"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE process_resident_memory_bytes gauge" in text
        assert "# TYPE process_cpu_seconds_total counter" in text
        assert "process_resident_memory_bytes " in text

    def test_campaign_metrics_win_name_collisions(self, tmp_path, capsys):
        path = tmp_path / "trace.ndjson"
        rec = Recorder()
        rec.open_sink(str(path))
        rec.gauge("process_resident_memory_bytes").set(123.0)
        rec.counter("faultsim_trials_total").inc(7)
        rec.close()
        assert main(["metrics", "export", str(path), "--format", "prom"]) == 0
        text = capsys.readouterr().out
        assert "process_resident_memory_bytes 123.0" in text
        assert "faultsim_trials_total 7.0" in text
        # process gauges absent from the file still ride along
        assert "process_cpu_seconds_total" in text
