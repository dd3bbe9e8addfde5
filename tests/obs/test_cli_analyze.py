"""CLI surface of the trace-analytics layer.

``repro report``, ``repro trace diff/export`` and
``repro bench check/update-baseline``.
"""

import json

import pytest

from repro.cli import main
from repro.obs import Recorder, use


def _write_trace(path, workload="paper", condense_s=0.0):
    """Record a tiny synthetic pipeline trace to ``path``."""
    rec = Recorder()
    rec.set_provenance(workload=workload)
    with rec.span("pipeline"):
        with rec.span("audit"):
            pass
        with rec.span("condense"):
            rec.decision("condense", "merge", subject="p1 + p2", reason="H1")
    if condense_s:
        # Inflate the condense stage (and its parent) after the fact.
        events = rec.events()
        for event in events:
            if event.get("type") == "span" and event["name"] in (
                "condense", "pipeline",
            ):
                event["dur_s"] += condense_s
                event["t_end"] += condense_s
        from repro.obs import dump_ndjson

        dump_ndjson(events, str(path))
        return str(path)
    rec.write_trace(str(path))
    return str(path)


@pytest.fixture
def trace_file(tmp_path):
    return _write_trace(tmp_path / "a.ndjson")


class TestCriticalPath:
    def test_renders_dominant_path(self, tmp_path, capsys):
        # Both recorded stages are empty, so a GC pause in ``audit`` could
        # make it the dominant child; inflating ``condense`` pins the path.
        trace_file = _write_trace(tmp_path / "a.ndjson", condense_s=0.050)
        assert main(["report", trace_file]) == 0
        out = capsys.readouterr().out
        path = out.split("Critical path (dominant child at every level)\n")[1]
        assert path.splitlines()[2].startswith("pipeline")
        assert path.splitlines()[3].startswith("  condense")

    def test_meta_only_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.ndjson"
        Recorder().write_trace(str(path))
        assert main(["report", str(path)]) == 0
        assert "no spans" in capsys.readouterr().out


class TestDiff:
    def test_identical_traces_exit_zero(self, trace_file, capsys):
        assert main(["trace", "diff", trace_file, trace_file]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        a = _write_trace(tmp_path / "a.ndjson")
        b = _write_trace(tmp_path / "b.ndjson", condense_s=0.050)
        assert main(["trace", "diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "pipeline/condense" in out

    def test_threshold_flag_loosens_gate(self, tmp_path):
        a = _write_trace(tmp_path / "a.ndjson")
        b = _write_trace(tmp_path / "b.ndjson", condense_s=0.050)
        code = main(
            ["trace", "diff", a, b, "--threshold", "100000",
             "--min-delta-ms", "1000"]
        )
        assert code == 0

    def test_workload_mismatch_refused(self, tmp_path, capsys):
        a = _write_trace(tmp_path / "a.ndjson", workload="paper")
        b = _write_trace(tmp_path / "b.ndjson", workload="avionics")
        assert main(["trace", "diff", a, b]) == 2
        err = capsys.readouterr().err
        assert "incomparable" in err
        assert "--force" in err

    def test_force_overrides_refusal(self, tmp_path, capsys):
        a = _write_trace(tmp_path / "a.ndjson", workload="paper")
        b = _write_trace(tmp_path / "b.ndjson", workload="avionics")
        assert main(["trace", "diff", a, b, "--force"]) == 0
        assert "forced:" in capsys.readouterr().out


class TestExport:
    def test_chrome_to_stdout(self, trace_file, capsys):
        assert main(["trace", "export", trace_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_collapsed_to_file(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "stacks.txt"
        code = main(
            ["trace", "export", trace_file, "--format", "collapsed",
             "-o", str(out_path)]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert "pipeline;condense" in out_path.read_text()

    def test_unwritable_out_is_clean_error(self, trace_file, tmp_path, capsys):
        code = main(
            ["trace", "export", trace_file, "-o",
             str(tmp_path / "no" / "such" / "dir" / "x.json")]
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestExecDigest:
    def test_digest_of_recorded_campaign(self, tmp_path, capsys):
        from repro.exec import ExecPolicy
        from repro.faultsim.campaign import run_campaign
        from repro.allocation.hw_model import fully_connected
        from repro.core.framework import IntegrationFramework
        from repro.workloads import HW_NODE_COUNT, paper_system

        outcome = IntegrationFramework(paper_system()).integrate(
            fully_connected(HW_NODE_COUNT)
        )
        state = outcome.condensation.state
        rec = Recorder()
        with use(rec):
            run_campaign(
                state.graph,
                state.as_partition(),
                trials=512,
                seed=0,
                policy=ExecPolicy(workers=0),
            )
        path = tmp_path / "campaign.ndjson"
        rec.write_trace(str(path))
        assert main(["report", str(path)]) == 0
        assert "exec: completed: 2 batches" in capsys.readouterr().out

    def test_digest_of_non_exec_trace(self, trace_file, capsys):
        assert main(["report", trace_file]) == 0
        out = capsys.readouterr().out
        assert "condense  merge   1" in out
        assert "exec" not in out


class TestBenchCLI:
    @pytest.fixture
    def latest_file(self, tmp_path):
        entries = [
            {
                "name": "paper-8",
                "wall_s": 0.08,
                "trials_per_s": 30000.0,
                "n_processes": 8,
                "campaign_trials": 2000,
                "stages": {"audit": 0.0002, "condense": 0.006},
            }
        ]
        path = tmp_path / "latest.json"
        path.write_text(json.dumps(entries))
        return str(path)

    def test_update_then_check_passes(self, latest_file, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert main(
            ["bench", "update-baseline", "--latest", latest_file,
             "--baseline", baseline]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(
            ["bench", "check", "--latest", latest_file,
             "--baseline", baseline]
        ) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_check_fails_beyond_tolerance(self, latest_file, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        main(
            ["bench", "update-baseline", "--latest", latest_file,
             "--baseline", baseline]
        )
        capsys.readouterr()
        slow = json.loads(open(latest_file).read())
        slow[0]["wall_s"] = 0.4  # 5x the baseline, beyond +150%
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        code = main(
            ["bench", "check", "--latest", str(slow_path),
             "--baseline", baseline]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "REGRESSION" in out

    def test_tolerance_override(self, latest_file, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        main(
            ["bench", "update-baseline", "--latest", latest_file,
             "--baseline", baseline]
        )
        faster = json.loads(open(latest_file).read())
        faster[0]["wall_s"] = 0.12  # +50%
        path = tmp_path / "mid.json"
        path.write_text(json.dumps(faster))
        args = ["bench", "check", "--latest", str(path),
                "--baseline", baseline]
        assert main(args) == 0
        assert main(args + ["--tolerance", "0.25"]) == 1

    def test_missing_baseline_is_clean_error(self, latest_file, capsys):
        code = main(
            ["bench", "check", "--latest", latest_file,
             "--baseline", "/nonexistent/baseline.json"]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err
