"""Command-line interface."""

import json

import pytest

from repro.cli import main
from repro.io import dump_system
from repro.workloads import paper_system


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "system.json"
    dump_system(paper_system(), str(path))
    return str(path)


class TestExample:
    def test_dump_paper_to_stdout(self, capsys):
        assert main(["example", "paper"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["format"] == "ddsi-system"
        assert len(data["fcms"]) == 8

    def test_dump_avionics_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "avionics.json"
        assert main(["example", "avionics", "--out", str(out_path)]) == 0
        data = json.loads(out_path.read_text())
        assert data["name"] == "avionics"
        assert "_hw_hint" in data


class TestIntegrate:
    def test_with_hw_nodes(self, system_file, capsys):
        code = main(["integrate", system_file, "--hw-nodes", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible: True" in out
        assert "HW node" in out

    def test_with_hw_file(self, system_file, tmp_path, capsys):
        from repro.allocation import fully_connected
        from repro.io import dump_hw

        hw_path = tmp_path / "hw.json"
        dump_hw(fully_connected(6), str(hw_path))
        code = main(["integrate", system_file, "--hw", str(hw_path)])
        assert code == 0

    def test_heuristic_choice(self, system_file, capsys):
        code = main(
            [
                "integrate",
                system_file,
                "--hw-nodes",
                "6",
                "--heuristic",
                "criticality",
                "--mapping",
                "b",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ApproachB" in out

    def test_malformed_hw_file_errors_with_path(self, tmp_path, capsys):
        hw_path = tmp_path / "bad.json"
        hw_path.write_text(json.dumps({
            "format": "ddsi-hw",
            "version": 1,
            "nodes": [{"name": "a"}, {"name": "b"}],
            "links": [{"a": "a"}],
        }))
        code = main(["integrate", "--workload", "paper", "--hw", str(hw_path)])
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: links[0].b: missing"

    def test_missing_hw_spec_errors(self, system_file, capsys):
        code = main(["integrate", system_file])
        assert code == 2
        assert "provide --hw" in capsys.readouterr().err


class TestAudit:
    def test_clean_system_passes(self, system_file, capsys):
        assert main(["audit", system_file]) == 0
        assert "audit passed" in capsys.readouterr().out

    def test_budget_violation_fails(self, system_file, capsys):
        code = main(["audit", system_file, "--influence-budget", "0.1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "finding:" in out

    def test_link_breaking_r1_named_by_path(self, tmp_path, capsys):
        path = tmp_path / "r1.json"
        path.write_text(json.dumps({
            "format": "ddsi-system",
            "version": 1,
            "name": "r1",
            "fcms": [
                {"name": "p1", "level": "PROCESS"},
                {"name": "t1", "level": "TASK"},
            ],
            "links": [{"child": "p1", "parent": "t1"}],
        }))
        code = main(["audit", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "1 validation issue" in err
        assert "links[0]" in err and "R1: 'p1' (PROCESS)" in err


class TestMalformedHWDocument:
    """A bad HW file is a report with exit 2, never a traceback."""

    def run(self, tmp_path, capsys, text: str) -> str:
        hw_path = tmp_path / "hw.json"
        hw_path.write_text(text)
        code = main(["integrate", "--workload", "paper", "--hw", str(hw_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and ": 1 validation issue\n" in err
        return err

    def test_torn_file_names_the_line(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, '{\n  "format": "ddsi-hw",\n  "nodes": [\n')
        assert "$ (line 4): invalid JSON" in err

    def test_version_not_an_integer(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, json.dumps({
            "format": "ddsi-hw", "version": "one", "nodes": [], "links": [],
        }))
        assert "version: version must be an integer, got 'one'" in err


class TestTradeoff:
    def test_table_printed(self, system_file, capsys):
        assert main(["tradeoff", system_file, "--trials", "50"]) == 0
        out = capsys.readouterr().out
        assert "Integration-level trade-off" in out
        assert "HW nodes" in out


class TestIntegrateOut:
    def test_outcome_written(self, system_file, tmp_path, capsys):
        out_path = tmp_path / "outcome.json"
        code = main(
            ["integrate", system_file, "--hw-nodes", "6", "--out", str(out_path)]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["format"] == "ddsi-outcome"


class TestIntegrateValidate:
    def test_validate_trials_prints_campaign_note(self, system_file, capsys):
        code = main(
            [
                "integrate",
                system_file,
                "--hw-nodes",
                "6",
                "--validate-trials",
                "200",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign validation (200 faults)" in out
        assert "escape rate" in out

    def test_validation_off_by_default(self, system_file, capsys):
        assert main(["integrate", system_file, "--hw-nodes", "6"]) == 0
        assert "campaign validation" not in capsys.readouterr().out

    def test_negative_trial_count_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["integrate", "--workload", "paper", "--validate-trials", "-2"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--validate-trials: must be an integer >= 0, got '-2'" in (
            captured.err
        )
        assert captured.out == ""


class TestResilience:
    def test_paper_campaign_prints_availability(self, capsys):
        code = main(
            [
                "resilience",
                "--workload",
                "paper",
                "--failures",
                "2",
                "--trials",
                "50",
                "--seed",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "availability" in out
        rows = [line.split() for line in out.splitlines()]
        for label in ("A", "B", "C"):
            assert any(row and row[0] == label for row in rows), label
        assert "clusters shed" in out
        assert "separation violations: 0" in out

    def test_avionics_scenario_replay(self, capsys):
        code = main(
            ["resilience", "--workload", "avionics", "--scenario", "--seed", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "availability" in out
        assert any(line.split()[:1] == ["A"] for line in out.splitlines())

    def test_same_seed_same_output(self, capsys):
        args = ["resilience", "--workload", "paper", "--trials", "30",
                "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second


class TestObservabilityFlags:
    def test_integrate_writes_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "t.ndjson"
        code = main(["integrate", "--workload", "paper", "--trace", str(trace)])
        assert code == 0
        from repro.obs import load_ndjson, validate_trace

        events = load_ndjson(str(trace))
        assert validate_trace(events) == []
        names = {e["name"] for e in events if e["type"] == "span"}
        assert {"pipeline", "audit", "expand", "condense", "map", "score"} <= names
        decisions = [e for e in events if e["type"] == "decision"]
        assert len(decisions) >= 3
        closing = events[-1]
        assert closing["type"] == "metrics"
        assert closing["decisions"] == len(decisions)
        snap = closing["snapshot"]
        assert snap["format"] == "repro-metrics"
        assert "condense_steps_total" in snap["metrics"]

    def test_workload_flag_replaces_system_file(self, capsys):
        assert main(["integrate", "--workload", "paper"]) == 0
        assert "feasible: True" in capsys.readouterr().out

    def test_trace_summarize_renders_table(self, tmp_path, capsys):
        trace = tmp_path / "t.ndjson"
        assert main(["integrate", "--workload", "paper", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Per-stage timing" in out
        for stage in ("audit", "expand", "condense", "map", "score"):
            assert stage in out
        assert "Decision events" in out

    def test_trace_summarize_tree(self, tmp_path, capsys):
        trace = tmp_path / "t.ndjson"
        assert main(["integrate", "--workload", "paper", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace), "--tree"]) == 0
        lines = capsys.readouterr().out.split("Span tree\n")[1].splitlines()
        assert lines[0].startswith("pipeline")
        assert any(line.startswith("  condense") for line in lines)

    def test_unwritable_trace_path_exits_2(self, capsys):
        code = main(
            [
                "integrate",
                "--workload",
                "paper",
                "--trace",
                "/nonexistent-dir/t.ndjson",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "cannot write trace file" in err

    def test_malformed_trace_summarize_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text("not json\n")
        assert main(["report", str(bad)]) == 2
        assert "malformed NDJSON" in capsys.readouterr().err

    def test_verbose_prints_stage_footer(self, capsys):
        assert main(["integrate", "--workload", "paper", "-v"]) == 0
        out = capsys.readouterr().out
        assert "stages: audit " in out
        assert "condense" in out and "ms" in out

    def test_resilience_verbose_footer_and_trace(self, tmp_path, capsys):
        trace = tmp_path / "r.ndjson"
        code = main(
            [
                "resilience",
                "--workload",
                "paper",
                "--trials",
                "10",
                "--trace",
                str(trace),
                "-v",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stages: audit " in out
        assert "campaign:" in out and "trials/s" in out
        from repro.obs import load_ndjson

        names = {
            e["name"] for e in load_ndjson(str(trace)) if e["type"] == "span"
        }
        assert "resilience.campaign" in names

    def test_no_flags_means_null_recorder(self, capsys):
        from repro.obs import NULL_RECORDER, current
        from repro import cli

        seen = []
        original = cli._cmd_integrate

        def spy(args):
            seen.append(current())
            return original(args)

        try:
            cli._cmd_integrate = spy
            # Re-dispatch through main so the recorder decision runs.
            assert main(["integrate", "--workload", "paper"]) == 0
        finally:
            cli._cmd_integrate = original
        assert seen == [NULL_RECORDER]
