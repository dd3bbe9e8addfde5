"""BENCH_pipeline.json: schema of the committed file and the generator."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "BENCH_pipeline.json"

REQUIRED_KEYS = {"name", "wall_s", "n_processes", "campaign_trials"}
STAGES = ("audit", "expand", "condense", "map", "score")


def _load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_pipeline", REPO_ROOT / "benchmarks" / "bench_pipeline.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCommittedFile:
    @pytest.fixture
    def entries(self):
        if not BENCH_PATH.exists():
            pytest.skip("BENCH_pipeline.json not generated yet")
        return json.loads(BENCH_PATH.read_text())

    @pytest.fixture
    def scenario_entries(self, entries):
        # Parallel-campaign entries carry serial/pooled walls instead of
        # the per-stage scenario schema.
        return [entry for entry in entries if "stages" in entry]

    def test_has_at_least_two_scenarios(self, entries, scenario_entries):
        assert len(scenario_entries) >= 2
        assert len({entry["name"] for entry in entries}) == len(entries)

    def test_required_keys_present(self, scenario_entries):
        for entry in scenario_entries:
            assert REQUIRED_KEYS <= set(entry), entry["name"]
            assert entry["wall_s"] > 0.0
            if entry["campaign_trials"]:
                assert entry["trials_per_s"] > 0.0
            assert entry["n_processes"] >= 1

    def test_nonzero_stage_timings(self, scenario_entries):
        for entry in scenario_entries:
            assert sum(entry["stages"].values()) > 0.0, entry["name"]
            assert set(entry["stages"]) == set(STAGES)

    def test_parallel_entry_keeps_determinism_contract(self, entries):
        parallel = [entry for entry in entries if "serial_wall_s" in entry]
        for entry in parallel:
            assert entry["identical"] is True, entry["name"]


class TestGenerator:
    def test_bench_scenario_entry_schema(self):
        bench = _load_bench_module()
        from repro.allocation.hw_model import fully_connected
        from repro.core.framework import Heuristic
        from repro.workloads import HW_NODE_COUNT, paper_system

        entry = bench.bench_scenario(
            "paper-8", paper_system(), fully_connected(HW_NODE_COUNT),
            Heuristic.H1, trials=20,
        )
        assert REQUIRED_KEYS <= set(entry)
        assert entry["trials_per_s"] > 0.0
        assert entry["n_processes"] == 8
        assert entry["feasible"] is True
        assert entry["stages"]["condense"] > 0.0
        json.dumps(entry)  # must be JSON-serialisable

    def test_bench_scenario_without_campaign(self):
        bench = _load_bench_module()
        from repro.allocation.hw_model import fully_connected
        from repro.core.framework import Heuristic
        from repro.workloads import HW_NODE_COUNT, paper_system

        entry = bench.bench_scenario(
            "paper-8", paper_system(), fully_connected(HW_NODE_COUNT),
            Heuristic.H1, trials=0,
        )
        assert REQUIRED_KEYS <= set(entry)
        assert entry["campaign_trials"] == 0
        assert "trials_per_s" not in entry
        assert entry["stages"]["condense"] > 0.0
