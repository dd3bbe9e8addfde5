"""System-level fault-injection campaigns."""

from functools import reduce

import pytest

from repro.errors import CheckpointError, SimulationError
from repro.exec import (
    CheckpointWriter,
    build_task,
    campaign_fingerprint,
    load_checkpoint,
)
from repro.faultsim import compare_partitions, run_campaign
from repro.faultsim.campaign import _combine, campaign_task_spec
from repro.influence import InfluenceGraph

from tests.conftest import make_process


def coupled_graph() -> InfluenceGraph:
    g = InfluenceGraph()
    for name in ("a", "b", "c", "d"):
        g.add_fcm(make_process(name))
    g.set_influence("a", "b", 0.9)
    g.set_influence("b", "a", 0.9)
    g.set_influence("c", "d", 0.9)
    g.set_influence("d", "c", 0.9)
    g.set_influence("a", "c", 0.05)
    return g


GOOD = [["a", "b"], ["c", "d"]]  # strong pairs together
BAD = [["a", "c"], ["b", "d"]]  # strong pairs split


class TestRunCampaign:
    def test_zero_influence_never_escapes(self):
        g = InfluenceGraph()
        for name in ("x", "y"):
            g.add_fcm(make_process(name))
        result = run_campaign(g, [["x"], ["y"]], trials=200, seed=0)
        assert result.cross_cluster_rate == 0.0
        assert result.mean_affected_fcms == 0.0
        assert result.max_affected_fcms == 0

    def test_good_partition_contains_better(self):
        g = coupled_graph()
        good = run_campaign(g, GOOD, trials=2000, seed=1)
        bad = run_campaign(g, BAD, trials=2000, seed=1)
        assert good.mean_affected_clusters < bad.mean_affected_clusters
        assert good.cross_cluster_rate < bad.cross_cluster_rate

    def test_mean_fcms_independent_of_partition(self):
        # Propagation runs on the FCM graph; the partition only changes
        # the cross-cluster accounting.
        g = coupled_graph()
        good = run_campaign(g, GOOD, trials=500, seed=2)
        bad = run_campaign(g, BAD, trials=500, seed=2)
        assert good.mean_affected_fcms == pytest.approx(bad.mean_affected_fcms)

    def test_partition_must_cover(self):
        g = coupled_graph()
        with pytest.raises(SimulationError, match="misses"):
            run_campaign(g, [["a", "b"]], trials=10)

    def test_duplicate_member_rejected(self):
        g = coupled_graph()
        with pytest.raises(SimulationError, match="two blocks"):
            run_campaign(g, [["a", "b"], ["b", "c", "d"]], trials=10)

    def test_trials_validated(self):
        with pytest.raises(SimulationError):
            run_campaign(coupled_graph(), GOOD, trials=0)

    def test_unknown_member_rejected(self):
        g = coupled_graph()
        with pytest.raises(SimulationError, match="unknown"):
            run_campaign(g, [["a", "b"], ["c", "d", "ghost"]], trials=10)

    def test_same_seed_identical_results(self):
        g = coupled_graph()
        a = run_campaign(g, GOOD, trials=500, seed=11)
        b = run_campaign(g, GOOD, trials=500, seed=11)
        assert a == b


class TestEngines:
    """The kernel is the only engine; specs and checkpoints naming
    another are refused instead of mixed into its stream."""

    def test_unknown_engine_rejected(self):
        # A --listen worker can be dialled by a supervisor of an older
        # release that asks for the retired per-trial engine.
        for engine in ("scalar", "turbo"):
            spec = campaign_task_spec(coupled_graph(), GOOD)
            spec["params"]["engine"] = engine
            with pytest.raises(SimulationError, match="engine"):
                build_task(spec)

    def test_vector_result_invariant_under_exec_plan(self):
        # The kernel simulates covering RNG blocks whole, so any split of
        # the trial range — aligned to its blocks or not — must merge
        # back to the same per-trial outcomes.
        g = coupled_graph()
        task = build_task(campaign_task_spec(g, GOOD))
        whole = task(0, 700, 9)
        for size in (33, 256, 700):
            pieces = [
                task(start, min(size, 700 - start), 9)
                for start in range(0, 700, size)
            ]
            assert reduce(_combine, pieces) == whole
        reference = run_campaign(g, GOOD, trials=700, seed=9)
        assert reference.mean_affected_fcms == sum(whole["affected"]) / 700
        assert reference.max_affected_fcms == max(whole["affected"])

    def test_resume_refuses_the_other_engine(self, tmp_path):
        # The retired per-trial engine fingerprinted its checkpoints as
        # "scalar": resuming one would mix two different deterministic
        # streams in one result.
        g = coupled_graph()
        path = str(tmp_path / "campaign.ndjson")
        fingerprint = campaign_fingerprint(
            "faultsim", 4, 200,
            {"fcms": sorted(g.fcm_names()), "clusters": 2, "engine": "scalar"},
        )
        CheckpointWriter(path, fingerprint, 200, 4, fresh=True).close()
        with pytest.raises(CheckpointError, match="different campaign"):
            run_campaign(g, GOOD, trials=200, seed=4, resume=path)

    def test_default_fingerprint_unchanged(self, tmp_path):
        # Checkpoints written before the engine switch was removed name
        # the kernel's stream "vector"; they must keep resuming.
        g = coupled_graph()
        path = str(tmp_path / "campaign.ndjson")
        run_campaign(g, GOOD, trials=200, seed=4, checkpoint=path)
        expected = campaign_fingerprint(
            "faultsim", 4, 200,
            {"fcms": ["a", "b", "c", "d"], "clusters": 2, "engine": "vector"},
        )
        assert load_checkpoint(path).fingerprint == expected


class TestComparePartitions:
    def test_same_seed_fair_comparison(self):
        g = coupled_graph()
        results = compare_partitions(
            g, {"good": GOOD, "bad": BAD}, trials=500, seed=3
        )
        assert set(results) == {"good", "bad"}
        assert (
            results["good"].mean_affected_fcms
            == results["bad"].mean_affected_fcms
        )
