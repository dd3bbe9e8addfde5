"""Acceptance: campaigns through the runner are bit-identical however run.

A resilience campaign run with ``workers=4``, killed mid-run and
resumed, must produce a result bit-identical (modulo wall-clock fields,
which are excluded from dataclass equality) to the same campaign run
in-process without interruption — and so must every checkpoint the
batch pool of earlier releases wrote.
"""

import dataclasses
import multiprocessing
import os
import signal
import time

import pytest

from repro import IntegrationFramework, fully_connected, paper_system
from repro.errors import CampaignInterrupted
from repro.exec import (
    CheckpointWriter,
    ExecPolicy,
    ShardChaos,
    build_task,
    campaign_fingerprint,
    truncate_file,
)
from repro.faultsim.campaign import campaign_task_spec, run_campaign
from repro.resilience.campaign import run_resilience_campaign
from repro.workloads import paper_influence_graph


def paper_outcome():
    return IntegrationFramework(paper_system()).integrate(fully_connected(6))


def paper_campaign():
    graph = paper_influence_graph()
    return graph, [[name] for name in graph.fcm_names()]


def assert_field_for_field(a, b):
    """Bit-identical on every comparable field (incl. float bit patterns)."""
    for f in dataclasses.fields(a):
        if not f.compare:
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        assert va == vb, f"field {f.name}: {va!r} != {vb!r}"
        if isinstance(va, float):
            assert va.hex() == vb.hex(), f"field {f.name} differs in bits"


def write_scalar_checkpoint(path, graph, partition, trials, seed, ranges):
    """A checkpoint of scalar faultsim ranges, written record by record
    the way any earlier supervisor wrote one."""
    names = graph.fcm_names()
    fingerprint = campaign_fingerprint(
        "faultsim", seed, trials,
        {"fcms": sorted(names), "clusters": len(partition), "engine": "scalar"},
    )
    task = build_task(campaign_task_spec(graph, partition, "scalar"))
    writer = CheckpointWriter(path, fingerprint, trials, seed, fresh=True)
    for start, size in ranges:
        writer.record(start, size, task(start, size, seed))
    writer.close()


class TestFaultsimDeterminism:
    @pytest.mark.timeout(120)
    def test_workers_and_batch_size_do_not_change_result(self):
        graph, partition = paper_campaign()
        for engine in ("vector", "scalar"):
            serial = run_campaign(
                graph, partition, trials=600, seed=3, engine=engine
            )
            pooled = run_campaign(
                graph, partition, trials=600, seed=3, engine=engine,
                policy=ExecPolicy(workers=2),
            )
            one_shard = run_campaign(
                graph, partition, trials=600, seed=3, engine=engine,
                policy=ExecPolicy(workers=2), shards=1, backend="local",
            )
            assert_field_for_field(serial, pooled)
            assert_field_for_field(serial, one_shard)

    def test_interrupt_and_resume_identical(self, tmp_path):
        graph, partition = paper_campaign()
        baseline = run_campaign(
            graph, partition, trials=150, seed=9, engine="scalar"
        )
        path = str(tmp_path / "faultsim.ndjson")
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                graph, partition, trials=150, seed=9, engine="scalar",
                checkpoint=path,
                chaos=ShardChaos(interrupt_after_partials=2),
            )
        resumed = run_campaign(
            graph, partition, trials=150, seed=9, engine="scalar",
            resume=path,
        )
        assert_field_for_field(baseline, resumed)
        assert resumed.exec_report.partials_from_checkpoint == 2


class TestResilienceAcceptance:
    @pytest.mark.timeout(120)
    def test_workers4_interrupted_resumed_equals_serial(self, tmp_path):
        outcome = paper_outcome()
        baseline = run_resilience_campaign(
            outcome, failures=2, trials=160, seed=17
        )
        path = str(tmp_path / "resilience.ndjson")
        policy = ExecPolicy(workers=4)
        with pytest.raises(CampaignInterrupted):
            run_resilience_campaign(
                outcome, failures=2, trials=160, seed=17,
                policy=policy, checkpoint=path,
                chaos=ShardChaos(interrupt_after_partials=3),
            )
        # Tear the trailing checkpoint line, as a crash mid-write would.
        truncate_file(path, 7)
        resumed = run_resilience_campaign(
            outcome, failures=2, trials=160, seed=17,
            policy=policy, resume=path,
        )
        assert_field_for_field(baseline, resumed)
        report = resumed.exec_report
        assert report.corrupt_checkpoint_lines == 1
        assert report.partials_from_checkpoint == 2
        assert report.manifest_path is not None

    @pytest.mark.timeout(120)
    def test_sigkilled_process_resumes_identically(self, tmp_path):
        """A real SIGKILL of a pooled campaign process, then resume."""
        outcome = paper_outcome()
        baseline = run_resilience_campaign(
            outcome, failures=2, trials=300, seed=17
        )
        path = str(tmp_path / "killed.ndjson")
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_checkpointed_campaign, args=(path,))
        child.start()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and child.is_alive():
            if _batch_lines(path) >= 3:
                break
            time.sleep(0.005)
        if child.is_alive():
            # The child leads its own session (setsid), so this takes its
            # worker slots down with it — nothing survives the crash.
            os.killpg(child.pid, signal.SIGKILL)
        child.join(30)
        resumed = run_resilience_campaign(
            outcome, failures=2, trials=300, seed=17,
            policy=ExecPolicy(workers=4), resume=path,
        )
        assert_field_for_field(baseline, resumed)
        assert resumed.exec_report.partials_from_checkpoint >= 2


class TestResumeWorkerInvariance:
    """A checkpoint written under one worker count resumes under any."""

    def _interrupted_checkpoint(self, path: str, workers: int) -> None:
        graph, partition = paper_campaign()
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                graph, partition, trials=80, seed=13, engine="scalar",
                policy=ExecPolicy(workers=workers),
                checkpoint=path,
                chaos=ShardChaos(interrupt_after_partials=2),
            )

    @pytest.mark.timeout(120)
    def test_serial_checkpoint_resumed_by_pool(self, tmp_path):
        graph, partition = paper_campaign()
        baseline = run_campaign(
            graph, partition, trials=80, seed=13, engine="scalar"
        )
        path = str(tmp_path / "serial-to-pool.ndjson")
        self._interrupted_checkpoint(path, workers=0)
        resumed = run_campaign(
            graph, partition, trials=80, seed=13, engine="scalar",
            policy=ExecPolicy(workers=4), resume=path,
        )
        assert_field_for_field(baseline, resumed)
        assert resumed.exec_report.partials_from_checkpoint == 2
        assert resumed.exec_report.partials == 1

    @pytest.mark.timeout(120)
    def test_pool_checkpoint_resumed_serially(self, tmp_path):
        graph, partition = paper_campaign()
        baseline = run_campaign(
            graph, partition, trials=80, seed=13, engine="scalar"
        )
        path = str(tmp_path / "pool-to-serial.ndjson")
        self._interrupted_checkpoint(path, workers=4)
        resumed = run_campaign(
            graph, partition, trials=80, seed=13, engine="scalar",
            policy=ExecPolicy(workers=0), resume=path,
        )
        assert_field_for_field(baseline, resumed)
        assert resumed.exec_report.partials_from_checkpoint >= 1

    @pytest.mark.timeout(120)
    def test_resume_with_different_batch_size_has_no_dead_ends(
        self, tmp_path
    ):
        # Entries of several sizes cover the first 32-trial block; the
        # (0, 20) entry is a dead end for a greedy walk, so reusing the
        # block needs the all-decomposition chain search.
        graph, partition = paper_campaign()
        baseline = run_campaign(
            graph, partition, trials=80, seed=13, engine="scalar"
        )
        for workers in (0, 2):
            path = str(tmp_path / f"rebatched-{workers}.ndjson")
            write_scalar_checkpoint(
                path, graph, partition, 80, 13, [(0, 20), (0, 16), (16, 16)]
            )
            resumed = run_campaign(
                graph, partition, trials=80, seed=13, engine="scalar",
                policy=ExecPolicy(workers=workers), resume=path,
            )
            assert_field_for_field(baseline, resumed)
            assert resumed.exec_report.partials == 2  # blocks 2 and 3 only


class TestLegacyCheckpoints:
    """Checkpoints the batch pool of earlier releases wrote still resume.

    Its entries came in any batch size: 9-trial batches, calibrated
    batches straddling block boundaries, and 256-trial lease partials
    on the scalar engine.  Entries that tile a block are reused; the
    rest are recomputed, and the result never changes.
    """

    RANGES = (
        [(start, 9) for start in range(0, 90, 9)]  # [0, 90) in 9s
        + [(96, 16), (112, 16)]  # tiles the block [96, 128)
        + [(150, 40)]  # straddles the 160 boundary
        + [(256, 256)]  # a scalar lease partial at the old block size
    )

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("workers", [0, 2])
    def test_parent_checkpoint_resumes_identically(self, tmp_path, workers):
        graph, partition = paper_campaign()
        baseline = run_campaign(
            graph, partition, trials=600, seed=4, engine="scalar"
        )
        path = str(tmp_path / "legacy.ndjson")
        write_scalar_checkpoint(path, graph, partition, 600, 4, self.RANGES)
        resumed = run_campaign(
            graph, partition, trials=600, seed=4, engine="scalar",
            policy=ExecPolicy(workers=workers), resume=path,
        )
        assert_field_for_field(baseline, resumed)
        report = resumed.exec_report
        assert report.partials_from_checkpoint == len(self.RANGES)
        # 19 blocks of 32; only [96, 128) is reused.
        assert report.partials == 18
        with open(path + ".manifest", encoding="utf-8") as handle:
            assert '"complete": true' in handle.read()


class TestShardedCampaigns:
    """The shard supervisor reproduces serial campaigns bit-for-bit."""

    @pytest.mark.timeout(120)
    def test_sharded_local_identical_to_serial(self):
        graph, partition = paper_campaign()
        serial = run_campaign(graph, partition, trials=600, seed=21)
        sharded = run_campaign(
            graph, partition, trials=600, seed=21,
            policy=ExecPolicy(workers=2), shards=2, backend="local",
        )
        assert_field_for_field(serial, sharded)
        assert sharded.exec_report.backend == "local"
        assert sharded.exec_report.shards == 2

    @pytest.mark.timeout(120)
    def test_shard_checkpoint_resumes_under_batch_runner(self, tmp_path):
        """Checkpoints are interchangeable between sharded and in-process
        runs."""
        graph, partition = paper_campaign()
        baseline = run_campaign(graph, partition, trials=600, seed=21)
        path = str(tmp_path / "shard-to-batch.ndjson")
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                graph, partition, trials=600, seed=21,
                policy=ExecPolicy(workers=2), shards=2, backend="local",
                checkpoint=path,
                chaos=ShardChaos(interrupt_after_partials=1),
            )
        resumed = run_campaign(
            graph, partition, trials=600, seed=21, resume=path,
        )
        assert_field_for_field(baseline, resumed)
        assert resumed.exec_report.partials_from_checkpoint >= 1
        assert resumed.exec_report.partials == 2

    @pytest.mark.timeout(120)
    def test_batch_checkpoint_resumes_under_shard_supervisor(
        self, tmp_path
    ):
        graph, partition = paper_campaign()
        baseline = run_campaign(graph, partition, trials=600, seed=21)
        path = str(tmp_path / "batch-to-shard.ndjson")
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                graph, partition, trials=600, seed=21,
                policy=ExecPolicy(workers=0),
                checkpoint=path,
                chaos=ShardChaos(interrupt_after_partials=2),
            )
        resumed = run_campaign(
            graph, partition, trials=600, seed=21,
            policy=ExecPolicy(workers=2), shards=2, backend="local",
            resume=path,
        )
        assert_field_for_field(baseline, resumed)
        assert resumed.exec_report.partials_from_checkpoint == 2


def _checkpointed_campaign(path: str) -> None:
    os.setsid()  # own process group, so killpg cannot touch the test runner
    run_resilience_campaign(
        paper_outcome(), failures=2, trials=300, seed=17,
        policy=ExecPolicy(workers=4), checkpoint=path,
    )


def _batch_lines(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as handle:
            return sum(1 for line in handle if '"type": "batch"' in line)
    except OSError:
        return 0
