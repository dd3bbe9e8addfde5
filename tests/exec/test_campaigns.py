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
    load_checkpoint,
    truncate_file,
)
from repro.faultsim.campaign import run_campaign
from repro.obs import Recorder, use
from repro.obs.profile import Profiler
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


def write_resilience_checkpoint(path, trials, seed, ranges):
    """A resilience checkpoint of ``ranges``, written record by record
    the way any earlier supervisor wrote one.

    Each entry's payload is the per-trial records of its trials, taken
    from a complete serial run; that run's report is returned.
    """
    full = path + ".full"
    report = run_resilience_campaign(
        paper_outcome(), failures=2, trials=trials, seed=seed,
        checkpoint=full,
    )
    data = load_checkpoint(full)
    records = [
        record
        for _, payload in sorted(data.entries.items())
        for record in payload["records"]
    ]
    writer = CheckpointWriter(path, data.fingerprint, trials, seed, fresh=True)
    for start, size in ranges:
        writer.record(start, size, {"records": records[start:start + size]})
    writer.close()
    return report


class TestFaultsimDeterminism:
    @pytest.mark.timeout(120)
    def test_workers_and_batch_size_do_not_change_result(self):
        graph, partition = paper_campaign()
        serial = run_campaign(graph, partition, trials=600, seed=3)
        pooled = run_campaign(
            graph, partition, trials=600, seed=3,
            policy=ExecPolicy(workers=2),
        )
        one_shard = run_campaign(
            graph, partition, trials=600, seed=3,
            policy=ExecPolicy(workers=2), shards=1, backend="local",
        )
        assert_field_for_field(serial, pooled)
        assert_field_for_field(serial, one_shard)

    def test_interrupt_and_resume_identical(self, tmp_path):
        # 600 trials are the kernel's 256-trial blocks [0, 256),
        # [256, 512) and [512, 600).
        graph, partition = paper_campaign()
        baseline = run_campaign(graph, partition, trials=600, seed=9)
        path = str(tmp_path / "faultsim.ndjson")
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                graph, partition, trials=600, seed=9, checkpoint=path,
                chaos=ShardChaos(interrupt_after_partials=2),
            )
        resumed = run_campaign(
            graph, partition, trials=600, seed=9, resume=path,
        )
        assert_field_for_field(baseline, resumed)
        assert resumed.exec_report.partials_from_checkpoint == 2


class TestResilienceAcceptance:
    def test_interrupt_and_resume_identical(self, tmp_path):
        # 150 trials are the 32-trial blocks [0, 32), ..., [128, 150).
        outcome = paper_outcome()
        baseline = run_resilience_campaign(
            outcome, failures=2, trials=150, seed=9
        )
        path = str(tmp_path / "resilience.ndjson")
        with pytest.raises(CampaignInterrupted):
            run_resilience_campaign(
                outcome, failures=2, trials=150, seed=9, checkpoint=path,
                chaos=ShardChaos(interrupt_after_partials=2),
            )
        resumed = run_resilience_campaign(
            outcome, failures=2, trials=150, seed=9, resume=path,
        )
        assert_field_for_field(baseline, resumed)
        assert resumed.exec_report.partials_from_checkpoint == 2

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
    """A checkpoint written under one worker count resumes under any.

    These run resilience campaigns, whose 32-trial blocks of per-trial
    seeds give 80 trials three blocks and let entries of any size tile
    a block.
    """

    def _interrupted_checkpoint(self, path: str, workers: int) -> None:
        with pytest.raises(CampaignInterrupted):
            run_resilience_campaign(
                paper_outcome(), failures=2, trials=80, seed=13,
                policy=ExecPolicy(workers=workers),
                checkpoint=path,
                chaos=ShardChaos(interrupt_after_partials=2),
            )

    @pytest.mark.timeout(120)
    def test_serial_checkpoint_resumed_by_pool(self, tmp_path):
        outcome = paper_outcome()
        baseline = run_resilience_campaign(
            outcome, failures=2, trials=80, seed=13
        )
        path = str(tmp_path / "serial-to-pool.ndjson")
        self._interrupted_checkpoint(path, workers=0)
        resumed = run_resilience_campaign(
            outcome, failures=2, trials=80, seed=13,
            policy=ExecPolicy(workers=4), resume=path,
        )
        assert_field_for_field(baseline, resumed)
        assert resumed.exec_report.partials_from_checkpoint == 2
        assert resumed.exec_report.partials == 1

    @pytest.mark.timeout(120)
    def test_pool_checkpoint_resumed_serially(self, tmp_path):
        outcome = paper_outcome()
        baseline = run_resilience_campaign(
            outcome, failures=2, trials=80, seed=13
        )
        path = str(tmp_path / "pool-to-serial.ndjson")
        self._interrupted_checkpoint(path, workers=4)
        resumed = run_resilience_campaign(
            outcome, failures=2, trials=80, seed=13,
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
        for workers in (0, 2):
            path = str(tmp_path / f"rebatched-{workers}.ndjson")
            baseline = write_resilience_checkpoint(
                path, 80, 13, [(0, 20), (0, 16), (16, 16)]
            )
            resumed = run_resilience_campaign(
                paper_outcome(), failures=2, trials=80, seed=13,
                policy=ExecPolicy(workers=workers), resume=path,
            )
            assert_field_for_field(baseline, resumed)
            assert resumed.exec_report.partials == 2  # blocks 2 and 3 only


class TestLegacyCheckpoints:
    """Checkpoints the batch pool of earlier releases wrote still resume.

    Its entries came in any batch size: 9-trial batches, calibrated
    batches straddling block boundaries, and large calibrated batches.
    Entries that tile a block are reused; the rest are recomputed, and
    the result never changes.
    """

    RANGES = (
        [(start, 9) for start in range(0, 90, 9)]  # [0, 90) in 9s
        + [(96, 16), (112, 16)]  # tiles the block [96, 128)
        + [(150, 40)]  # straddles the 160 boundary
        + [(256, 256)]  # one large calibrated batch
    )

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("workers", [0, 2])
    def test_parent_checkpoint_resumes_identically(self, tmp_path, workers):
        path = str(tmp_path / "legacy.ndjson")
        baseline = write_resilience_checkpoint(path, 600, 4, self.RANGES)
        resumed = run_resilience_campaign(
            paper_outcome(), failures=2, trials=600, seed=4,
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
    def test_sharded_tcp_identical_to_serial(self):
        graph, partition = paper_campaign()
        serial = run_campaign(graph, partition, trials=600, seed=21)
        sharded = run_campaign(
            graph, partition, trials=600, seed=21,
            policy=ExecPolicy(workers=2), shards=2, backend="tcp",
        )
        assert_field_for_field(serial, sharded)
        assert sharded.exec_report.backend == "tcp"
        assert sharded.exec_report.shards == 2

    @pytest.mark.timeout(120)
    def test_traced_shards_identical_to_serial(self):
        """Telemetry is result-transparent: worker spans cross the
        merge, and no campaign number moves."""
        graph, partition = paper_campaign()
        serial = run_campaign(graph, partition, trials=600, seed=21)
        with use(Recorder()):
            traced = run_campaign(
                graph, partition, trials=600, seed=21,
                policy=ExecPolicy(workers=2), shards=2, backend="local",
            )
        assert_field_for_field(serial, traced)
        assert traced.exec_report.worker_spans > 0

    def test_profiled_resilience_identical_to_serial(self):
        """Profiling is result-transparent too."""
        outcome = paper_outcome()
        serial = run_resilience_campaign(outcome, failures=2, trials=600, seed=5)
        rec = Recorder()
        with use(rec), Profiler(rec, hz=997):
            profiled = run_resilience_campaign(
                outcome, failures=2, trials=600, seed=5
            )
        assert_field_for_field(serial, profiled)
        samples = sum(
            event["samples"]
            for event in rec.events()
            if event.get("type") == "profile" and event.get("kind") == "stacks"
        )
        assert samples >= 1

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
