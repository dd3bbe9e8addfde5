"""The supervised runner: in-process blocks, pooled leases, resume."""

import os
import signal

import pytest

from repro.errors import CampaignInterrupted, CheckpointError, ExecutionError
from repro.exec import (
    ExecPolicy,
    ShardChaos,
    derive_seed,
    run_supervised,
    truncate_file,
)
from repro.obs import Recorder, use


def trial_values(start, size, seed):
    """A deterministic per-trial payload, one value per trial."""
    return {
        "values": [derive_seed(seed, t) % 997 for t in range(start, start + size)]
    }


def combine(a, b):
    return {"values": a["values"] + b["values"]}


def flatten(payloads):
    return [v for p in payloads for v in p["values"]]


def expected(trials, seed):
    return [derive_seed(seed, t) % 997 for t in range(trials)]


def dies_outside(supervisor_pid):
    """A task that SIGKILLs its process unless it runs in the supervisor."""

    def task(start, size, seed):
        if os.getpid() != supervisor_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return trial_values(start, size, seed)

    return task


def exec_actions(recorder):
    return {d.action for d in recorder.decisions if d.category == "exec"}


class TestSerial:
    def test_result_and_report(self):
        payloads, report = run_supervised(
            trial_values, trials=23, seed=5, kind="unit",
            combine=combine, block=7,
        )
        assert flatten(payloads) == expected(23, 5)
        assert len(payloads) == report.partials == 4
        assert report.partials_from_checkpoint == 0
        assert report.backend == "inline"
        assert report.leases_granted == report.redispatches == 0

    def test_batch_size_does_not_change_result(self):
        results = [
            flatten(
                run_supervised(
                    trial_values, trials=30, seed=9, kind="unit",
                    combine=combine, block=block,
                )[0]
            )
            for block in (1, 7, 30)
        ]
        assert results[0] == results[1] == results[2] == expected(30, 9)

    def test_inline_run_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("the in-process path forked")

        monkeypatch.setattr(os, "fork", no_fork)
        for workers in (0, 1):
            payloads, report = run_supervised(
                trial_values, trials=40, seed=3, kind="unit",
                policy=ExecPolicy(workers=workers), combine=combine, block=8,
            )
            assert flatten(payloads) == expected(40, 3)
            assert report.workers == workers


class TestPool:
    @pytest.mark.timeout(60)
    def test_pool_identical_to_serial(self):
        serial, _ = run_supervised(
            trial_values, trials=40, seed=3, kind="unit",
            combine=combine, block=5,
        )
        pooled, report = run_supervised(
            trial_values, trials=40, seed=3, kind="unit",
            policy=ExecPolicy(workers=4), combine=combine, block=5,
        )
        assert flatten(pooled) == flatten(serial)
        assert report.workers == 4
        assert report.backend == "local"
        assert report.shards == report.leases_granted == 8  # one per block

    @pytest.mark.timeout(60)
    def test_transient_kill_recovered_by_retry(self):
        recorder = Recorder()
        with use(recorder):
            payloads, report = run_supervised(
                trial_values, trials=24, seed=1, kind="unit",
                policy=ExecPolicy(
                    workers=2, backoff_base=0.01, backoff_max=0.05,
                ),
                combine=combine, block=6,
                chaos=ShardChaos(kill_shards=frozenset({2})),
            )
        assert flatten(payloads) == expected(24, 1)
        assert report.shard_crashes >= 1
        assert report.redispatches >= 1
        assert report.serial_rescue_blocks == 0
        assert {"shard_crash", "redispatch"} <= exec_actions(recorder)

    @pytest.mark.timeout(60)
    def test_persistent_kill_degrades_to_serial(self):
        # Every forked slot dies on its first block: each lease exhausts
        # its attempts and its blocks are rescued in-process.
        recorder = Recorder()
        with use(recorder):
            payloads, report = run_supervised(
                dies_outside(os.getpid()), trials=16, seed=2, kind="unit",
                policy=ExecPolicy(
                    workers=2, max_attempts=2, pool_failure_budget=100,
                    backoff_base=0.01, backoff_max=0.05,
                ),
                combine=combine, block=4,
            )
        assert flatten(payloads) == expected(16, 2)
        assert report.serial_rescue_blocks == 4
        assert report.redispatches >= 1
        assert not report.backend_abandoned
        actions = exec_actions(recorder)
        assert "serial_fallback" in actions
        assert "backend_abandoned" not in actions

    @pytest.mark.timeout(60)
    def test_slow_batch_times_out_and_still_completes(self):
        recorder = Recorder()
        with use(recorder):
            payloads, report = run_supervised(
                trial_values, trials=12, seed=4, kind="unit",
                policy=ExecPolicy(
                    workers=2, heartbeat_timeout=0.3,
                    backoff_base=0.01, backoff_max=0.05,
                ),
                combine=combine, block=4,
                chaos=ShardChaos(stall_shards=frozenset({1}), stall_s=30.0),
            )
        assert flatten(payloads) == expected(12, 4)
        assert report.lease_expiries >= 1
        assert "lease_expired" in exec_actions(recorder)

    @pytest.mark.timeout(60)
    def test_pool_abandoned_when_budget_exhausted(self):
        recorder = Recorder()
        with use(recorder):
            payloads, report = run_supervised(
                dies_outside(os.getpid()), trials=16, seed=6, kind="unit",
                policy=ExecPolicy(
                    workers=2, pool_failure_budget=1,
                    backoff_base=0.01, backoff_max=0.05,
                ),
                combine=combine, block=4,
            )
        assert flatten(payloads) == expected(16, 6)
        assert report.backend_abandoned
        assert "backend_abandoned" in exec_actions(recorder)

    @pytest.mark.timeout(60)
    def test_always_raising_task_surfaces_execution_error(self):
        def explode(start, size, seed):
            raise ValueError("boom")

        with pytest.raises(ExecutionError, match="serial rescue"):
            run_supervised(
                explode, trials=4, seed=0, kind="unit",
                policy=ExecPolicy(
                    workers=2, max_attempts=1,
                    backoff_base=0.01, backoff_max=0.05,
                ),
                combine=combine, block=2,
            )


class TestCheckpointResume:
    def test_interrupt_then_resume_is_identical(self, tmp_path):
        baseline, _ = run_supervised(
            trial_values, trials=30, seed=11, kind="unit",
            combine=combine, block=5,
        )
        path = str(tmp_path / "run.ndjson")
        with pytest.raises(CampaignInterrupted):
            run_supervised(
                trial_values, trials=30, seed=11, kind="unit",
                combine=combine, block=5, checkpoint=path,
                chaos=ShardChaos(interrupt_after_partials=3),
            )
        resumed, report = run_supervised(
            trial_values, trials=30, seed=11, kind="unit",
            combine=combine, block=5, resume=path,
        )
        assert flatten(resumed) == flatten(baseline)
        assert report.partials_from_checkpoint == 3
        assert report.partials == 3
        assert report.manifest_path is not None

    def test_corrupt_trailing_line_recomputed(self, tmp_path):
        recorder = Recorder()
        path = str(tmp_path / "run.ndjson")
        with pytest.raises(CampaignInterrupted):
            run_supervised(
                trial_values, trials=30, seed=11, kind="unit",
                combine=combine, block=5, checkpoint=path,
                chaos=ShardChaos(interrupt_after_partials=3),
            )
        truncate_file(path, 10)
        with use(recorder):
            resumed, report = run_supervised(
                trial_values, trials=30, seed=11, kind="unit",
                combine=combine, block=5, resume=path,
            )
        assert flatten(resumed) == expected(30, 11)
        assert report.corrupt_checkpoint_lines == 1
        assert report.partials_from_checkpoint == 2
        actions = exec_actions(recorder)
        assert "checkpoint_corrupt" in actions
        assert "resume" in actions

    def test_resume_with_different_batch_size_combines_entries(self, tmp_path):
        path = str(tmp_path / "run.ndjson")
        with pytest.raises(CampaignInterrupted):
            run_supervised(
                trial_values, trials=30, seed=11, kind="unit",
                combine=combine, block=3, checkpoint=path,
                chaos=ShardChaos(interrupt_after_partials=4),
            )
        resumed, report = run_supervised(
            trial_values, trials=30, seed=11, kind="unit",
            combine=combine, block=6, resume=path,
        )
        assert flatten(resumed) == expected(30, 11)
        assert report.partials_from_checkpoint == 4
        assert report.partials == 3  # four 3-wide entries -> two 6-wide blocks

    def test_foreign_checkpoint_refused(self, tmp_path):
        path = str(tmp_path / "run.ndjson")
        run_supervised(
            trial_values, trials=10, seed=0, kind="unit",
            combine=combine, block=5, checkpoint=path,
        )
        with pytest.raises(CheckpointError, match="different campaign"):
            run_supervised(
                trial_values, trials=10, seed=999, kind="unit",
                combine=combine, block=5, resume=path,
            )

    def test_missing_resume_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "never-written.ndjson")
        payloads, report = run_supervised(
            trial_values, trials=10, seed=0, kind="unit",
            combine=combine, block=5, resume=path,
        )
        assert flatten(payloads) == expected(10, 0)
        assert report.partials_from_checkpoint == 0
        assert report.checkpoint_path == path

    def test_fresh_checkpoint_discards_stale_campaign(self, tmp_path):
        # Reusing a checkpoint path (without --resume) for a *different*
        # campaign must truncate: otherwise the old campaign's blocks
        # survive alongside the new meta line and a later resume merges
        # payloads computed under the wrong seed.
        path = str(tmp_path / "run.ndjson")
        run_supervised(
            trial_values, trials=30, seed=0, kind="unit",
            combine=combine, block=5, checkpoint=path,
        )
        with pytest.raises(CampaignInterrupted):
            run_supervised(
                trial_values, trials=30, seed=999, kind="unit",
                combine=combine, block=5, checkpoint=path,
                chaos=ShardChaos(interrupt_after_partials=1),
            )
        resumed, report = run_supervised(
            trial_values, trials=30, seed=999, kind="unit",
            combine=combine, block=5, resume=path,
        )
        assert flatten(resumed) == expected(30, 999)
        assert report.partials_from_checkpoint == 1
        assert report.corrupt_checkpoint_lines == 0


class TestAssembly:
    def test_overlapping_decompositions_do_not_dead_end(self):
        from repro.exec.batching import Batch
        from repro.exec.runner import _assemble, _covered

        # Insertion order puts the dead-end range first: a greedy walk
        # over [0,4) would take (0,3) and strand itself at position 3.
        done = {
            (0, 3): {"values": [10, 11, 12]},
            (0, 2): {"values": [10, 11]},
            (2, 2): {"values": [12, 13]},
        }
        batch = Batch(0, 4)
        assert _covered(batch, done, combine)
        assert _assemble(batch, done, combine) == {"values": [10, 11, 12, 13]}

    def test_unassemblable_batch_raises_execution_error(self):
        from repro.exec.batching import Batch
        from repro.exec.runner import _assemble, _covered

        done = {(0, 3): {"values": [10, 11, 12]}}
        batch = Batch(0, 4)
        assert not _covered(batch, done, combine)
        with pytest.raises(ExecutionError, match="cannot assemble"):
            _assemble(batch, done, combine)
