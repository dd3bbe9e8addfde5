"""The supervisor's chaos plans and self-test must pass under pytest too."""

import pytest


class TestSelfTest:
    @pytest.mark.timeout(300)
    def test_selftest_passes(self, tmp_path):
        # The same proofs over isolated subprocess workers: everything
        # crossing the boundary is JSON, chaos plan included.
        from repro.exec import run_shard_chaos_selftest

        result = run_shard_chaos_selftest(str(tmp_path), backend="subprocess")
        assert result.passed, "\n".join(result.describe())
        assert result.failures == []
        labels = " ".join(result.checks)
        assert "re-dispatched" in labels
        assert "heartbeat deadline" in labels
        assert "resumed" in labels


class TestShardChaos:
    def test_json_roundtrip(self):
        from repro.exec import ShardChaos

        plan = ShardChaos(
            kill_shards=frozenset({1, 3}),
            stall_shards=frozenset({0}),
            stall_s=2.5,
            interrupt_after_partials=4,
        )
        assert ShardChaos.from_dict(plan.to_dict()) == plan

    def test_injection_only_on_first_attempt(self, monkeypatch):
        from repro.exec import ShardChaos

        kills, sleeps = [], []
        monkeypatch.setattr("os.kill", lambda pid, sig: kills.append(sig))
        monkeypatch.setattr("time.sleep", lambda s: sleeps.append(s))
        plan = ShardChaos(
            kill_shards=frozenset({0}), stall_shards=frozenset({0}),
            stall_s=9.0,
        )
        plan.maybe_inject(0, attempt=2, block_index=0, total_blocks=2)
        assert kills == [] and sleeps == []
        plan.maybe_inject(0, attempt=1, block_index=0, total_blocks=2)
        assert sleeps == [9.0]
        assert kills == []  # multi-block lease kills at block 1, not 0
        plan.maybe_inject(0, attempt=1, block_index=1, total_blocks=2)
        assert len(kills) == 1

    def test_single_block_lease_killed_at_block_zero(self, monkeypatch):
        from repro.exec import ShardChaos

        kills = []
        monkeypatch.setattr("os.kill", lambda pid, sig: kills.append(sig))
        plan = ShardChaos(kill_shards=frozenset({2}))
        plan.maybe_inject(2, attempt=1, block_index=0, total_blocks=1)
        assert len(kills) == 1


class TestShardSelfTest:
    @pytest.mark.timeout(300)
    def test_shard_selftest_passes_and_leaves_valid_checkpoint(
        self, tmp_path
    ):
        import os
        import subprocess
        import sys

        from repro.exec import run_shard_chaos_selftest

        result = run_shard_chaos_selftest(str(tmp_path))
        assert result.passed, "\n".join(result.describe())
        labels = " ".join(result.checks)
        assert "identical to serial baseline" in labels
        assert "re-dispatched" in labels
        assert "heartbeat deadline" in labels
        # The chaos checkpoint it leaves behind must validate cleanly.
        checkpoint = str(tmp_path / "shard-chaos.ndjson")
        assert os.path.exists(checkpoint)
        proc = subprocess.run(
            [sys.executable, "scripts/check_ndjson.py", checkpoint],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "repro-exec-checkpoint" in proc.stdout
