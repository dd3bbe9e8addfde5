"""The subprocess shard transport and its worker protocol."""

import io
import json

import pytest

from repro.errors import ExecutionError
from repro.exec import ExecPolicy, run_sharded
from repro.exec.backend import combine_selftest, selftest_spec, selftest_task
from repro.exec.transport import SubprocessBackend, shard_worker_main


def worker_session(lines: list[dict]) -> tuple[int, list[dict]]:
    """Drive shard_worker_main over in-memory pipes; (exit code, output)."""
    stdin = io.StringIO(
        "".join(json.dumps(line) + "\n" for line in lines)
    )
    stdout = io.StringIO()
    code = shard_worker_main(stdin=stdin, stdout=stdout)
    out = [
        json.loads(line)
        for line in stdout.getvalue().splitlines()
        if line.strip()
    ]
    return code, out


class TestShardWorkerProtocol:
    def test_hello_lease_shutdown_roundtrip(self):
        spec = selftest_spec(modulus=31)
        code, out = worker_session([
            {"type": "hello", "spec": spec, "seed": 7, "chaos": None,
             "block": 256},
            {"type": "lease", "id": 0, "shard": 0, "start": 0,
             "size": 300, "attempt": 1},
            {"type": "shutdown"},
        ])
        assert code == 0
        assert out[0] == {"type": "ready"}
        kinds = [m["type"] for m in out[1:]]
        assert kinds == ["heartbeat", "partial", "heartbeat", "partial", "done"]
        task = selftest_task(spec["params"])
        merged = combine_selftest(
            out[2]["payload"], out[4]["payload"]
        )
        assert merged == task(0, 300, 7)

    def test_eof_without_shutdown_is_clean(self):
        code, out = worker_session([
            {"type": "hello", "spec": selftest_spec(), "seed": 1,
             "chaos": None, "block": 256},
        ])
        assert code == 0
        assert out == [{"type": "ready"}]

    def test_bad_hello_exits_2_with_error(self):
        code, out = worker_session([
            {"type": "hello", "spec": {"entry": "os:getcwd"}, "seed": 1},
        ])
        assert code == 2
        assert out[0]["type"] == "error"
        assert out[0]["lease"] is None

    def test_missing_hello_line_exits_0(self):
        code, out = worker_session([])
        assert code == 0
        assert out == []

    def test_torn_supervisor_line_reported_and_skipped(self):
        stdin = io.StringIO(
            json.dumps({
                "type": "hello", "spec": selftest_spec(), "seed": 1,
                "chaos": None, "block": 256,
            }) + "\n" + '{"type": "lea\n' + json.dumps(
                {"type": "shutdown"}
            ) + "\n"
        )
        stdout = io.StringIO()
        assert shard_worker_main(stdin=stdin, stdout=stdout) == 0
        out = [
            json.loads(line)
            for line in stdout.getvalue().splitlines()
            if line.strip()
        ]
        # The torn line is skipped, but reported upstream rather than
        # silently swallowed.
        assert [m["type"] for m in out] == ["ready", "protocol_torn"]


class TestSubprocessBackend:
    def test_unserializable_spec_rejected_up_front(self):
        with pytest.raises(ExecutionError, match="JSON-serializable"):
            SubprocessBackend({"entry": object()}, seed=1)

    @pytest.mark.timeout(120)
    def test_end_to_end_sharded_campaign(self):
        spec = selftest_spec(modulus=31)
        task = selftest_task(spec["params"])
        payloads, report = run_sharded(
            trials=520, seed=9, kind="selftest", params=spec["params"],
            policy=ExecPolicy(workers=2), shards=2, backend="subprocess",
            task_spec=spec, combine=combine_selftest,
        )
        merged = payloads[0]
        for payload in payloads[1:]:
            merged = combine_selftest(merged, payload)
        assert merged == task(0, 520, 9)
        assert report.backend == "subprocess"
        assert report.leases_granted >= 2

    @pytest.mark.timeout(120)
    def test_crashed_worker_stderr_tail_surfaces(self):
        """A killed worker's last stderr words must reach the
        ``shard_crash`` decision instead of going to /dev/null."""
        from repro.exec import ShardChaos
        from repro.obs import Recorder, use

        spec = selftest_spec(modulus=31, stderr_probe="last-words-for-tail")
        task = selftest_task(spec["params"])
        recorder = Recorder()
        with use(recorder):
            payloads, report = run_sharded(
                trials=1024, seed=5, kind="selftest", params=spec["params"],
                policy=ExecPolicy(
                    workers=2, backoff_base=0.01, backoff_max=0.05,
                ),
                shards=2, backend="subprocess", task_spec=spec,
                combine=combine_selftest,
                chaos=ShardChaos(kill_shards=frozenset({1})),
            )
        merged = payloads[0]
        for payload in payloads[1:]:
            merged = combine_selftest(merged, payload)
        assert merged == task(0, 1024, 5)
        crashes = [
            d for d in recorder.decisions
            if d.category == "exec" and d.action == "shard_crash"
        ]
        assert crashes
        assert any(
            "last-words-for-tail" in (d.attrs.get("stderr_tail") or "")
            for d in crashes
        )

    @pytest.mark.timeout(30)
    def test_worker_that_closes_stdout_is_reaped_at_shutdown(self, monkeypatch):
        """EOF on stdout drops the slot while its process still runs;
        shutdown must still wait for that process."""
        import subprocess
        import sys
        import time
        from types import SimpleNamespace

        from repro.exec import transport

        child = (
            "import os, sys, time; sys.stdin.readline(); os.close(1); "
            "time.sleep(0.5)"
        )
        monkeypatch.setattr(transport, "subprocess", SimpleNamespace(
            PIPE=subprocess.PIPE,
            TimeoutExpired=subprocess.TimeoutExpired,
            Popen=lambda _argv, **kw: subprocess.Popen(
                [sys.executable, "-c", child], **kw
            ),
        ))
        backend = SubprocessBackend(selftest_spec(), seed=0)
        slot = backend.spawn_slot()
        process = backend._slots[slot].process
        events = []
        deadline = time.monotonic() + 10.0
        while not events and time.monotonic() < deadline:
            events = backend.poll(0.05)
        assert [(e.kind, e.slot) for e in events] == [("exit", slot)]
        backend.shutdown()
        assert process.returncode is not None
