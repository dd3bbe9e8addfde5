"""The TCP shard transport (`repro.exec.tcp`)."""

import json
import socket
import threading
import time

import pytest

from repro.errors import CampaignInterrupted, ExecutionError
from repro.exec import (
    ExecPolicy,
    NetChaos,
    TcpBackend,
    run_sharded,
    tcp_worker_main,
)
from repro.exec.backend import combine_selftest, selftest_spec, selftest_task
from repro.exec.tcp import _parse_hostport
from repro.obs import Recorder, use

SPEC = selftest_spec(modulus=31)
TASK = selftest_task(SPEC["params"])


def merge(payloads) -> dict:
    merged = payloads[0]
    for payload in payloads[1:]:
        merged = combine_selftest(merged, payload)
    return merged


def start_worker(address: str, reconnect: int = 0) -> threading.Thread:
    """A lease-serving worker in a thread, dialing ``address``."""
    thread = threading.Thread(
        target=tcp_worker_main,
        args=(address,),
        kwargs={"reconnect": reconnect, "retry_delay_s": 0.05},
        daemon=True,
    )
    thread.start()
    return thread


class TestParseHostport:
    def test_host_and_port(self):
        assert _parse_hostport("10.0.0.5:7777", "--listen") == (
            "10.0.0.5", 7777,
        )

    def test_rejects_missing_or_bad_port(self):
        for bad in ("localhost", "host:", ":0", "host:notaport", "host:-1"):
            with pytest.raises(ExecutionError, match="HOST:PORT"):
                _parse_hostport(bad, "--connect")


class TestTcpBackend:
    def test_unserializable_spec_rejected_up_front(self):
        with pytest.raises(ExecutionError, match="JSON-serializable"):
            TcpBackend({"entry": object()}, seed=1)

    @pytest.mark.timeout(120)
    def test_end_to_end_sharded_campaign(self):
        with TcpBackend(SPEC, seed=9) as backend:
            payloads, report = run_sharded(
                trials=520, seed=9, kind="selftest", params=SPEC["params"],
                policy=ExecPolicy(workers=2), shards=2, backend=backend,
                task_spec=SPEC, combine=combine_selftest,
            )
        assert merge(payloads) == TASK(0, 520, 9)
        assert report.backend == "tcp"
        assert report.leases_granted >= 2
        assert report.shard_crashes == 0

    @pytest.mark.timeout(60)
    def test_stale_generation_lines_fenced(self):
        """The fence: traffic stamped for another connection is dropped."""
        with TcpBackend(SPEC, seed=1, listen="127.0.0.1:0") as backend:
            host, port = _parse_hostport(backend.address, "address")

            def client() -> None:
                sock = socket.create_connection((host, port), timeout=10)
                with sock:
                    reader = sock.makefile("r", encoding="utf-8")
                    writer = sock.makefile("w", encoding="utf-8")
                    generation = json.loads(reader.readline())["generation"]
                    for message in (
                        {"type": "ready", "generation": generation},
                        {"type": "heartbeat", "lease": 0,
                         "generation": generation - 1},
                        {"type": "heartbeat", "lease": 0,
                         "generation": generation},
                    ):
                        writer.write(json.dumps(message) + "\n")
                    writer.flush()
                    reader.readline()  # park until the supervisor hangs up

            thread = threading.Thread(target=client, daemon=True)
            thread.start()
            assert backend.spawn_slot() == 0
            messages = []
            deadline = time.monotonic() + 15
            while len(messages) < 2 and time.monotonic() < deadline:
                for event in backend.poll(0.2):
                    if event.kind == "message":
                        messages.append(event.message)
            assert [m["type"] for m in messages] == ["ready", "heartbeat"]
            assert backend.fenced_lines == 1
        thread.join(timeout=5)

    @pytest.mark.timeout(120)
    def test_reconnecting_worker_is_a_fresh_slot(self):
        """A dropped worker that dials back in must register as a new
        slot — the old lease is re-dispatched, never revived."""
        recorder = Recorder()
        backend = TcpBackend(
            SPEC, seed=5, listen="127.0.0.1:0",
            net_chaos=NetChaos(drop_after={0: 2}),
        )
        worker = start_worker(backend.address, reconnect=20)
        try:
            with use(recorder):
                payloads, report = run_sharded(
                    trials=1024, seed=5, kind="selftest",
                    params=SPEC["params"],
                    policy=ExecPolicy(
                        workers=1, backoff_base=0.01, backoff_max=0.05,
                    ),
                    shards=2, backend=backend, task_spec=SPEC,
                    combine=combine_selftest,
                )
        finally:
            backend.shutdown()
        assert merge(payloads) == TASK(0, 1024, 5)
        assert report.shard_crashes == 1
        grants = [
            d for d in recorder.decisions
            if d.category == "exec" and d.action == "lease_grant"
        ]
        # Work continued on a fresh registration, not on slot 0's ghost.
        assert {d.attrs["slot"] for d in grants} >= {0, 1}
        crash_index = next(
            i for i, d in enumerate(recorder.decisions)
            if d.category == "exec" and d.action == "shard_crash"
        )
        for decision in recorder.decisions[crash_index + 1:]:
            if decision.category == "exec" and decision.action == "lease_grant":
                assert decision.attrs["slot"] != 0
        worker.join(timeout=10)

    @pytest.mark.timeout(120)
    def test_resume_finishes_with_waiting_workers(self, tmp_path):
        """A supervisor restarted with ``resume`` must finish the
        campaign served by externally started, still-retrying workers."""
        checkpoint = str(tmp_path / "tcp-resume.ndjson")
        backend = TcpBackend(
            SPEC, seed=3, listen="127.0.0.1:0",
            net_chaos=NetChaos(partition_after=5, partition_interrupt=True),
        )
        port = backend.address.rpartition(":")[2]
        workers = [start_worker(backend.address, reconnect=400)
                   for _ in range(2)]
        try:
            with pytest.raises(CampaignInterrupted):
                run_sharded(
                    trials=1024, seed=3, kind="selftest",
                    params=SPEC["params"],
                    policy=ExecPolicy(
                        workers=2, backoff_base=0.01, backoff_max=0.05,
                    ),
                    shards=2, backend=backend, task_spec=SPEC,
                    combine=combine_selftest, checkpoint=checkpoint,
                )
        finally:
            backend.shutdown()
        with open(checkpoint + ".manifest", encoding="utf-8") as handle:
            assert json.load(handle)["complete"] is False

        # "Restart" the supervisor on the same port; the workers are
        # still dialing it and must carry the resumed run to the end.
        with TcpBackend(
            SPEC, seed=3, listen=f"127.0.0.1:{port}",
        ) as restarted:
            payloads, report = run_sharded(
                trials=1024, seed=3, kind="selftest", params=SPEC["params"],
                policy=ExecPolicy(
                    workers=2, backoff_base=0.01, backoff_max=0.05,
                ),
                shards=2, backend=restarted, task_spec=SPEC,
                combine=combine_selftest, resume=checkpoint,
            )
        assert merge(payloads) == TASK(0, 1024, 3)
        assert report.backend == "tcp"
        with open(checkpoint + ".manifest", encoding="utf-8") as handle:
            assert json.load(handle)["complete"] is True
        # The completed campaign said bye: the workers exit at once
        # instead of spending their 400-attempt re-dial budget.
        for worker in workers:
            worker.join(timeout=5)
            assert not worker.is_alive()

    @pytest.mark.timeout(120)
    def test_torn_and_duplicated_lines_are_counted_and_harmless(self):
        recorder = Recorder()
        backend = TcpBackend(
            SPEC, seed=11, listen="127.0.0.1:0",
            net_chaos=NetChaos(
                seed=11, tear_lines={0: 1},
                duplicate_slots=frozenset({0, 1}),
            ),
        )
        workers = [start_worker(backend.address) for _ in range(2)]
        try:
            with use(recorder):
                payloads, report = run_sharded(
                    trials=1024, seed=11, kind="selftest",
                    params=SPEC["params"],
                    policy=ExecPolicy(
                        workers=2, backoff_base=0.01, backoff_max=0.05,
                    ),
                    shards=2, backend=backend, task_spec=SPEC,
                    combine=combine_selftest,
                )
        finally:
            backend.shutdown()
        assert merge(payloads) == TASK(0, 1024, 11)
        assert report.protocol_torn_lines >= 1
        actions = {
            d.action for d in recorder.decisions if d.category == "exec"
        }
        assert "protocol_torn" in actions
        for worker in workers:
            worker.join(timeout=10)


class TestWorkerGenerationFence:
    def test_worker_skips_lease_stamped_for_an_older_connection(self):
        import io

        from repro.exec.transport import shard_worker_main

        lines = [
            {"type": "hello", "spec": SPEC, "seed": 7, "chaos": None,
             "block": 256, "generation": 4},
            {"type": "lease", "id": 0, "shard": 0, "start": 0,
             "size": 256, "attempt": 1, "generation": 3},
            {"type": "lease", "id": 1, "shard": 0, "start": 0,
             "size": 256, "attempt": 2, "generation": 4},
            {"type": "shutdown"},
        ]
        stdin = io.StringIO(
            "".join(json.dumps(line) + "\n" for line in lines)
        )
        stdout = io.StringIO()
        assert shard_worker_main(stdin=stdin, stdout=stdout) == 0
        out = [
            json.loads(line)
            for line in stdout.getvalue().splitlines()
            if line.strip()
        ]
        # Only the generation-4 lease was served; every reply echoes the
        # connection's generation.
        served = [m for m in out if m["type"] == "done"]
        assert [m["lease"] for m in served] == [1]
        assert all(m["generation"] == 4 for m in out)
