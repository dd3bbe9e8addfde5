"""The backend contract: block splitting, task specs, the slot transports."""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.errors import ExecutionError
from repro.exec import (
    block_ranges,
    build_task,
    make_backend,
    serve_lease,
)
from repro.exec.backend import (
    BACKEND_NAMES,
    ForkPoolBackend,
    combine_selftest,
    selftest_spec,
    selftest_task,
)


class TestBlockRanges:
    def test_boundaries_are_absolute_not_relative(self):
        # A range starting mid-block first completes that block, so the
        # pieces of overlapping leases always line up.
        assert block_ranges(100, 300, block=256) == [(100, 156), (256, 144)]

    def test_aligned_range_splits_exactly(self):
        assert block_ranges(512, 512, block=256) == [(512, 256), (768, 256)]

    def test_sub_block_range_is_one_piece(self):
        assert block_ranges(0, 10, block=256) == [(0, 10)]

    def test_pieces_tile_the_range(self):
        pieces = block_ranges(37, 1000, block=64)
        position = 37
        for start, size in pieces:
            assert start == position
            position += size
        assert position == 1037

    def test_rejects_bad_inputs(self):
        with pytest.raises(ExecutionError):
            block_ranges(0, 0)
        with pytest.raises(ExecutionError):
            block_ranges(0, 10, block=0)


class TestBuildTask:
    def test_roundtrip_through_spec(self):
        spec = selftest_spec(modulus=101)
        direct = selftest_task(spec["params"])
        rebuilt = build_task(spec)
        assert rebuilt(0, 20, 5) == direct(0, 20, 5)

    def test_missing_entry_rejected(self):
        with pytest.raises(ExecutionError, match="entry"):
            build_task({})

    def test_non_repro_namespace_rejected(self):
        with pytest.raises(ExecutionError, match="repro package"):
            build_task({"entry": "os:getcwd"})
        with pytest.raises(ExecutionError, match="repro package"):
            build_task({"entry": "reprosomething.evil:factory"})

    def test_unresolvable_entry_rejected(self):
        with pytest.raises(ExecutionError, match="cannot resolve"):
            build_task({"entry": "repro.exec.backend:no_such_factory"})


class TestServeLease:
    def test_streams_heartbeat_partial_per_block_then_done(self):
        task = selftest_task({"modulus": 17})
        out = []
        serve_lease(
            task, 3,
            {"id": 9, "shard": 0, "start": 0, "size": 512, "attempt": 1},
            out.append, block=256,
        )
        kinds = [m["type"] for m in out]
        assert kinds == ["heartbeat", "partial", "heartbeat", "partial", "done"]
        merged = combine_selftest(out[1]["payload"], out[3]["payload"])
        assert merged == task(0, 512, 3)

    def test_task_error_reported_not_raised(self):
        def broken(start, size, seed):
            raise RuntimeError("boom")

        out = []
        serve_lease(
            broken, 3,
            {"id": 1, "shard": 0, "start": 0, "size": 10, "attempt": 1},
            out.append,
        )
        assert out[-1]["type"] == "error"
        assert "boom" in out[-1]["detail"]
        assert out[-1]["start"] == 0 and out[-1]["size"] == 10

    def test_aborted_lease_stops_its_profiler(self):
        # A TCP worker whose connection drops sees emit raise mid-lease;
        # started with --reconnect it goes on serving, so the lease's
        # profiler must be gone by then.
        threads = set(threading.enumerate())
        handler = signal.getsignal(signal.SIGPROF)
        with pytest.raises(BrokenPipeError):
            _serve_aborted_lease()
        assert set(threading.enumerate()) <= threads  # none left running
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGPROF) == handler

    @pytest.mark.timeout(60)
    def test_aborted_lease_leaves_a_clean_exit(self):
        # An armed ITIMER_PROF outliving its handler kills the
        # interpreter at exit ("Profiling timer expired").
        script = (
            "from tests.exec.test_backend import _serve_aborted_lease\n"
            "try:\n"
            "    _serve_aborted_lease()\n"
            "except BrokenPipeError:\n"
            "    pass\n"
            "sum(range(10 ** 7))\n"
        )
        paths = [
            os.path.dirname(os.path.dirname(repro.__file__)),  # src
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        ]
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
            capture_output=True, text=True, timeout=50,
        )
        assert proc.returncode == 0, proc.stderr[-800:]


def _serve_aborted_lease() -> None:
    """Serve a profiled lease whose first partial hits a dropped pipe."""

    def emit(message: dict) -> None:
        if message["type"] == "partial":
            raise BrokenPipeError("connection dropped")

    serve_lease(
        selftest_task({}), 3,
        {"id": 1, "shard": 0, "start": 0, "size": 10, "attempt": 1},
        emit, telemetry={"run_id": "r", "profile": 97.0},
    )


def _drain(backend, want_types, timeout_s=20.0):
    """Poll until every message type in ``want_types`` was seen once."""
    import time

    seen = []
    deadline = time.monotonic() + timeout_s
    outstanding = set(want_types)
    while outstanding and time.monotonic() < deadline:
        for event in backend.poll(0.05):
            seen.append(event)
            key = (
                event.kind
                if event.kind == "exit"
                else event.message.get("type")
            )
            outstanding.discard(key)
    assert not outstanding, f"never saw {outstanding} (got {seen})"
    return seen


class TestForkPoolBackend:
    """The slot contract, over the fork pool and both other carriers."""

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_lease_roundtrip(self, name):
        task = selftest_task({"modulus": 31})
        spec = selftest_spec(modulus=31)
        with make_backend(name, task_spec=spec, seed=7) as backend:
            slot = backend.spawn_slot()
            assert backend.live_slots() == [slot]
            backend.dispatch(
                slot,
                {"id": 0, "shard": 0, "start": 0, "size": 300, "attempt": 1},
            )
            events = _drain(backend, {"partial", "done"})
        partials = [
            e.message for e in events
            if e.kind == "message" and e.message["type"] == "partial"
        ]
        merged = partials[0]["payload"]
        for extra in partials[1:]:
            merged = combine_selftest(merged, extra["payload"])
        assert merged == task(0, 300, 7)

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_killed_slot_surfaces_exit_event(self, name):
        backend = make_backend(name, task_spec=selftest_spec(delay_s=0.05), seed=1)
        try:
            slot = backend.spawn_slot()
            backend.dispatch(
                slot,
                {"id": 0, "shard": 0, "start": 0, "size": 200, "attempt": 1},
            )
            backend.kill(slot)
            assert backend.live_slots() == []
        finally:
            backend.shutdown()

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_shutdown_with_idle_slots(self, name):
        backend = make_backend(name, task_spec=selftest_spec(), seed=1)
        backend.spawn_slot()
        backend.spawn_slot()
        backend.shutdown()
        assert backend.live_slots() == []

    @pytest.mark.timeout(60)
    def test_forked_slot_answers_hello_and_stamps_its_generation(self):
        """Forked slots speak the same protocol as the other carriers:
        ``ready`` first, and every message echoes the slot's generation."""
        import time

        with ForkPoolBackend(selftest_task({}), seed=3) as backend:
            slots = [backend.spawn_slot(), backend.spawn_slot()]
            for slot in slots:
                backend.dispatch(
                    slot,
                    {"id": slot, "shard": slot, "start": 0, "size": 300,
                     "attempt": 1},
                )
            seen = {slot: [] for slot in slots}
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and not all(
                messages and messages[-1]["type"] == "done"
                for messages in seen.values()
            ):
                for event in backend.poll(0.05):
                    assert event.kind == "message", event
                    seen[event.slot].append(event.message)
        for slot, messages in seen.items():
            assert messages[0]["type"] == "ready"
            assert messages[-1]["type"] == "done"
            assert {m["generation"] for m in messages} == {slot}


#: A pooled campaign whose forked slots log their pids, one per block.
_POOLED_SUPERVISOR = """
import os, sys, time
from repro.exec import ExecPolicy, run_supervised
from repro.exec.backend import combine_selftest

def task(start, size, seed):
    with open(sys.argv[1], "a") as handle:
        handle.write(f"{os.getpid()}\\n")
    time.sleep(0.05)
    return {"values": list(range(start, start + size))}

run_supervised(task, trials=400, seed=0, kind="selftest",
               policy=ExecPolicy(workers=2), combine=combine_selftest,
               block=1)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: ask the kernel directly
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


class TestSupervisorDeath:
    @pytest.mark.timeout(60)
    def test_slots_exit_when_the_supervisor_is_killed(self, tmp_path):
        """A forked slot must read EOF once the supervisor is gone: no
        slot may hold the supervisor's end of any channel open."""
        pids = tmp_path / "pids"
        supervisor = subprocess.Popen(
            [sys.executable, "-c", _POOLED_SUPERVISOR, str(pids)],
            env={
                **os.environ,
                "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__)),
            },
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        slots: set[int] = set()
        try:
            deadline = time.monotonic() + 30.0
            while len(slots) < 2 and time.monotonic() < deadline:
                assert supervisor.poll() is None, "supervisor ended early"
                time.sleep(0.05)
                if pids.exists():
                    text = pids.read_text()
                    slots = {int(p) for p in text[: text.rfind("\n") + 1].split()}
            assert len(slots) == 2
            supervisor.kill()
            supervisor.wait()
            deadline = time.monotonic() + 5.0
            while any(map(_running, slots)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in slots if _running(pid)] == []
        finally:
            if supervisor.poll() is None:
                supervisor.kill()
                supervisor.wait()
            for pid in slots:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


class TestMakeBackend:
    def test_local_needs_task_or_spec(self):
        with pytest.raises(ExecutionError):
            make_backend("local")

    def test_local_from_spec(self):
        backend = make_backend("local", task_spec=selftest_spec(), seed=3)
        try:
            assert backend.name == "local"
        finally:
            backend.shutdown()

    def test_subprocess_needs_spec(self):
        with pytest.raises(ExecutionError, match="task_spec"):
            make_backend("subprocess", task=lambda s, n, x: None)

    def test_unknown_name_rejected(self):
        with pytest.raises(ExecutionError, match="unknown exec backend"):
            make_backend("carrier-pigeon", task_spec=selftest_spec())
