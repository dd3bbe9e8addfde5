"""The subprocess shard transport: isolated workers over NDJSON pipes.

:class:`SubprocessBackend` launches each slot as a fresh
``python -m repro exec shard-worker`` interpreter and speaks a
line-oriented JSON protocol over its stdin/stdout:

* supervisor -> worker: one ``hello`` line (task spec, campaign seed,
  serialized chaos plan, block size, optional telemetry trace context),
  then ``lease`` lines, then ``bye`` (the campaign completed) or
  ``shutdown`` (it was interrupted or abandoned);
* worker -> supervisor: ``ready`` after the hello, then the
  :func:`repro.exec.backend.serve_lease` stream — ``heartbeat`` /
  ``partial`` / ``done`` / ``error`` lines, interleaved with
  ``telemetry`` event batches when the hello carried a trace context.

Nothing crosses the boundary except JSON, so a campaign that completes
on this backend is proven serializable end to end — the contract a
future SSH or container transport inherits unchanged.  The supervisor
reads worker stdout with raw nonblocking ``os.read`` under a
``selectors`` loop (never the buffered reader — buffered bytes are
invisible to the selector) and treats EOF as slot death, mirroring the
fork transport's private-pipe crash signal.

:func:`shard_worker_main` is the worker side, mounted at
``python -m repro exec shard-worker``; it rebuilds the task from the
spec (:func:`repro.exec.backend.build_task`) and serves leases until
EOF, ``bye`` or ``shutdown``.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import ExecutionError
from repro.exec.backend import (
    LEASE_BLOCK_TRIALS,
    BackendEvent,
    ExecBackend,
    build_task,
    note_torn_line,
    serve_lease,
)

_JOIN_GRACE_S = 1.0
_READ_CHUNK = 65536
_STDERR_TAIL_BYTES = 4096


def _worker_env() -> dict[str, str]:
    """Child env with the repro package importable.

    The tests (and any source checkout) rely on ``PYTHONPATH=src``; an
    installed package needs nothing.  Prepending this package's parent
    directory covers both without caring which applies.
    """
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parent.parent.parent)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    return env


class _StderrTail:
    """Bounded, non-blocking capture of one worker's stderr.

    Drained every supervisor poll so the pipe can never fill up and
    block the worker; only the last :data:`_STDERR_TAIL_BYTES` survive,
    which is exactly what a crash post-mortem wants — the last words,
    not the life story.
    """

    def __init__(self, pipe, limit: int = _STDERR_TAIL_BYTES) -> None:
        self._pipe = pipe
        self._limit = limit
        self._buffer = bytearray()
        os.set_blocking(pipe.fileno(), False)

    def drain(self) -> None:
        while True:
            try:
                chunk = os.read(self._pipe.fileno(), _READ_CHUNK)
            except (BlockingIOError, InterruptedError):
                return
            except (OSError, ValueError):
                return  # pipe closed; keep whatever was captured
            if not chunk:
                return
            self._buffer.extend(chunk)
            if len(self._buffer) > self._limit:
                del self._buffer[: len(self._buffer) - self._limit]

    def text(self) -> str | None:
        self.drain()
        if not self._buffer:
            return None
        return self._buffer.decode("utf-8", "replace")

    def close(self) -> None:
        try:
            self._pipe.close()
        except OSError:
            pass


def _reap(retired: list[tuple[subprocess.Popen, _StderrTail | None]]) -> None:
    """Reap every retired worker process and empty ``retired``.

    Each process gets what is left of one shared grace period to exit
    on its own; one still running then is killed, and waited for, so no
    worker outlives its backend or lingers as a zombie.
    """
    deadline = time.monotonic() + _JOIN_GRACE_S
    for process, tail in retired:
        try:
            process.wait(max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.kill()
            try:
                process.wait(_JOIN_GRACE_S)
            except subprocess.TimeoutExpired:  # pragma: no cover - kill is final
                pass
        if tail is not None:
            tail.close()
    retired.clear()


def _farewell(bye: bool) -> bytes:
    """The supervisor's last line to a slot: ``bye`` after a completed
    campaign, ``shutdown`` after an interrupted or abandoned one."""
    return b'{"type": "bye"}\n' if bye else b'{"type": "shutdown"}\n'


class _Slot:
    """One worker subprocess plus its stdout line buffer."""

    def __init__(self, slot_id: int, hello: bytes) -> None:
        self.id = slot_id
        self.buffer = bytearray()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "exec", "shard-worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_worker_env(),
        )
        os.set_blocking(self.process.stdout.fileno(), False)
        self.stderr_tail = _StderrTail(self.process.stderr)
        self.write(hello)

    def write(self, line: bytes) -> None:
        try:
            self.process.stdin.write(line)
            self.process.stdin.flush()
        except (OSError, ValueError, BrokenPipeError):
            pass  # slot died; its EOF event reclaims the work

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        try:
            self.process.wait(_JOIN_GRACE_S)
        except subprocess.TimeoutExpired:  # pragma: no cover - kill is final
            pass
        self.close()

    def close(self) -> None:
        self.stderr_tail.close()
        for stream in (self.process.stdin, self.process.stdout):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass


class SubprocessBackend(ExecBackend):
    """Shard backend #2: isolated ``repro exec shard-worker`` processes."""

    name = "subprocess"

    def __init__(
        self,
        task_spec: dict,
        seed: int,
        chaos=None,
        block: int = LEASE_BLOCK_TRIALS,
        telemetry: dict | None = None,
    ) -> None:
        try:
            chaos_dict = chaos.to_dict() if chaos is not None else None
            self._hello = (
                json.dumps(
                    {
                        "type": "hello",
                        "spec": task_spec,
                        "seed": seed,
                        "chaos": chaos_dict,
                        "block": block,
                        "telemetry": telemetry,
                    },
                    sort_keys=True,
                ).encode("utf-8")
                + b"\n"
            )
        except (TypeError, ValueError) as exc:
            raise ExecutionError(
                f"task spec is not JSON-serializable: {exc}"
            ) from exc
        self._slots: dict[int, _Slot] = {}
        # Processes of dropped slots, reaped at shutdown with the live
        # ones: a worker can close stdout and still be running.
        self._retired: list[tuple[subprocess.Popen, None]] = []
        self._next_id = 0
        self._selector = selectors.DefaultSelector()
        #: Undecodable worker lines seen by this supervisor (satellite
        #: of the lease supervisor's ``protocol_torn_lines`` report).
        self.torn_lines = 0

    def spawn_slot(self) -> int:
        slot = _Slot(self._next_id, self._hello)
        self._slots[slot.id] = slot
        self._selector.register(
            slot.process.stdout, selectors.EVENT_READ, slot
        )
        self._next_id += 1
        return slot.id

    def live_slots(self) -> list[int]:
        return list(self._slots)

    def dispatch(self, slot: int, lease: dict) -> None:
        self._slots[slot].write(
            json.dumps(lease, sort_keys=True).encode("utf-8") + b"\n"
        )

    def _drop(self, slot: _Slot, events: list[BackendEvent]) -> None:
        try:
            self._selector.unregister(slot.process.stdout)
        except (KeyError, ValueError):
            pass
        exitcode = slot.process.poll()
        stderr = slot.stderr_tail.text()
        slot.close()
        self._retired.append((slot.process, None))
        del self._slots[slot.id]
        events.append(
            BackendEvent("exit", slot.id, exitcode=exitcode, stderr=stderr)
        )

    def poll(self, timeout: float) -> list[BackendEvent]:
        events: list[BackendEvent] = []
        if not self._slots:
            time.sleep(timeout)
            return events
        for live in self._slots.values():
            live.stderr_tail.drain()
        for key, _mask in self._selector.select(timeout):
            slot: _Slot = key.data
            if slot.id not in self._slots:
                continue
            try:
                chunk = os.read(slot.process.stdout.fileno(), _READ_CHUNK)
            except (OSError, ValueError):
                chunk = b""
            except BlockingIOError:  # pragma: no cover - select said ready
                continue
            if not chunk:
                self._drop(slot, events)
                continue
            slot.buffer.extend(chunk)
            while True:
                newline = slot.buffer.find(b"\n")
                if newline < 0:
                    break
                line = bytes(slot.buffer[:newline])
                del slot.buffer[: newline + 1]
                if not line.strip():
                    continue
                try:
                    message = json.loads(line)
                except json.JSONDecodeError:
                    # A torn line can only be the slot's last words —
                    # but count it rather than lose the evidence.
                    self.torn_lines += 1
                    note_torn_line(slot.id, "supervisor")
                    continue
                if isinstance(message, dict):
                    events.append(
                        BackendEvent("message", slot.id, message=message)
                    )
        return events

    def kill(self, slot: int) -> None:
        victim = self._slots.pop(slot, None)
        if victim is not None:
            try:
                self._selector.unregister(victim.process.stdout)
            except (KeyError, ValueError):
                pass
            victim.kill()

    def shutdown(self, bye: bool = False) -> None:
        for slot in self._slots.values():
            slot.write(_farewell(bye))
        for slot in self._slots.values():
            try:
                self._selector.unregister(slot.process.stdout)
            except (KeyError, ValueError):
                pass
            self._retired.append((slot.process, None))
        _reap(self._retired)
        for slot in self._slots.values():
            slot.close()
        self._slots.clear()
        self._selector.close()


# ----------------------------------------------------------------------
# The worker side: python -m repro exec shard-worker
# ----------------------------------------------------------------------
def shard_worker_main(stdin=None, stdout=None) -> int:
    """Serve shard leases over stdin/stdout until EOF, ``bye`` or ``shutdown``.

    Exit codes: 0 on a clean end, 2 on a malformed hello (the spec could
    not be rebuilt — a config error, not a trial failure).
    """
    return 2 if serve_session(stdin, stdout) == "bad-hello" else 0


def serve_session(stdin=None, stdout=None) -> str:
    """One worker session; returns how it ended.

    ``"bye"`` (the supervisor's campaign completed), ``"shutdown"``,
    ``"eof"`` or ``"bad-hello"``.  Trial errors never end a session;
    they flow back as ``error`` messages so the supervisor can retry or
    escalate.

    When the hello carries a ``generation`` (the TCP transport's
    per-connection token), every emitted message echoes it and any
    incoming lease stamped with a *different* generation is skipped —
    both halves of the fence that keeps a zombie connection's traffic
    out of a fresh registration.  A torn supervisor line is reported
    back as a ``protocol_torn`` message instead of vanishing.
    """
    from repro.exec.chaos import ShardChaos

    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    generation: int | None = None

    def emit(message: dict) -> None:
        if generation is not None:
            message = {**message, "generation": generation}
        stdout.write(json.dumps(message, sort_keys=True) + "\n")
        stdout.flush()

    hello_line = stdin.readline()
    if not hello_line:
        return "eof"
    try:
        hello = json.loads(hello_line)
        if hello.get("type") != "hello":
            raise ValueError(f"expected hello, got {hello.get('type')!r}")
        task = build_task(hello["spec"])
        seed = int(hello["seed"])
        block = int(hello.get("block") or LEASE_BLOCK_TRIALS)
        chaos = (
            ShardChaos.from_dict(hello["chaos"])
            if hello.get("chaos")
            else None
        )
        telemetry = hello.get("telemetry") or None
        generation = hello.get("generation")
    except Exception as exc:
        emit({"type": "error", "lease": None, "detail": f"bad hello: {exc}"})
        return "bad-hello"
    emit({"type": "ready"})
    for line in stdin:
        if not line.strip():
            continue
        try:
            message = json.loads(line)
        except json.JSONDecodeError:
            # A torn supervisor line; nothing to serve, but say so.
            emit({"type": "protocol_torn", "lease": None})
            continue
        if message.get("type") in ("bye", "shutdown"):
            return message["type"]
        if message.get("type") != "lease":
            continue
        if (
            generation is not None
            and message.get("generation") not in (None, generation)
        ):
            continue  # a stale supervisor line meant for an old connection
        serve_lease(
            task, seed, message, emit,
            chaos=chaos, block=block, telemetry=telemetry,
        )
    return "eof"
