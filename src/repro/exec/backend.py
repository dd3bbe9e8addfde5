"""Execution backends for sharded campaigns: one slot protocol, three carriers.

:mod:`repro.exec.shards` plans a campaign as block-aligned shard
*leases*; this module defines what actually runs them.  A backend is a
set of numbered worker **slots**; each slot has one private,
bidirectional channel and speaks one newline-delimited JSON protocol:

* supervisor -> worker: one ``hello`` line (campaign seed, block size,
  serialized :class:`~repro.exec.chaos.ShardChaos` plan, optional
  telemetry trace context, the slot's ``generation`` and — for slots
  that cannot inherit the task closure — the task ``spec``), then
  ``lease`` lines stamped with the generation, then ``bye`` (the
  campaign completed) or ``shutdown`` (it was interrupted or
  abandoned);
* worker -> supervisor: ``ready`` after the hello, then per lease the
  :func:`serve_lease` stream — ``heartbeat`` / ``partial`` / ``done`` /
  ``error`` — interleaved with ``telemetry`` and ``profile`` batches
  when the hello carried a trace context, and ``protocol_torn`` for a
  supervisor line it could not decode.  Every worker message echoes
  the generation.

Both ends are written once.  :func:`serve_session` is the only worker
loop.  :class:`ExecBackend` is the only supervisor side: the slot
record, the receive loop (select, read, split lines, count torn lines,
fence stale generations, apply :class:`~repro.exec.chaos.NetChaos`),
and one drop/kill/shutdown path that reaps every process it started.
EOF on a slot's channel is that slot's ``exit`` event, so a SIGKILLed
worker surfaces as an event on the next ``poll()``, never a hang.  The
three backends only say how a slot is opened:

* :class:`ForkPoolBackend` (``local``) — a forked process plus a
  socketpair, the pool behind ``--workers N``.  The child keeps the
  task closure it inherited, so its hello carries no spec.
* :class:`~repro.exec.transport.SubprocessBackend` (``subprocess``) — a
  fresh ``python -m repro exec shard-worker`` interpreter over
  stdin/stdout pipes.  It rebuilds the task from the spec, so a
  campaign that completes on it is proven ready to leave the machine.
* :class:`~repro.exec.tcp.TcpBackend` (``tcp``) — a worker that dialed
  the supervisor's listener, so slots can live on other hosts.

Out-of-process slots rebuild the batch task from a **task spec**:
``{"entry": "repro.some.module:factory", "params": {...}}``.
:func:`build_task` imports the entry point (``repro.``-namespaced only)
and calls ``factory(params)`` — the factory must return a
``task(start, size, seed)`` that is a pure function of its arguments,
exactly like :func:`repro.exec.runner.run_supervised` tasks.  Payloads
cross every channel as JSON, forked slots included.

Leases are served in fixed :data:`LEASE_BLOCK_TRIALS`-trial blocks so
any partial progress is reusable by a re-dispatch: a lease that dies
after ``k`` blocks has banked ``k`` checkpointable partial aggregates,
and — because blocks align with the vector kernel's RNG blocks — every
partial is bit-identical to the same range of a serial run.
"""

from __future__ import annotations

import abc
import importlib
import json
import os
import selectors
import socket
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import CampaignInterrupted, ExecutionError
from repro.exec.batching import derive_seed

#: Trials per lease block.  Matches the vector kernel's fixed RNG block
#: (:data:`repro.faultsim.kernel.DEFAULT_BLOCK_SIZE`) so a partial
#: aggregate never splits an RNG block: any shard assignment, re-dispatch
#: or partial completion yields ranges the kernel simulates identically.
LEASE_BLOCK_TRIALS = 256

#: Trials per block for per-trial-seeded tasks: resilience campaigns,
#: whose trial ``t`` runs on ``derive_seed(seed, t)``.  Their results do
#: not depend on how trials are grouped, so the block is only the unit
#: of checkpointing and load balance: a resilience trial costs 0.6-6 ms,
#: and 256-trial blocks are too coarse to keep two slots evenly busy.
SCALAR_BLOCK_TRIALS = 32

_JOIN_GRACE_S = 1.0
_READ_CHUNK = 65536

#: Socket I/O timeout.  Bounds every blocking send so a wedged peer can
#: never hang the supervisor.
_IO_TIMEOUT_S = 5.0


def block_ranges(
    start: int, size: int, block: int = LEASE_BLOCK_TRIALS
) -> list[tuple[int, int]]:
    """Split ``[start, start+size)`` at absolute ``block`` boundaries.

    Boundaries are *absolute* trial indices (multiples of ``block``),
    not offsets into the range, so the pieces of any two overlapping
    leases line up exactly — the alignment the checkpoint-merge logic
    and the vector kernel's block reuse both rely on.
    """
    if block < 1:
        raise ExecutionError(f"block must be >= 1, got {block}")
    if size < 1:
        raise ExecutionError(f"range size must be >= 1, got {size}")
    out = []
    position = start
    stop = start + size
    while position < stop:
        boundary = ((position // block) + 1) * block
        nxt = min(boundary, stop)
        out.append((position, nxt - position))
        position = nxt
    return out


# ----------------------------------------------------------------------
# Task specs: how out-of-process workers rebuild the batch task
# ----------------------------------------------------------------------
def build_task(spec: dict) -> Callable[[int, int, int], Any]:
    """Rebuild a batch task from its JSON-serializable spec.

    ``spec["entry"]`` names a ``module:factory`` inside the ``repro``
    package; the factory receives ``spec["params"]`` and returns the
    task callable.  Restricting entries to ``repro.`` keeps a hostile
    spec file from importing arbitrary code paths.
    """
    entry = spec.get("entry") if isinstance(spec, dict) else None
    if not isinstance(entry, str) or ":" not in entry:
        raise ExecutionError(
            f"task spec needs an 'entry' of the form 'module:factory', "
            f"got {entry!r}"
        )
    module_name, _, attr = entry.partition(":")
    if not (module_name == "repro" or module_name.startswith("repro.")):
        raise ExecutionError(
            f"task spec entry must live in the repro package, got {entry!r}"
        )
    try:
        module = importlib.import_module(module_name)
        factory = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise ExecutionError(f"cannot resolve task spec {entry!r}: {exc}") from exc
    return factory(spec.get("params") or {})


def selftest_task(params: dict) -> Callable[[int, int, int], dict]:
    """A pure, dependency-free task for transport/chaos self-tests.

    Returns ``{"values": [...]}`` with one deterministic value per
    trial — cheap, serializable, and trivially comparable against a
    serial oracle.
    """
    modulus = int(params.get("modulus", 997))
    delay_s = float(params.get("delay_s", 0.0))
    stderr_probe = params.get("stderr_probe")

    def task(start: int, size: int, seed: int) -> dict:
        if stderr_probe:
            # Exercised by the stderr-tail tests: a worker that talks on
            # stderr must leave those words in the supervisor's tail.
            print(
                f"{stderr_probe} [{start},{start + size})",
                file=sys.stderr, flush=True,
            )
        if delay_s:
            time.sleep(delay_s * size)
        return {
            "values": [
                derive_seed(seed, t) % modulus
                for t in range(start, start + size)
            ]
        }

    return task


def selftest_spec(
    modulus: int = 997,
    delay_s: float = 0.0,
    stderr_probe: str | None = None,
) -> dict:
    """The task spec matching :func:`selftest_task`."""
    params: dict = {"modulus": modulus, "delay_s": delay_s}
    if stderr_probe is not None:
        params["stderr_probe"] = stderr_probe
    return {
        "entry": "repro.exec.backend:selftest_task",
        "params": params,
    }


def combine_selftest(a: dict, b: dict) -> dict:
    """Merge two adjacent :func:`selftest_task` payloads (trial order)."""
    return {"values": a["values"] + b["values"]}


# ----------------------------------------------------------------------
# The worker side: one session loop for every carrier
# ----------------------------------------------------------------------
def serve_lease(
    task: Callable[[int, int, int], Any],
    seed: int,
    lease: dict,
    emit: Callable[[dict], None],
    chaos=None,
    block: int = LEASE_BLOCK_TRIALS,
    telemetry: dict | None = None,
) -> None:
    """Run one lease inside a worker slot, streaming block partials.

    Emits, per block of the lease range: a ``heartbeat`` before
    computing and a ``partial`` (the block's aggregate payload) after —
    so supervisor-side liveness has block granularity and a dead slot
    loses at most the block in flight.  ``chaos`` (a
    :class:`~repro.exec.chaos.ShardChaos`) may SIGKILL or stall the
    slot at controlled points; see the chaos module.

    ``telemetry``, when set, is the supervisor-minted trace context
    (see :func:`repro.obs.telemetry.make_context`): the slot runs a
    local recorder and interleaves ``telemetry`` event batches with the
    partial stream — worker spans per block, flushed incrementally so a
    killed slot has already shipped all but the block in flight.
    Telemetry never touches payloads or seeds: results are bit-identical
    with it on or off.
    """
    lease_id = lease["id"]
    shard = lease.get("shard", -1)
    attempt = lease.get("attempt", 1)
    telem = None
    if telemetry is not None:
        from repro.obs.telemetry import LeaseTelemetry

        telem = LeaseTelemetry(telemetry, lease, emit)
    try:
        pieces = block_ranges(lease["start"], lease["size"], block)
        for index, (bstart, bsize) in enumerate(pieces):
            if chaos is not None:
                chaos.maybe_inject(shard, attempt, index, len(pieces))
            emit({"type": "heartbeat", "lease": lease_id, "blocks_done": index})
            span = (
                telem.block_span(index, bstart, bsize)
                if telem is not None
                else None
            )
            try:
                payload = task(bstart, bsize, seed)
            except Exception:
                detail = traceback.format_exc()[-800:]
                if telem is not None:
                    span.__exit__(None, None, None)
                    telem.error(bstart, bsize, detail)
                    telem.finish("error")
                emit({
                    "type": "error",
                    "lease": lease_id,
                    "start": bstart,
                    "size": bsize,
                    "detail": detail,
                })
                return
            if telem is not None:
                span.__exit__(None, None, None)
            emit({
                "type": "partial",
                "lease": lease_id,
                "start": bstart,
                "size": bsize,
                "payload": payload,
            })
            if telem is not None:
                telem.flush()
        if telem is not None:
            telem.finish("done")
        emit({"type": "done", "lease": lease_id})
    finally:
        # A dropped connection raises out of emit mid-lease; the worker
        # may go on serving, so its profiler must not outlive the lease.
        if telem is not None and telem.profiler is not None:
            telem.profiler.stop()


def serve_session(stdin=None, stdout=None, task=None) -> str:
    """One worker session over a text channel; returns how it ended.

    ``"bye"`` (the supervisor's campaign completed), ``"shutdown"``,
    ``"eof"`` or ``"bad-hello"``.  Trial errors never end a session;
    they flow back as ``error`` messages so the supervisor can retry or
    escalate.  ``task`` is the batch task of a slot that inherited it
    (a forked slot); otherwise the hello's ``spec`` rebuilds it.

    When the hello carries a ``generation``, every emitted message
    echoes it and any incoming lease stamped with a *different*
    generation is skipped — both halves of the fence that keeps a
    zombie connection's traffic out of a fresh registration.  A torn
    supervisor line is reported back as a ``protocol_torn`` message
    instead of vanishing.
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
        if not isinstance(hello, dict) or hello.get("type") != "hello":
            raise ValueError("the first line is not a hello")
        generation = hello.get("generation")
        if task is None:
            task = build_task(hello["spec"])
        seed = int(hello["seed"])
        block = int(hello.get("block") or LEASE_BLOCK_TRIALS)
        chaos = (
            ShardChaos.from_dict(hello["chaos"])
            if hello.get("chaos")
            else None
        )
        telemetry = hello.get("telemetry") or None
    except Exception as exc:
        emit({"type": "error", "lease": None, "detail": f"bad hello: {exc}"})
        return "bad-hello"
    emit({"type": "ready"})
    for line in stdin:
        if not line.strip():
            continue
        try:
            message = json.loads(line)
        except ValueError:
            message = None
        if not isinstance(message, dict):
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


def serve_socket(sock: socket.socket, task=None) -> str:
    """Run :func:`serve_session` over a connected socket, then close it.

    Returns how the session ended, or ``"lost"`` when the connection
    broke mid-session — the supervisor has already reclaimed the lease.
    """
    reader = sock.makefile("r", encoding="utf-8")
    writer = sock.makefile("w", encoding="utf-8")
    try:
        return serve_session(reader, writer, task=task)
    except (OSError, ValueError):
        return "lost"
    finally:
        for stream in (reader, writer, sock):
            try:
                stream.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Backend events and the supervisor side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BackendEvent:
    """One thing a backend observed about a slot.

    ``kind`` is ``"message"`` (``message`` holds a worker dict —
    heartbeat/partial/done/error) or ``"exit"`` (the slot process died;
    ``exitcode`` as reported by the transport, ``None`` if unknown).
    ``stderr`` carries the slot's bounded stderr tail on ``exit`` events
    when the transport captured one — a crashed worker's last words.
    """

    kind: str
    slot: int
    message: dict | None = None
    exitcode: int | None = None
    stderr: str | None = None


def note_torn_line(slot: int, side: str) -> None:
    """Record one torn/undecodable protocol line instead of losing it.

    ``side`` says who failed to decode: ``"supervisor"`` (a worker line
    arrived torn) or ``"worker"`` (the worker reported a torn supervisor
    line).  A ``protocol_torn`` decision, so silent frame corruption
    shows up in ``repro report`` rather than vanishing in a
    ``continue``.
    """
    from repro.obs import current

    current().decision(
        "exec", "protocol_torn", subject=f"slot {slot}",
        reason="undecodable protocol line dropped",
        slot=slot, side=side,
    )


def note_fenced_line(slot: int, generation: object) -> None:
    """Record one stale-generation message fenced off by the transport."""
    from repro.obs import current

    current().decision(
        "exec", "generation_fenced", subject=f"slot {slot}",
        reason="message carried a stale connection generation; dropped",
        slot=slot, generation=generation,
    )


class _Slot:
    """One worker slot: its process, its private channel, receive state.

    The slot id doubles as the channel's *generation*: ids are never
    reused within a backend, so a message stamped with another id can
    only be traffic meant for a different connection.
    """

    def __init__(
        self, slot_id: int, channel, writer, process=None, stderr_tail=None
    ) -> None:
        self.id = slot_id
        self.channel = channel  # readable end; EOF is slot death
        self.writer = writer  # buffered binary writer to the worker
        self.process = process  # Popen-like handle; None for remote workers
        self.stderr_tail = stderr_tail
        self.buffer = bytearray()
        self.lines_seen = 0
        self.release_at: float | None = None  # NetChaos delay gate
        self.dup_rng = None  # NetChaos duplicate stream

    def close(self) -> None:
        for stream in (self.writer, self.channel):
            try:
                stream.close()
            except (OSError, ValueError):
                pass


def _reap(retired: list) -> None:
    """Reap every retired ``(process, stderr_tail)`` and empty ``retired``.

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


class ExecBackend(abc.ABC):
    """A set of worker slots that serve shard leases.

    The supervisor owns every policy decision (lease grants, deadlines,
    re-dispatch, escalation); a backend only moves protocol lines and
    processes.  Subclasses implement :meth:`_open`; the slot lifecycle,
    the receive loop and teardown are shared.  ``task_spec`` goes into
    the hello of slots that must rebuild the task; :attr:`telemetry`,
    the run's trace context, into every hello once the supervisor sets
    it.
    """

    name: str = "abstract"

    def __init__(
        self,
        task_spec: dict | None,
        seed: int,
        chaos=None,
        block: int = LEASE_BLOCK_TRIALS,
    ) -> None:
        self._hello = {
            "type": "hello",
            "seed": seed,
            "chaos": chaos.to_dict() if chaos is not None else None,
            "block": block,
        }
        if task_spec is not None:
            self._hello["spec"] = task_spec
        try:
            json.dumps(self._hello)
        except (TypeError, ValueError) as exc:
            raise ExecutionError(
                f"task spec is not JSON-serializable: {exc}"
            ) from exc
        self._net_chaos = None
        #: Trace context (:func:`repro.obs.telemetry.make_context`) sent
        #: in each hello; ``None`` keeps slots from recording.
        self.telemetry: dict | None = None
        self._slots: dict[int, _Slot] = {}
        # (process, stderr tail) of slots taken out of service, reaped
        # together: a worker can close its channel and still be running.
        self._retired: list = []
        self._next_id = 0
        self._selector = selectors.DefaultSelector()
        self._lines_total = 0
        self._partitioned = False
        self._closed = False
        #: Torn / stale-generation line counts (report + test surface).
        self.torn_lines = 0
        self.fenced_lines = 0

    @abc.abstractmethod
    def _open(self, slot_id: int) -> _Slot:
        """Start (or accept) one worker and return its slot record."""

    # -- slot lifecycle -------------------------------------------------
    def spawn_slot(self) -> int:
        """Start one worker slot, send its hello; returns its id."""
        if self._closed:
            raise ExecutionError(f"{self.name} backend already shut down")
        slot = self._open(self._next_id)
        self._next_id += 1
        self._slots[slot.id] = slot
        self._selector.register(slot.channel, selectors.EVENT_READ, slot)
        chaos = self._net_chaos
        if chaos is not None and slot.id in chaos.duplicate_slots:
            slot.dup_rng = chaos.rng_for(slot.id)
        self._send(slot, {
            **self._hello, "telemetry": self.telemetry, "generation": slot.id,
        })
        return slot.id

    def live_slots(self) -> list[int]:
        """Ids of slots currently believed alive."""
        return list(self._slots)

    def dispatch(self, slot: int, lease: dict) -> None:
        """Send a lease to a slot (best effort; death surfaces as an
        ``exit`` event, not an exception)."""
        self._send(
            self._slots[slot], {**lease, "type": "lease", "generation": slot}
        )

    def _send(self, slot: _Slot, message: dict) -> None:
        try:
            slot.writer.write(
                json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"
            )
            slot.writer.flush()
        except (OSError, ValueError):
            pass  # the slot died; its exit event reclaims the work

    # -- receive path ---------------------------------------------------
    def poll(self, timeout: float) -> list[BackendEvent]:
        """Collect pending events, waiting up to ``timeout`` seconds."""
        events: list[BackendEvent] = []
        for slot in self._slots.values():
            if slot.stderr_tail is not None:
                slot.stderr_tail.drain()
        if not self._slots:
            time.sleep(timeout)
            return events
        chaos = self._net_chaos
        for key, _mask in self._selector.select(timeout):
            slot: _Slot = key.data
            if slot.id not in self._slots:
                continue
            if (
                chaos is not None
                and slot.release_at is None
                and slot.id in chaos.delay_slots
            ):
                slot.release_at = time.monotonic() + chaos.delay_slots[slot.id]
            try:
                chunk = os.read(slot.channel.fileno(), _READ_CHUNK)
            except (BlockingIOError, InterruptedError):
                continue  # no data after all; never a death signal
            except (OSError, ValueError):
                chunk = b""
            if not chunk:
                self._drop(slot, events)
                continue
            slot.buffer.extend(chunk)
            if (
                slot.release_at is not None
                and time.monotonic() < slot.release_at
            ):
                continue  # chaos: the wire is slow today
            self._parse(slot, events)
        if chaos is not None:
            # Release delay-gated buffers whose deadline passed without
            # fresh bytes arriving to trigger the parse above.
            now = time.monotonic()
            for slot in list(self._slots.values()):
                if (
                    slot.release_at is not None
                    and now >= slot.release_at
                    and slot.buffer
                ):
                    self._parse(slot, events)
        return events

    def _parse(self, slot: _Slot, events: list[BackendEvent]) -> None:
        chaos = self._net_chaos
        while slot.id in self._slots:
            newline = slot.buffer.find(b"\n")
            if newline < 0:
                return
            line = bytes(slot.buffer[:newline])
            del slot.buffer[: newline + 1]
            if not line.strip():
                continue
            index = slot.lines_seen
            slot.lines_seen += 1
            self._lines_total += 1
            copies = 1
            if chaos is not None:
                if chaos.tear_lines.get(slot.id) == index:
                    line = line[: max(1, len(line) // 2)]
                if (
                    slot.dup_rng is not None
                    and slot.dup_rng.random() < chaos.duplicate_rate
                ):
                    copies = 2
            try:
                message = json.loads(line)
            except ValueError:
                message = None
            if not isinstance(message, dict):
                # Usually a dying worker's last words — count them
                # rather than lose the evidence.
                self.torn_lines += 1
                note_torn_line(slot.id, "supervisor")
            elif message.get("generation") != slot.id:
                # The fence: traffic stamped for another connection
                # never reaches the supervisor.
                self.fenced_lines += 1
                note_fenced_line(slot.id, message.get("generation"))
            else:
                event = BackendEvent("message", slot.id, message=message)
                events.extend([event] * copies)
            if chaos is not None:
                drop_at = chaos.drop_after.get(slot.id)
                if drop_at is not None and slot.lines_seen >= drop_at:
                    self._drop(slot, events)
                    return
                if (
                    chaos.partition_after is not None
                    and not self._partitioned
                    and self._lines_total >= chaos.partition_after
                ):
                    self._partitioned = True
                    for victim in list(self._slots.values()):
                        self._drop(victim, events)
                    if chaos.partition_interrupt:
                        raise CampaignInterrupted(
                            "net chaos: full partition severed every "
                            "worker connection"
                        )
                    return

    # -- teardown -------------------------------------------------------
    def _retire(self, slot: _Slot) -> None:
        """Take a slot out of service; its process is reaped later."""
        del self._slots[slot.id]
        try:
            self._selector.unregister(slot.channel)
        except (KeyError, ValueError):
            pass
        slot.close()
        if slot.process is not None:
            self._retired.append((slot.process, slot.stderr_tail))

    def _drop(self, slot: _Slot, events: list[BackendEvent]) -> None:
        """Retire a slot whose channel ended and report its ``exit``."""
        stderr = (
            slot.stderr_tail.text() if slot.stderr_tail is not None else None
        )
        exitcode = slot.process.poll() if slot.process is not None else None
        self._retire(slot)
        events.append(
            BackendEvent("exit", slot.id, exitcode=exitcode, stderr=stderr)
        )

    def kill(self, slot: int) -> None:
        """Hard-kill a slot (straggler replacement, chaos injection)."""
        victim = self._slots.get(slot)
        if victim is None:
            return
        if victim.process is not None:
            victim.process.kill()
        self._retire(victim)
        _reap(self._retired)

    def shutdown(self, bye: bool = False) -> None:
        """Stop every slot and release transport resources.

        ``bye`` marks a completed campaign: remote workers are told to
        exit instead of re-dialing for the next supervisor.
        """
        if self._closed:
            return
        self._closed = True
        farewell = {"type": "bye" if bye else "shutdown"}
        for slot in list(self._slots.values()):
            self._send(slot, farewell)
            self._retire(slot)
        _reap(self._retired)
        self._selector.close()

    def __enter__(self) -> "ExecBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# Backend #1: forked slots
# ----------------------------------------------------------------------
class _Forked:
    """A forked slot process behind the ``Popen`` calls a backend makes."""

    def __init__(self, process) -> None:
        self._process = process

    def poll(self) -> int | None:
        return self._process.exitcode

    def wait(self, timeout: float) -> int:
        self._process.join(timeout)
        if self._process.exitcode is None:
            raise subprocess.TimeoutExpired(self._process.name, timeout)
        return self._process.exitcode

    def kill(self) -> None:
        self._process.kill()


def _quiet_worker_recorder() -> None:
    """Point a forked worker at the no-op recorder.

    Workers inherit the parent's recorder via fork; their records could
    never flow back, so recording there is pure overhead.
    """
    from repro.obs import recorder as _recorder_module

    _recorder_module._current = _recorder_module.NULL_RECORDER


class ForkPoolBackend(ExecBackend):
    """Forked slots in this process's address space (``local``).

    Each slot is a forked process serving :func:`serve_session` over its
    own socketpair.  The task is the closure captured at fork time, so
    campaign inputs (graphs, compiled kernels) need not be serializable;
    only payloads cross the channel.
    """

    name = "local"

    def __init__(
        self,
        task: Callable[[int, int, int], Any],
        seed: int,
        chaos=None,
        block: int = LEASE_BLOCK_TRIALS,
    ) -> None:
        import multiprocessing

        super().__init__(None, seed, chaos, block)
        self._task = task
        self._ctx = multiprocessing.get_context("fork")

    def _open(self, slot_id: int) -> _Slot:
        ours, theirs = socket.socketpair()
        supervisor_ends = [ours] + [s.channel for s in self._slots.values()]

        def main() -> None:
            # The child holds copies of the supervisor's end of this and
            # every earlier channel; while any copy is open, no slot can
            # read EOF when the supervisor dies.  Detach before closing:
            # closing a supervisor-side writer would flush its buffer
            # into the channel.
            for sock in supervisor_ends:
                os.close(sock.detach())
            _quiet_worker_recorder()
            serve_socket(theirs, task=self._task)

        process = self._ctx.Process(
            target=main, daemon=True, name=f"repro-shard-{slot_id}"
        )
        process.start()
        theirs.close()
        ours.settimeout(_IO_TIMEOUT_S)
        return _Slot(slot_id, ours, ours.makefile("wb"), _Forked(process))


BACKEND_NAMES = ("local", "subprocess", "tcp")


def make_backend(
    name: str,
    *,
    task: Callable[[int, int, int], Any] | None = None,
    task_spec: dict | None = None,
    seed: int = 0,
    chaos=None,
    block: int = LEASE_BLOCK_TRIALS,
    listen: str | None = None,
) -> ExecBackend:
    """Instantiate a backend by name.

    ``local`` needs a ``task`` closure; ``subprocess`` and ``tcp`` need
    a JSON-serializable ``task_spec`` (see :func:`build_task`).  A
    caller holding only a spec can run it locally too — the spec is
    built for exactly that symmetry.  ``listen`` applies to
    ``tcp`` only: a ``HOST:PORT`` to bind the lease listener on, which
    also switches the backend to waiting for hand-started remote
    workers instead of spawning loopback ones.
    """
    if name != "tcp" and listen is not None:
        raise ExecutionError(
            f"--listen only applies to the tcp backend, not {name!r}"
        )
    if name == "local":
        if task is None and task_spec is not None:
            task = build_task(task_spec)
        if task is None:
            raise ExecutionError("the local backend needs a task or task_spec")
        return ForkPoolBackend(task, seed, chaos=chaos, block=block)
    if name not in ("subprocess", "tcp"):
        raise ExecutionError(
            f"unknown exec backend {name!r} (expected one of {BACKEND_NAMES})"
        )
    if task_spec is None:
        raise ExecutionError(
            f"the {name} backend needs a JSON-serializable task_spec "
            "(its workers run in fresh interpreters)"
        )
    if name == "subprocess":
        from repro.exec.transport import SubprocessBackend

        return SubprocessBackend(task_spec, seed, chaos=chaos, block=block)
    from repro.exec.tcp import TcpBackend

    return TcpBackend(
        task_spec, seed, chaos=chaos, block=block, listen=listen
    )
