"""Pluggable execution backends for sharded campaigns.

:mod:`repro.exec.shards` plans a campaign as block-aligned shard
*leases*; this module defines what actually runs them.  A backend is a
set of numbered worker **slots** behind a uniform message interface:

* the supervisor ``dispatch()``-es a lease message to a slot and
  ``poll()``-s for :class:`BackendEvent` s — streamed partial
  aggregates (one per RNG block, doubling as heartbeats), explicit
  heartbeats, lease completion, errors, and slot death;
* slots can be ``kill()``-ed (straggler re-dispatch, chaos) and
  ``spawn_slot()``-ed back; a SIGKILLed slot surfaces as an ``exit``
  event, never a hang (see :class:`PipeWorker` for the fork transport's
  private-pipe argument, which every transport mirrors).

Three transports ship:

* :class:`ForkPoolBackend` — forked slots over private pipes, the pool
  behind ``--workers N``.  Tasks are closures; nothing needs to be
  picklable or serializable.
* :class:`~repro.exec.transport.SubprocessBackend` — "remote-like"
  isolated ``python -m repro exec shard-worker`` processes speaking
  NDJSON over stdin/stdout pipes.  It is the test double for future
  SSH/container transports: everything crossing it must be
  JSON-serializable, so a campaign that runs on it is proven ready to
  leave the machine.
* :class:`~repro.exec.tcp.TcpBackend` — the same protocol over TCP, so
  slots can live on other hosts.

Out-of-process transports rebuild the batch task from a **task spec**:
``{"entry": "repro.some.module:factory", "params": {...}}``.
:func:`build_task` imports the entry point (``repro.``-namespaced only)
and calls ``factory(params)`` — the factory must return a
``task(start, size, seed)`` that is a pure function of its arguments,
exactly like :func:`repro.exec.runner.run_supervised` tasks.

Leases are served in fixed :data:`LEASE_BLOCK_TRIALS`-trial blocks so
any partial progress is reusable by a re-dispatch: a lease that dies
after ``k`` blocks has banked ``k`` checkpointable partial aggregates,
and — because blocks align with the vector kernel's RNG blocks — every
partial is bit-identical to the same range of a serial run.
"""

from __future__ import annotations

import abc
import importlib
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ExecutionError
from repro.exec.batching import derive_seed

#: Trials per lease block.  Matches the vector kernel's fixed RNG block
#: (:data:`repro.faultsim.kernel.DEFAULT_BLOCK_SIZE`) so a partial
#: aggregate never splits an RNG block: any shard assignment, re-dispatch
#: or partial completion yields ranges the kernel simulates identically.
LEASE_BLOCK_TRIALS = 256

#: Trials per block for per-trial-seeded tasks (scalar faultsim,
#: resilience).  Their results do not depend on how trials are grouped,
#: so the block is only the unit of checkpointing and load balance: a
#: resilience trial costs 0.6-6 ms, and 256-trial blocks are too coarse
#: to keep two slots evenly busy.
SCALAR_BLOCK_TRIALS = 32

_JOIN_GRACE_S = 1.0


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
            import sys

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
# The lease-serving worker loop (shared by every transport)
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
            telem.block_done(bsize)
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


# ----------------------------------------------------------------------
# Backend events and the abstract backend
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
    line).  Feeds the ``protocol_torn_lines`` counter and a
    ``protocol_torn`` decision so silent frame corruption shows up in
    ``repro report`` rather than vanishing in a ``continue``.
    """
    from repro.obs import current

    rec = current()
    if rec.enabled:
        rec.counter("protocol_torn_lines").inc(side=side)
    rec.decision(
        "exec", "protocol_torn", subject=f"slot {slot}",
        reason="undecodable protocol line dropped",
        slot=slot, side=side,
    )


def note_fenced_line(slot: int, generation: object) -> None:
    """Record one stale-generation message fenced off by the transport."""
    from repro.obs import current

    rec = current()
    if rec.enabled:
        rec.counter("protocol_fenced_lines").inc()
    rec.decision(
        "exec", "generation_fenced", subject=f"slot {slot}",
        reason="message carried a stale connection generation; dropped",
        slot=slot, generation=generation,
    )


class ExecBackend(abc.ABC):
    """A set of worker slots that serve shard leases.

    The supervisor owns every policy decision (lease grants, deadlines,
    re-dispatch, escalation); a backend only moves messages and
    processes.  Implementations must guarantee that slot death is
    *observable* — a crashed or killed slot must produce an ``exit``
    event on a later ``poll()``, never silently hang the supervisor.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def spawn_slot(self) -> int:
        """Start one worker slot; returns its id."""

    @abc.abstractmethod
    def live_slots(self) -> list[int]:
        """Ids of slots currently believed alive."""

    @abc.abstractmethod
    def dispatch(self, slot: int, lease: dict) -> None:
        """Send a lease message to a slot (best effort; death surfaces
        as an ``exit`` event, not an exception)."""

    @abc.abstractmethod
    def poll(self, timeout: float) -> list[BackendEvent]:
        """Collect pending events, waiting up to ``timeout`` seconds."""

    @abc.abstractmethod
    def kill(self, slot: int) -> None:
        """Hard-kill a slot (straggler replacement, chaos injection)."""

    @abc.abstractmethod
    def shutdown(self, bye: bool = False) -> None:
        """Stop every slot and release transport resources.

        ``bye`` marks a completed campaign: remote workers are told to
        exit instead of re-dialing for the next supervisor.
        """

    def __enter__(self) -> "ExecBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# The fork transport primitive
# ----------------------------------------------------------------------
class PipeWorker:
    """One forked worker process plus its private pipe pair.

    The pipes are created immediately before the fork and the child's
    ends are closed in the supervisor immediately after, so the worker
    holds the only write end of its result pipe: its death — however
    abrupt — reliably reads as ``EOFError`` on the supervisor side.  A
    shared ``multiprocessing.Queue`` would be unsafe here: its producers
    serialize on a cross-process write lock held by a feeder thread, and
    a worker SIGKILLed mid-write orphans that lock, deadlocking every
    sibling.  With private pipes a torn write stays on the dead worker's
    own channel and surfaces as a crash, not a hang.
    """

    def __init__(self, worker_id: int, ctx, main, args: tuple, name: str) -> None:
        self.id = worker_id
        task_recv, self.task_send = ctx.Pipe(duplex=False)
        self.result_recv, result_send = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=main,
            args=args + (task_recv, result_send),
            daemon=True,
            name=name,
        )
        self.process.start()
        task_recv.close()
        result_send.close()

    def send(self, item) -> None:
        try:
            self.task_send.send(item)
        except (OSError, ValueError):
            pass  # worker already dead; its exit event reclaims the work

    def stop(self) -> None:
        self.send(None)

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join(_JOIN_GRACE_S)
        self.close()

    def close(self) -> None:
        for conn in (self.task_send, self.result_recv):
            try:
                conn.close()
            except OSError:
                pass


def _quiet_worker_recorder() -> None:
    """Point a forked worker at the no-op recorder.

    Workers inherit the parent's recorder via fork; their records could
    never flow back, so recording there is pure overhead.
    """
    from repro.obs import recorder as _recorder_module

    _recorder_module._current = _recorder_module.NULL_RECORDER


def _fork_slot_main(task, seed, chaos, block, telemetry, task_recv, result_send):
    _quiet_worker_recorder()
    while True:
        try:
            lease = task_recv.recv()
        except (EOFError, OSError):
            return  # supervisor went away
        if lease is None:
            return

        def emit(message: dict) -> None:
            try:
                result_send.send(message)
            except (OSError, ValueError):
                raise SystemExit(0) from None

        try:
            serve_lease(
                task, seed, lease, emit,
                chaos=chaos, block=block, telemetry=telemetry,
            )
        except SystemExit:
            return


class ForkPoolBackend(ExecBackend):
    """Shard backend #1: forked slots in this process's address space.

    The task is a closure captured at fork time, so campaign payloads
    (graphs, compiled kernels) need not be serializable.
    """

    name = "local"

    def __init__(
        self,
        task: Callable[[int, int, int], Any],
        seed: int,
        chaos=None,
        block: int = LEASE_BLOCK_TRIALS,
        telemetry: dict | None = None,
    ) -> None:
        import multiprocessing

        self._task = task
        self._seed = seed
        self._chaos = chaos
        self._block = block
        self._telemetry = telemetry
        self._ctx = multiprocessing.get_context("fork")
        self._slots: dict[int, PipeWorker] = {}
        self._next_id = 0

    def spawn_slot(self) -> int:
        worker = PipeWorker(
            self._next_id,
            self._ctx,
            _fork_slot_main,
            (self._task, self._seed, self._chaos, self._block,
             self._telemetry),
            name=f"repro-shard-{self._next_id}",
        )
        self._slots[worker.id] = worker
        self._next_id += 1
        return worker.id

    def live_slots(self) -> list[int]:
        return list(self._slots)

    def dispatch(self, slot: int, lease: dict) -> None:
        self._slots[slot].send(lease)

    def poll(self, timeout: float) -> list[BackendEvent]:
        from multiprocessing import connection as mp_connection

        events: list[BackendEvent] = []
        by_conn = {w.result_recv: w for w in self._slots.values()}
        if not by_conn:
            time.sleep(timeout)
            return events
        for conn in mp_connection.wait(list(by_conn), timeout=timeout):
            worker = by_conn[conn]
            if worker.id not in self._slots:
                continue
            try:
                message = worker.result_recv.recv()
            except (EOFError, OSError):
                worker.process.join(_JOIN_GRACE_S)
                exitcode = worker.process.exitcode
                worker.close()
                del self._slots[worker.id]
                events.append(
                    BackendEvent("exit", worker.id, exitcode=exitcode)
                )
                continue
            events.append(BackendEvent("message", worker.id, message=message))
        return events

    def kill(self, slot: int) -> None:
        worker = self._slots.pop(slot, None)
        if worker is not None:
            worker.kill()

    def shutdown(self, bye: bool = False) -> None:
        for worker in self._slots.values():
            worker.stop()
        deadline = time.monotonic() + _JOIN_GRACE_S
        for worker in list(self._slots.values()):
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.kill()
            else:
                worker.close()
        self._slots.clear()


BACKEND_NAMES = ("local", "subprocess", "tcp")


def make_backend(
    name: str,
    *,
    task: Callable[[int, int, int], Any] | None = None,
    task_spec: dict | None = None,
    seed: int = 0,
    chaos=None,
    block: int = LEASE_BLOCK_TRIALS,
    telemetry: dict | None = None,
    listen: str | None = None,
) -> ExecBackend:
    """Instantiate a backend by name.

    ``local`` needs a ``task`` closure; ``subprocess`` and ``tcp`` need
    a JSON-serializable ``task_spec`` (see :func:`build_task`).  A
    caller holding only a spec can run it locally too — the spec is
    built for exactly that symmetry.  ``telemetry`` is the optional
    trace context shipped to every slot
    (:func:`repro.obs.telemetry.make_context`).  ``listen`` applies to
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
        return ForkPoolBackend(
            task, seed, chaos=chaos, block=block, telemetry=telemetry
        )
    if name == "subprocess":
        from repro.exec.transport import SubprocessBackend

        if task_spec is None:
            raise ExecutionError(
                "the subprocess backend needs a JSON-serializable task_spec "
                "(its workers run in fresh interpreters)"
            )
        return SubprocessBackend(
            task_spec, seed, chaos=chaos, block=block, telemetry=telemetry
        )
    if name == "tcp":
        from repro.exec.tcp import TcpBackend

        if task_spec is None:
            raise ExecutionError(
                "the tcp backend needs a JSON-serializable task_spec "
                "(its workers run in fresh interpreters)"
            )
        return TcpBackend(
            task_spec, seed, chaos=chaos, block=block, telemetry=telemetry,
            listen=listen,
        )
    raise ExecutionError(
        f"unknown exec backend {name!r} (expected one of {BACKEND_NAMES})"
    )
