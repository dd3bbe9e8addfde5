"""The TCP shard transport: remote workers over newline-framed JSON.

:class:`TcpBackend` is the first transport whose slots can live on a
*different machine*.  The supervisor opens a TCP listener; workers —
``python -m repro exec shard-worker --connect HOST:PORT``, spawned on
loopback by the backend itself for tests and single-host runs, or
started by hand on remote hosts with ``--listen`` — dial in and speak
exactly the protocol of :mod:`repro.exec.transport`: one ``hello`` line
down, ``ready`` back, then leases served by
:func:`repro.exec.backend.serve_lease` with heartbeats, per-block
partials, and interleaved telemetry batches.  The lease supervisor,
checkpoints, and telemetry merge are reused byte-for-byte; only the
carrier changed.

Robustness model:

* **Connection loss is slot death.**  EOF or a socket error on a
  worker's connection drops the slot and surfaces an ``exit`` event;
  the supervisor's existing expiry/re-dispatch/serial-rescue ladder
  reclaims the lease.  Nothing waits on a dead wire.
* **Reconnection is a fresh registration.**  A worker that dials back
  in is accepted as a brand-new slot with a new id — the supervisor
  never resurrects the old lease, it re-dispatches the uncovered
  remainder wherever it likes.
* **Generations fence zombies.**  Every connection gets a monotonically
  increasing *generation* token, carried in the hello and echoed in
  every worker message; the supervisor drops any line whose generation
  does not match the connection it arrived on, and workers skip leases
  stamped for an older connection.  A delayed or duplicated write from
  a zombie connection can therefore never corrupt a fresh slot's
  lease accounting.
* **Duplicated delivery is idempotent.**  ``partial`` banking, ``done``
  handling, and telemetry batch merging all tolerate the same line
  arriving twice — proven by the :class:`~repro.exec.chaos.NetChaos`
  schedules in ``run_shard_chaos_selftest``.

:class:`~repro.exec.chaos.NetChaos` plugs into the receive path of this
backend (drops, partitions, delays, torn frames, duplicated lines) so
every one of those claims is tested deterministically, not asserted.
"""

from __future__ import annotations

import json
import selectors
import socket
import subprocess
import sys
import time

from repro.errors import CampaignInterrupted, ExecutionError
from repro.exec.backend import (
    LEASE_BLOCK_TRIALS,
    BackendEvent,
    ExecBackend,
    note_fenced_line,
    note_torn_line,
)
from repro.exec.transport import (
    _JOIN_GRACE_S,
    _READ_CHUNK,
    _StderrTail,
    _farewell,
    _reap,
    _worker_env,
    serve_session,
)

#: Socket I/O timeout.  Bounds every blocking send/recv so a wedged
#: peer can never hang the supervisor; a recv timeout is treated as
#: "no data yet", never as slot death.
_IO_TIMEOUT_S = 5.0
_ACCEPT_TIMEOUT_S = 30.0


def _parse_hostport(value: str, what: str) -> tuple[str, int]:
    """``HOST:PORT`` -> ``(host, port)`` with a pointed error."""
    host, sep, port_text = str(value).rpartition(":")
    try:
        port = int(port_text)
        if not sep or not host or not (0 <= port <= 65535):
            raise ValueError
    except ValueError:
        raise ExecutionError(
            f"{what} must be HOST:PORT, got {value!r}"
        ) from None
    return host, port


class _TcpSlot:
    """One accepted worker connection plus its receive-side state."""

    def __init__(
        self,
        slot_id: int,
        generation: int,
        conn: socket.socket,
        process: subprocess.Popen | None = None,
        stderr_tail: _StderrTail | None = None,
    ) -> None:
        self.id = slot_id
        self.generation = generation
        self.conn = conn
        self.buffer = bytearray()
        self.lines_seen = 0
        self.release_at: float | None = None  # NetChaos delay gate
        self.dup_rng = None  # NetChaos duplicate stream
        self.process = process
        self.stderr_tail = stderr_tail

    def write(self, payload: bytes) -> None:
        try:
            self.conn.sendall(payload)
        except (OSError, ValueError):
            pass  # connection died; its EOF event reclaims the work

    def close_conn(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class TcpBackend(ExecBackend):
    """Shard backend #3: workers over real TCP connections.

    ``listen=None`` (the default) binds an ephemeral loopback port and
    spawns its own ``--connect`` workers — fully self-contained, the
    mode tests and single-host campaigns use.  ``listen="HOST:PORT"``
    binds there and *waits* for hand-started remote workers instead
    (``spawn_workers`` overrides the coupling if you need to).

    ``net_chaos`` (:class:`repro.exec.chaos.NetChaos`) injects
    deterministic faults into the receive path; see the class docs.
    """

    name = "tcp"

    def __init__(
        self,
        task_spec: dict,
        seed: int,
        chaos=None,
        block: int = LEASE_BLOCK_TRIALS,
        telemetry: dict | None = None,
        listen: str | None = None,
        spawn_workers: bool | None = None,
        net_chaos=None,
        accept_timeout_s: float = _ACCEPT_TIMEOUT_S,
    ) -> None:
        chaos_dict = chaos.to_dict() if chaos is not None else None
        self._hello_base = {
            "type": "hello",
            "spec": task_spec,
            "seed": seed,
            "chaos": chaos_dict,
            "block": block,
            "telemetry": telemetry,
        }
        try:
            json.dumps(self._hello_base, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise ExecutionError(
                f"task spec is not JSON-serializable: {exc}"
            ) from exc
        if spawn_workers is None:
            spawn_workers = listen is None
        self._spawn_workers = spawn_workers
        self._accept_timeout_s = accept_timeout_s
        self._net_chaos = net_chaos
        host, port = _parse_hostport(listen or "127.0.0.1:0", "--listen")
        try:
            self._listener = socket.create_server((host, port), backlog=16)
        except OSError as exc:
            raise ExecutionError(
                f"cannot bind lease listener on {host}:{port}: {exc}"
            ) from exc
        self._listener.settimeout(accept_timeout_s)
        bound_host, bound_port = self._listener.getsockname()[:2]
        connect_host = (
            "127.0.0.1" if bound_host in ("0.0.0.0", "::") else bound_host
        )
        #: Where workers dial in (``HOST:PORT``, port resolved if 0).
        self.address = f"{connect_host}:{bound_port}"
        self._selector = selectors.DefaultSelector()
        self._slots: dict[int, _TcpSlot] = {}
        self._next_id = 0
        self._generation = 0
        self._lines_total = 0
        self._partitioned = False
        self._closed = False
        # Spawned worker processes not yet matched to a connection, and
        # processes whose connection already dropped (reaped at
        # shutdown so their stderr tails stay readable meanwhile).
        self._unclaimed: list[tuple[subprocess.Popen, _StderrTail]] = []
        self._retired: list[tuple[subprocess.Popen, _StderrTail]] = []
        #: Torn / stale-generation line counts (report + test surface).
        self.torn_lines = 0
        self.fenced_lines = 0

    # -- slot lifecycle -------------------------------------------------
    def spawn_slot(self) -> int:
        if self._closed:
            raise ExecutionError("tcp backend already shut down")
        if self._spawn_workers:
            process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "exec", "shard-worker",
                    "--connect", self.address,
                ],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                env=_worker_env(),
            )
            self._unclaimed.append((process, _StderrTail(process.stderr)))
        try:
            conn, _addr = self._listener.accept()
        except (TimeoutError, OSError) as exc:
            raise ExecutionError(
                f"no worker dialed in on {self.address} within "
                f"{self._accept_timeout_s:.0f}s: {exc}"
            ) from None
        conn.settimeout(_IO_TIMEOUT_S)
        process = tail = None
        if self._unclaimed:
            # Best-effort association for diagnostics: a reconnecting
            # worker may claim a newer process's tail, which only ever
            # mislabels stderr, never lease accounting.
            process, tail = self._unclaimed.pop(0)
        slot = _TcpSlot(self._next_id, self._generation, conn, process, tail)
        if (
            self._net_chaos is not None
            and slot.id in self._net_chaos.duplicate_slots
        ):
            slot.dup_rng = self._net_chaos.rng_for(slot.id)
        self._next_id += 1
        self._generation += 1
        self._slots[slot.id] = slot
        self._selector.register(conn, selectors.EVENT_READ, slot)
        hello = {**self._hello_base, "generation": slot.generation}
        slot.write(json.dumps(hello, sort_keys=True).encode("utf-8") + b"\n")
        return slot.id

    def live_slots(self) -> list[int]:
        return list(self._slots)

    def dispatch(self, slot: int, lease: dict) -> None:
        target = self._slots[slot]
        stamped = {**lease, "generation": target.generation}
        target.write(
            json.dumps(stamped, sort_keys=True).encode("utf-8") + b"\n"
        )

    # -- receive path ---------------------------------------------------
    def _drop(self, slot: _TcpSlot, events: list[BackendEvent]) -> None:
        try:
            self._selector.unregister(slot.conn)
        except (KeyError, ValueError):
            pass
        slot.close_conn()
        stderr = (
            slot.stderr_tail.text() if slot.stderr_tail is not None else None
        )
        exitcode = slot.process.poll() if slot.process is not None else None
        if slot.process is not None:
            self._retired.append((slot.process, slot.stderr_tail))
        del self._slots[slot.id]
        events.append(
            BackendEvent("exit", slot.id, exitcode=exitcode, stderr=stderr)
        )

    def _partition(self, events: list[BackendEvent]) -> None:
        self._partitioned = True
        for slot in list(self._slots.values()):
            self._drop(slot, events)
        if self._net_chaos.partition_interrupt:
            raise CampaignInterrupted(
                "net chaos: full partition severed every worker connection"
            )

    def _parse(self, slot: _TcpSlot, events: list[BackendEvent]) -> None:
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
            except json.JSONDecodeError:
                self.torn_lines += 1
                note_torn_line(slot.id, "supervisor")
            else:
                if isinstance(message, dict):
                    if message.get("generation") != slot.generation:
                        # The fence: traffic stamped for another
                        # connection never reaches the supervisor.
                        self.fenced_lines += 1
                        note_fenced_line(slot.id, message.get("generation"))
                    else:
                        for _ in range(copies):
                            events.append(
                                BackendEvent(
                                    "message", slot.id, message=message
                                )
                            )
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
                    self._partition(events)
                    return

    def poll(self, timeout: float) -> list[BackendEvent]:
        events: list[BackendEvent] = []
        for slot in self._slots.values():
            if slot.stderr_tail is not None:
                slot.stderr_tail.drain()
        if not self._slots:
            time.sleep(timeout)
            return events
        for key, _mask in self._selector.select(timeout):
            slot: _TcpSlot = key.data
            if slot.id not in self._slots:
                continue
            chaos = self._net_chaos
            if (
                chaos is not None
                and slot.release_at is None
                and slot.id in chaos.delay_slots
            ):
                slot.release_at = time.monotonic() + chaos.delay_slots[slot.id]
            try:
                chunk = slot.conn.recv(_READ_CHUNK)
            except (BlockingIOError, InterruptedError, TimeoutError):
                continue  # no data after all; never a death signal
            except OSError:
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
        if self._net_chaos is not None:
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

    # -- teardown -------------------------------------------------------
    def kill(self, slot: int) -> None:
        victim = self._slots.pop(slot, None)
        if victim is None:
            return
        try:
            self._selector.unregister(victim.conn)
        except (KeyError, ValueError):
            pass
        victim.close_conn()
        if victim.process is not None:
            if victim.process.poll() is None:
                victim.process.kill()
            try:
                victim.process.wait(_JOIN_GRACE_S)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass
        if victim.stderr_tail is not None:
            victim.stderr_tail.close()

    def shutdown(self, bye: bool = False) -> None:
        if self._closed:
            return
        self._closed = True
        for slot in self._slots.values():
            slot.write(_farewell(bye))
        for slot in list(self._slots.values()):
            try:
                self._selector.unregister(slot.conn)
            except (KeyError, ValueError):
                pass
            slot.close_conn()
            if slot.process is not None:
                self._retired.append((slot.process, slot.stderr_tail))
        self._slots.clear()
        self._retired.extend(self._unclaimed)
        self._unclaimed.clear()
        _reap(self._retired)
        try:
            self._listener.close()
        except OSError:
            pass
        self._selector.close()


# ----------------------------------------------------------------------
# The worker side: python -m repro exec shard-worker --connect HOST:PORT
# ----------------------------------------------------------------------
def tcp_worker_main(
    address: str,
    reconnect: int = 0,
    retry_delay_s: float = 0.5,
    connect_timeout_s: float = 10.0,
) -> int:
    """Dial a supervisor and serve leases; optionally dial again.

    Each successful connection runs one full
    :func:`~repro.exec.transport.serve_session` over the socket — a
    fresh hello, a fresh generation, a fresh slot id on the supervisor
    side.  A ``bye`` (the campaign completed) ends the worker at once.
    Otherwise ``reconnect`` bounds how many times it re-dials after a
    session ends (dropped connection, shutdown, or a failed connect), so
    a worker can wait out a restarted supervisor; a lost connection
    mid-lease is *not* an error here — the supervisor already reclaimed
    the lease, so the worker just starts over as a new slot.

    Exit codes: 0 after a served session, 2 on a bad hello, 3 when the
    supervisor could never be reached.
    """
    host, port = _parse_hostport(address, "--connect")
    attempts_left = max(0, int(reconnect))
    code = 3
    while True:
        try:
            sock = socket.create_connection(
                (host, port), timeout=connect_timeout_s
            )
        except OSError:
            if attempts_left <= 0:
                return code
            attempts_left -= 1
            time.sleep(retry_delay_s)
            continue
        sock.settimeout(None)
        reader = writer = None
        end = "lost"  # connection died mid-session; the supervisor's
        #               lease machinery reclaims the work
        try:
            reader = sock.makefile("r", encoding="utf-8")
            writer = sock.makefile("w", encoding="utf-8")
            end = serve_session(stdin=reader, stdout=writer)
        except (OSError, ValueError):
            pass
        finally:
            for stream in (reader, writer):
                try:
                    if stream is not None:
                        stream.close()
                except OSError:
                    pass
            try:
                sock.close()
            except OSError:
                pass
        code = 2 if end == "bad-hello" else 0
        if end == "bye" or attempts_left <= 0:
            return code
        attempts_left -= 1
        time.sleep(retry_delay_s)
