"""The TCP shard transport: slots that can live on other hosts.

:class:`TcpBackend` opens a TCP listener; each slot is one worker
connection — ``python -m repro exec shard-worker --connect HOST:PORT``,
spawned on loopback by the backend itself for tests and single-host
runs, or started by hand on remote hosts when the backend was given
``--listen``.  The connection carries the slot protocol of
:mod:`repro.exec.backend` unchanged; the lease supervisor, checkpoints
and telemetry merge do not know which carrier they run on.

Robustness model:

* **Connection loss is slot death.**  EOF or a socket error on a
  worker's connection drops the slot and surfaces an ``exit`` event;
  the supervisor's existing expiry/re-dispatch/serial-rescue ladder
  reclaims the lease.  Nothing waits on a dead wire.
* **Reconnection is a fresh registration.**  A worker that dials back
  in is accepted as a brand-new slot with a new id — and so a new
  generation — the supervisor never resurrects the old lease, it
  re-dispatches the uncovered remainder wherever it likes.
* **Generations fence zombies.**  The backend drops any line whose
  generation does not match the connection it arrived on, and workers
  skip leases stamped for an older connection, so a delayed or
  duplicated write from a zombie connection can never corrupt a fresh
  slot's lease accounting.
* **Duplicated delivery is idempotent.**  ``partial`` banking, ``done``
  handling, and telemetry batch merging all tolerate the same line
  arriving twice — proven by the :class:`~repro.exec.chaos.NetChaos`
  schedules in ``run_shard_chaos_selftest``.

:class:`~repro.exec.chaos.NetChaos` plugs into the shared receive path
(drops, partitions, delays, torn frames, duplicated lines) so every one
of those claims is tested deterministically, not asserted.
"""

from __future__ import annotations

import socket
import subprocess
import sys
import time

from repro.errors import ExecutionError
from repro.exec.backend import (
    _IO_TIMEOUT_S,
    LEASE_BLOCK_TRIALS,
    ExecBackend,
    _Slot,
    serve_socket,
)
from repro.exec.transport import _StderrTail, _worker_env

#: How long a ``spawn_slot`` waits for a worker to dial in.
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


class TcpBackend(ExecBackend):
    """Workers over real TCP connections (``tcp``).

    ``listen=None`` (the default) binds an ephemeral loopback port and
    spawns its own ``--connect`` workers — fully self-contained, the
    mode tests and single-host campaigns use.  ``listen="HOST:PORT"``
    binds there and *waits* for hand-started remote workers instead.
    Each slot is one accepted connection.

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
        net_chaos=None,
    ) -> None:
        super().__init__(task_spec, seed, chaos, block, telemetry)
        self._net_chaos = net_chaos
        self._spawn_workers = listen is None
        host, port = _parse_hostport(listen or "127.0.0.1:0", "--listen")
        try:
            self._listener = socket.create_server((host, port), backlog=16)
        except OSError as exc:
            raise ExecutionError(
                f"cannot bind lease listener on {host}:{port}: {exc}"
            ) from exc
        self._listener.settimeout(_ACCEPT_TIMEOUT_S)
        bound_host, bound_port = self._listener.getsockname()[:2]
        connect_host = (
            "127.0.0.1" if bound_host in ("0.0.0.0", "::") else bound_host
        )
        #: Where workers dial in (``HOST:PORT``, port resolved if 0).
        self.address = f"{connect_host}:{bound_port}"
        # Spawned worker processes not yet matched to a connection.
        self._unclaimed: list[tuple[subprocess.Popen, _StderrTail]] = []

    def _open(self, slot_id: int) -> _Slot:
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
                f"{_ACCEPT_TIMEOUT_S:.0f}s: {exc}"
            ) from None
        conn.settimeout(_IO_TIMEOUT_S)
        process = tail = None
        if self._unclaimed:
            # Best-effort association for diagnostics: a reconnecting
            # worker may claim a newer process's tail, which only ever
            # mislabels stderr, never lease accounting.
            process, tail = self._unclaimed.pop(0)
        return _Slot(slot_id, conn, conn.makefile("wb"), process, tail)

    def shutdown(self, bye: bool = False) -> None:
        # Closing the listener first resets workers still waiting in its
        # backlog, so the reap below finds them exiting.
        try:
            self._listener.close()
        except OSError:
            pass
        self._retired.extend(self._unclaimed)
        self._unclaimed.clear()
        super().shutdown(bye)


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
    :func:`~repro.exec.backend.serve_session` over the socket — a
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
        end = serve_socket(sock)
        code = 2 if end == "bad-hello" else 0
        if end == "bye" or attempts_left <= 0:
            return code
        attempts_left -= 1
        time.sleep(retry_delay_s)
