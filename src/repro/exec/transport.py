"""The subprocess shard transport: isolated workers over stdin/stdout pipes.

:class:`SubprocessBackend` opens each slot as a fresh
``python -m repro exec shard-worker`` interpreter and speaks the slot
protocol of :mod:`repro.exec.backend` over its stdin (supervisor lines)
and stdout (worker lines).  Pipes rather than one socket keep the two
directions apart, so a worker that closes its stdout reads as EOF — slot
death — even while it still holds stdin.  Its stderr drains into a
bounded tail that rides the slot's ``exit`` event.

:func:`shard_worker_main` is the worker side, mounted at
``python -m repro exec shard-worker``: :func:`~repro.exec.backend.serve_session`
over stdin/stdout, rebuilding the task from the hello's spec.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.exec.backend import _READ_CHUNK, ExecBackend, _Slot, serve_session

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


class SubprocessBackend(ExecBackend):
    """Isolated ``repro exec shard-worker`` processes (``subprocess``).

    Each slot is a fresh interpreter whose stdin/stdout pipes are the
    slot's channel; its stderr feeds a bounded tail for crash reports.
    """

    name = "subprocess"

    def _open(self, slot_id: int) -> _Slot:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "exec", "shard-worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_worker_env(),
        )
        os.set_blocking(process.stdout.fileno(), False)
        return _Slot(
            slot_id, process.stdout, process.stdin, process,
            _StderrTail(process.stderr),
        )


# ----------------------------------------------------------------------
# The worker side: python -m repro exec shard-worker
# ----------------------------------------------------------------------
def shard_worker_main(stdin=None, stdout=None) -> int:
    """Serve shard leases over stdin/stdout until EOF, ``bye`` or ``shutdown``.

    Exit codes: 0 on a clean end, 2 on a malformed hello (the spec could
    not be rebuilt — a config error, not a trial failure).
    """
    return 2 if serve_session(stdin, stdout) == "bad-hello" else 0


