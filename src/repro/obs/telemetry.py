"""Distributed telemetry: worker-side recording, supervisor-side merge.

PR 6 made campaigns distributed but left observability at the
supervisor: everything a shard worker recorded died with its process.
This module closes the loop in both directions:

* **Worker side** — :class:`LeaseTelemetry` runs a private
  :class:`~repro.obs.recorder.Recorder` inside a backend slot while it
  serves one lease.  It opens a ``worker.lease`` root span (tagged with
  the supervisor-minted run id and the lease coordinates), one
  ``worker.block`` child span per RNG block, and flushes every *closed*
  event after each block as a ``telemetry`` message interleaved with the
  partial-aggregate stream — so a worker killed mid-lease has already
  shipped everything but the block in flight.

* **Supervisor side** — :class:`TelemetryMerger` buffers those messages
  per lease and, when the lease settles (done, error, crash, expiry),
  grafts the worker's events into the campaign recorder under the
  ``exec.shards`` span via :meth:`~repro.obs.recorder.Recorder.graft_events`.
  Clocks are normalized from the wall-clock epoch each side stamps
  (worker span times are relative to the worker's ``perf_counter``
  epoch; the offset between the two ``epoch_unix`` anchors maps them
  onto the supervisor's timeline), so the merged trace is one tree that
  ``repro report`` reads whole-campaign.  With a trace sink open, the
  grafted records reach the trace file as each lease settles, next to
  the supervisor's ``exec`` decisions that ``repro exec watch`` turns
  into live lease health.

Telemetry is **result-transparent**: nothing here touches trial
payloads, RNG blocks, or checkpoint fingerprints — a campaign is
bit-identical with telemetry on or off (tested).
"""

from __future__ import annotations

import os
import uuid

from repro.obs.recorder import Recorder


def mint_run_id() -> str:
    """A short opaque id naming one distributed campaign run."""
    return uuid.uuid4().hex[:12]


def make_context(run_id: str) -> dict:
    """The trace context a supervisor ships to workers (JSON-safe)."""
    return {"run_id": run_id}


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class LeaseTelemetry:
    """Records and streams one lease's worth of worker-side telemetry.

    ``emit`` is the slot's message emitter (the same one partials use);
    telemetry messages are ordinary protocol lines the supervisor
    routes to its :class:`TelemetryMerger`.  Events are flushed
    incrementally — after each block, and finally in :meth:`finish`
    *before* the ``done``/``error`` line, so the merger holds the full
    lease record by the time the lease settles.

    A profiled lease (``"profile"`` in the context) runs a
    :class:`~repro.obs.profile.Profiler` for its duration.  Its
    ``SIGPROF`` handler needs the main thread, which is where every
    slot serves: a forked slot, a ``--connect`` worker.  :meth:`finish`
    stops it before its last emit, and ``serve_lease`` stops it on
    every other exit, so a worker that outlives a dropped connection
    is not left with an armed timer.
    """

    def __init__(self, context: dict, lease: dict, emit) -> None:
        self._emit = emit
        self._lease_id = lease.get("id")
        self._shard = lease.get("shard", -1)
        self._seq = 0
        self._cursor = 0
        self.recorder = Recorder()
        # The supervisor asks for worker-side profiling by stamping a
        # sampling rate into the trace context (--profile [HZ]).  The
        # profiler shares this lease's seq counter, so profile batches
        # interleave with telemetry batches under one monotone sequence.
        self.profiler = None
        hz = context.get("profile")
        if hz:
            from repro.obs.profile import Profiler

            self.profiler = Profiler(
                self.recorder, hz=hz, shard=self._shard
            ).start()
        self._root = self.recorder.span(
            "worker.lease",
            run_id=context.get("run_id"),
            lease=self._lease_id,
            shard=self._shard,
            attempt=lease.get("attempt", 1),
            start=lease.get("start"),
            size=lease.get("size"),
            pid=os.getpid(),
        )
        self.recorder.decision(
            "worker", "lease_serve",
            subject=f"lease {self._lease_id}",
            reason="worker accepted shard lease",
            shard=self._shard, pid=os.getpid(),
        )

    def block_span(self, index: int, start: int, size: int):
        """Open the span covering one RNG block's computation."""
        return self.recorder.span(
            "worker.block", index=index, start=start, size=size
        )

    def error(self, start: int, size: int, detail: str) -> None:
        self.recorder.decision(
            "worker", "block_error",
            subject=f"[{start},{start + size})",
            reason=detail[-200:],
            shard=self._shard,
        )

    def flush(self) -> None:
        """Ship every event closed since the last flush."""
        events = self.recorder._log[self._cursor:]
        self._cursor = len(self.recorder._log)
        if events:
            self._seq += 1
            self._emit({
                "type": "telemetry",
                "lease": self._lease_id,
                "shard": self._shard,
                "seq": self._seq,
                "epoch_unix": self.recorder.epoch_unix,
                "events": events,
            })
        self._flush_profile()

    def _flush_profile(self, final: bool = False) -> None:
        """Ship the profiler's samples since the last drain (if any).

        Incremental, like span flushing: a worker killed mid-lease has
        already shipped every drained window.  The final batch ends with
        the worker's cumulative ``resource_summary``.
        """
        if self.profiler is None:
            return
        if final:
            events = self.profiler.stop()
        else:
            events = self.profiler.drain()
        if not events and not final:
            return
        message = {
            "type": "profile",
            "lease": self._lease_id,
            "shard": self._shard,
            "epoch_unix": self.recorder.epoch_unix,
            "events": events,
        }
        if final:
            message["final"] = True
        self._seq += 1
        message["seq"] = self._seq
        self._emit(message)

    def finish(self, status: str) -> None:
        """Close the lease span and flush the remainder."""
        self._root.set(status=status)
        self._root.__exit__(None, None, None)
        self._flush_profile(final=True)
        events = self.recorder._log[self._cursor:]
        self._cursor = len(self.recorder._log)
        self._seq += 1
        self._emit({
            "type": "telemetry",
            "lease": self._lease_id,
            "shard": self._shard,
            "seq": self._seq,
            "epoch_unix": self.recorder.epoch_unix,
            "events": events,
            "final": True,
        })


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
class TelemetryMerger:
    """Buffers worker telemetry per lease and grafts it at settle time.

    Grafting waits for the lease to settle because a lease's root
    ``worker.lease`` span arrives in its *final* batch: merging
    everything at once lets every block span find its true parent.  A
    message arriving after its lease settled (a straggler the
    supervisor already expired) grafts immediately — its orphaned spans
    reparent onto the campaign span, which is exactly what the merged
    trace should show for work the supervisor stopped waiting for.
    """

    def __init__(
        self,
        recorder,
        run_id: str,
        parent_sid: int | None = None,
        parent_depth: int = 0,
    ) -> None:
        self._recorder = recorder
        self.run_id = run_id
        self._parent_sid = parent_sid
        self._parent_depth = parent_depth
        self._buffers: dict[int, list[dict]] = {}
        self._settled: set[int] = set()
        self._seen: set[tuple] = set()
        self.batches = 0
        self.worker_spans = 0

    def add(self, message: dict) -> None:
        """Route one ``telemetry`` or ``profile`` protocol message.

        A network transport may deliver the same batch line twice
        (retransmission, chaos duplication); batches are seq-numbered
        per lease, so replays are dropped here — the merged trace sees
        each batch exactly once.
        """
        seq = message.get("seq")
        if seq is not None:
            key = (message.get("lease"), seq)
            if key in self._seen:
                return  # duplicate delivery of an already-routed batch
            self._seen.add(key)
        self.batches += 1
        lease = message.get("lease")
        if lease in self._settled:
            self._graft([message])
            return
        self._buffers.setdefault(lease, []).append(message)

    def settle(self, lease_id: int) -> None:
        """The lease reached a terminal state; merge what it shipped."""
        if lease_id in self._settled:
            return
        self._settled.add(lease_id)
        batches = self._buffers.pop(lease_id, [])
        if batches:
            self._graft(batches)

    def settle_all(self) -> None:
        for lease_id in list(self._buffers):
            self.settle(lease_id)

    def _graft(self, batches: list[dict]) -> None:
        if not getattr(self._recorder, "enabled", False):
            return
        events: list[dict] = []
        offset = 0.0
        for batch in batches:
            epoch = batch.get("epoch_unix")
            if isinstance(epoch, (int, float)):
                offset = epoch - self._recorder.epoch_unix
            events.extend(batch.get("events") or [])
        if not events:
            return
        self.worker_spans += sum(
            1 for e in events if e.get("type") == "span"
        )
        self._recorder.graft_events(
            events,
            parent_sid=self._parent_sid,
            parent_depth=self._parent_depth,
            t_offset=offset,
        )
