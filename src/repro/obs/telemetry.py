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
  ``repro report`` reads whole-campaign.

* **Live health** — :class:`HealthBoard` maintains a per-shard
  :class:`ShardHealth` model (blocks covered, trials/s, heartbeat lag,
  redispatches, rescue state) and atomically rewrites a ``--status-file``
  JSON that ``repro exec watch`` tails.

Telemetry is **result-transparent**: nothing here touches trial
payloads, RNG blocks, or checkpoint fingerprints — a campaign is
bit-identical with telemetry on or off (tested).
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field

from repro.errors import ObservabilityError
from repro.obs.recorder import Recorder

#: NDJSON format tag for raw worker-telemetry streams (the per-lease
#: ``telemetry`` messages as they crossed the transport, before merging).
TELEMETRY_FORMAT = "repro-worker-telemetry"
TELEMETRY_VERSION = 1

#: Status-file format tag (``--status-file`` / ``repro exec watch``).
STATUS_FORMAT = "repro-campaign-status"
STATUS_VERSION = 1


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

    def block_done(self, size: int) -> None:
        self.recorder.counter("worker_blocks_total").inc(
            shard=str(self._shard)
        )
        self.recorder.counter("worker_trials_total").inc(
            size, shard=str(self._shard)
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
        already shipped every drained window.  The final batch carries
        the cumulative ``resources`` summary for the supervisor's
        health board.
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
            message["resources"] = self.profiler.summary()
        self._seq += 1
        message["seq"] = self._seq
        self._emit(message)

    def finish(self, status: str) -> None:
        """Close the lease span and flush the remainder, plus counters."""
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
            "counters": _counter_values(self.recorder),
        })


def _counter_values(recorder: Recorder) -> dict:
    """Flat ``{name: {label_text: value}}`` view of a recorder's counters."""
    out: dict = {}
    snapshot = recorder.metrics.snapshot()
    for name, data in snapshot["metrics"].items():
        if data.get("type") == "counter":
            out[name] = dict(data.get("series", {}))
    return out


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
        self._stream: list[dict] = []

    def add(self, message: dict, slot: int | None = None) -> None:
        """Route one ``telemetry`` protocol message.

        A network transport may deliver the same batch line twice
        (retransmission, chaos duplication); batches are seq-numbered
        per lease, so replays are dropped here — the merged trace and
        the raw stream both see each batch exactly once.
        """
        seq = message.get("seq")
        if seq is not None:
            key = (message.get("lease"), seq)
            if key in self._seen:
                return  # duplicate delivery of an already-routed batch
            self._seen.add(key)
        self.batches += 1
        record = dict(message)
        if slot is not None:
            record["slot"] = slot
        self._stream.append(record)
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
            for name, series in (batch.get("counters") or {}).items():
                counter = self._recorder.counter(name)
                for label_text, value in series.items():
                    labels = _parse_label_text(label_text)
                    counter.inc(value, **labels)
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

    # ------------------------------------------------------------------
    # Raw-stream export
    # ------------------------------------------------------------------
    def write_stream(self, path_or_file) -> None:
        """Write the raw telemetry messages as a validated NDJSON stream."""
        from repro.obs.ndjson import dump_ndjson

        meta = {
            "type": "meta",
            "format": TELEMETRY_FORMAT,
            "version": TELEMETRY_VERSION,
            "run_id": self.run_id,
            "batches": self.batches,
        }
        dump_ndjson([meta] + self._stream, path_or_file)


def _parse_label_text(label_text: str) -> dict:
    if not label_text:
        return {}
    labels = {}
    for pair in label_text.split(","):
        key, _, value = pair.partition("=")
        labels[key] = value
    return labels


def validate_telemetry_stream(events: list[dict]) -> list[str]:
    """Structural problems of a worker-telemetry stream (empty = valid).

    A stream is a meta line plus ``telemetry`` and ``profile`` batch
    lines (both seq-numbered on one per-lease sequence).  Parent
    references *across* batches of one lease are legal (a lease's root
    span ships in its final batch — or never, if the worker was killed
    first), so unresolved parents are not an error here; the merged
    trace's :func:`~repro.obs.ndjson.validate_trace` enforces tree
    integrity after grafting reparents them.
    """
    problems: list[str] = []
    if not events:
        return ["stream is empty (no meta line)"]
    meta = events[0]
    if meta.get("type") != "meta" or meta.get("format") != TELEMETRY_FORMAT:
        problems.append(
            f"event 0: expected a {TELEMETRY_FORMAT} meta line, "
            f"got type={meta.get('type')!r} format={meta.get('format')!r}"
        )
    elif not isinstance(meta.get("version"), int):
        problems.append("event 0: meta line has no integer version")
    last_seq: dict[int, int] = {}
    for i, event in enumerate(events[1:], start=1):
        where = f"event {i}"
        btype = event.get("type")
        if btype not in ("telemetry", "profile"):
            problems.append(
                f"{where}: unexpected record type {btype!r}"
            )
            continue
        lease = event.get("lease")
        if not isinstance(lease, int):
            problems.append(f"{where}: {btype} batch has no lease id")
            continue
        seq = event.get("seq")
        if not isinstance(seq, int) or seq < 1:
            problems.append(f"{where}: {btype} batch has no sequence number")
        elif seq <= last_seq.get(lease, 0):
            problems.append(
                f"{where}: lease {lease} sequence went backwards "
                f"({last_seq[lease]} -> {seq})"
            )
        else:
            last_seq[lease] = seq
        if not isinstance(event.get("epoch_unix"), (int, float)):
            problems.append(f"{where}: {btype} batch has no epoch_unix")
        inner = event.get("events")
        if not isinstance(inner, list):
            problems.append(f"{where}: {btype} batch has no events list")
            continue
        for j, rec in enumerate(inner):
            kind = rec.get("type") if isinstance(rec, dict) else None
            if kind == "span":
                for key in ("sid", "name", "t_start"):
                    if key not in rec:
                        problems.append(
                            f"{where}: span {j} missing key {key!r}"
                        )
            elif kind == "decision":
                for key in ("category", "action"):
                    if key not in rec:
                        problems.append(
                            f"{where}: decision {j} missing key {key!r}"
                        )
            elif kind == "profile":
                if "kind" not in rec:
                    problems.append(
                        f"{where}: profile event {j} has no kind"
                    )
            else:
                problems.append(
                    f"{where}: events[{j}] has unknown type {kind!r}"
                )
    return problems


# ----------------------------------------------------------------------
# Live campaign health
# ----------------------------------------------------------------------
@dataclass
class ShardHealth:
    """The supervisor's live model of one shard's progress."""

    shard: int
    start: int
    size: int
    blocks_total: int
    blocks_done: int = 0
    trials_done: int = 0
    leases: int = 0
    redispatches: int = 0
    expiries: int = 0
    crashes: int = 0
    rescued_blocks: int = 0
    heartbeats: int = 0
    state: str = "pending"
    # Worker-reported process resources (from profile batch summaries;
    # stay zero unless the campaign runs with --profile).
    rss_peak_bytes: int = 0
    cpu_s: float = 0.0
    gc_collections: int = 0
    last_beat: float | None = field(default=None, repr=False)
    started: float | None = field(default=None, repr=False)

    def snapshot(self, now: float) -> dict:
        elapsed = (now - self.started) if self.started is not None else 0.0
        return {
            "shard": self.shard,
            "start": self.start,
            "size": self.size,
            "blocks_total": self.blocks_total,
            "blocks_done": self.blocks_done,
            "trials_done": self.trials_done,
            "trials_per_s": (
                round(self.trials_done / elapsed, 1) if elapsed > 0 else 0.0
            ),
            "heartbeat_lag_s": (
                round(now - self.last_beat, 3)
                if self.last_beat is not None
                else None
            ),
            "leases": self.leases,
            "redispatches": self.redispatches,
            "expiries": self.expiries,
            "crashes": self.crashes,
            "rescued_blocks": self.rescued_blocks,
            "heartbeats": self.heartbeats,
            "state": self.state,
            "rss_peak_bytes": self.rss_peak_bytes,
            "cpu_s": round(self.cpu_s, 3),
            "gc_collections": self.gc_collections,
        }


class HealthBoard:
    """Per-shard health, with throttled atomic status-file rewrites.

    The supervisor calls the event hooks from its lease loop; consumers
    read the JSON the board writes (``repro exec watch``, or anything
    that can stat a file).  Writes go to a temp file in the same
    directory then :func:`os.replace` — readers never see a torn file.
    """

    def __init__(
        self,
        plan,
        block: int,
        *,
        run_id: str,
        kind: str,
        trials: int,
        backend: str,
        status_file: str | None = None,
        interval_s: float = 0.2,
    ) -> None:
        self.run_id = run_id
        self.kind = kind
        self.trials = trials
        self.backend = backend
        self._status_file = status_file
        self._interval = interval_s
        self._last_write = 0.0
        self._t0 = time.monotonic()
        self.shards: dict[int, ShardHealth] = {}
        self._starts: list[tuple[int, int]] = []
        for shard in plan:
            blocks = (shard.size + block - 1) // block
            self.shards[shard.id] = ShardHealth(
                shard=shard.id,
                start=shard.start,
                size=shard.size,
                blocks_total=blocks,
            )
            self._starts.append((shard.start, shard.id))
        self._starts.sort()

    def shard_of(self, trial_start: int) -> int:
        """Which shard owns the block starting at ``trial_start``."""
        owner = self._starts[0][1] if self._starts else 0
        for start, shard_id in self._starts:
            if start > trial_start:
                break
            owner = shard_id
        return owner

    def _touch(self, shard: int) -> ShardHealth | None:
        health = self.shards.get(shard)
        if health is not None and health.started is None:
            health.started = time.monotonic()
        return health

    # Event hooks -------------------------------------------------------
    def lease_granted(self, shard: int) -> None:
        health = self._touch(shard)
        if health is not None:
            health.leases += 1
            if health.state in ("pending", "stalled"):
                health.state = "running"
        self.maybe_write()

    def heartbeat(self, shard: int) -> None:
        health = self._touch(shard)
        if health is not None:
            health.heartbeats += 1
            health.last_beat = time.monotonic()
        self.maybe_write()

    def block_done(self, trial_start: int, size: int, source: str) -> None:
        health = self._touch(self.shard_of(trial_start))
        if health is not None:
            health.blocks_done += 1
            health.trials_done += size
            health.last_beat = time.monotonic()
            if source == "serial":
                health.rescued_blocks += 1
            if health.blocks_done >= health.blocks_total:
                health.state = "done"
        self.maybe_write()

    def redispatch(self, shard: int) -> None:
        health = self.shards.get(shard)
        if health is not None:
            health.redispatches += 1
        self.maybe_write()

    def expired(self, shard: int) -> None:
        health = self.shards.get(shard)
        if health is not None:
            health.expiries += 1
            health.state = "stalled"
        self.maybe_write()

    def crashed(self, shard: int) -> None:
        health = self.shards.get(shard)
        if health is not None:
            health.crashes += 1
            health.state = "stalled"
        self.maybe_write()

    def rescuing(self, shard: int) -> None:
        health = self._touch(shard)
        if health is not None and health.state != "done":
            health.state = "rescue"
        self.maybe_write()

    def resources(self, shard: int, summary: dict) -> None:
        """Fold a worker's ``resource_summary`` into the shard's lane.

        Summaries are cumulative per worker process; across the leases a
        shard ran we keep the peak RSS and the largest CPU/GC figures —
        a later attempt by a fresh process restarts its counters, so
        ``max`` (not sum) is the honest aggregate.
        """
        health = self.shards.get(shard)
        if health is None or not isinstance(summary, dict):
            return
        health.rss_peak_bytes = max(
            health.rss_peak_bytes, int(summary.get("rss_peak_bytes") or 0)
        )
        health.cpu_s = max(
            health.cpu_s, float(summary.get("cpu_s") or 0.0)
        )
        health.gc_collections = max(
            health.gc_collections, int(summary.get("gc_collections") or 0)
        )
        self.maybe_write()

    # Snapshots ---------------------------------------------------------
    def snapshot(self, complete: bool = False) -> dict:
        now = time.monotonic()
        shards = [
            self.shards[sid].snapshot(now) for sid in sorted(self.shards)
        ]
        trials_done = sum(s["trials_done"] for s in shards)
        elapsed = now - self._t0
        return {
            "format": STATUS_FORMAT,
            "version": STATUS_VERSION,
            "run_id": self.run_id,
            "kind": self.kind,
            "backend": self.backend,
            "trials": self.trials,
            "trials_done": trials_done,
            "elapsed_s": round(elapsed, 3),
            "trials_per_s": (
                round(trials_done / elapsed, 1) if elapsed > 0 else 0.0
            ),
            "complete": complete,
            "updated_unix": time.time(),
            "shards": shards,
        }

    def maybe_write(self, complete: bool = False, force: bool = False) -> None:
        if self._status_file is None:
            return
        now = time.monotonic()
        if not force and not complete and (
            now - self._last_write < self._interval
        ):
            return
        self._last_write = now
        write_status(self._status_file, self.snapshot(complete=complete))


def write_status(path: str, status: dict) -> None:
    """Atomically rewrite ``path`` with a status JSON document."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            json.dump(status, handle, indent=2)
            handle.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise ObservabilityError(
            f"cannot write status file {path!r}: {exc}"
        ) from exc


def load_status(path: str) -> dict:
    """Read a status file; raises ObservabilityError when unreadable."""
    try:
        with open(path) as handle:
            status = json.load(handle)
    except OSError as exc:
        raise ObservabilityError(
            f"cannot read status file {path!r}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ObservabilityError(
            f"status file {path!r} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(status, dict) or status.get("format") != STATUS_FORMAT:
        raise ObservabilityError(
            f"{path!r} is not a {STATUS_FORMAT} file"
        )
    return status


def render_status(status: dict) -> str:
    """Human-readable campaign status (what ``repro exec watch`` shows)."""
    from repro.metrics.report import format_table

    done = status.get("trials_done", 0)
    total = status.get("trials", 0) or 1
    percent = 100.0 * done / total
    state = "complete" if status.get("complete") else "running"
    lines = [
        f"campaign {status.get('kind', '?')}  run {status.get('run_id', '?')}"
        f"  backend={status.get('backend', '?')}  [{state}]",
        f"trials {done}/{status.get('trials', 0)} ({percent:.1f}%)  "
        f"{status.get('trials_per_s', 0.0)} trials/s  "
        f"elapsed {status.get('elapsed_s', 0.0)}s",
        "",
    ]
    shards = status.get("shards", [])
    # Resource lanes only appear once some worker shipped a profile
    # summary — an unprofiled campaign keeps the familiar table.
    with_resources = any(
        shard.get("rss_peak_bytes") or shard.get("cpu_s")
        for shard in shards
    )
    rows = []
    for shard in shards:
        lag = shard.get("heartbeat_lag_s")
        row = [
            str(shard.get("shard")),
            shard.get("state", "?"),
            f"{shard.get('blocks_done', 0)}/{shard.get('blocks_total', 0)}",
            str(shard.get("trials_per_s", 0.0)),
            "-" if lag is None else f"{lag:.2f}",
            str(shard.get("leases", 0)),
            str(shard.get("redispatches", 0)),
            str(shard.get("expiries", 0)),
            str(shard.get("crashes", 0)),
            str(shard.get("rescued_blocks", 0)),
        ]
        if with_resources:
            row.append(
                f"{(shard.get('rss_peak_bytes') or 0) / 1e6:.1f}"
            )
            row.append(f"{shard.get('cpu_s') or 0.0:.2f}")
        rows.append(row)
    headers = ["shard", "state", "blocks", "trials/s", "beat lag",
               "leases", "redisp", "expired", "crashes", "rescued"]
    if with_resources:
        headers += ["peak rss MB", "cpu s"]
    lines.append(format_table(headers, rows))
    return "\n".join(lines)
