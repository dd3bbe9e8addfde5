"""The campaign supervisor's entry point, its ledger and the inline loop.

``run_supervised`` executes a campaign's batch task over block-aligned
trial ranges:

* with ``policy.workers <= 1`` it runs the uncovered blocks in this
  process, in trial order (:func:`run_inline`) — nothing forks;
* with ``workers >= 2`` it hands the campaign to the lease supervisor
  (:func:`repro.exec.shards.run_sharded`) over forked slots, one lease
  per block, so idle slots pull the next block and crashed, hung or
  erroring workers go through the one recovery ladder (re-dispatch with
  backoff, serial rescue, backend abandonment).

A **block** is the task's RNG alignment: the fault kernel's fixed
:data:`~repro.exec.backend.LEASE_BLOCK_TRIALS`-trial RNG block, or
:data:`~repro.exec.backend.SCALAR_BLOCK_TRIALS` for per-trial-seeded
tasks (resilience), whose results cannot depend on how trials are
grouped.  So the result is bit-identical for any worker count, shard
plan, retry history or interrupt/resume schedule.

Both supervisors keep their books in one :class:`Ledger`: the resume
load, the streamed NDJSON checkpoint (one line per banked block), the
interrupt check after every bank, and the manifest seal.  Every decision
is a typed ``exec`` event on the ambient :mod:`repro.obs` recorder.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import CampaignInterrupted, CheckpointError, ExecutionError
from repro.exec.backend import LEASE_BLOCK_TRIALS, block_ranges
from repro.exec.batching import Batch
from repro.exec.checkpoint import (
    CheckpointWriter,
    campaign_fingerprint,
    load_checkpoint,
)
from repro.obs import current

BatchTask = Callable[[int, int, int], Any]
Combine = Callable[[Any, Any], Any]


@dataclass(frozen=True)
class ExecPolicy:
    """Knobs of the campaign supervisor.

    Attributes:
        workers: Worker slots; 0 or 1 runs in-process (blocks and
            checkpointing still apply), 2 or more runs one lease per
            block over forked slots.
        max_attempts: Lease attempts per range before its uncovered
            blocks are rescued in-process.
        backoff_base: First re-dispatch delay (seconds); doubles per
            attempt.
        backoff_max: Upper bound on one re-dispatch delay.
        backoff_jitter: Max fractional jitter added to each delay (drawn
            from a seed-derived RNG, so scheduling is reproducible).
        pool_failure_budget: Slot failures (crashes, lease errors,
            expiries) tolerated before the backend is abandoned and the
            rest runs in-process; 0 derives ``max(6, 3 * workers)``.
        heartbeat_timeout: A lease whose slot sends no heartbeat/partial
            for this many seconds is expired and its uncovered remainder
            re-dispatched.  ``None`` disables straggler detection.  Must
            comfortably exceed the wall time of one block, since
            partials are the heartbeat carrier.
    """

    workers: int = 0
    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    backoff_jitter: float = 0.25
    pool_failure_budget: int = 0
    heartbeat_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ExecutionError("workers must be >= 0")
        if self.max_attempts < 1:
            raise ExecutionError("max_attempts must be >= 1")
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ExecutionError("heartbeat_timeout must be > 0")

    def resolved_failure_budget(self) -> int:
        if self.pool_failure_budget:
            return self.pool_failure_budget
        return max(6, 3 * self.workers)


@dataclass
class ExecReport:
    """What the supervisor did to complete one campaign.

    ``partials`` counts the blocks banked by this run (in-process,
    leased or rescued); ``partials_from_checkpoint`` the entries a
    resume loaded.  ``backend`` is ``"inline"`` for in-process runs,
    whose lease counters all stay 0.
    """

    trials: int
    block: int
    workers: int
    backend: str = "inline"
    shards: int = 0
    leases_granted: int = 0
    partials: int = 0
    partials_from_checkpoint: int = 0
    redispatches: int = 0
    lease_expiries: int = 0
    shard_crashes: int = 0
    serial_rescue_blocks: int = 0
    heartbeats: int = 0
    backend_abandoned: bool = False
    corrupt_checkpoint_lines: int = 0
    protocol_torn_lines: int = 0
    generation_fenced_lines: int = 0
    checkpoint_path: str | None = None
    manifest_path: str | None = None
    elapsed_s: float = 0.0
    run_id: str | None = None
    telemetry_batches: int = 0
    worker_spans: int = 0


class InterruptGuard:
    """Cooperative SIGINT/SIGTERM handling for campaign supervisors.

    Installed (main thread only) for the duration of a supervised run:
    the first signal sets a flag that :meth:`check` converts — at the
    next safe point, *between* checkpoint writes — into
    :class:`~repro.errors.CampaignInterrupted`, so the supervisor's
    cleanup path flushes the checkpoint, seals an ``interrupted``
    manifest, and terminates its workers, leaving a resumable state.  A
    second signal escalates to an immediate ``KeyboardInterrupt`` for
    users who really mean it.
    """

    def __init__(self) -> None:
        self.signaled: str | None = None
        self._previous: dict[int, Any] = {}

    def __enter__(self) -> "InterruptGuard":
        if threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._previous[sig] = signal.signal(sig, self._handle)
                except (ValueError, OSError):  # pragma: no cover - no signals
                    pass
        return self

    def __exit__(self, *exc) -> None:
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _handle(self, signum, frame) -> None:
        if self.signaled is not None:
            raise KeyboardInterrupt
        self.signaled = signal.Signals(signum).name

    def check(self, rec, subject: str) -> None:
        """Raise ``CampaignInterrupted`` if a signal arrived (safe point)."""
        if self.signaled is None:
            return
        rec.decision(
            "exec", "interrupted", subject=subject,
            reason=f"{self.signaled} received; checkpoint flushed and "
            "manifest sealed for resume",
        )
        raise CampaignInterrupted(
            f"{self.signaled}: campaign interrupted at a block boundary; "
            "resume from the checkpoint to continue"
        )


class Ledger:
    """The completed ranges of one campaign and everything that banks them.

    ``done`` maps ``(start, size)`` to a payload.  :meth:`open` loads a
    resume file and opens the checkpoint; :meth:`bank` records one
    block (checkpoint line and report count) and then runs the
    interrupt checks; :meth:`seal` publishes the manifest, complete
    or interrupted.
    """

    def __init__(
        self,
        *,
        kind: str,
        trials: int,
        seed: int,
        fingerprint: str,
        report: ExecReport,
        guard: InterruptGuard,
        chaos=None,
    ) -> None:
        self.kind = kind
        self.trials = trials
        self.seed = seed
        self.fingerprint = fingerprint
        self.report = report
        self.guard = guard
        self.chaos = chaos
        self.rec = current()
        self.done: dict[tuple[int, int], Any] = {}
        self.writer: CheckpointWriter | None = None

    def open(self, checkpoint: str | None, resume: str | None) -> None:
        if resume is not None:
            self._load(resume)
            self.report.partials_from_checkpoint = len(self.done)
        path = checkpoint or resume
        if path is None:
            return
        fresh = not (
            resume is not None and os.path.exists(resume) and path == resume
        )
        self.writer = CheckpointWriter(
            path, self.fingerprint, self.trials, self.seed, fresh=fresh
        )
        self.report.checkpoint_path = path

    def _load(self, resume: str) -> None:
        rec = self.rec
        if not os.path.exists(resume):
            rec.decision(
                "exec", "resume", subject=resume,
                reason="checkpoint missing; starting fresh", entries=0,
            )
            return
        data = load_checkpoint(resume)
        if data.fingerprint is not None and data.fingerprint != self.fingerprint:
            raise CheckpointError(
                f"checkpoint {resume!r} belongs to a different campaign "
                f"(fingerprint {data.fingerprint} != {self.fingerprint})"
            )
        if data.corrupt_lines:
            self.report.corrupt_checkpoint_lines = data.corrupt_lines
            rec.decision(
                "exec", "checkpoint_corrupt", subject=resume,
                reason="corrupt checkpoint lines skipped; their blocks will "
                "be recomputed",
                lines=data.corrupt_lines, detail=data.corrupt_detail[:5],
            )
        self.done.update(data.entries)
        rec.decision(
            "exec", "resume", subject=resume,
            reason="completed ranges loaded from checkpoint",
            entries=len(data.entries), corrupt_lines=data.corrupt_lines,
        )

    def bank(self, start: int, size: int, payload: Any) -> None:
        if (start, size) in self.done:
            return  # a raced re-dispatch finished the same block
        self.done[(start, size)] = payload
        self.report.partials += 1
        rec = self.rec
        writer = self.writer
        if writer is not None:
            writer.record(start, size, payload)
            limit = getattr(self.chaos, "interrupt_after_partials", None)
            if limit is not None and writer.batches_written >= limit:
                rec.decision(
                    "exec", "interrupted", subject=self.kind,
                    reason="chaos: interrupt_after_partials reached",
                    partials_written=writer.batches_written,
                )
                raise CampaignInterrupted(
                    f"chaos interrupt after {writer.batches_written} "
                    f"checkpointed partials"
                )
        self.guard.check(rec, self.kind)

    def seal(self, complete: bool, **extra) -> None:
        """Publish the manifest: ``complete`` or an interrupted run's."""
        if self.writer is None:
            return
        document = {"kind": self.kind, **extra}
        if not complete:
            document["interrupted"] = True
        self.report.manifest_path = self.writer.write_manifest(
            document, complete=complete
        )

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()


# ----------------------------------------------------------------------
# Coverage and assembly over banked ranges
# ----------------------------------------------------------------------
def _find_chain(
    batch: Batch, done: dict
) -> list[tuple[int, int]] | None:
    """Adjacent ``done`` ranges tiling ``batch`` exactly, or None.

    ``done`` can hold overlapping decompositions of the same range —
    e.g. a resumed checkpoint's ``(0, 3)`` alongside ``(0, 2)``/``(2, 2)``
    for a block ``[0, 4)`` — so a greedy walk can dead-end on a valid
    cover.  Search all decompositions, visiting each reachable position
    once (coverage from a position is independent of how it was reached).
    """
    stack: list[tuple[int, list[tuple[int, int]]]] = [(batch.start, [])]
    seen = {batch.start}
    while stack:
        position, chain = stack.pop()
        if position == batch.stop:
            return chain
        for start, size in done:
            if start != position or position + size > batch.stop:
                continue
            nxt = position + size
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, chain + [(start, size)]))
    return None


def _covered(batch: Batch, done: dict, combine: Combine | None) -> bool:
    if (batch.start, batch.size) in done:
        return True
    if combine is None:
        return False
    return _find_chain(batch, done) is not None


def _assemble(batch: Batch, done: dict, combine: Combine | None) -> Any:
    if (batch.start, batch.size) in done:
        return done[(batch.start, batch.size)]
    chain = _find_chain(batch, done) if combine is not None else None
    if chain is None:
        raise ExecutionError(
            f"cannot assemble range [{batch.start},{batch.stop}) from "
            f"completed ranges {sorted(done)}"
        )
    payload = None
    for key in chain:
        piece = done[key]
        payload = piece if payload is None else combine(payload, piece)
    return payload


def uncovered_ranges(
    start: int,
    size: int,
    done: dict,
    combine: Combine | None,
    block: int = LEASE_BLOCK_TRIALS,
) -> list[tuple[int, int]]:
    """Block-aligned sub-ranges of ``[start, start+size)`` not in ``done``.

    Consecutive uncovered blocks merge into one contiguous range (one
    lease can serve them in a single pass).  Coverage is judged per
    block via the chain search, so checkpoint entries written at any
    size count as long as they tile whole blocks; an entry that
    straddles a block boundary or spans several blocks is recomputed.
    """
    missing: list[tuple[int, int]] = []
    for bstart, bsize in block_ranges(start, size, block):
        if _covered(Batch(bstart, bsize), done, combine):
            continue
        if missing and missing[-1][0] + missing[-1][1] == bstart:
            last_start, last_size = missing[-1]
            missing[-1] = (last_start, last_size + bsize)
        else:
            missing.append((bstart, bsize))
    return missing


def run_inline(
    task: BatchTask,
    seed: int,
    start: int,
    size: int,
    ledger: Ledger,
    combine: Combine | None,
    block: int,
) -> int:
    """Run the uncovered blocks of ``[start, start+size)`` in this process.

    Blocks run in trial order and each is banked as it completes, so an
    interrupt loses at most the block in flight.  Returns the number of
    blocks run.  The in-process supervisor and the lease supervisor's
    serial rescue both use this loop.
    """
    ran = 0
    for ustart, usize in uncovered_ranges(start, size, ledger.done, combine, block):
        for bstart, bsize in block_ranges(ustart, usize, block):
            ledger.bank(bstart, bsize, task(bstart, bsize, seed))
            ran += 1
    return ran


# ----------------------------------------------------------------------
# The entry point
# ----------------------------------------------------------------------
def run_supervised(
    task: BatchTask,
    *,
    trials: int,
    seed: int,
    kind: str,
    params: dict | None = None,
    policy: ExecPolicy | None = None,
    combine: Combine | None = None,
    checkpoint: str | None = None,
    resume: str | None = None,
    chaos=None,
    block: int = LEASE_BLOCK_TRIALS,
) -> tuple[list[Any], ExecReport]:
    """Run ``task`` over every block of a campaign, supervised.

    ``task(start, size, seed)`` must be a pure function of its arguments
    (per-trial RNGs via :func:`~repro.exec.batching.derive_seed`, or
    whole ``block``-aligned RNG blocks) returning a JSON-serializable
    payload; ``combine`` merges the payloads of two *adjacent* trial
    ranges.  It is required with ``workers >= 2`` and lets resume reuse
    checkpoint entries that subdivide a block.  ``chaos`` is a
    :class:`~repro.exec.chaos.ShardChaos`.

    Returns ``(payloads, report)`` with payloads in trial order: one per
    block in-process, one per lease-supervisor shard when pooled.
    """
    policy = policy or ExecPolicy()
    if trials < 1:
        raise ExecutionError(f"trials must be >= 1, got {trials}")
    if block < 1:
        raise ExecutionError(f"block must be >= 1, got {block}")
    if policy.workers >= 2:
        from repro.exec.shards import run_sharded

        # One shard per block, so an idle slot always pulls the next one.
        return run_sharded(
            task,
            trials=trials,
            seed=seed,
            kind=kind,
            params=params,
            policy=policy,
            shards=-(-trials // block),
            combine=combine,
            checkpoint=checkpoint,
            resume=resume,
            chaos=chaos,
            block=block,
        )
    fingerprint = campaign_fingerprint(kind, seed, trials, params or {})
    rec = current()
    report = ExecReport(trials=trials, block=block, workers=policy.workers)
    t0 = time.perf_counter()
    with rec.span(
        "exec.supervise",
        kind=kind,
        trials=trials,
        block=block,
        workers=policy.workers,
        fingerprint=fingerprint,
    ), InterruptGuard() as guard:
        ledger = Ledger(
            kind=kind, trials=trials, seed=seed, fingerprint=fingerprint,
            report=report, guard=guard, chaos=chaos,
        )
        try:
            ledger.open(checkpoint, resume)
            run_inline(task, seed, 0, trials, ledger, combine, block)
            payloads = [
                _assemble(Batch(start, size), ledger.done, combine)
                for start, size in block_ranges(0, trials, block)
            ]
            ledger.seal(True, backend=report.backend, blocks=len(payloads))
            rec.decision(
                "exec", "complete", subject=kind,
                reason="all blocks accounted for",
                batches=len(payloads),
                from_checkpoint=report.partials_from_checkpoint,
            )
        except BaseException:
            # The checkpoint is already flushed per block; the manifest
            # records the interruption (``complete`` stays false so
            # nothing mistakes a partial run for a finished one).
            ledger.seal(False, backend=report.backend)
            raise
        finally:
            ledger.close()
            report.elapsed_s = time.perf_counter() - t0
    return payloads, report
