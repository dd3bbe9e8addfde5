"""The lease supervisor: block-aligned shard leases over backends.

A campaign is split into :class:`Shard` s whose boundaries fall on
``block``-trial RNG blocks, so **any** shard assignment, re-dispatch,
partial completion or resume yields aggregates bit-identical to an
in-process run (the kernel simulates covering blocks whole; per-trial
seeded tasks cannot see the schedule).  Pooled ``run_supervised`` runs
land here too, with one shard per block over forked slots.

The supervisor (:func:`run_sharded`) grants each shard's uncovered
range as a **lease** to a backend slot and tracks liveness by
heartbeat: workers stream one partial aggregate per block (each partial
doubles as a heartbeat), and a lease whose slot goes silent past
``ExecPolicy.heartbeat_timeout`` is *expired* — the slot is killed and
the lease's **uncovered remainder** re-dispatched with exponential
backoff and deterministic jitter.  Completed blocks are never re-run:
every partial is banked through the shared
:class:`~repro.exec.runner.Ledger` into the standard NDJSON checkpoint,
so a supervisor crash mid-campaign resumes without repeating finished
blocks, in-process or pooled.

The recovery ladder: per-lease attempts exhaust into in-process serial
rescue of the remaining blocks (:func:`~repro.exec.runner.run_inline`),
and a backend exceeding the pool failure budget is abandoned wholesale —
the campaign still completes in-process.  Every step is a typed
``exec`` decision event (``lease_grant`` / ``lease_expired`` /
``redispatch`` / ``shard_crash`` / ``serial_fallback`` /
``backend_abandoned``) on the ambient recorder.  A completed campaign
says ``bye`` to its slots, so remote TCP workers exit instead of
re-dialing; interrupted and abandoned runs send ``shutdown``.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import CampaignInterrupted, ExecutionError
from repro.exec.backend import (
    LEASE_BLOCK_TRIALS,
    ExecBackend,
    build_task,
    make_backend,
    note_torn_line,
)
from repro.exec.batching import Batch, available_cpus, derive_seed
from repro.exec.checkpoint import campaign_fingerprint
from repro.exec.runner import (
    ExecPolicy,
    ExecReport,
    InterruptGuard,
    Ledger,
    _assemble,
    run_inline,
    uncovered_ranges,
)
from repro.obs import current
from repro.obs.telemetry import TelemetryMerger, make_context, mint_run_id

_POLL_S = 0.02


@dataclass(frozen=True)
class Shard:
    """A contiguous, block-aligned slice of a campaign's trials."""

    id: int
    start: int
    size: int

    @property
    def stop(self) -> int:
        return self.start + self.size


def plan_shards(
    trials: int, shards: int, block: int = LEASE_BLOCK_TRIALS
) -> tuple[Shard, ...]:
    """Split ``trials`` into at most ``shards`` block-aligned shards.

    Shard boundaries are multiples of ``block`` (the final shard may end
    short at ``trials``), and blocks are distributed as evenly as the
    block count allows; a campaign smaller than ``shards`` blocks gets
    one shard per block.  The plan is a pure function of its arguments —
    resume re-derives the identical plan.
    """
    if trials < 1:
        raise ExecutionError(f"trials must be >= 1, got {trials}")
    if shards < 1:
        raise ExecutionError(f"shards must be >= 1, got {shards}")
    if block < 1:
        raise ExecutionError(f"block must be >= 1, got {block}")
    n_blocks = (trials + block - 1) // block
    shards = min(shards, n_blocks)
    base, extra = divmod(n_blocks, shards)
    plan: list[Shard] = []
    position = 0
    for index in range(shards):
        blocks = base + (1 if index < extra else 0)
        start = position * block
        stop = min((position + blocks) * block, trials)
        plan.append(Shard(index, start, stop - start))
        position += blocks
    return tuple(plan)


@dataclass
class _Lease:
    id: int
    shard: int
    start: int
    size: int
    attempt: int
    slot: int
    last_beat: float = field(default_factory=time.monotonic)
    heartbeats: int = 0

    def message(self) -> dict:
        return {
            "type": "lease",
            "id": self.id,
            "shard": self.shard,
            "start": self.start,
            "size": self.size,
            "attempt": self.attempt,
        }


def run_sharded(
    task: Callable[[int, int, int], Any] | None = None,
    *,
    trials: int,
    seed: int,
    kind: str,
    params: dict | None = None,
    policy: ExecPolicy | None = None,
    shards: int = 0,
    backend: str | ExecBackend = "local",
    task_spec: dict | None = None,
    combine: Callable[[Any, Any], Any] | None = None,
    checkpoint: str | None = None,
    resume: str | None = None,
    chaos=None,
    block: int = LEASE_BLOCK_TRIALS,
    run_id: str | None = None,
    listen: str | None = None,
    profile: float | None = None,
) -> tuple[list[Any], ExecReport]:
    """Run a campaign as shard leases over an execution backend.

    ``task``/``task_spec`` follow :func:`~repro.exec.backend.make_backend`;
    ``combine`` is required (partial aggregates arrive per block and must
    merge).  Returns ``(payloads, report)`` with one payload per planned
    shard, in trial order.

    When the ambient recorder is enabled, the supervisor mints a run
    id, ships trace context to every slot, and merges the worker
    telemetry streamed back into its own trace (clock-normalized; see
    :mod:`repro.obs.telemetry`) — the merged file reads as one
    distributed tree, and its ``exec`` decisions are the live lease
    health ``repro exec watch`` reads.  All of this is
    result-transparent: payloads, seeds, and checkpoint fingerprints are
    byte-identical with telemetry on or off.
    """
    if combine is None:
        raise ExecutionError("run_sharded requires a combine function")
    policy = policy or ExecPolicy()
    if shards < 0:
        raise ExecutionError(f"shards must be >= 0, got {shards}")
    n_blocks = (trials + block - 1) // block
    shards = shards or min(max(2, available_cpus()), n_blocks)
    plan = plan_shards(trials, shards, block)
    slots = min(policy.workers or min(len(plan), available_cpus()), len(plan))
    slots = max(1, slots)
    local_task = task if task is not None else build_task(task_spec or {})
    fingerprint = campaign_fingerprint(kind, seed, trials, params or {})
    rec = current()
    report = ExecReport(
        trials=trials,
        block=block,
        workers=slots,
        backend=backend if isinstance(backend, str) else backend.name,
        shards=len(plan),
    )
    run_id = run_id or (mint_run_id() if rec.enabled else None)
    telemetry = make_context(run_id) if rec.enabled else None
    if telemetry is not None and profile:
        # Workers read the sampling rate out of the trace context, so
        # profiling crosses every transport without protocol changes.
        telemetry["profile"] = float(profile)
    report.run_id = run_id

    t0 = time.perf_counter()
    with rec.span(
        "exec.shards",
        kind=kind,
        trials=trials,
        shards=len(plan),
        slots=slots,
        backend=report.backend,
        fingerprint=fingerprint,
        run_id=run_id,
    ) as shards_span, InterruptGuard() as guard:
        merger = (
            TelemetryMerger(
                rec, run_id,
                parent_sid=shards_span.sid,
                parent_depth=shards_span.depth,
            )
            if telemetry is not None
            else None
        )
        ledger = Ledger(
            kind=kind, trials=trials, seed=seed, fingerprint=fingerprint,
            report=report, guard=guard, chaos=chaos,
        )
        manifest = {"shards": len(plan), "backend": report.backend}
        try:
            ledger.open(checkpoint, resume)
            rec.decision(
                "exec", "shard_plan", subject=kind,
                reason="campaign split into block-aligned shard leases",
                shards=len(plan), block=block, slots=slots,
                backend=report.backend,
            )
            _supervise(
                plan, policy, backend, task, task_spec, local_task, seed,
                chaos, block, combine, ledger, report, rec, guard,
                telemetry, merger, listen,
            )
            # Every shard must now assemble from banked ranges.
            payloads = [
                _assemble(Batch(s.start, s.size), ledger.done, combine)
                for s in plan
            ]
            ledger.seal(True, **manifest)
            rec.decision(
                "exec", "complete", subject=kind,
                reason="all shards accounted for",
                batches=len(plan),
                shards=len(plan),
                redispatches=report.redispatches,
                from_checkpoint=report.partials_from_checkpoint,
            )
        except BaseException:
            ledger.seal(False, **manifest)
            raise
        finally:
            ledger.close()
            if merger is not None:
                report.telemetry_batches = merger.batches
                report.worker_spans = merger.worker_spans
            report.elapsed_s = time.perf_counter() - t0
    return payloads, report


def _supervise(
    plan, policy, backend, task, task_spec, local_task, seed, chaos, block,
    combine, ledger, report, rec, guard,
    telemetry=None, merger=None, listen=None,
) -> None:
    """The lease event loop (see module docstring for the policy)."""
    jitter_rng = random.Random(derive_seed(seed, 0, purpose="lease-jitter"))
    failure_budget = policy.resolved_failure_budget()
    heartbeat_timeout = policy.heartbeat_timeout
    done = ledger.done

    def rescue(start: int, size: int, reason: str, shard: int = -1) -> None:
        """Run a range in-process, banking per-block partials."""
        rec.decision(
            "exec", "serial_fallback", subject=f"[{start},{start + size})",
            reason=reason, shard=shard,
        )
        try:
            report.serial_rescue_blocks += run_inline(
                local_task, seed, start, size, ledger, combine, block
            )
        except CampaignInterrupted:
            raise
        except Exception as exc:
            raise ExecutionError(
                f"range [{start},{start + size}) failed even in serial "
                f"rescue: {exc}"
            ) from exc

    # Work queue: (shard_id, start, size, attempt); pop() -> plan order.
    pending: list[tuple[int, int, int, int]] = []
    for shard in reversed(plan):
        for start, size in reversed(
            uncovered_ranges(shard.start, shard.size, done, combine, block)
        ):
            pending.append((shard.id, start, size, 1))
    retry_heap: list[tuple[float, int, int, int, int, int]] = []
    retry_tiebreak = 0
    failures = 0
    next_lease_id = 0
    inflight: dict[int, _Lease] = {}  # lease id -> lease
    slot_lease: dict[int, int] = {}  # slot id -> lease id

    if not pending:
        return  # checkpoint already covers the campaign

    exec_backend = (
        backend
        if isinstance(backend, ExecBackend)
        else make_backend(
            backend,
            task=task,
            task_spec=task_spec,
            seed=seed,
            chaos=chaos,
            block=block,
            listen=listen,
        )
    )
    # This run's trace context, also for a backend the caller built.
    exec_backend.telemetry = telemetry

    def fail_lease(lease: _Lease, cause: str) -> None:
        nonlocal retry_tiebreak
        slot_lease.pop(lease.slot, None)
        inflight.pop(lease.id, None)
        if merger is not None:
            merger.settle(lease.id)
        remainder = uncovered_ranges(
            lease.start, lease.size, done, combine, block
        )
        if not remainder:
            return  # every block landed before the lease died
        if lease.attempt >= policy.max_attempts:
            for start, size in remainder:
                rescue(
                    start, size,
                    f"{cause}; lease attempts exhausted, running in-process",
                    lease.shard,
                )
            return
        delay = min(
            policy.backoff_max,
            policy.backoff_base * (2 ** (lease.attempt - 1)),
        )
        delay *= 1.0 + policy.backoff_jitter * jitter_rng.random()
        report.redispatches += len(remainder)
        for start, size in remainder:
            rec.decision(
                "exec", "redispatch", subject=f"[{start},{start + size})",
                reason=f"{cause}; re-dispatching uncovered remainder "
                "with backoff",
                shard=lease.shard, attempt=lease.attempt + 1,
                delay_s=round(delay, 4),
            )
            retry_tiebreak += 1
            heapq.heappush(
                retry_heap,
                (
                    time.monotonic() + delay, retry_tiebreak,
                    lease.shard, start, size, lease.attempt + 1,
                ),
            )

    completed = False
    try:
        abandoned = False
        while pending or retry_heap or inflight:
            guard.check(rec, "shards")
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                _, _, shard_id, start, size, attempt = heapq.heappop(retry_heap)
                pending.append((shard_id, start, size, attempt))

            if not abandoned and failures >= failure_budget:
                abandoned = True
                report.backend_abandoned = True
                rec.decision(
                    "exec", "backend_abandoned",
                    reason=f"{failures} slot failures >= budget "
                    f"{failure_budget}; finishing serially",
                    backend=report.backend,
                )
                exec_backend.shutdown()
                for lease in list(inflight.values()):
                    pending.append(
                        (lease.shard, lease.start, lease.size, lease.attempt)
                    )
                inflight.clear()
                slot_lease.clear()
                while retry_heap:
                    _, _, shard_id, start, size, attempt = heapq.heappop(
                        retry_heap
                    )
                    pending.append((shard_id, start, size, attempt))

            if abandoned:
                while pending:
                    shard_id, start, size, _ = pending.pop()
                    rescue(start, size, "backend abandoned", shard_id)
                break

            # Keep enough live slots for the work still queued.
            want = min(
                report.workers, len(inflight) + len(pending) + len(retry_heap)
            )
            while len(exec_backend.live_slots()) < want:
                exec_backend.spawn_slot()
            idle = [
                s for s in exec_backend.live_slots() if s not in slot_lease
            ]
            for slot in idle:
                if not pending:
                    break
                shard_id, start, size, attempt = pending.pop()
                remainder = uncovered_ranges(start, size, done, combine, block)
                for rstart, rsize in remainder[1:]:
                    pending.append((shard_id, rstart, rsize, attempt))
                if not remainder:
                    continue  # a raced completion covered it meanwhile
                start, size = remainder[0]
                lease = _Lease(
                    id=next_lease_id, shard=shard_id, start=start,
                    size=size, attempt=attempt, slot=slot,
                )
                next_lease_id += 1
                inflight[lease.id] = lease
                slot_lease[slot] = lease.id
                report.leases_granted += 1
                rec.decision(
                    "exec", "lease_grant", subject=f"[{start},{start + size})",
                    reason="shard lease granted to backend slot",
                    shard=shard_id, slot=slot, attempt=attempt,
                    lease=lease.id,
                )
                exec_backend.dispatch(slot, lease.message())

            for event in exec_backend.poll(_POLL_S):
                if event.kind == "exit":
                    lease_id = slot_lease.pop(event.slot, None)
                    if lease_id is None:
                        continue  # an idle slot died; replaced next pass
                    lease = inflight[lease_id]
                    failures += 1
                    report.shard_crashes += 1
                    crash_attrs = {}
                    if event.stderr:
                        # The dead worker's last words, bounded by the
                        # transport's tail capture.
                        crash_attrs["stderr_tail"] = event.stderr[-400:]
                    rec.decision(
                        "exec", "shard_crash",
                        subject=f"[{lease.start},{lease.start + lease.size})",
                        reason=f"slot {event.slot} exited "
                        f"(code {event.exitcode}) mid-lease",
                        shard=lease.shard, lease=lease.id,
                        heartbeats=lease.heartbeats,
                        **crash_attrs,
                    )
                    fail_lease(lease, "shard slot crashed")
                    continue
                message = event.message or {}
                mtype = message.get("type")
                if mtype == "ready":
                    continue
                if mtype == "protocol_torn":
                    # The worker could not decode one of *our* lines.
                    report.protocol_torn_lines += 1
                    note_torn_line(event.slot, "worker")
                    continue
                if mtype in ("telemetry", "profile"):
                    # Routed before the inflight check: a straggler's
                    # telemetry is still worth merging after its lease
                    # was expired or superseded.  Profile batches share
                    # the per-lease sequence and the merge machinery.
                    if merger is not None:
                        merger.add(message)
                    continue
                lease = inflight.get(message.get("lease"))
                if lease is None:
                    continue  # late message from a superseded lease
                lease.last_beat = time.monotonic()
                if mtype == "heartbeat":
                    report.heartbeats += 1
                    lease.heartbeats += 1
                elif mtype == "partial":
                    ledger.bank(
                        message["start"], message["size"], message["payload"]
                    )
                elif mtype == "done":
                    inflight.pop(lease.id, None)
                    slot_lease.pop(lease.slot, None)
                    rec.decision(
                        "exec", "lease_done",
                        subject=f"[{lease.start},{lease.start + lease.size})",
                        reason="lease served to completion",
                        shard=lease.shard, lease=lease.id, slot=lease.slot,
                        heartbeats=lease.heartbeats,
                    )
                    if merger is not None:
                        merger.settle(lease.id)
                elif mtype == "error":
                    failures += 1
                    rec.decision(
                        "exec", "lease_error",
                        subject=f"[{lease.start},{lease.start + lease.size})",
                        reason="worker raised inside the lease",
                        detail=str(message.get("detail", ""))[-400:],
                        shard=lease.shard, lease=lease.id,
                        heartbeats=lease.heartbeats,
                    )
                    exec_backend.kill(lease.slot)
                    fail_lease(lease, "lease error")

            if heartbeat_timeout is not None:
                now = time.monotonic()
                for lease in list(inflight.values()):
                    if now - lease.last_beat <= heartbeat_timeout:
                        continue
                    failures += 1
                    report.lease_expiries += 1
                    rec.decision(
                        "exec", "lease_expired",
                        subject=f"[{lease.start},{lease.start + lease.size})",
                        reason=f"no heartbeat for {heartbeat_timeout:.3f}s; "
                        f"killing slot {lease.slot} and re-dispatching",
                        shard=lease.shard, lease=lease.id, slot=lease.slot,
                        heartbeats=lease.heartbeats,
                    )
                    exec_backend.kill(lease.slot)
                    fail_lease(lease, "lease heartbeat expired")
        completed = True
    finally:
        # Fold in lines the transport itself discarded (supervisor-side
        # torn frames, generation-fenced zombie traffic).
        report.protocol_torn_lines += getattr(exec_backend, "torn_lines", 0)
        report.generation_fenced_lines += getattr(
            exec_backend, "fenced_lines", 0
        )
        exec_backend.shutdown(bye=completed)
        if merger is not None:
            merger.settle_all()
