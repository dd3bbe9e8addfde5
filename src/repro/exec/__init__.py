"""repro.exec — crash-safe supervised execution for Monte Carlo campaigns.

The dependability analyses are only as trustworthy as the tooling that
runs them; this package applies the paper's own fault-tolerance thinking
to the campaign supervisor (De Florio's application-level fault
tolerance), with one recovery ladder for every way a campaign runs:

* :mod:`repro.exec.batching` — SHA-256 per-trial seed derivation and
  trial ranges (bit-identical results for any worker count, shard plan,
  or retry history);
* :mod:`repro.exec.runner` — the entry point ``run_supervised``
  (in-process blocks with ``workers <= 1``, forked lease slots with
  ``workers >= 2``), the checkpoint/resume ledger both supervisors
  share, and signal-safe interruption
  (:class:`~repro.exec.runner.InterruptGuard`);
* :mod:`repro.exec.checkpoint` — streamed NDJSON checkpoints with an
  atomic-rename completion manifest, tolerant of torn trailing lines,
  plus structural validation for CI;
* :mod:`repro.exec.backend` — the slot protocol, written once: the
  worker loop (``serve_session``), the supervisor-side backend (slot
  record, receive loop, generation fence, one reaping teardown), the
  forked-slot pool, and task specs a remote worker can rebuild from
  JSON;
* :mod:`repro.exec.transport` — slots as isolated
  ``python -m repro exec shard-worker`` subprocesses over pipes;
* :mod:`repro.exec.tcp` — slots as TCP connections (``--backend tcp`` /
  ``--listen`` / ``--connect``), with reconnecting workers, a ``bye``
  on completion, and the deterministic
  :class:`~repro.exec.chaos.NetChaos` fault layer;
* :mod:`repro.exec.shards` — the lease supervisor: block-aligned shard
  planning, heartbeat-based straggler expiry, re-dispatch with backoff,
  serial rescue and backend abandonment;
* :mod:`repro.exec.chaos` — fault injection into the supervisor itself
  (:class:`ShardChaos`, :class:`NetChaos`), backing ``repro exec chaos``.

See ``docs/EXECUTION.md`` for the determinism contract, the checkpoint
schema, and the lease lifecycle.
"""

from repro.exec.backend import (
    LEASE_BLOCK_TRIALS,
    SCALAR_BLOCK_TRIALS,
    BackendEvent,
    ExecBackend,
    ForkPoolBackend,
    block_ranges,
    build_task,
    make_backend,
    note_torn_line,
    selftest_spec,
    serve_lease,
)
from repro.exec.batching import (
    Batch,
    available_cpus,
    derive_seed,
    resolve_workers,
)
from repro.exec.chaos import (
    ChaosSelfTestResult,
    NetChaos,
    ShardChaos,
    run_shard_chaos_selftest,
    truncate_file,
)
from repro.exec.checkpoint import (
    CheckpointData,
    CheckpointWriter,
    campaign_fingerprint,
    coverage_gaps,
    load_checkpoint,
    validate_checkpoint,
)
from repro.exec.runner import (
    ExecPolicy,
    ExecReport,
    InterruptGuard,
    run_supervised,
    uncovered_ranges,
)
from repro.exec.shards import (
    Shard,
    plan_shards,
    run_sharded,
)
from repro.exec.tcp import TcpBackend, tcp_worker_main

__all__ = [
    "Batch",
    "BackendEvent",
    "ChaosSelfTestResult",
    "CheckpointData",
    "CheckpointWriter",
    "ExecBackend",
    "ExecPolicy",
    "ExecReport",
    "ForkPoolBackend",
    "InterruptGuard",
    "LEASE_BLOCK_TRIALS",
    "NetChaos",
    "SCALAR_BLOCK_TRIALS",
    "Shard",
    "ShardChaos",
    "TcpBackend",
    "available_cpus",
    "block_ranges",
    "build_task",
    "campaign_fingerprint",
    "coverage_gaps",
    "derive_seed",
    "load_checkpoint",
    "make_backend",
    "note_torn_line",
    "plan_shards",
    "resolve_workers",
    "run_shard_chaos_selftest",
    "run_sharded",
    "run_supervised",
    "selftest_spec",
    "serve_lease",
    "tcp_worker_main",
    "truncate_file",
    "uncovered_ranges",
    "validate_checkpoint",
]
