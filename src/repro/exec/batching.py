"""Seed derivation and trial ranges: the determinism contract's base.

The determinism contract (docs/EXECUTION.md) rests on two rules:

* **per-trial seeds** — trial ``t`` of a campaign with seed ``S`` always
  runs on ``random.Random(derive_seed(S, t))``, regardless of which
  block, worker, or lease attempt executes it (the vector kernel draws
  whole fixed RNG blocks instead).  Seeds are derived with SHA-256, so
  they are stable across platforms, Python versions and
  ``PYTHONHASHSEED``.
* **ranges are pure trial ranges** — a :class:`Batch` carries no state
  beyond ``(start, size)``; resuming from a checkpoint that covers
  different ranges cannot change any trial's outcome.

Campaign aggregates are merged in trial order (see the campaign modules),
so the final result is bit-identical for any worker count, shard plan,
retry history, or interrupt/resume schedule.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from repro.errors import ExecutionError

_SEED_DOMAIN = "repro-exec"


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(requested: int | str) -> int:
    """Resolve a worker-count request, including ``"auto"``.

    ``"auto"`` sizes the pool to the CPUs actually available — a pool
    larger than the machine is a *pessimization* (the workers time-slice
    one another and the fork/dispatch overhead buys nothing), which is
    exactly how the ``parallel-campaign-200`` bench once reported a
    0.884x "speedup" from 4 workers on a single-CPU container.  On one
    CPU this resolves to 1, i.e. the supervised serial path.
    """
    if requested == "auto":
        return available_cpus()
    try:
        workers = int(requested)
    except (TypeError, ValueError):
        raise ExecutionError(
            f"workers must be an integer or 'auto', got {requested!r}"
        ) from None
    if workers < 0:
        raise ExecutionError("workers must be >= 0")
    return workers


def derive_seed(campaign_seed: int, index: int, purpose: str = "trial") -> int:
    """A stable 63-bit seed for unit ``index`` of a seeded campaign.

    ``purpose`` separates independent seed streams (trial RNGs vs. the
    supervisor's backoff jitter) drawn from one campaign seed.
    """
    text = f"{_SEED_DOMAIN}:{purpose}:{campaign_seed}:{index}"
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class Batch:
    """A contiguous range of campaign trials: ``[start, start + size)``."""

    start: int
    size: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ExecutionError(f"batch start must be >= 0, got {self.start}")
        if self.size < 1:
            raise ExecutionError(f"batch size must be >= 1, got {self.size}")

    @property
    def stop(self) -> int:
        return self.start + self.size

    def trials(self) -> range:
        return range(self.start, self.stop)
