"""Latency percentiles, provenance, and the printed report."""

from __future__ import annotations

import math
import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_BEYOND = 10


def p90(samples: list[float]) -> tuple[float | None, int]:
    """(nearest-rank 90th percentile, samples beyond it).

    The percentile is withheld (``None``) when fewer than ten samples
    lie beyond it: with so few, it says little about the tail.
    """
    ordered = sorted(samples)
    rank = math.ceil(0.9 * len(ordered))
    beyond = len(ordered) - rank
    if rank == 0 or beyond < MIN_BEYOND:
        return None, beyond
    return ordered[rank - 1], beyond


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``root/.git`` without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_version() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def provenance(root: Path) -> list[str]:
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    env = " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS)
    return [
        f"provenance: git {git_sha(root)}; nproc {usable}",
        f"provenance: python {platform.python_version()}; numpy {numpy.__version__}; "
        f"blas {blas_version()}",
        f"provenance: inherited {env} (recorded, never set)",
    ]


def share(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing was measured."""
    return part / whole if whole else 0.0


def metric_line(name: str, value, unit: str, note: str = "") -> str:
    shown = "n/a" if value is None else f"{value!r} {unit}"
    return f"metric {name} = {shown}" + (f"  ({note})" if note else "")
