"""Run provenance: who produced a trace, on what.

The paper's §7 point — measured parameters are only meaningful when you
know *what* was measured — applies to our own artifacts too.  Every
trace meta line (format version 2 and later) carries a provenance block
so the analysis layer (:mod:`repro.obs.analyze`) can refuse to compare
incomparable runs.  Timing runs are the business of ``perfbench/``
(the repo's benchmark) and ``scripts/check_overheads.py``, which record
no provenance here.

All collection is best-effort and dependency-free: outside a git
checkout ``git_sha`` is ``None``, never an exception.
"""

from __future__ import annotations

import functools
import hashlib
import os
import platform
import subprocess


@functools.lru_cache(maxsize=1)
def git_sha() -> str | None:
    """The current commit sha, or ``None`` when unavailable.

    Prefers the ``GITHUB_SHA`` env var (set by Actions even on shallow
    checkouts), then asks ``git rev-parse``; cached because traces may
    be written many times per process.
    """
    env_sha = os.environ.get("GITHUB_SHA")
    if env_sha:
        return env_sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def machine_fingerprint() -> str:
    """A short stable id for "this kind of machine".

    Timings recorded on different machines are not comparable at
    tight tolerances; the fingerprint (platform + machine + python
    implementation + cpu count) lets ``repro trace diff`` tell apart
    same-machine reruns from cross-machine ones.
    """
    raw = "|".join(
        (
            platform.system(),
            platform.machine(),
            platform.python_implementation(),
            str(os.cpu_count() or 0),
        )
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:12]


def collect_provenance(workload: str | None = None) -> dict:
    """The provenance block written into trace meta lines.

    Keys: ``repro_version``, ``python``, ``machine`` (fingerprint),
    ``git_sha`` (may be ``None``), and ``workload`` when one was named.
    """
    from repro import __version__

    prov = {
        "repro_version": __version__,
        "python": platform.python_version(),
        "machine": machine_fingerprint(),
        "git_sha": git_sha(),
    }
    if workload is not None:
        prov["workload"] = workload
    return prov
