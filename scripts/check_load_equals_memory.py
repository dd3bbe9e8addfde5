"""Check that a system read from a file integrates and audits as built.

Dumps ``random_system(1000, 1, 1, seed=7)`` (3,000 FCMs, about 450k
influence edges) to a file, then runs

    repro integrate FILE --hw-nodes 250 --heuristic timing-pack --out OUT
    repro audit FILE --influence-budget 0.595

and compares the outcome JSON and the audit's output (4,151 findings)
with what ``integrate`` and ``audit_system`` give on the same system
built in memory through the API.  Exits 0 when both are equal, 1
otherwise.

Usage (from the repository root):

    PYTHONPATH=src python scripts/check_load_equals_memory.py [--workdir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

from repro.allocation import fully_connected
from repro.core.framework import FrameworkOptions, Heuristic, MappingApproach, integrate
from repro.io.serialization import dump_system, outcome_to_dict
from repro.verification.checks import audit_system
from repro.workloads import random_system

# The system, the HW graph and the audit's budget the docstring names.
PROCESSES = 1000
SEED = 7
HW_NODES = 250
BUDGET = 0.595


def _cli(*args: str) -> tuple[int, str, float]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "repro", *args], capture_output=True, text=True
    )
    return done.returncode, done.stdout, time.perf_counter() - start


def _build():
    return random_system(PROCESSES, 1, 1, seed=SEED)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args(argv)

    workdir = args.workdir or tempfile.mkdtemp(prefix="load-equals-memory-")
    os.makedirs(workdir, exist_ok=True)
    system_file = os.path.join(workdir, "system.json")
    outcome_file = os.path.join(workdir, "outcome.json")
    dump_system(_build(), system_file)
    # Exit 1 also means an infeasible outcome, which the CLI still
    # writes; a run that crashes must not leave an older file to compare.
    if os.path.exists(outcome_file):
        os.remove(outcome_file)
    ok = True

    code, _out, seconds = _cli(
        "integrate", system_file, "--hw-nodes", str(HW_NODES),
        "--heuristic", Heuristic.TIMING_PACK.value, "--out", outcome_file,
    )
    options = FrameworkOptions(
        heuristic=Heuristic.TIMING_PACK, mapping=MappingApproach.IMPORTANCE
    )
    expected = outcome_to_dict(integrate(_build(), fully_connected(HW_NODES), options))
    same = code in (0, 1) and os.path.exists(outcome_file)
    if same:
        with open(outcome_file) as handle:
            same = json.load(handle) == json.loads(json.dumps(expected))
    ok = ok and same
    print(f"integrate: {'equal' if same else 'DIFFERENT'} (exit {code}, {seconds:.2f} s)")

    code, out, seconds = _cli("audit", system_file, "--influence-budget", str(BUDGET))
    report = audit_system(_build(), influence_budget=BUDGET)
    lines = (
        ["audit passed"]
        if report.passed
        else [f"finding: {line}" for line in report.describe()]
    )
    same = out.splitlines() == lines and code == (0 if report.passed else 1)
    ok = ok and same
    print(
        f"audit: {'equal' if same else 'DIFFERENT'} ({len(report.describe())} "
        f"findings, exit {code}, {seconds:.2f} s)"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
