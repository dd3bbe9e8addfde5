#!/usr/bin/env python
"""Gate what profiling, tracing and pooling cost a campaign; exit 1 past a bound.

Integrates a generated 200-process system (``random_system(200, 1, 1,
seed=42)``, TIMING_PACK on 40 fully connected HW nodes), then times
200-trial resilience campaigns at seed 0 in interleaved pairs, the
order within a pair alternating, and gates the median ratio of each
kind of pair.  The pair counts are fixed by the spread measured on a
shared 2-CPU host, where one pair's ratio ranges over ±25%: the
profiler's median reads about 1.02 and needs 80 pairs to stay under
its bound in 10 of 10 runs (40 passed 9 of 10), the telemetry's about
1.01 and needs 40, and the speedup's 1.1-1.5 needs 10.

* ``profiled/plain`` — a run under :class:`repro.obs.profile.Profiler`
  (97 Hz) against one without; both record into a live
  :class:`repro.obs.Recorder`.  At most 1.05.
* ``traced/untraced pooled`` — a run on two lease slots
  (``ExecPolicy(workers=2)``) under a live ``Recorder`` against the
  same run untraced.  At most 1.05.
* ``serial/pooled`` — an in-process run against a two-slot run.  Above
  1.0 on a machine with 2 or more CPUs; on one CPU it is printed only.

Every run must return the same result, and every pooled run must have
engaged (at least 2 slots and 2 leases granted); a run that does not
fails the check.  Each ratio's median and quartiles are printed.

Usage::

    PYTHONPATH=src python scripts/check_overheads.py
"""

from __future__ import annotations

import gc
import statistics
import sys
import time

from repro.allocation.hw_model import fully_connected
from repro.core.framework import FrameworkOptions, Heuristic, IntegrationFramework
from repro.exec import ExecPolicy
from repro.exec.batching import available_cpus
from repro.obs import Recorder, use
from repro.obs.profile import Profiler
from repro.resilience.campaign import run_resilience_campaign
from repro.workloads.generators import random_system

TRIALS = 200
PROFILE_PAIRS = 80
TELEMETRY_PAIRS = 40
SPEEDUP_PAIRS = 10
MAX_PROFILE_OVERHEAD = 1.05
MAX_TELEMETRY_OVERHEAD = 1.05
MIN_SPEEDUP = 1.0


def campaign(outcome, workers: int = 0, traced: bool = False, profiled: bool = False):
    """(result, wall seconds) of one campaign run as configured."""
    recorder = Recorder() if traced or profiled else None
    gc.collect()  # no run pays for the garbage of the one before
    start = time.perf_counter()
    if recorder is None:
        result = _run(outcome, workers)
    else:
        with use(recorder):
            if profiled:
                with Profiler(recorder):
                    result = _run(outcome, workers)
            else:
                result = _run(outcome, workers)
    return result, time.perf_counter() - start


def _run(outcome, workers: int):
    return run_resilience_campaign(
        outcome, trials=TRIALS, seed=0, policy=ExecPolicy(workers=workers)
    )


def pair_ratios(outcome, expected, pairs: int, numerator: dict, denominator: dict):
    """``pairs`` ratios numerator/denominator, and the problems seen."""
    ratios, problems = [], []
    for pair in range(pairs):
        sides = [(0, numerator), (1, denominator)]
        walls = [0.0, 0.0]
        for index, side in sides if pair % 2 == 0 else sides[::-1]:
            result, walls[index] = campaign(outcome, **side)
            if result != expected:
                problems.append(f"pair {pair}: {side} changed the result")
            report = result.exec_report
            if side.get("workers", 0) >= 2 and (
                report.workers < 2 or report.leases_granted < 2
            ):
                problems.append(
                    f"pair {pair}: {side} did not engage the pool "
                    f"({report.workers} slots, {report.leases_granted} leases)"
                )
        ratios.append(walls[0] / walls[1])
    return ratios, problems


def main() -> int:
    system = random_system(
        processes=200, tasks_per_process=1, procedures_per_task=1, seed=42
    )
    framework = IntegrationFramework(
        system, FrameworkOptions(heuristic=Heuristic.TIMING_PACK)
    )
    outcome = framework.integrate(fully_connected(40))
    expected, _ = campaign(outcome)  # also the warm-up run
    pooled = {"workers": 2}
    cpus = available_cpus()
    checks = [
        ("profiled/plain", PROFILE_PAIRS, {"traced": True, "profiled": True},
         {"traced": True}, "<=", MAX_PROFILE_OVERHEAD),
        ("traced/untraced pooled", TELEMETRY_PAIRS, {"workers": 2, "traced": True},
         pooled, "<=", MAX_TELEMETRY_OVERHEAD),
        ("serial/pooled", SPEEDUP_PAIRS, {}, pooled,
         ">", MIN_SPEEDUP if cpus >= 2 else None),
    ]
    failed = False
    for name, pairs, numerator, denominator, sense, bound in checks:
        ratios, problems = pair_ratios(outcome, expected, pairs, numerator, denominator)
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        if bound is None:
            verdict = f"not gated on {cpus} CPU"
        elif (median <= bound) if sense == "<=" else (median > bound):
            verdict = f"ok ({sense} {bound})"
        else:
            verdict = f"FAILED (bound {sense} {bound})"
            failed = True
        print(
            f"{name:<23} median {median:.3f}  quartiles {q1:.3f}-{q3:.3f}  "
            f"over {len(ratios)} pairs: {verdict}"
        )
        for problem in problems:
            print(f"  - {problem}")
        failed = failed or bool(problems)
    print("overheads FAILED" if failed else "overheads ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
