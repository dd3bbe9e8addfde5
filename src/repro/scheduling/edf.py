"""Earliest-deadline-first scheduling of aperiodic jobs on one processor.

Two complementary tools:

* :func:`demand_feasible` — the exact processor-demand criterion: a job
  set is feasible on one preemptive processor iff for every interval
  ``[t1, t2]`` delimited by a release and a deadline, the total work of
  jobs entirely contained in the interval does not exceed its length.
  (EDF is optimal for preemptive uniprocessor scheduling, so this decides
  feasibility outright.)
* :func:`edf_schedule` — an explicit preemptive EDF simulation producing
  the actual schedule slices, used by examples/reports and the
  non-preemptive comparison.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import SchedulingError
from repro.scheduling.task_model import Job, ScheduleSlice

_EPS = 1e-9


def demand_feasible(jobs: list[Job]) -> bool:
    """Exact preemptive uniprocessor feasibility (processor demand)."""
    return demand_feasible_triples([(job.release, job.deadline, job.work) for job in jobs])


def demand_feasible_triples(jobs: Sequence[tuple[float, float, float]]) -> bool:
    """The processor-demand criterion over (release, deadline, work) triples.

    Every interval ``[t1, t2]`` from a release to a later deadline must
    hold no more work than its length, counting the jobs that lie in it
    within ``_EPS``.  Each interval's work is added in job order, one
    job after another from 0.0.
    """
    if not jobs:
        return True
    releases = sorted({r for r, _d, _w in jobs})
    deadlines = sorted({d for _r, d, _w in jobs})
    for t1 in releases:
        lo = t1 - _EPS
        for t2 in deadlines:
            if t2 <= t1:
                continue
            hi = t2 + _EPS
            demand = 0.0
            for r, d, w in jobs:
                if r >= lo and d <= hi:
                    demand += w
            if demand > (t2 - t1) + _EPS:
                return False
    return True


@dataclass(frozen=True)
class EDFResult:
    """Outcome of an EDF simulation."""

    feasible: bool
    slices: tuple[ScheduleSlice, ...]
    missed: tuple[str, ...]  # jobs that missed their deadline

    @property
    def makespan(self) -> float:
        return max((s.end for s in self.slices), default=0.0)

    def completion_time(self, job: str) -> float:
        """Finish time of ``job``; raises if it never ran to completion."""
        ends = [s.end for s in self.slices if s.job == job]
        if not ends:
            raise SchedulingError(f"job {job!r} never ran")
        return max(ends)


def edf_schedule(jobs: list[Job]) -> EDFResult:
    """Simulate preemptive EDF; event-driven, exact for this job model.

    Deadline misses do not abort the simulation: remaining work is still
    scheduled (work-conserving), and the missing jobs are reported, which
    lets callers measure *how much* a cluster overloads.
    """
    names = [job.name for job in jobs]
    if len(names) != len(set(names)):
        raise SchedulingError("job names must be unique")
    remaining = {job.name: job.work for job in jobs}
    slices: list[ScheduleSlice] = []
    missed: set[str] = set()

    time = 0.0
    pending = sorted(jobs, key=lambda j: j.release)
    released: list[Job] = []
    idx = 0
    guard = 0
    while idx < len(pending) or any(remaining[n] > _EPS for n in remaining):
        guard += 1
        if guard > 10 * len(jobs) * (len(jobs) + 1) + 100:
            raise SchedulingError("EDF simulation failed to converge")
        # Release newly arrived jobs.
        while idx < len(pending) and pending[idx].release <= time + _EPS:
            released.append(pending[idx])
            idx += 1
        ready = [j for j in released if remaining[j.name] > _EPS]
        if not ready:
            if idx >= len(pending):
                break
            time = pending[idx].release
            continue
        # Earliest deadline first; stable tie-break on name.
        current = min(ready, key=lambda j: (j.deadline, j.name))
        # Run until the job finishes or the next release, whichever first.
        next_release = pending[idx].release if idx < len(pending) else float("inf")
        finish = time + remaining[current.name]
        end = min(finish, next_release)
        if end <= time + _EPS:
            time = next_release
            continue
        slices.append(ScheduleSlice(current.name, time, end))
        remaining[current.name] -= end - time
        if remaining[current.name] <= _EPS:
            remaining[current.name] = 0.0
            if end > current.deadline + _EPS:
                missed.add(current.name)
        time = end

    # Jobs that still hold work (cannot happen in a work-conserving sim
    # with finite jobs, but guard anyway) count as missed.
    for name, rem in remaining.items():
        if rem > _EPS:
            missed.add(name)

    # A job may also miss by finishing after its deadline in an earlier
    # slice bundle; recompute misses from completion times for robustness.
    for job in jobs:
        ends = [s.end for s in slices if s.job == job.name]
        if ends and max(ends) > job.deadline + _EPS:
            missed.add(job.name)
        # A job with zero work trivially meets its deadline.

    merged = _merge_adjacent(slices)
    return EDFResult(
        feasible=not missed,
        slices=tuple(merged),
        missed=tuple(sorted(missed)),
    )


def _merge_adjacent(slices: list[ScheduleSlice]) -> list[ScheduleSlice]:
    """Merge back-to-back slices of the same job for readable schedules."""
    merged: list[ScheduleSlice] = []
    for piece in slices:
        if merged and merged[-1].job == piece.job and abs(merged[-1].end - piece.start) < _EPS:
            merged[-1] = ScheduleSlice(piece.job, merged[-1].start, piece.end)
        else:
            merged.append(piece)
    return merged
