"""Multi-level fault containment simulation.

The point of the FCM hierarchy is that "each level specifies a predefined
class of faults which are handled within each FCM level" (§2) and that
faults "are allowed to propagate only in certain predefined ways at each
level; otherwise, the sorts of faults affecting one level could possibly
be propagated out of its parent and affect higher levels" (§4.1).

This simulator quantifies that claim on a full three-level system:

1. a fault is seeded in a procedure;
2. it spreads among sibling procedures along the procedure-level
   influence graph (one wave per step, as in the flat simulator);
3. each affected procedure's fault *escalates* to its parent task with
   probability ``1 - containment[TASK]`` — the task boundary handles the
   predefined procedure-level fault class with probability
   ``containment[TASK]``;
4. escalated faults spread among tasks, then escalate to processes the
   same way.

Comparing the hierarchical run against a *flattened* run (no containment
at boundaries, i.e. containment 0 everywhere) measures exactly what the
hierarchy buys: the reduction in processes affected per procedure fault.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.faultsim.propagation import compile_adjacency, propagate_once
from repro.model.fcm import Level
from repro.model.system import SoftwareSystem

#: Default probability that an FCM boundary contains a fault arising at
#: the level below (per affected child).  The paper gives no numbers;
#: these are exposed knobs with a plausibly-effective default.
DEFAULT_CONTAINMENT: dict[Level, float] = {
    Level.TASK: 0.8,  # task boundary contains procedure-level faults
    Level.PROCESS: 0.8,  # process boundary contains task-level faults
}


@dataclass(frozen=True)
class MultiLevelResult:
    """Aggregates of a multi-level campaign."""

    trials: int
    mean_procedures_affected: float
    mean_tasks_affected: float
    mean_processes_affected: float
    process_escape_rate: float  # fraction of trials reaching >= 1 process


def _check_containment(containment: dict[Level, float]) -> None:
    for level, p in containment.items():
        if level not in (Level.TASK, Level.PROCESS):
            raise SimulationError(f"containment level {level} invalid")
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"containment for {level} outside [0, 1]")


def run_multilevel_campaign(
    system: SoftwareSystem,
    trials: int = 1000,
    containment: dict[Level, float] | None = None,
    seed: int = 0,
) -> MultiLevelResult:
    """Seed faults uniformly over procedures; measure per-level spread.

    The system must carry procedures (seeding level).  Influence graphs
    at missing levels are treated as edgeless (no lateral spread there).
    """
    if trials < 1:
        raise SimulationError("trials must be >= 1")
    cont = dict(DEFAULT_CONTAINMENT)
    if containment is not None:
        cont.update(containment)
    _check_containment(cont)

    procedures = [f.name for f in system.hierarchy.at_level(Level.PROCEDURE)]
    if not procedures:
        raise SimulationError("system has no procedures to seed faults in")
    proc_graph = system.influence_at(Level.PROCEDURE)
    task_graph = system.influence_at(Level.TASK)
    process_graph = system.influence_at(Level.PROCESS)
    # One adjacency precompute per level for the whole campaign.
    proc_adj = compile_adjacency(proc_graph)
    task_adj = compile_adjacency(task_graph) if len(task_graph) else None
    process_adj = (
        compile_adjacency(process_graph) if len(process_graph) else None
    )

    rng = random.Random(seed)
    total_procs = 0
    total_tasks = 0
    total_processes = 0
    escapes = 0

    for trial in range(trials):
        source = procedures[rng.randrange(len(procedures))]
        affected_procs = propagate_once(
            proc_graph, source, rng, trial, adjacency=proc_adj
        ).affected
        total_procs += len(affected_procs)

        # Escalate each affected procedure to its parent task.  Sets are
        # walked in name order: the RNG draws follow the walk, and set
        # order changes with the interpreter's string hash seed.
        seeded_tasks: set[str] = set()
        for proc in sorted(affected_procs):
            parent = system.hierarchy.parent_of(proc)
            if parent is None:
                continue
            if rng.random() >= cont[Level.TASK]:
                seeded_tasks.add(parent.name)
        affected_tasks: set[str] = set()
        for task_name in sorted(seeded_tasks):
            if task_graph.has_fcm(task_name):
                affected_tasks |= propagate_once(
                    task_graph, task_name, rng, trial, adjacency=task_adj
                ).affected
            else:
                affected_tasks.add(task_name)
        total_tasks += len(affected_tasks)

        # Escalate each affected task to its parent process.
        seeded_processes: set[str] = set()
        for task_name in sorted(affected_tasks):
            parent = system.hierarchy.parent_of(task_name)
            if parent is None:
                continue
            if rng.random() >= cont[Level.PROCESS]:
                seeded_processes.add(parent.name)
        affected_processes: set[str] = set()
        for process_name in sorted(seeded_processes):
            if process_graph.has_fcm(process_name):
                affected_processes |= propagate_once(
                    process_graph,
                    process_name,
                    rng,
                    trial,
                    adjacency=process_adj,
                ).affected
            else:
                affected_processes.add(process_name)
        total_processes += len(affected_processes)
        if affected_processes:
            escapes += 1

    return MultiLevelResult(
        trials=trials,
        mean_procedures_affected=total_procs / trials,
        mean_tasks_affected=total_tasks / trials,
        mean_processes_affected=total_processes / trials,
        process_escape_rate=escapes / trials,
    )


def hierarchy_value(
    system: SoftwareSystem,
    trials: int = 1000,
    containment: dict[Level, float] | None = None,
    seed: int = 0,
) -> tuple[MultiLevelResult, MultiLevelResult, float]:
    """(hierarchical, flattened, reduction factor) for one system.

    The flattened run sets every boundary containment to 0 — the same
    software without the FCM discipline.  The reduction factor is the
    ratio of mean processes affected (flattened / hierarchical); larger
    means the hierarchy buys more.
    """
    with_hierarchy = run_multilevel_campaign(
        system, trials=trials, containment=containment, seed=seed
    )
    flattened = run_multilevel_campaign(
        system,
        trials=trials,
        containment={Level.TASK: 0.0, Level.PROCESS: 0.0},
        seed=seed,
    )
    if with_hierarchy.mean_processes_affected > 0:
        factor = (
            flattened.mean_processes_affected
            / with_hierarchy.mean_processes_affected
        )
    else:
        factor = float("inf") if flattened.mean_processes_affected > 0 else 1.0
    return with_hierarchy, flattened, factor
