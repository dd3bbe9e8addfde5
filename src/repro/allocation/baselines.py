"""Baseline clustering strategies for comparison benches.

The paper argues that dependability-driven condensation (H1-H3, Approach
B) contains faults better than dependability-blind placement.  These
baselines provide the comparison points:

* :func:`random_clustering` — constraint-respecting random partition;
* :func:`round_robin_clustering` — deal nodes over clusters in name
  order, constraint-aware (classic load spreading);
* :func:`load_balance_clustering` — greedy balance of computation time,
  ignoring influence entirely (what a throughput-only integrator does).

All produce a valid :class:`ClusterState` (hard constraints are never
sacrificed — an infeasible assignment would be meaningless as a
baseline), so goodness differences isolate the *objective*, not
feasibility.
"""

from __future__ import annotations

import random

from repro.errors import InfeasibleAllocationError
from repro.allocation.clustering import Cluster, ClusterState
from repro.allocation.heuristics.base import CondensationResult, _replica_lower_bound


def random_clustering(
    state: ClusterState,
    target: int,
    seed: int = 0,
    attempts: int = 200,
) -> CondensationResult:
    """Random constraint-respecting partition into ``target`` blocks.

    Repeatedly shuffles the node order and first-fits into ``target``
    blocks; retries with fresh shuffles until a feasible packing appears.
    """
    _check_target(state, target)
    rng = random.Random(seed)
    names = [m for c in state.clusters for m in c.members]
    for _ in range(attempts):
        order = names[:]
        rng.shuffle(order)
        blocks = _first_fit(state, order, target, randomize=rng)
        if blocks is not None:
            state.clusters = [Cluster(tuple(b)) for b in blocks]
            return CondensationResult(state=state, heuristic="random")
    raise InfeasibleAllocationError(
        f"random baseline found no feasible {target}-block partition in "
        f"{attempts} attempts"
    )


def round_robin_clustering(state: ClusterState, target: int) -> CondensationResult:
    """Deal nodes over ``target`` blocks in name order, constraint-aware.

    Each node goes to the next block in rotation that accepts it; blocks
    that reject it are skipped (rotation continues), so the result stays
    feasible while remaining oblivious to influence.
    """
    _check_target(state, target)
    names = sorted(m for c in state.clusters for m in c.members)
    blocks = [state.policy_block() for _ in range(target)]
    cursor = 0
    for name in names:
        for offset in range(target):
            index = (cursor + offset) % target
            if not blocks[index] or blocks[index].accepts(name):
                blocks[index].add(name)
                cursor = (index + 1) % target
                break
        else:
            raise InfeasibleAllocationError(
                f"round-robin baseline cannot place {name!r}"
            )
    state.clusters = [Cluster(tuple(b.members)) for b in blocks if b]
    return CondensationResult(state=state, heuristic="round-robin")


def load_balance_clustering(state: ClusterState, target: int) -> CondensationResult:
    """Greedy computation-time balancing (longest processing time first).

    Sorts nodes by decreasing computation time and always adds to the
    least-loaded block that accepts the node.  Influence never enters the
    decision.
    """
    _check_target(state, target)
    names = [m for c in state.clusters for m in c.members]

    def work(name: str) -> float:
        timing = state.graph.fcm(name).attributes.timing
        return timing.computation_time if timing is not None else 0.0

    names.sort(key=lambda n: (-work(n), n))
    blocks = [state.policy_block() for _ in range(target)]
    loads = [0.0] * target
    for name in names:
        order = sorted(range(target), key=lambda i: (loads[i], i))
        for index in order:
            if not blocks[index] or blocks[index].accepts(name):
                blocks[index].add(name)
                loads[index] += work(name)
                break
        else:
            raise InfeasibleAllocationError(
                f"load-balance baseline cannot place {name!r}"
            )
    state.clusters = [Cluster(tuple(b.members)) for b in blocks if b]
    return CondensationResult(state=state, heuristic="load-balance")


def _first_fit(
    state: ClusterState,
    order: list[str],
    target: int,
    randomize: random.Random | None = None,
) -> list[list[str]] | None:
    blocks = [state.policy_block() for _ in range(target)]
    for name in order:
        indices = list(range(target))
        if randomize is not None:
            randomize.shuffle(indices)
        for index in indices:
            if not blocks[index] or blocks[index].accepts(name):
                blocks[index].add(name)
                break
        else:
            return None
    return [b.members for b in blocks if b]


def _check_target(state: ClusterState, target: int) -> None:
    if target < _replica_lower_bound(state):
        raise InfeasibleAllocationError(
            "target is below the replica-separation lower bound"
        )
