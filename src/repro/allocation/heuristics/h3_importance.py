"""Heuristic H3: spheres of influence around important nodes (§5.4).

"Start with the most important node, and combine it with any adjacent
nodes below a certain threshold of importance (and/or above a certain
influence).  For n HW nodes, identify the n most important SW nodes, and
define their 'spheres of influence'.  Map each group onto a different HW
node."

Implementation: the ``target`` most important SW nodes become seeds; every
remaining node joins the seed cluster with which it has the highest
mutual influence, subject to the hard constraints and the optional
importance/influence thresholds.  Nodes no seed can accept make the
allocation infeasible (reported with the blocking reasons).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InfeasibleAllocationError
from repro.allocation.clustering import Cluster, ClusterState
from repro.allocation.heuristics.base import CondensationResult, _replica_lower_bound
from repro.model.attributes import DEFAULT_IMPORTANCE_WEIGHTS, ImportanceWeights


@dataclass(frozen=True)
class H3Options:
    """Knobs of H3.

    ``importance_threshold``: only nodes with importance strictly below
    the threshold are absorbed into a sphere (None = absorb any
    non-seed).  ``influence_threshold``: a node joins a seed only when
    their mutual influence is at least this value; nodes that clear no
    seed's bar fall back to the best *feasible* seed regardless (the HW
    budget is hard, the preference is soft).
    """

    weights: ImportanceWeights = DEFAULT_IMPORTANCE_WEIGHTS
    importance_threshold: float | None = None
    influence_threshold: float = 0.0


def condense_h3(
    state: ClusterState,
    target: int,
    options: H3Options | None = None,
) -> CondensationResult:
    """Build ``target`` spheres of influence."""
    opts = options or H3Options()
    if target < _replica_lower_bound(state):
        raise InfeasibleAllocationError(
            "target is below the replica-separation lower bound"
        )
    graph = state.graph
    names = [m for cluster in state.clusters for m in cluster.members]
    if target > len(names):
        raise InfeasibleAllocationError(
            f"target {target} exceeds the {len(names)} SW nodes available"
        )

    importance = {
        name: opts.weights.importance(graph.fcm(name).attributes)
        for name in names
    }
    ranked = sorted(names, key=lambda n: (-importance[n], n))
    seeds = ranked[:target]
    rest = ranked[target:]

    blocks = {seed: state.policy_block([seed]) for seed in seeds}

    for name in rest:
        if (
            opts.importance_threshold is not None
            and importance[name] >= opts.importance_threshold
        ):
            raise InfeasibleAllocationError(
                f"{name!r} (importance {importance[name]:.3f}) exceeds the "
                f"absorption threshold {opts.importance_threshold} but is "
                "not a seed; raise the target or the threshold"
            )
        candidates: list[tuple[float, int, str]] = []
        preferred: list[tuple[float, int, str]] = []
        for order, seed in enumerate(seeds):
            block = blocks[seed]
            if not block.accepts(name):
                continue
            affinity = sum(
                graph.mutual_influence(name, other) for other in block.members
            )
            entry = (affinity, -order, seed)
            candidates.append(entry)
            if affinity >= opts.influence_threshold:
                preferred.append(entry)
        pool = preferred or candidates
        if not pool:
            reasons = {
                seed: "; ".join(
                    state.policy_violations(blocks[seed].members, [name])
                )
                for seed in seeds
            }
            raise InfeasibleAllocationError(
                f"no sphere can absorb {name!r}: {reasons}"
            )
        _affinity, _order, chosen = max(pool)
        blocks[chosen].add(name)

    state.clusters = [Cluster(tuple(blocks[seed].members)) for seed in seeds]
    return CondensationResult(state=state, heuristic="H3")
