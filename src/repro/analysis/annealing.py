"""Simulated-annealing refinement of a condensation.

The greedy heuristics commit early; annealing explores single-node moves
and pair swaps between clusters, accepting uphill moves with the usual
Metropolis rule, never violating the hard constraints.  Used both as a
post-pass ("polish the H1 result") and as a strong baseline in the
optimality-gap bench.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import AllocationError
from repro.allocation.clustering import Cluster, ClusterState


@dataclass(frozen=True)
class AnnealingOptions:
    iterations: int = 2000
    initial_temperature: float = 0.5
    cooling: float = 0.995
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise AllocationError("iterations must be >= 1")
        if not 0 < self.cooling < 1:
            raise AllocationError("cooling must be in (0, 1)")
        if self.initial_temperature <= 0:
            raise AllocationError("initial_temperature must be > 0")


@dataclass(frozen=True)
class AnnealingReport:
    initial_cost: float
    final_cost: float
    accepted_moves: int
    attempted_moves: int

    @property
    def improvement(self) -> float:
        return self.initial_cost - self.final_cost


def anneal(
    state: ClusterState,
    options: AnnealingOptions | None = None,
) -> AnnealingReport:
    """Refine ``state`` in place by constrained local search.

    Moves: relocate one node to another cluster, or swap two nodes
    between clusters.  A move is attempted only if the resulting blocks
    pass every hard constraint; cluster count never changes (empty
    clusters are forbidden — the HW budget is fixed).
    """
    opts = options or AnnealingOptions()
    rng = random.Random(opts.seed)

    blocks: list[list[str]] = [list(c.members) for c in state.clusters]
    if len(blocks) < 2:
        return AnnealingReport(
            initial_cost=state.total_cross_influence(),
            final_cost=state.total_cross_influence(),
            accepted_moves=0,
            attempted_moves=0,
        )

    def cost_of(candidate: list[list[str]]) -> float:
        return state.with_clusters(candidate).total_cross_influence()

    current_cost = cost_of(blocks)
    initial_cost = current_cost
    best_blocks = [list(b) for b in blocks]
    best_cost = current_cost
    temperature = opts.initial_temperature
    accepted = 0
    attempted = 0

    for _ in range(opts.iterations):
        temperature *= opts.cooling
        move_kind = rng.random()
        i, j = rng.sample(range(len(blocks)), 2)
        candidate = [list(b) for b in blocks]
        if move_kind < 0.6:
            # Relocate a random node from block i to block j.
            if len(candidate[i]) <= 1:
                continue
            node = rng.choice(candidate[i])
            candidate[i].remove(node)
            candidate[j].append(node)
        else:
            # Swap one node between the blocks.
            a = rng.choice(candidate[i])
            b = rng.choice(candidate[j])
            candidate[i].remove(a)
            candidate[j].remove(b)
            candidate[i].append(b)
            candidate[j].append(a)
        attempted += 1
        if not state.policy_block_valid(candidate[i]):
            continue
        if not state.policy_block_valid(candidate[j]):
            continue
        new_cost = cost_of(candidate)
        delta = new_cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
            blocks = candidate
            current_cost = new_cost
            accepted += 1
            if current_cost < best_cost:
                best_cost = current_cost
                best_blocks = [list(b) for b in blocks]

    state.clusters = [Cluster(tuple(b)) for b in best_blocks]
    return AnnealingReport(
        initial_cost=initial_cost,
        final_cost=best_cost,
        accepted_moves=accepted,
        attempted_moves=attempted,
    )
