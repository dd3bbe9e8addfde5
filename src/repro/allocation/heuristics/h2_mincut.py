"""Heuristic H2: recursive minimum-cut partitioning (§5.4).

"Find the min-cut of the graph.  Divide the graph into two parts along
the cut.  Find the min-cut in each half and repeat the process, until the
requisite number of components has been generated.  Other variations
include: cut the portion with the largest number of nodes, and to cut the
graph using source and target nodes."

The cut is computed on the undirected mutual-influence view (antiparallel
edge weights summed).  Replica links have weight 0, so min-cut naturally
prefers separating replicas.  Because a cut ignores schedulability, the
resulting partition is *repaired* afterwards: members of invalid blocks
are moved to the best accepting block (or split out) until every block
passes the hard constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import InfeasibleAllocationError
from repro.allocation.clustering import Cluster, ClusterState
from repro.allocation.heuristics.base import CondensationResult, _replica_lower_bound
from repro.graphs.mincut import st_min_cut, stoer_wagner
from repro.influence.influence_graph import InfluenceGraph


class SplitChoice(Enum):
    """Which component to split next."""

    LARGEST = "largest"  # the paper's "cut the portion with the largest number of nodes"
    HEAVIEST = "heaviest"  # the component with the largest internal influence


@dataclass(frozen=True)
class H2Options:
    split_choice: SplitChoice = SplitChoice.LARGEST
    use_st_variant: bool = False  # "cut the graph using source and target nodes"


def condense_h2(
    state: ClusterState,
    target: int,
    options: H2Options | None = None,
) -> CondensationResult:
    """Recursive min-cut condensation to exactly ``target`` blocks.

    Operates on the singleton clusters of ``state`` (H2 is a top-down
    partitioner; combining pre-merged clusters is possible because blocks
    are unions of the current clusters).
    """
    opts = options or H2Options()
    if target < _replica_lower_bound(state):
        raise InfeasibleAllocationError(
            "target is below the replica-separation lower bound"
        )
    graph = state.graph

    blocks: list[list[str]] = [
        [m for cluster in state.clusters for m in cluster.members]
    ]
    while len(blocks) < target:
        index = _pick_block(blocks, graph, opts.split_choice)
        block = blocks[index]
        if len(block) < 2:
            # Nothing splittable in the chosen block; pick any block with
            # more than one member.
            splittable = [i for i, b in enumerate(blocks) if len(b) > 1]
            if not splittable:
                break
            index = splittable[0]
            block = blocks[index]
        side_a, side_b = _split(graph, block, opts)
        blocks[index] = side_a
        blocks.insert(index + 1, side_b)

    blocks = _repair(state, blocks, target)
    state.clusters = [Cluster(tuple(block)) for block in blocks]
    return CondensationResult(state=state, heuristic="H2")


def _split(
    graph: InfluenceGraph,
    block: list[str],
    opts: H2Options,
) -> tuple[list[str], list[str]]:
    digraph = graph.as_digraph(include_replica_links=False).subgraph(block)
    if opts.use_st_variant and len(block) >= 2:
        # Source/target variant: cut between the pair with the *least*
        # mutual influence (most separable endpoints).
        source, sink = _most_separable_pair(graph, block)
        _w, side = st_min_cut(digraph, source, sink)
    else:
        _w, side = stoer_wagner(digraph)
    side_a = [name for name in block if name in side]
    side_b = [name for name in block if name not in side]
    if not side_a or not side_b:
        # Degenerate cut (disconnected handling); force a 1/rest split.
        side_a, side_b = [block[0]], block[1:]
    return side_a, side_b


def _most_separable_pair(graph: InfluenceGraph, block: list[str]) -> tuple[str, str]:
    best: tuple[str, str] | None = None
    best_value = float("inf")
    for i, a in enumerate(block):
        for b in block[i + 1:]:
            value = graph.mutual_influence(a, b)
            if value < best_value:
                best_value = value
                best = (a, b)
    assert best is not None
    return best


def _pick_block(
    blocks: list[list[str]],
    graph: InfluenceGraph,
    choice: SplitChoice,
) -> int:
    if choice is SplitChoice.LARGEST:
        return max(range(len(blocks)), key=lambda i: (len(blocks[i]), -i))
    weights = []
    for block in blocks:
        internal = sum(
            graph.influence(a, b)
            for a in block
            for b in block
            if a != b
        )
        weights.append(internal)
    return max(range(len(blocks)), key=lambda i: (weights[i], -i))


def _repair(
    state: ClusterState,
    blocks: list[list[str]],
    target: int,
) -> list[list[str]]:
    """Move members out of invalid blocks until every block is valid.

    Strategy: repeatedly take an invalid block, eject the member whose
    removal clears the most violations (ties: lowest influence binding to
    the block), and re-home it in the best valid block that accepts it;
    if none accepts, it becomes a new singleton block.  Bounded by the
    total member count to guarantee termination.
    """
    guard = sum(len(b) for b in blocks) * 4 + 8
    while guard:
        guard -= 1
        invalid = [
            i for i, block in enumerate(blocks)
            if len(block) > 1 and not state.policy_block_valid(block)
        ]
        if not invalid:
            break
        index = invalid[0]
        block = blocks[index]
        ejected = _choose_ejection(state, block)
        block.remove(ejected)
        home = _find_home(state, blocks, index, ejected)
        if home is None:
            blocks.append([ejected])
        else:
            blocks[home].append(ejected)
    else:
        raise InfeasibleAllocationError("H2 repair did not converge")

    if len([b for b in blocks if b]) > target:
        # Repair overflowed the budget: try merging small valid blocks.
        blocks = _remerge(state, [b for b in blocks if b], target)
    return [b for b in blocks if b]


def _choose_ejection(
    state: ClusterState,
    block: list[str],
) -> str:
    graph = state.graph

    def score(member: str) -> tuple[int, float]:
        rest = [m for m in block if m != member]
        remaining = state.policy_block_violation_count(rest)
        binding = sum(
            graph.mutual_influence(member, other) for other in rest
        )
        return (remaining, binding)

    return min(block, key=lambda m: (score(m), m))


def _find_home(
    state: ClusterState,
    blocks: list[list[str]],
    origin: int,
    member: str,
) -> int | None:
    graph = state.graph
    candidates = []
    for i, block in enumerate(blocks):
        if i == origin or not block:
            continue
        if state.policy_block_valid(block + [member]):
            affinity = sum(graph.mutual_influence(member, other) for other in block)
            candidates.append((affinity, -i, i))
    if not candidates:
        return None
    return max(candidates)[2]


def _remerge(
    state: ClusterState,
    blocks: list[list[str]],
    target: int,
) -> list[list[str]]:
    graph = state.graph
    while len(blocks) > target:
        best: tuple[float, int, int] | None = None
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if state.policy_block_valid(blocks[i] + blocks[j]):
                    affinity = sum(
                        graph.mutual_influence(a, b)
                        for a in blocks[i]
                        for b in blocks[j]
                    )
                    if best is None or affinity > best[0]:
                        best = (affinity, i, j)
        if best is None:
            raise InfeasibleAllocationError(
                f"H2 cannot reach target {target}: no valid merge remains"
            )
        _aff, i, j = best
        blocks[i] = blocks[i] + blocks[j]
        del blocks[j]
    return blocks
