"""Timing-attribute-driven integration (§6.2, Fig. 8).

"In some applications, the criticality of all processes might be similar
in value, and the influences between processes might be small.  For such
applications, other attributes (such as timing) can be used to generate
the mapping.  One such technique is as follows: Compute an ordered list
of SW nodes.  Place the nodes which should preferably be mapped onto the
same node adjacent to each other.  Next, map SW nodes onto a HW node
starting at the top of the list maintaining their compliance to the
specified constraints."

Two entry points:

* :func:`condense_timing` — refine an existing cluster state (e.g. the
  Fig. 7 six-cluster result) down to ``target`` clusters by repeatedly
  merging the pair of clusters whose combined timing load is lightest
  (maximal residual laxity), subject to the hard constraints — "the graph
  in Fig. 7 can be straightforwardly reduced to Fig. 8 if only the timing
  attributes are considered".
* :func:`pack_by_timing` — the from-scratch list technique: order SW
  nodes by (EST, TCD), then first-fit them into clusters under the
  constraint policy.
"""

from __future__ import annotations

from repro.errors import InfeasibleAllocationError
from repro.allocation.clustering import Cluster, ClusterState
from repro.allocation.heuristics.base import (
    CombinationStep,
    CondensationHeuristic,
    CondensationResult,
    _replica_lower_bound,
)


class TimingRefinement(CondensationHeuristic):
    """Merge the pair leaving the most residual timing slack."""

    name = "timing"

    def step(self, state: ClusterState) -> CombinationStep | None:
        table = self.pair_table(state, _slack_score)
        found = table.best()
        if found is None:
            return None
        i, j, value = found
        first = state.clusters[i].members
        second = state.clusters[j].members
        influence = state.mutual_influence(i, j)
        table.combine(i, j)
        return CombinationStep(
            first=first,
            second=second,
            mutual_influence=influence,
            note=f"timing slack score {value:.3f}",
        )


def _slack_score(state: ClusterState, i: int, j: int) -> float:
    """Residual laxity of the merged cluster's aggregate window.

    Computed from the member jobs directly: the merged cluster must fit
    ``sum(CT)`` work; the most binding measure is the span utilisation
    ``1 - total_work / span`` over the union of the members' windows.
    Clusters without timing constraints merge freely (score 1.0).
    """
    members = state.clusters[i].members + state.clusters[j].members
    fcm = state.graph.fcm
    timings = [
        timing
        for timing in (fcm(name).attributes.timing for name in members)
        if timing is not None
    ]
    if not timings:
        return 1.0
    start = min(t.earliest_start for t in timings)
    end = max(t.deadline for t in timings)
    work = sum(t.computation_time for t in timings)
    span = end - start
    if span <= 0:
        return float("-inf")
    return 1.0 - work / span


def condense_timing(state: ClusterState, target: int) -> CondensationResult:
    """Refine ``state`` to at most ``target`` clusters by timing slack."""
    return TimingRefinement().condense(state, target)


def timing_order(state: ClusterState) -> list[str]:
    """The §6.2 ordered list: by (EST, TCD, CT, name).

    Nodes without a timing constraint sort last (they are placement-
    indifferent); the ordering keeps nodes with adjacent windows adjacent
    — "place the nodes which should preferably be mapped onto the same
    node adjacent to each other".
    """
    names = [m for cluster in state.clusters for m in cluster.members]

    def key(name: str):
        timing = state.graph.fcm(name).attributes.timing
        if timing is None:
            return (float("inf"), float("inf"), float("inf"), name)
        return (
            timing.earliest_start,
            timing.deadline,
            timing.computation_time,
            name,
        )

    return sorted(names, key=key)


def pack_by_timing(state: ClusterState, target: int) -> CondensationResult:
    """First-fit pack the timing-ordered node list into clusters.

    Walks the ordered list; each node joins the first existing cluster the
    policy accepts, else opens a new cluster.  Produces at most
    ``max(target, lower_bound)`` clusters when possible; exceeding
    ``target`` raises (the list technique has no backtracking).
    """
    if target < _replica_lower_bound(state):
        raise InfeasibleAllocationError(
            "target is below the replica-separation lower bound"
        )
    blocks = []
    for name in timing_order(state):
        for block in blocks:
            if block.accepts(name):
                block.add(name)
                break
        else:
            blocks.append(state.policy_block([name]))
    if len(blocks) > target:
        raise InfeasibleAllocationError(
            f"first-fit packing needs {len(blocks)} clusters; target was "
            f"{target}"
        )
    state.clusters = [Cluster(tuple(block.members)) for block in blocks]
    return CondensationResult(state=state, heuristic="timing-pack")
