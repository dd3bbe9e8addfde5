"""Heuristic H1: combine the highest-mutual-influence pair (§5.4, §6.1).

"Combine the two nodes with the highest value of mutual influence (which
implies a high level of interaction, and should be mapped onto the same
HW node).  Repeat for the next higher value of mutual influence, and
continue this process until the required number of nodes is obtained.  A
variation of this is to pair all nodes based on influence values and then
to repeat the process as needed."

Mutual influence is "the sum of influences in each direction" (§6.1).
Pairs blocked by the hard constraints (replica separation,
schedulability) are skipped; when no pair has positive mutual influence,
H1 falls back to zero-influence combinable pairs — maximising separation
costs nothing there, and the HW node budget must still be met.
"""

from __future__ import annotations

import numpy as np

from repro.allocation.clustering import ClusterState
from repro.allocation.heuristics.base import (
    CombinationStep,
    CondensationHeuristic,
    CondensationResult,
    PairTable,
)


def _mutual_influence(state: ClusterState, i: int, j: int) -> float:
    return state.mutual_influence(i, j)


class InfluenceTable(PairTable):
    """H1's pair table: the scores of ``score = _mutual_influence``,
    folded a row at a time instead of asked pair by pair.

    The first scores come from the partition view: ``influence +
    influence.T`` is ``mutual_influence`` bit for bit, one IEEE add whose
    operands commute.  The table keeps each cluster's member rows,
    padded to one width, and the replica conflicts, whose rows and
    columns merge by OR.  After a merge one
    :meth:`~repro.graphs.matrix.CompiledInfluence.row_influence` fold
    gives the merged cluster's influence on every cluster and theirs on
    it, and replica-related pairs are pinned to 0, as
    ``ClusterState.influence`` pins them.
    """

    def _score_all(self) -> np.ndarray:
        state = self.state
        view = state.partition_view()
        influence = state.compiled_influence()
        self._padded = influence.padded_complements()
        self._pad = len(influence)  # the padded row and column
        self._conflict = view.conflict.copy()
        rows = [influence.rows(cluster.members) for cluster in self.clusters]
        self._sizes = [len(block) for block in rows]
        self._members = np.full(
            (len(rows), max(self._sizes, default=1)), self._pad, dtype=np.intp
        )
        for k, block in enumerate(rows):
            self._members[k, :len(block)] = block
        return view.influence + view.influence.T

    def _merge(self, lo: int, hi: int, rows: np.ndarray) -> None:
        sizes, members = self._sizes, self._members
        size = sizes[lo] + sizes[hi]
        if size > members.shape[1]:
            wider = np.full((len(members), size), self._pad, dtype=np.intp)
            wider[:, :members.shape[1]] = members
            members = wider
        members[lo, sizes[lo]:size] = members[hi, :sizes[hi]]
        self._members = members[rows]
        sizes[lo] = size
        del sizes[hi]
        conflict = self._conflict
        conflict[lo] |= conflict[hi]
        conflict[:, lo] |= conflict[:, hi]
        self._conflict = conflict[rows[:, None], rows]

    def _score_row(self, lo: int) -> None:
        rows = self._members[lo, :self._sizes[lo]]
        out, into = self.state.compiled_influence().row_influence(
            self._padded, rows, self._members
        )
        conflict = self._conflict
        row = np.where(conflict[lo], 0.0, out) + np.where(conflict[:, lo], 0.0, into)
        self.values[lo, :] = row
        self.values[:, lo] = row


class H1Influence(CondensationHeuristic):
    """Greedy highest-mutual-influence merging."""

    name = "H1"
    table_type = InfluenceTable

    def step(self, state: ClusterState) -> CombinationStep | None:
        table = self.pair_table(state, _mutual_influence)
        found = table.best()
        if found is None:
            return None
        i, j, value = found
        first = state.clusters[i].members
        second = state.clusters[j].members
        table.combine(i, j)
        return CombinationStep(
            first=first,
            second=second,
            mutual_influence=value,
        )


class H1Pairing(CondensationHeuristic):
    """The H1 variation: pair *all* nodes in one pass, then repeat.

    Each round greedily matches disjoint cluster pairs in decreasing
    mutual influence, merging every matched pair, so the cluster count
    roughly halves per round.  The reduction loop in the base class calls
    :meth:`step` once per merge; rounds are realised by planning a
    matching whenever the previous plan is exhausted.
    """

    name = "H1-pairing"

    def __init__(self) -> None:
        self._plan: list[tuple[tuple[str, ...], tuple[str, ...]]] = []

    def step(self, state: ClusterState) -> CombinationStep | None:
        if not self._plan:
            self._plan = self._plan_round(state)
            if not self._plan:
                return None
        first, second = self._plan.pop(0)
        try:
            i = state.cluster_of(first[0])
            j = state.cluster_of(second[0])
        except Exception:
            return self.step(state)  # stale plan entry; replan
        if i == j or not state.can_combine(i, j):
            return self.step(state)
        value = state.mutual_influence(i, j)
        state.combine(i, j)
        return CombinationStep(first=first, second=second, mutual_influence=value, note="paired round")

    def _plan_round(
        self, state: ClusterState
    ) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
        """Greedy maximal matching by decreasing mutual influence."""
        n = len(state.clusters)
        candidates: list[tuple[float, int, int]] = []
        for i in range(n):
            for j in range(i + 1, n):
                if state.can_combine(i, j):
                    candidates.append((state.mutual_influence(i, j), i, j))
        candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
        used: set[int] = set()
        plan = []
        for _value, i, j in candidates:
            if i in used or j in used:
                continue
            used.add(i)
            used.add(j)
            plan.append(
                (state.clusters[i].members, state.clusters[j].members)
            )
        return plan


def condense_h1(state: ClusterState, target: int) -> CondensationResult:
    """Convenience: run plain H1 down to ``target`` clusters."""
    return H1Influence().condense(state, target)
