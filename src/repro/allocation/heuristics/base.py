"""Common machinery for SW-graph condensation heuristics.

Each heuristic reduces a :class:`~repro.allocation.clustering.ClusterState`
to at most ``target`` clusters, honouring the hard-constraint policy, and
returns a :class:`CondensationResult` that records every combination step
(the Fig. 5/6 "successive stages of this process").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AllocationError, InfeasibleAllocationError
from repro.allocation.clustering import Cluster, ClusterState
from repro.obs import current

#: A pair score: ``score(state, i, j)`` for clusters ``i < j``.
Score = Callable[[ClusterState, int, int], float]


@dataclass(frozen=True)
class CombinationStep:
    """One merge performed by a heuristic."""

    first: tuple[str, ...]
    second: tuple[str, ...]
    mutual_influence: float
    note: str = ""

    @property
    def merged(self) -> tuple[str, ...]:
        return self.first + self.second


@dataclass
class CondensationResult:
    """Final state plus the step-by-step trace."""

    state: ClusterState
    steps: list[CombinationStep] = field(default_factory=list)
    heuristic: str = ""

    @property
    def clusters(self) -> list[Cluster]:
        return self.state.clusters

    def labels(self) -> list[str]:
        return self.state.labels()

    def partition(self) -> list[list[str]]:
        return self.state.as_partition()


class CondensationHeuristic(ABC):
    """Base class: validates the target and drives the reduction loop."""

    name: str = "base"
    _table: "PairTable | None" = None

    def condense(self, state: ClusterState, target: int) -> CondensationResult:
        """Reduce ``state`` (mutated in place) to at most ``target`` clusters."""
        if target < 1:
            raise AllocationError("target cluster count must be >= 1")
        lower_bound = _replica_lower_bound(state)
        if target < lower_bound:
            raise InfeasibleAllocationError(
                f"target {target} is below the replica-separation lower "
                f"bound {lower_bound}"
            )
        result = CondensationResult(state=state, heuristic=self.name)
        rec = current()
        self._table = None
        while len(state) > target:
            step = self.step(state)
            if step is None:
                if rec.enabled:
                    rec.decision(
                        "condense",
                        "abort",
                        subject=self.name,
                        reason=f"no feasible combination at {len(state)} "
                        f"clusters (target {target})",
                    )
                raise InfeasibleAllocationError(
                    f"{self.name}: no feasible combination found at "
                    f"{len(state)} clusters (target {target})"
                )
            result.steps.append(step)
        if rec.enabled:
            rec.counter("condense_steps_total").inc(
                len(result.steps), heuristic=self.name
            )
        return result

    @abstractmethod
    def step(self, state: ClusterState) -> CombinationStep | None:
        """Perform one combination; None when no feasible pair exists."""

    def pair_table(self, state: ClusterState, score: Score) -> "PairTable":
        """The pair table this heuristic keeps for ``state`` across its
        steps, built again when the clusters changed outside it."""
        table = self._table
        if table is None or not table.follows(state, score):
            table = self._table = PairTable(state, score)
        return table


def _replica_lower_bound(state: ClusterState) -> int:
    groups = state.graph.replica_groups()
    if not groups:
        return 1
    return max(len(group) for group in groups)


class PairTable:
    """Combinability and score of every cluster pair ``(i, j)``, ``i < j``.

    One condense run keeps one table.  :meth:`combine` merges through the
    state and drops row and column ``hi``; the next :meth:`best` asks
    again only the pairs that involve the merged cluster ``lo``, when a
    rescan would have asked them: Eq. (4), every constraint and both
    heuristics' scores depend only on the two member tuples, and
    ``combine`` keeps the other clusters in order.  Entries are asked
    through ``state.can_combine(i, j)`` and ``score(state, i, j)`` with
    ``i < j``, in (i, j) order, and a pair is scored only when it is
    combinable, as a rescan asks them.
    """

    def __init__(self, state: ClusterState, score: Score) -> None:
        self.state = state
        self.score = score
        n = len(state.clusters)
        self.combinable = np.zeros((n, n), dtype=bool)
        self.values = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                self._ask(i, j)
        self.clusters = list(state.clusters)
        self._merged: int | None = None

    def _ask(self, i: int, j: int) -> None:
        if self.state.can_combine(i, j):
            self.combinable[i, j] = True
            self.values[i, j] = self.score(self.state, i, j)

    def follows(self, state: ClusterState, score: Score) -> bool:
        """Whether this table holds ``state``'s current pairs under ``score``."""
        return (
            state is self.state
            and score is self.score
            and state.clusters == self.clusters
        )

    def best(self, require_positive: bool = False) -> tuple[int, int, float] | None:
        """The pick of a scan in (i, j) order that keeps the first
        candidate and then any whose score exceeds the kept one's by more
        than 1e-15.  ``require_positive`` drops scores ``<= 0``.

        Only a strict running record can be kept: every score a scan
        passes over is at most ``kept + 1e-15``, so a later score above
        that exceeds all before it.  The scan therefore walks the records
        alone, with the same rule.
        """
        self._ask_merged()
        n = len(self.clusters)
        candidates = self.combinable
        rec = current()
        if rec.enabled:
            rejected = n * (n - 1) // 2 - int(np.count_nonzero(candidates))
            if rejected:
                rec.counter("condense_pairs_rejected_total").inc(rejected)
        if require_positive:
            candidates = candidates & ~(self.values <= 0.0)
        flat = np.flatnonzero(candidates)  # row-major: (i, j) order
        if not len(flat):
            return None
        values = self.values.ravel()[flat]
        # fmax: a NaN score never raises the bar, as in the scan.
        records = np.flatnonzero(values[1:] > np.fmax.accumulate(values)[:-1]) + 1
        kept, best = 0, values[0].item()
        for k, value in zip(records.tolist(), values[records].tolist()):
            if value > best + 1e-15:
                kept, best = k, value
        i, j = divmod(int(flat[kept]), n)
        return i, j, best

    def combine(self, i: int, j: int) -> int:
        """``state.combine(i, j)``, then the table of the new partition."""
        self._ask_merged()
        lo = self.state.combine(i, j)
        hi = i + j - lo
        keep = np.arange(len(self.clusters)) != hi
        self.combinable = self.combinable[np.ix_(keep, keep)]
        self.values = self.values[np.ix_(keep, keep)]
        self.combinable[lo, :] = False
        self.combinable[:, lo] = False
        self.clusters = list(self.state.clusters)
        self._merged = lo
        return lo

    def _ask_merged(self) -> None:
        """Ask the pairs of the cluster the last :meth:`combine` made."""
        lo = self._merged
        if lo is None:
            return
        for k in range(lo):
            self._ask(k, lo)
        for k in range(lo + 1, len(self.clusters)):
            self._ask(lo, k)
        self._merged = None


def best_combinable_pair(
    state: ClusterState,
    score: Score,
    require_positive: bool = False,
) -> tuple[int, int, float] | None:
    """The combinable cluster pair maximising ``score(state, i, j)``.

    Deterministic tie-break on (i, j): a later pair wins only by more than
    1e-15.  ``require_positive`` restricts to strictly positive scores
    (used where zero-affinity merges are meaningless).  A one-shot
    :class:`PairTable`; condense loops keep theirs across merges.
    """
    return PairTable(state, score).best(require_positive)
