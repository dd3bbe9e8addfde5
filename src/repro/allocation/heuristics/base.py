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


class PairTable:
    """Score and combinability of every cluster pair ``(i, j)``, ``i < j``.

    One condense run keeps one table.  It holds every pair's score, and
    a verdict for the pairs it has asked: a verdict is kept until one of
    its two clusters merges.  :meth:`combine` merges through the state,
    drops row and column ``hi`` and scores the merged cluster ``lo``'s
    pairs again: Eq. (4), every constraint and both heuristics' scores
    depend only on the two member tuples, and ``combine`` keeps the other
    clusters in order.  Scores are ``score(state, i, j)`` and verdicts
    ``state.can_combine(i, j)``, with ``i < j``; :meth:`best` asks a
    verdict only when the pick depends on it.
    """

    def __init__(self, state: ClusterState, score: Score) -> None:
        self.state = state
        self.score = score
        self.clusters = list(state.clusters)
        n = len(self.clusters)
        self.values = self._score_all()
        self.known = np.zeros((n, n), dtype=bool)
        self.combinable = np.zeros((n, n), dtype=bool)
        # Every pair (first[k], second[k]), in (i, j) order.
        self._first, self._second = np.triu_indices(n, 1)

    def _score_all(self) -> np.ndarray:
        """Every pair's score, at ``[i, j]`` for ``i < j``."""
        state, score = self.state, self.score
        n = len(self.clusters)
        values = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                values[i, j] = score(state, i, j)
        return values

    def _score_row(self, lo: int) -> None:
        """Score again the pairs of cluster ``lo``."""
        state, score, values = self.state, self.score, self.values
        for k in range(lo):
            values[k, lo] = score(state, k, lo)
        for k in range(lo + 1, len(self.clusters)):
            values[lo, k] = score(state, lo, k)

    def _merge(self, lo: int, hi: int, rows: np.ndarray) -> None:
        """Follow the merge of ``hi`` into ``lo`` before row ``hi`` goes;
        ``rows`` are the rows that stay."""

    def follows(self, state: ClusterState, score: Score) -> bool:
        """Whether this table holds ``state``'s current pairs under ``score``."""
        return (
            state is self.state
            and score is self.score
            and state.clusters == self.clusters
        )

    def best(self, require_positive: bool = False) -> tuple[int, int, float] | None:
        """The pick of a scan in (i, j) order that keeps the first
        combinable pair and then any whose score exceeds the kept one's
        by more than 1e-15.  ``require_positive`` drops scores ``<= 0``.

        The candidates are walked in descending score (ties in (i, j)
        order), asking only the verdicts not yet known, down to the first
        score ``v`` with ``lowest > v + 1e-15``, ``lowest`` being the
        lowest score of a combinable pair reached.  Every pair from there
        on is more than 1e-15 under each combinable pair reached, so the
        scan can neither keep it nor, having kept it first, fail to
        replace it.  The scan's rule is then applied to the combinable
        pairs reached, in (i, j) order, through their strict running
        records: every score a scan passes over is at most ``kept +
        1e-15``, so only a record can be kept.

        A policy that answers some constraint through its own ``check``
        is asked every unknown pair, in (i, j) order, so a check that
        raises raises at the step a rescan would; so is a table with a
        NaN score, which the scan keeps only as its first pair.
        """
        first, second = self._first, self._second
        values = self.values[first, second]
        known = self.known[first, second]
        combinable = self.combinable[first, second]
        if require_positive:
            positive = ~(values <= 0.0)
            first, second = first[positive], second[positive]
            values, known, combinable = (
                values[positive], known[positive], combinable[positive]
            )
        stop = self.state.policy_fully_compiled() and not np.isnan(values).any()
        if stop:
            order = np.argsort(-values, kind="stable")
            reached = np.zeros(len(values), dtype=bool)
        else:
            order = np.flatnonzero(~known)
            reached = combinable.copy()
        lowest = None
        rejected = 0
        for k, value, asked, ok in _in_order(order, values, known, combinable):
            if stop and lowest is not None and lowest > value + 1e-15:
                break
            if not asked:
                i, j = int(first[k]), int(second[k])
                ok = self.state.can_combine(i, j)
                self.known[i, j] = True
                self.combinable[i, j] = ok
                rejected += not ok
            if ok:
                reached[k] = True
                lowest = value
        rec = current()
        if rec.enabled and rejected:
            rec.counter("condense_pairs_rejected_total").inc(rejected)
        reached = np.flatnonzero(reached)  # (i, j) order
        if not len(reached):
            return None
        values = values[reached]
        # fmax: a NaN score never raises the bar, as in the scan.
        records = np.flatnonzero(values[1:] > np.fmax.accumulate(values)[:-1]) + 1
        kept, best = 0, values[0].item()
        for k, value in zip(records.tolist(), values[records].tolist()):
            if value > best + 1e-15:
                kept, best = k, value
        kept = reached[kept]
        return int(first[kept]), int(second[kept]), best

    def combine(self, i: int, j: int) -> int:
        """``state.combine(i, j)``, then the table of the new partition."""
        lo = self.state.combine(i, j)
        hi = i + j - lo
        rows = np.arange(len(self.clusters) - 1)
        rows[hi:] += 1
        self._merge(lo, hi, rows)
        block = (rows[:, None], rows)
        self.values = self.values[block]
        self.known = self.known[block]
        self.combinable = self.combinable[block]
        for verdicts in (self.known, self.combinable):
            verdicts[lo, :] = False
            verdicts[:, lo] = False
        first, second = self._first, self._second
        stay = (first != hi) & (second != hi)
        first, second = first[stay], second[stay]
        self._first = first - (first > hi)
        self._second = second - (second > hi)
        self.clusters = list(self.state.clusters)
        self._score_row(lo)
        return lo


def _in_order(order: np.ndarray, *columns: np.ndarray):
    """``(k, *(column[k] for column in columns))`` for each ``k`` of
    ``order``, as Python values, converted a growing chunk at a time: a
    walk that stops early converts little."""
    start, size = 0, 16
    while start < len(order):
        chunk = order[start:start + size]
        yield from zip(chunk.tolist(), *(column[chunk].tolist() for column in columns))
        start += size
        size *= 4


class CondensationHeuristic(ABC):
    """Base class: validates the target and drives the reduction loop."""

    name: str = "base"
    table_type: type[PairTable] = PairTable
    _table: PairTable | None = None

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

    def pair_table(self, state: ClusterState, score: Score) -> PairTable:
        """The pair table this heuristic keeps for ``state`` across its
        steps, built again when the clusters changed outside it."""
        table = self._table
        if table is None or not table.follows(state, score):
            table = self._table = self.table_type(state, score)
        return table


def _replica_lower_bound(state: ClusterState) -> int:
    groups = state.graph.replica_groups()
    if not groups:
        return 1
    return max(len(group) for group in groups)


def best_combinable_pair(
    state: ClusterState,
    score: Score,
    require_positive: bool = False,
) -> tuple[int, int, float] | None:
    """The combinable cluster pair maximising ``score(state, i, j)``.

    Deterministic tie-break on (i, j): a later pair wins only by more than
    1e-15.  ``require_positive`` restricts to strictly positive scores
    (used where zero-affinity merges are meaningless).  A one-shot
    :class:`PairTable`, so ``score`` is asked of every pair, combinable
    or not; condense loops keep their table across merges.
    """
    return PairTable(state, score).best(require_positive)
