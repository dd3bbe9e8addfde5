"""One level's influence edges as columns, read once from a document.

A ``ddsi-system`` document lists each level's influence edges as rows
``{"source", "target", "value" | "factors"}``.  Validation reads every
row once (:func:`repro.io.validation.validate_system_dict`) and keeps
what the method computes on as arrays: source and target positions in
the level's FCM order, and the influence value, which for a factor row
is its Eq. (2) value.  Loading then installs no dict edge: the graph
defers them (:meth:`InfluenceGraph.defer_columns`), and the fault
kernel's compile, replica expansion and the audit answer from the
columns.

Rows apply in document order, as :meth:`InfluenceGraph.set_influences`
applies them: a repeated pair overwrites the edge in place, keeping its
position, and a zero row removes the pair.  :attr:`EdgeColumns.live`
resolves that once.  Validation keeps a defective row as a zero row at
positions -1: it removes no pair and loads nothing.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.influence.factors import InfluenceFactor


@dataclass(frozen=True, eq=False)
class EdgeColumns:
    """A level's influence edge rows, in document order.

    Attributes:
        names: The level's FCMs, in the order its graph holds them;
            positions index into it.
        source: ``source[r]`` is the position of row ``r``'s source.
        target: Position of row ``r``'s target.
        value: Row ``r``'s influence; for a factor row, Eq. (2) over its
            factors.
        factors: Row -> factor tuple, for factor rows only.

    The arrays are read-only; the columns never change once built.
    """

    names: tuple[str, ...]
    source: np.ndarray
    target: np.ndarray
    value: np.ndarray
    factors: dict[int, tuple[InfluenceFactor, ...]]

    def __post_init__(self) -> None:
        for column in (self.source, self.target, self.value):
            column.flags.writeable = False

    @cached_property
    def live(self) -> np.ndarray:
        """The rows that load as edges, one per pair, each the pair's
        last row, in the order an install in document order leaves the
        pairs (the graph's ``edge_payloads()`` order)."""
        key = self.source * len(self.names) + self.target
        if self.value.all():
            ordered = np.sort(key)
            if (ordered[1:] != ordered[:-1]).all():  # no pair repeats
                return np.arange(len(key))
        # A dict keeps an overwritten key in place and moves a removed
        # then re-added key to the end: the edge dict's own rules.
        last: dict[int, int] = {}
        for row, (pair, value) in enumerate(zip(key.tolist(), self.value.tolist())):
            if value == 0.0:
                last.pop(pair, None)
            else:
                last[pair] = row
        return np.fromiter(last.values(), dtype=np.intp, count=len(last))

    @cached_property
    def adjacency(self) -> np.ndarray:
        """:attr:`live`, grouped stably by source position: the order the
        graph's adjacency dicts list the edges in."""
        live = self.live
        sources = self.source[live]
        if np.all(sources[1:] >= sources[:-1]):
            return live
        return live[np.argsort(sources, kind="stable")]

    def weights(self) -> np.ndarray:
        """The dense ``(n, n)`` influence matrix of the live rows."""
        n = len(self.names)
        weights = np.zeros((n, n))
        live = self.live
        weights[self.source[live], self.target[live]] = self.value[live]
        return weights

    def install_rows(
        self,
    ) -> Iterator[tuple[str, str, float | None, tuple[InfluenceFactor, ...] | None]]:
        """The live rows as :meth:`InfluenceGraph.set_influences` takes
        them, in :attr:`live` order.  Installing them leaves the graph as
        installing every row in document order would; a row that a later
        row removes may join two replicas, which the graph already knows
        when the install runs."""
        factors = self.factors
        for row, source, target, value in self._named(self.live):
            row_factors = factors.get(row)
            if row_factors is None:
                yield source, target, value, None
            else:
                yield source, target, None, row_factors

    def edge_factors(
        self,
    ) -> Iterator[tuple[str, str, float, tuple[InfluenceFactor, ...]]]:
        """(source, target, weight, factors) of every edge, in adjacency
        order."""
        factors = self.factors
        for row, source, target, value in self._named(self.adjacency):
            yield source, target, value, factors.get(row, ())

    def factor_edges(self) -> Iterator[tuple[str, str, tuple[InfluenceFactor, ...]]]:
        """(source, target, factors) of every edge that records factors,
        in adjacency order; value rows are not visited."""
        factors = self.factors
        if not factors:
            return
        has_factors = np.zeros(len(self.value), dtype=bool)
        has_factors[list(factors)] = True
        rows = self.adjacency
        for row, source, target, _value in self._named(rows[has_factors[rows]]):
            yield source, target, factors[row]

    def _named(self, rows: np.ndarray) -> Iterator[tuple[int, str, str, float]]:
        """(row, source name, target name, value) of ``rows``, in order."""
        names = self.names
        for row, s, d, value in zip(
            rows.tolist(),
            self.source[rows].tolist(),
            self.target[rows].tolist(),
            self.value[rows].tolist(),
        ):
            yield row, names[s], names[d], value
