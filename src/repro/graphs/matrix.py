"""Adjacency-matrix utilities for influence computations.

Two consumers share this plumbing:

* the separation power series (Eq. 3) — ``P + P^2 + P^3 + ...`` over a
  dense adjacency matrix with a stable node ordering, truncated power
  sums, and the closed-form ``(I - P)^{-1} - I`` limit;
* the allocation stages — :class:`CompiledInfluence` holds the
  complement matrix ``1 - W`` so cluster-to-cluster influence (Eq. 2's
  noisy-or over every member pair) reduces to a product over one
  sub-block, bit-identical to the scalar
  :func:`~repro.influence.probability.combine_probabilities` fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError, InfluenceError
from repro.graphs.digraph import Digraph, Node
from repro.obs import current


def adjacency_matrix(graph: Digraph, order: list[Node] | None = None) -> tuple[np.ndarray, list[Node]]:
    """Dense adjacency (weight) matrix and the node order used.

    ``matrix[i, j]`` is the weight of edge ``order[i] -> order[j]`` or 0.
    """
    nodes = list(order) if order is not None else graph.nodes()
    if order is not None:
        missing = [n for n in nodes if not graph.has_node(n)]
        if missing:
            raise GraphError(f"order contains unknown nodes: {missing!r}")
        if len(set(nodes)) != len(nodes):
            raise GraphError("order contains duplicate nodes")
        if len(nodes) != len(graph):
            raise GraphError("order must cover every node exactly once")
    index = {node: i for i, node in enumerate(nodes)}
    matrix = np.zeros((len(nodes), len(nodes)))
    for src, dst, w in graph.edges():
        matrix[index[src], index[dst]] = w
    return matrix, nodes


# Sub-block size from which :meth:`CompiledInfluence.group_influence`
# gathers with ``np.ix_`` instead of reading entries one by one: the two
# cost the same at about 64 products (8 x 8: 8.3 us each on a 2-CPU
# x86-64 container; 2 x 2: 1.0 vs 5.8 us, 6 x 8: 6.1 vs 8.5 us).
_GATHER_MIN = 64


@dataclass(frozen=True)
class CompiledInfluence:
    """An influence graph's weights lowered to arrays for allocation.

    ``weights[i, j]`` is the influence of ``names[i]`` on ``names[j]``
    (0 where no edge exists, replica links included at their fixed 0);
    ``complements`` is the elementwise ``1.0 - weights`` — the same
    float64 subtraction the scalar fold performs per pair, precomputed
    once.

    :meth:`group_influence` reproduces
    ``combine_probabilities(graph.influence(s, d) for s in a for d in b)``
    bit-for-bit: the sub-block is raveled in C order (source-major,
    destination-inner — the scalar loop order) and folded left-to-right
    by :func:`math.prod`, which performs the identical multiplication
    sequence.  Float multiplication is not associative, so the order is
    part of the contract.
    """

    names: tuple[str, ...]
    index: dict[str, int]
    weights: np.ndarray
    complements: np.ndarray

    @classmethod
    def from_weights(cls, names: tuple[str, ...], weights: np.ndarray) -> "CompiledInfluence":
        """Build from an already-compiled weight matrix.

        The fault kernel's ``CompiledGraph.weights`` qualifies, so one
        compile serves both allocation and the fault campaign.
        """
        return cls(
            names=tuple(names),
            index={name: i for i, name in enumerate(names)},
            weights=weights,
            complements=1.0 - weights,
        )

    def __len__(self) -> int:
        return len(self.names)

    def rows(self, names: "list[str] | tuple[str, ...]") -> list[int]:
        """Row indices of ``names``, in the given order."""
        index = self.index
        return [index[name] for name in names]

    def group_influence(self, rows_a: list[int], rows_b: list[int]) -> float:
        """Eq. (2) combined influence of member rows ``a`` on rows ``b``.

        Up to :data:`_GATHER_MIN` products the entries are read one by
        one, in the C order a gathered sub-block ravels in; a gather
        costs more than that many reads.
        """
        if len(rows_a) == 1 and len(rows_b) == 1:
            return 1.0 - self.complements.item(rows_a[0], rows_b[0])
        if len(rows_a) * len(rows_b) < _GATHER_MIN:
            item = self.complements.item
            return 1.0 - math.prod([item(r, c) for r in rows_a for c in rows_b])
        block = self.complements[np.ix_(rows_a, rows_b)]
        return 1.0 - math.prod(block.ravel().tolist())

    def partition_influence(self, blocks: "list[list[int]]") -> np.ndarray:
        """Eq. (4) influence between every ordered pair of row blocks.

        ``out[i, j] == group_influence(blocks[i], blocks[j])`` bit for
        bit for ``i != j``; the diagonal is 0.

        Blocks up to a size cap fold together: sorted largest first, the
        blocks with a member at position ``a`` form a prefix, so step
        ``(a, b)`` multiplies the running products of the prefix pairs
        by one gathered ``rows[a] x cols[b]`` slice of the complements.
        Taking ``a`` outer and ``b`` inner walks each pair's sub-block
        in C order, the order :meth:`group_influence` multiplies in.
        Pairs involving a block above the cap take
        :meth:`group_influence` itself, so one huge block costs a few
        per-pair folds instead of ``size**2`` steps.
        """
        n = len(blocks)
        out = np.zeros((n, n))
        if n < 2:
            return out
        sizes = [len(block) for block in blocks]
        cap = _fold_cap(sizes)
        small = sorted(
            (i for i in range(n) if sizes[i] <= cap), key=lambda i: -sizes[i]
        )
        if small:
            width = sizes[small[0]]
            members = np.zeros((len(small), width), dtype=np.intp)
            for k, i in enumerate(small):
                members[k, :sizes[i]] = blocks[i]
            # prefix[a]: how many of the sorted blocks have a member at a.
            prefix = [sum(1 for i in small if sizes[i] > a) for a in range(width)]
            product = np.ones((len(small), len(small)))
            for a in range(width):
                rows = self.complements[members[:prefix[a], a]]
                for b in range(width):
                    product[:prefix[a], :prefix[b]] *= rows[:, members[:prefix[b], b]]
            out[np.ix_(small, small)] = 1.0 - product
        for i in range(n):
            if sizes[i] <= cap:
                continue
            for j in range(n):
                if j != i:
                    out[i, j] = self.group_influence(blocks[i], blocks[j])
                    if sizes[j] <= cap:
                        out[j, i] = self.group_influence(blocks[j], blocks[i])
        np.fill_diagonal(out, 0.0)
        return out

    def padded_complements(self) -> np.ndarray:
        """:attr:`complements` with a row and a column of 1.0 appended:
        index ``len(self)`` is the padding :meth:`row_influence` reads."""
        n = len(self)
        padded = np.ones((n + 1, n + 1))
        padded[:n, :n] = self.complements
        return padded

    def row_influence(
        self, padded: np.ndarray, rows: np.ndarray, blocks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq. (4) influence of the row block ``rows`` on each block of
        ``blocks``, and of each block on it.

        ``blocks`` holds one block per line, its member rows first, then
        ``len(self)``; ``padded`` is :meth:`padded_complements`.
        ``out[k] == group_influence(rows, block k)`` and
        ``into[k] == group_influence(block k, rows)`` bit for bit: one
        gather lays each product's factors out in the C order
        :meth:`group_influence` multiplies in, and a running product
        folds them.  A padded factor is 1.0, and multiplying by 1.0 is
        exact.
        """
        # factors[a, b, k]: the factor (a, b) of block k's product, so
        # its lines run in C order over (a, b), one column per block.
        count = len(blocks)
        columns = blocks.T  # columns[b, k]: member b of block k
        factors = padded[rows[:, None, None], columns[None, :, :]].reshape(-1, count)
        out = 1.0 - np.multiply.accumulate(factors, axis=0)[-1]
        factors = padded[columns[:, None, :], rows[None, :, None]].reshape(-1, count)
        into = 1.0 - np.multiply.accumulate(factors, axis=0)[-1]
        return out, into

    def pair_weight(self, a: int, b: int) -> float:
        """The raw edge weight between two single rows."""
        return float(self.weights[a, b])


def sequential_sum(terms: np.ndarray) -> float:
    """``terms`` added one after another from 0.0, as a Python
    ``total += term`` loop adds them.

    :func:`numpy.add.accumulate` adds each term to the running total
    before it; ``np.sum`` pairs terms up, which rounds differently.
    """
    return np.add.accumulate(np.concatenate(([0.0], terms))).item(-1)


def _fold_cap(sizes: list[int]) -> int:
    """The block size up to which :meth:`CompiledInfluence.partition_influence`
    folds blocks together.

    The joint fold takes ``cap**2`` array steps; each block above the cap
    costs about ``2 * len(sizes)`` per-pair folds.  The cap minimizes the
    sum, counting a step and a per-pair fold alike.
    """
    n = len(sizes)
    return min(
        set(sizes),
        key=lambda cap: (cap * cap + 2 * n * sum(1 for s in sizes if s > cap), cap),
    )


def power_series_sum(matrix: np.ndarray, max_order: int) -> np.ndarray:
    """``P + P^2 + ... + P^max_order`` computed iteratively.

    ``max_order`` counts the number of terms; the paper's Eq. (3) writes
    three explicit terms (direct, one-hop, two-hop transitive), i.e.
    ``max_order=3``.
    """
    if max_order < 1:
        raise InfluenceError("max_order must be >= 1")
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InfluenceError("matrix must be square")
    rec = current()
    if rec.enabled:
        rec.counter("power_series_calls_total").inc(form="truncated")
        rec.counter("power_series_terms_total").inc(max_order)
        with rec.timed("power_series_s", form="truncated"):
            return _power_series_sum(matrix, max_order)
    return _power_series_sum(matrix, max_order)


def _power_series_sum(matrix: np.ndarray, max_order: int) -> np.ndarray:
    acc = matrix.copy()
    term = matrix.copy()
    for _ in range(max_order - 1):
        term = term @ matrix
        acc += term
    return acc


# Convergence guard (Eq. 3): the power series is only meaningful while
# its terms shrink; on a divergent influence matrix (spectral radius
# >= 1) a deep truncation silently returns astronomically wrong values.
MAX_SERIES_ORDER = 128
_NEGLIGIBLE_TERM = 1e-300


def power_series_sum_guarded(
    matrix: np.ndarray,
    max_order: int,
    growth_patience: int = 2,
) -> tuple[np.ndarray, int, bool]:
    """``P + ... + P^k`` with divergence detection.

    Accumulates at most ``max_order`` terms (itself capped at
    :data:`MAX_SERIES_ORDER`), watching the infinity norm of each term:

    * a term that underflows to negligible ends the sum early —
      the remaining tail cannot change the result;
    * ``growth_patience`` consecutive non-decreasing terms mean the
      series is not converging — the sum stops there and is flagged.

    Returns ``(sum, terms_used, diverging)``; ``diverging`` is True when
    the guard tripped and the returned truncation must not be trusted as
    an approximation of the infinite series.
    """
    if max_order < 1:
        raise InfluenceError("max_order must be >= 1")
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InfluenceError("matrix must be square")
    max_order = min(max_order, MAX_SERIES_ORDER)
    rec = current()
    if rec.enabled:
        rec.counter("power_series_calls_total").inc(form="guarded")
        with rec.timed("power_series_s", form="guarded"):
            result = _power_series_sum_guarded(matrix, max_order, growth_patience)
        rec.counter("power_series_terms_total").inc(result[1])
        return result
    return _power_series_sum_guarded(matrix, max_order, growth_patience)


def _power_series_sum_guarded(
    matrix: np.ndarray,
    max_order: int,
    growth_patience: int,
) -> tuple[np.ndarray, int, bool]:
    acc = matrix.copy()
    term = matrix.copy()
    previous_norm = float(np.max(np.abs(term))) if term.size else 0.0
    growth_streak = 0
    terms = 1
    for _ in range(max_order - 1):
        term = term @ matrix
        norm = float(np.max(np.abs(term))) if term.size else 0.0
        if norm < _NEGLIGIBLE_TERM:
            break
        acc += term
        terms += 1
        if norm >= previous_norm:
            growth_streak += 1
            if growth_streak >= growth_patience:
                return acc, terms, True
        else:
            growth_streak = 0
        previous_norm = norm
    return acc, terms, False


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude; the series converges iff this is < 1."""
    if matrix.size == 0:
        return 0.0
    return float(max(abs(np.linalg.eigvals(matrix))))


def power_series_limit(matrix: np.ndarray) -> np.ndarray:
    """Closed form of the infinite series: ``(I - P)^{-1} - I``.

    Raises :class:`InfluenceError` when the series diverges
    (spectral radius >= 1).
    """
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InfluenceError("matrix must be square")
    radius = spectral_radius(matrix)
    if radius >= 1.0 - 1e-12:
        raise InfluenceError(
            f"influence series diverges (spectral radius {radius:.4f} >= 1); "
            "use a truncated order instead"
        )
    rec = current()
    if rec.enabled:
        rec.counter("power_series_calls_total").inc(form="closed")
        with rec.timed("power_series_s", form="closed"):
            return _power_series_limit(matrix)
    return _power_series_limit(matrix)


def _power_series_limit(matrix: np.ndarray) -> np.ndarray:
    n = matrix.shape[0]
    identity = np.eye(n)
    return np.linalg.inv(identity - matrix) - identity


def series_tail_bound(matrix: np.ndarray, max_order: int) -> float:
    """Upper bound on the neglected tail after ``max_order`` terms.

    Uses the induced infinity norm: ``||Σ_{m>k} P^m||_inf <=
    ||P||_inf^{k+1} / (1 - ||P||_inf)`` when ``||P||_inf < 1``, else inf.
    This substantiates the paper's "higher-order terms are likely to be
    small enough to be neglected".
    """
    norm = float(np.max(np.sum(np.abs(matrix), axis=1))) if matrix.size else 0.0
    if norm >= 1.0:
        return float("inf")
    return norm ** (max_order + 1) / (1.0 - norm)
