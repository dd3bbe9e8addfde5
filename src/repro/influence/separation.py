"""Eq. (3): separation between FCMs.

Separation is "the probability of one FCM *not* affecting another if all
other FCMs at the same level are considered":

    FCM_i o FCM_j = 1 - (P_ij + Σ_k P_ik P_kj + Σ_l Σ_k P_ik P_kl P_lj + ...)

The bracketed sum is the (i, j) entry of ``P + P^2 + P^3 + ...`` where P is
the influence matrix.  The paper notes higher-order terms can be
neglected; we expose the truncation order (default 3, matching the three
explicit terms in the paper) and a closed-form infinite sum when the
series converges.

Because the series is not a probability calculus (paths are summed, not
inclusion-exclusion-combined), the raw sum can exceed 1; separation is
clamped to [0, 1] by default with the raw value also reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InfluenceError
from repro.graphs.matrix import (
    MAX_SERIES_ORDER,
    power_series_limit,
    power_series_sum,
    power_series_sum_guarded,
    series_tail_bound,
    spectral_radius,
)
from repro.influence.influence_graph import InfluenceGraph
from repro.obs import current

DEFAULT_ORDER = 3


@dataclass(frozen=True)
class SeparationResult:
    """Separation values for every ordered FCM pair at one level.

    Attributes:
        order: Truncation order used (``None`` for the closed-form limit).
        names: Node ordering of the matrices.
        transitive: The summed transitive-influence matrix
            (``P + ... + P^order``).
        tail_bound: Upper bound on the neglected tail (0 for closed form,
            ``inf`` when the norm criterion fails).
        truncated: True when the convergence guard stopped the series
            early — the terms were not decreasing, so the truncation is
            *not* an approximation of the (divergent) infinite series
            and downstream consumers should treat the values as a lower
            bound on transitive influence only.
        terms_used: Terms actually accumulated (``None`` for the closed
            form).
    """

    order: int | None
    names: tuple[str, ...]
    transitive: np.ndarray
    tail_bound: float
    truncated: bool = False
    terms_used: int | None = None

    def separation(self, source: str, target: str, clamp: bool = True) -> float:
        """``1 - transitive[source, target]``, clamped to [0, 1] by default."""
        value = 1.0 - self.transitive_influence(source, target)
        if clamp:
            value = min(1.0, max(0.0, value))
        return value

    def transitive_influence(self, source: str, target: str) -> float:
        i = self._index(source)
        j = self._index(target)
        if i == j:
            raise InfluenceError("separation of an FCM from itself is undefined")
        return float(self.transitive[i, j])

    def matrix(self, clamp: bool = True) -> np.ndarray:
        """Full separation matrix (diagonal set to NaN: undefined)."""
        sep = 1.0 - self.transitive
        if clamp:
            sep = np.clip(sep, 0.0, 1.0)
        np.fill_diagonal(sep, np.nan)
        return sep

    def _index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InfluenceError(f"FCM {name!r} not in separation result") from None


def compute_separation(
    graph: InfluenceGraph,
    order: int | None = DEFAULT_ORDER,
) -> SeparationResult:
    """Compute Eq. (3) over all FCM pairs of ``graph``.

    ``order=None`` requests the closed-form infinite sum
    ``(I - P)^{-1} - I`` (requires spectral radius < 1).
    Replica links (weight 0) do not contribute.
    """
    matrix, names = graph.weight_matrix(), graph.fcm_names()
    rec = current()
    if order is None:
        transitive = power_series_limit(matrix)
        return SeparationResult(
            order=None,
            names=tuple(names),
            transitive=transitive,
            tail_bound=0.0,
        )
    if order < 1:
        raise InfluenceError("truncation order must be >= 1")
    requested = order
    if order > MAX_SERIES_ORDER:
        order = MAX_SERIES_ORDER
        rec.decision(
            "separation", "order_capped", subject=str(requested),
            reason=f"path length capped at {MAX_SERIES_ORDER}; deeper terms "
            "are either negligible or the series diverges",
            cap=MAX_SERIES_ORDER,
        )
    transitive, terms_used, diverging = power_series_sum_guarded(matrix, order)
    tail = series_tail_bound(matrix, order)
    if diverging:
        rec.decision(
            "separation", "truncated", subject=f"order={requested}",
            reason="power-series terms stopped decreasing (spectral radius "
            ">= 1); sum truncated instead of accumulating a divergent tail",
            terms_used=terms_used,
        )
        if rec.enabled:
            rec.counter("separation_truncations_total").inc()
        tail = float("inf")
    return SeparationResult(
        order=order,
        names=tuple(names),
        transitive=transitive,
        tail_bound=tail,
        truncated=diverging,
        terms_used=terms_used,
    )


def separation(
    graph: InfluenceGraph,
    source: str,
    target: str,
    order: int | None = DEFAULT_ORDER,
    clamp: bool = True,
) -> float:
    """Convenience wrapper: separation of one ordered pair."""
    return compute_separation(graph, order).separation(source, target, clamp=clamp)


def convergence_order(
    graph: InfluenceGraph,
    tolerance: float = 1e-6,
    max_order: int = 64,
) -> int:
    """Smallest truncation order whose neglected tail is below ``tolerance``.

    Substantiates "at some point, higher-order terms are likely to be small
    enough to be neglected" for a concrete graph.  Uses the exact tail —
    the entrywise gap between the closed-form limit and the truncation —
    which exists whenever the spectral radius is < 1 (the infinity-norm
    bound of :func:`series_tail_bound` can be infinite on graphs whose row
    sums exceed 1 even though the series converges).
    """
    matrix = graph.weight_matrix()
    radius = spectral_radius(matrix)
    if radius >= 1.0:
        raise InfluenceError(
            f"series diverges (spectral radius {radius:.4f} >= 1); "
            "no truncation order achieves the tolerance"
        )
    limit = power_series_limit(matrix)
    for order in range(1, max_order + 1):
        tail = float(np.max(np.abs(limit - power_series_sum(matrix, order))))
        if tail < tolerance:
            return order
    raise InfluenceError(
        f"exact tail did not reach {tolerance} within order {max_order}"
    )
