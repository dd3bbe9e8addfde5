"""Non-interference verification between FCMs.

"Ensuring a desired level of non-interference of operation between SW
modules, and providing effective guidelines for support of
non-interference" (§1.1).  Operationally we verify that at each level:

* every influence an FCM exerts stays below a per-level budget;
* every pair's *separation* (Eq. 3) stays above a threshold;
* replica pairs are perfectly separated (no influence path at all).

"Once an FCM has been created, verification tests are run to ensure that
its interactions with other FCMs do not violate the restrictions and
requirements of a FCM" (§3) — :func:`verify_noninterference` is that
battery in analytic form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.influence.influence_graph import InfluenceGraph
from repro.influence.separation import compute_separation


@dataclass(frozen=True)
class NonInterferenceReport:
    """Outcome of the non-interference battery."""

    influence_budget: float
    separation_floor: float
    over_budget: tuple[tuple[str, str, float], ...]
    under_separated: tuple[tuple[str, str, float], ...]
    replica_paths: tuple[tuple[str, str], ...]

    @property
    def passed(self) -> bool:
        return not (self.over_budget or self.under_separated or self.replica_paths)

    def describe(self) -> list[str]:
        lines = []
        for src, dst, value in self.over_budget:
            lines.append(
                f"influence {src} -> {dst} = {value:.3f} exceeds budget "
                f"{self.influence_budget:.3f}"
            )
        for src, dst, value in self.under_separated:
            lines.append(
                f"separation {src} o {dst} = {value:.3f} below floor "
                f"{self.separation_floor:.3f}"
            )
        for src, dst in self.replica_paths:
            lines.append(f"replicas {src} and {dst} are not isolated")
        return lines


def verify_noninterference(
    graph: InfluenceGraph,
    influence_budget: float = 1.0,
    separation_floor: float = 0.0,
    order: int = 3,
) -> NonInterferenceReport:
    """Run the analytic non-interference battery at one level.

    ``influence_budget``: maximum tolerated direct influence per edge
    (1.0 disables the check).  ``separation_floor``: minimum tolerated
    pairwise separation (0.0 disables).  Replica isolation is always
    checked: no directed influence path may connect two replicas of one
    module (a path would let one replica's fault reach its peer, defeating
    the replication).
    """
    over_budget: list[tuple[str, str, float]] = []
    # Weights are probabilities, so a budget of 1 or more never trips.
    if influence_budget < 1.0:
        over_budget = [
            (src, dst, w)
            for src, dst, w in graph.influence_edges()
            if w > influence_budget + 1e-12
        ]

    under_separated: list[tuple[str, str, float]] = []
    names = graph.fcm_names()
    if separation_floor > 0.0 and len(names) > 1:
        result = compute_separation(graph, order=order)
        for src in names:
            for dst in names:
                if src == dst:
                    continue
                value = result.separation(src, dst)
                if value < separation_floor - 1e-12:
                    under_separated.append((src, dst, value))

    replica_paths: list[tuple[str, str]] = []
    groups = graph.replica_groups()
    if groups:
        # Reachability over the influence matrix: replica links weigh 0,
        # so no walk crosses one.
        edges = graph.weight_matrix() > 0.0
        index = {name: i for i, name in enumerate(names)}
        for group in groups:
            members = sorted(group)
            reach = {name: _reachable(edges, index[name]) for name in members}
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    if reach[a][index[b]] or reach[b][index[a]]:
                        replica_paths.append((a, b))

    return NonInterferenceReport(
        influence_budget=influence_budget,
        separation_floor=separation_floor,
        over_budget=tuple(over_budget),
        under_separated=tuple(under_separated),
        replica_paths=tuple(replica_paths),
    )


def _reachable(edges: np.ndarray, start: int) -> np.ndarray:
    """Mask of the nodes ``edges`` (a boolean adjacency matrix) reaches
    from ``start``, ``start`` included."""
    seen = np.zeros(len(edges), dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen
