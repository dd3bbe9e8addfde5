"""Empirical estimation of influence and separation by simulation.

"It needs to be emphasised again that developing techniques to determine
and measure actual parameters such as 'influence' across FCMs is crucial
for the techniques to be applied to real systems" (§7).  The paper points
at field data and fault injection; we simulate the field: the
ground-truth influence graph drives the simulator, and these estimators
recover the values from observed trials — validating both the estimators
and the analytic formulas (Eqs. 2-3) against each other.

Every estimator hands whole trial blocks to the NumPy kernel
(:mod:`repro.faultsim.kernel`), so sweeping every edge of a large graph
costs a few matrix products per edge instead of ``trials x edges``
Python calls.  On small graphs the estimates are tested against the
exact hit probabilities of
:func:`repro.faultsim.propagation.exact_hit_probabilities`
(``tests/faultsim/test_exact.py``).
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.faultsim.events import PairEstimate
from repro.faultsim import kernel
from repro.influence.estimation import wilson_interval
from repro.influence.influence_graph import InfluenceGraph


def _estimate_pair(
    graph: InfluenceGraph,
    source: str,
    target: str,
    trials: int,
    seed: int,
    direct_only: bool,
) -> PairEstimate:
    if trials < 1:
        raise SimulationError("trials must be >= 1")
    for name in (source, target):
        if not graph.has_fcm(name):
            raise SimulationError(f"FCM {name!r} not in graph")
    compiled = kernel.compile_graph(graph)
    hits = kernel.pair_hits(
        compiled,
        compiled.index[source],
        compiled.index[target],
        trials,
        seed,
        direct_only=direct_only,
    )
    return _pair_estimate(source, target, trials, hits)


def _pair_estimate(
    source: str, target: str, trials: int, hits: int
) -> PairEstimate:
    low, high = wilson_interval(hits, trials)
    return PairEstimate(
        source=source,
        target=target,
        trials=trials,
        hits=hits,
        estimate=hits / trials,
        low=low,
        high=high,
    )


def estimate_influence(
    graph: InfluenceGraph,
    source: str,
    target: str,
    trials: int = 2000,
    seed: int = 0,
) -> PairEstimate:
    """Estimate the *direct* influence of ``source`` on ``target``.

    Runs single-wave trials ("if no third FCM at that level is
    considered") and counts how often the target catches the fault.
    The point estimate converges to the Eq. (2) edge weight.
    """
    return _estimate_pair(graph, source, target, trials, seed, direct_only=True)


def estimate_transitive_influence(
    graph: InfluenceGraph,
    source: str,
    target: str,
    trials: int = 2000,
    seed: int = 0,
) -> PairEstimate:
    """Estimate the probability that a fault in ``source`` *eventually*
    affects ``target`` through any chain.

    ``1 - estimate`` is the empirical counterpart of separation, Eq. (3).
    Note the analytic series *sums* path probabilities (an upper bound on
    the union), so the empirical value is expected to sit at or below the
    truncated series value — the bench records both.
    """
    return _estimate_pair(graph, source, target, trials, seed, direct_only=False)


def estimate_separation(
    graph: InfluenceGraph,
    source: str,
    target: str,
    trials: int = 2000,
    seed: int = 0,
) -> float:
    """Empirical separation: 1 - transitive hit frequency."""
    return 1.0 - estimate_transitive_influence(
        graph, source, target, trials, seed
    ).estimate


def estimate_all_influences(
    graph: InfluenceGraph,
    trials: int = 1000,
    seed: int = 0,
) -> dict[tuple[str, str], PairEstimate]:
    """Direct-influence estimates for every edge in the graph.

    The graph is compiled once and reused across every edge's trial
    blocks — the sweep the §7 measurement programme actually needs at
    scale.
    """
    out: dict[tuple[str, str], PairEstimate] = {}
    compiled = kernel.compile_graph(graph)
    for i, (src, dst, _w) in enumerate(graph.influence_edges()):
        hits = kernel.pair_hits(
            compiled,
            compiled.index[src],
            compiled.index[dst],
            trials,
            seed + i,
            direct_only=True,
        )
        out[(src, dst)] = _pair_estimate(src, dst, trials, hits)
    return out


def max_estimation_error(
    graph: InfluenceGraph,
    trials: int = 1000,
    seed: int = 0,
) -> float:
    """Largest |estimate - true| over all edges — the E4 bench metric."""
    estimates = estimate_all_influences(graph, trials, seed)
    worst = 0.0
    for (src, dst), est in estimates.items():
        worst = max(worst, abs(est.estimate - graph.influence(src, dst)))
    return worst
