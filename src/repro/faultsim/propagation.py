"""Monte-Carlo fault propagation over an influence graph.

The influence value ``FCM_i -> FCM_j`` is defined as "the probability of
one FCM affecting another FCM at the same level if no third FCM at that
level is considered" (§4.2).  The simulator realises the paper's fault
model directly:

* faults occur in single FCMs or in communication between a pair — no
  three-party faults;
* transmission probabilities are independent of source/target location
  and of dynamic context (uninvolved FCMs);
* indirect transmission is approximated by chaining direct transmissions.

A trial seeds a fault in one source FCM and propagates it along influence
edges: each edge fires independently with probability equal to its
influence weight, wave by wave (an FCM already faulty is not re-faulted).
Over many trials, the hit frequency of a direct neighbour estimates
influence, and the hit frequency of any node estimates
``1 - separation`` — the *transitive* interaction Eq. (3) approximates.

Campaigns and estimators run on the NumPy kernel
(:mod:`repro.faultsim.kernel`).  This module holds the kernel's two
oracles: the per-trial walk :func:`propagate_once` (also behind
:mod:`repro.faultsim.multilevel` and :func:`affected_counts`; hot loops
pass it a pre-built :class:`ScalarAdjacency`), and
:func:`exact_hit_probabilities`, which enumerates a small graph's edge
outcomes instead of sampling them.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.faultsim.events import TrialRecord
from repro.influence.influence_graph import InfluenceGraph
from repro.influence.factors import FACTOR_FAULT_KIND, FactorKind
from repro.model.faults import FaultEvent, FaultKind


@dataclass(frozen=True)
class ScalarAdjacency:
    """Per-source outgoing edges, precomputed once for a whole campaign.

    ``out[source]`` lists ``(target, probability, kind)`` for every
    positive-weight influence edge, in ``fcm_names()`` order — the same
    order (and therefore the same RNG draw sequence) as querying the
    graph per trial, so using the precompute is bit-identical to not
    using it.
    """

    out: dict[str, tuple[tuple[str, float, FaultKind], ...]]
    seed_kind: FaultKind


def compile_adjacency(graph: InfluenceGraph) -> ScalarAdjacency:
    """Hoist the per-trial edge-list rebuild out of the trial loop."""
    names = graph.fcm_names()
    out: dict[str, tuple[tuple[str, float, FaultKind], ...]] = {}
    for source in names:
        edges = []
        for target in names:
            if target == source:
                continue
            p = graph.influence(source, target)
            if p <= 0.0:
                continue
            edges.append((target, p, _edge_kind(graph, source, target)))
        out[source] = tuple(edges)
    return ScalarAdjacency(
        out=out, seed_kind=FACTOR_FAULT_KIND[FactorKind.SHARED_MEMORY]
    )


def propagate_once(
    graph: InfluenceGraph,
    source: str,
    rng: random.Random,
    trial: int = 0,
    direct_only: bool = False,
    adjacency: ScalarAdjacency | None = None,
    edge_draw: Callable[[str, str], float] | None = None,
) -> TrialRecord:
    """One trial: seed a fault at ``source``, fire edges probabilistically.

    ``direct_only`` restricts propagation to the first wave — the "no
    third FCM considered" condition in the definition of influence; the
    default propagates transitively (the condition Eq. (3) models).

    ``adjacency`` (from :func:`compile_adjacency`) skips the per-trial
    graph queries without changing any outcome.  ``edge_draw`` replaces
    the RNG with an explicit uniform per edge — the shared-draw hook the
    kernel's parity test feeds its draw matrix through.
    """
    if adjacency is None:
        if not graph.has_fcm(source):
            raise SimulationError(f"FCM {source!r} not in graph")
        adjacency = compile_adjacency(graph)
    elif source not in adjacency.out:
        raise SimulationError(f"FCM {source!r} not in graph")
    record = TrialRecord(trial=trial)
    record.events.append(
        FaultEvent(fcm=source, kind=adjacency.seed_kind, time=0.0)
    )
    record.affected.add(source)

    frontier = deque([(source, 0.0)])
    while frontier:
        current, time = frontier.popleft()
        if direct_only and current != source:
            continue
        for target, p, kind in adjacency.out[current]:
            if target in record.affected:
                continue
            draw = (
                edge_draw(current, target)
                if edge_draw is not None
                else rng.random()
            )
            if draw < p:
                record.events.append(
                    FaultEvent(
                        fcm=target,
                        kind=kind,
                        time=time + 1.0,
                        transmitted_from=current,
                    )
                )
                record.affected.add(target)
                frontier.append((target, time + 1.0))
    return record


def _edge_kind(
    graph: InfluenceGraph,
    source: str,
    target: str | None,
) -> FaultKind:
    """The fault kind an edge introduces (from its dominant factor)."""
    if target is not None:
        try:
            factors = graph.factors(source, target)
        except Exception:
            factors = ()
        if factors:
            dominant = max(factors, key=lambda f: f.probability)
            return FACTOR_FAULT_KIND[dominant.kind]
    return FACTOR_FAULT_KIND[FactorKind.SHARED_MEMORY]


def affected_counts(
    graph: InfluenceGraph,
    source: str,
    trials: int,
    seed: int = 0,
    direct_only: bool = False,
) -> dict[str, int]:
    """How often each FCM was affected over ``trials`` seeded at ``source``.

    The count for ``source`` itself always equals ``trials``.
    """
    if trials < 1:
        raise SimulationError("trials must be >= 1")
    if not graph.has_fcm(source):
        raise SimulationError(f"FCM {source!r} not in graph")
    rng = random.Random(seed)
    adjacency = compile_adjacency(graph)
    counts = {name: 0 for name in graph.fcm_names()}
    for trial in range(trials):
        record = propagate_once(
            graph, source, rng, trial, direct_only, adjacency=adjacency
        )
        for name in record.affected:
            counts[name] += 1
    return counts


def expected_affected(
    graph: InfluenceGraph,
    source: str,
    trials: int,
    seed: int = 0,
) -> float:
    """Mean number of FCMs (beyond the source) affected per fault.

    The paper's containment objective in one number: lower means better
    fault containment.
    """
    counts = affected_counts(graph, source, trials, seed)
    total_others = sum(c for name, c in counts.items() if name != source)
    return total_others / trials


#: Most positive-weight edges :func:`exact_hit_probabilities` enumerates
#: (``2**16`` outcomes).
MAX_EXACT_EDGES = 16

#: Outcomes closed over per array step, bounding the working set.
_EXACT_CHUNK = 4096


def exact_hit_probabilities(
    graph: InfluenceGraph,
) -> dict[tuple[str, str], float]:
    """Exact ``P(target hit | fault seeded at source)`` for every ordered pair.

    The model is the one :func:`propagate_once` samples: each
    positive-weight edge fires independently with its weight and is
    tried at most once per trial, so a trial hits exactly the FCMs that
    a path of fired edges reaches from the source.  Summing the
    probability of every fired/unfired outcome of the edges in which
    ``target`` is reachable gives the hit probability without sampling
    error.  A pair that certain edges (weight 1) alone connect is
    exactly 1.0; a pair no path connects is exactly 0.0.  Refuses a
    graph with more than :data:`MAX_EXACT_EDGES` positive-weight edges.
    """
    names = graph.fcm_names()
    edges = [(s, t, w) for s, t, w in graph.influence_edges() if w > 0.0]
    if len(edges) > MAX_EXACT_EDGES:
        raise SimulationError(
            f"exact enumeration covers at most {MAX_EXACT_EDGES} "
            f"positive-weight edges; the graph has {len(edges)}"
        )
    touched = {name for s, t, _ in edges for name in (s, t)}
    nodes = [name for name in names if name in touched]
    index = {name: i for i, name in enumerate(nodes)}
    rows = np.array([index[s] for s, _, _ in edges], dtype=np.intp)
    cols = np.array([index[t] for _, t, _ in edges], dtype=np.intp)
    weights = np.array([w for _, _, w in edges])
    hits = np.zeros((len(nodes), len(nodes)))
    total = 1 << len(edges)
    for lo in range(0, total, _EXACT_CHUNK):
        outcomes = np.arange(lo, min(total, lo + _EXACT_CHUNK))
        fired = ((outcomes[:, None] >> np.arange(len(edges))) & 1) == 1
        probability = np.where(fired, weights, 1.0 - weights).prod(axis=1)
        open_edges = np.zeros((len(outcomes), len(nodes), len(nodes)), bool)
        open_edges[:, rows, cols] = fired
        hits += np.einsum("o,ost->st", probability, _closure(open_edges))
    certain = np.zeros((1, len(nodes), len(nodes)), bool)
    certain[0, rows, cols] = weights >= 1.0
    hits[_closure(certain)[0]] = 1.0
    out = dict.fromkeys(((s, t) for s in names for t in names if s != t), 0.0)
    for s in nodes:
        for t in nodes:
            if s != t:
                out[(s, t)] = min(1.0, float(hits[index[s], index[t]]))
    return out


def _closure(open_edges: "np.ndarray") -> "np.ndarray":
    """Reflexive-transitive closure of a stack of ``(k, k)`` edge masks."""
    reach = open_edges | np.eye(open_edges.shape[-1], dtype=bool)
    while True:
        step = (reach.astype(np.float32) @ reach.astype(np.float32)) > 0.0
        if (step == reach).all():
            return reach
        reach = step
