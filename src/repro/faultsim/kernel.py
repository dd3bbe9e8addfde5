"""NumPy-vectorized batch-trial fault-propagation engine.

A per-trial walk (:func:`repro.faultsim.propagation.propagate_once`)
pays Python-level costs per *edge test*; campaigns on a few hundred
FCMs would spend seconds in ``trials x edges`` interpreter work.  This
kernel, the engine behind every campaign and estimator, simulates whole
blocks of trials as array operations instead:

* all Bernoulli fault-factor draws of a block are sampled as matrices
  from one ``numpy.random.Generator(PCG64)``;
* propagation advances wave by wave: a frontier's aggregate hit
  probability on every node is ``1 - exp(F @ log(1 - W))`` (the OR of
  independent edge firings), so one matrix product replaces a wave's
  worth of per-edge trials.

**The model it samples.**  A trial tests each edge at most once (when
its source is reached, targets already faulty are skipped), so the
affected set is distributed exactly as reachability over independently
"open" edges — the standard percolation argument.  The wave-aggregated
draw used here samples, per (trial, target), one uniform against the
exact union probability of the incoming frontier edges, which yields
the same affected-set distribution.  Two oracles check it: fed *shared*
per-edge draws, :func:`propagate_with_draws` and the per-trial walk's
``edge_draw`` hook produce bit-identical affected sets; and on small
graphs the kernel's estimates must cover the exact hit probabilities of
:func:`repro.faultsim.propagation.exact_hit_probabilities`
(``tests/faultsim/test_exact.py``).

**Determinism.**  Trials are tied to fixed RNG *blocks* of
:data:`DEFAULT_BLOCK_SIZE` trials: block ``b`` always draws from
``Generator(PCG64(derive_seed(seed, b, purpose="vector-block")))`` and a
block is always simulated whole (callers asking for a sub-range get a
slice of the full block's result).  Every draw is a fixed-shape matrix
per wave, so a block's outcome depends only on ``(seed, b)`` — never on
the exec layer's batch plan, worker count, retries, or checkpoint
history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.exec.batching import derive_seed
from repro.influence.influence_graph import InfluenceGraph

#: Trials per RNG block.  Fixed (not derived from the exec batch plan) so
#: campaign results are invariant under batching, pooling and resume.
DEFAULT_BLOCK_SIZE = 256

#: ``log(1 - w)`` substitute for w == 1 edges: finite (so ``0 * L`` stays
#: 0 in the matrix product, not NaN) yet large enough that
#: ``1 - exp(x) == 1.0`` exactly in float64 — certain edges always fire.
_LOG_ZERO = -800.0

_SEED_PURPOSE = "vector-block"


@dataclass(frozen=True)
class CompiledGraph:
    """An influence graph lowered to dense matrices for the kernel.

    Attributes:
        names: FCM names in the graph's stable iteration order.
        index: name -> row/column position.
        weights: ``(n, n)`` float64 influence matrix; 0 where no
            influence edge exists (including replica links, which the
            paper fixes at weight 0).
        log_survival: ``log(1 - weights)`` with w == 1 entries clamped
            to :data:`_LOG_ZERO`; the per-edge log survival probability
            summed by the wave matrix product.
    """

    names: tuple[str, ...]
    index: dict[str, int]
    weights: "np.ndarray"
    log_survival: "np.ndarray"

    def __len__(self) -> int:
        return len(self.names)


def compile_graph(graph: InfluenceGraph) -> CompiledGraph:
    """Lower ``graph`` to the kernel's dense matrix form.

    Replica links and absent edges both contribute weight 0 — exactly the
    probabilities the per-trial walk sees through ``graph.influence``.

    Compilations are cached on the graph instance keyed by its mutation
    :attr:`~repro.influence.influence_graph.InfluenceGraph.version`, so the
    allocation engine and a subsequent fault campaign on the same graph
    share one compile.  The weights are the graph's own
    :meth:`~repro.influence.influence_graph.InfluenceGraph.weight_matrix`.
    """
    version = getattr(graph, "version", None)
    if version is not None:
        cached = getattr(graph, "_kernel_compile_cache", None)
        if cached is not None and cached[0] == version:
            return cached[1]
    names = tuple(graph.fcm_names())
    if not names:
        raise SimulationError("graph has no FCMs")
    index = {name: i for i, name in enumerate(names)}
    weights = graph.weight_matrix()
    with np.errstate(divide="ignore"):
        log_survival = np.where(weights >= 1.0, _LOG_ZERO, np.log1p(-weights))
    compiled = CompiledGraph(
        names=names, index=index, weights=weights, log_survival=log_survival
    )
    if version is not None:
        graph._kernel_compile_cache = (version, compiled)
    return compiled


def seed_compile(
    graph: InfluenceGraph, source: CompiledGraph, origins: "list[int]"
) -> CompiledGraph:
    """Cache ``graph``'s compile as ``source`` gathered by ``origins``.

    ``origins[k]`` is the row in ``source`` of the FCM that
    ``graph.fcm_names()[k]`` is an image of, and each image must carry
    exactly its origin's edges (replica expansion: images of one origin
    are unlinked, like an FCM and itself).  The gather is then the
    matrix :func:`compile_graph` would build from ``graph``'s edges,
    without reading them; it is cached under ``graph``'s current
    :attr:`~repro.influence.influence_graph.InfluenceGraph.version`.
    """
    names = tuple(graph.fcm_names())
    img = np.asarray(origins, dtype=np.intp)
    compiled = CompiledGraph(
        names=names,
        index={name: i for i, name in enumerate(names)},
        weights=source.weights[img][:, img],
        log_survival=source.log_survival[img][:, img],
    )
    graph._kernel_compile_cache = (graph.version, compiled)
    return compiled


def propagate_block(
    compiled: CompiledGraph,
    sources: "np.ndarray",
    rng: "np.random.Generator",
    direct_only: bool = False,
) -> "np.ndarray":
    """Propagate one block of trials; returns a ``(B, n)`` affected mask.

    ``sources[t]`` is the seeded FCM index of trial ``t``.  Each wave
    draws one fixed-shape ``(B, n)`` uniform matrix, so the consumed
    stream depends only on the number of waves the block needs.
    """
    block = len(sources)
    n = len(compiled)
    affected = np.zeros((block, n), dtype=bool)
    affected[np.arange(block), sources] = True
    frontier = affected.copy()
    while frontier.any():
        # P(j hit this wave) = 1 - prod_{i in frontier} (1 - w_ij).
        log_miss = frontier.astype(float) @ compiled.log_survival
        hit_probability = -np.expm1(log_miss)
        draws = rng.random((block, n))
        fresh = (draws < hit_probability) & ~affected
        affected |= fresh
        if direct_only:
            break
        frontier = fresh
    return affected


def propagate_with_draws(
    compiled: CompiledGraph,
    source: int,
    draws: "np.ndarray",
    direct_only: bool = False,
) -> "np.ndarray":
    """Affected mask of one trial under an explicit per-edge draw matrix.

    ``draws[i, j]`` is the uniform tested against edge ``i -> j``; the
    edge is *open* iff ``draws[i, j] < weights[i, j]``.  Feeding the same
    matrix to :func:`~repro.faultsim.propagation.propagate_once`'s
    ``edge_draw`` hook must produce the identical affected set — the
    shared-draw parity contract.
    """
    n = len(compiled)
    if draws.shape != (n, n):
        raise SimulationError(
            f"draw matrix must be {(n, n)}, got {tuple(draws.shape)}"
        )
    open_edges = draws < compiled.weights
    affected = np.zeros(n, dtype=bool)
    affected[source] = True
    frontier = affected.copy()
    while frontier.any():
        fresh = open_edges[frontier].any(axis=0) & ~affected
        affected |= fresh
        if direct_only:
            break
        frontier = fresh
    return affected


def _block_rng(seed: int, block: int) -> "np.random.Generator":
    return np.random.Generator(
        np.random.PCG64(derive_seed(seed, block, purpose=_SEED_PURPOSE))
    )


def simulate_range(
    compiled: CompiledGraph,
    seed: int,
    start: int,
    stop: int,
    source: int | None = None,
    direct_only: bool = False,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> tuple["np.ndarray", "np.ndarray"]:
    """Simulate trials ``[start, stop)``; returns ``(sources, affected)``.

    ``source=None`` seeds each trial uniformly over FCMs (campaign mode);
    an integer seeds every trial at that FCM (pair-estimation mode).
    Blocks intersecting the range are always simulated whole, so the
    result for any sub-range is a slice of the same full-block outcome —
    the batching-invariance half of the determinism contract.
    """
    if not 0 <= start < stop:
        raise SimulationError(f"bad trial range [{start}, {stop})")
    if block_size < 1:
        raise SimulationError("block_size must be >= 1")
    n = len(compiled)
    out_sources = np.empty(stop - start, dtype=np.int64)
    out_affected = np.empty((stop - start, n), dtype=bool)
    for block in range(start // block_size, (stop - 1) // block_size + 1):
        block_start = block * block_size
        rng = _block_rng(seed, block)
        if source is None:
            sources = rng.integers(0, n, size=block_size)
        else:
            sources = np.full(block_size, source, dtype=np.int64)
        affected = propagate_block(compiled, sources, rng, direct_only)
        lo = max(start, block_start)
        hi = min(stop, block_start + block_size)
        out_sources[lo - start : hi - start] = sources[
            lo - block_start : hi - block_start
        ]
        out_affected[lo - start : hi - start] = affected[
            lo - block_start : hi - block_start
        ]
    return out_sources, out_affected


def campaign_batch(
    compiled: CompiledGraph,
    cluster_of: "np.ndarray",
    clusters: int,
    seed: int,
    start: int,
    size: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> dict:
    """One campaign batch in the exec runner's payload format.

    Returns ``{"affected": [...], "cluster_hits": [...]}`` — per trial,
    the number of *other* FCMs hit and the number of clusters hit beyond
    the seed's own.
    """
    sources, affected = simulate_range(
        compiled, seed, start, start + size, block_size=block_size
    )
    counts = affected.sum(axis=1) - 1
    # Distinct clusters containing at least one affected FCM.
    one_hot = np.zeros((len(compiled), clusters), dtype=np.uint8)
    one_hot[np.arange(len(compiled)), cluster_of] = 1
    cluster_hit = (affected.astype(np.uint8) @ one_hot) > 0
    # The seed's own cluster never counts as an escape.
    cluster_hit[np.arange(len(sources)), cluster_of[sources]] = False
    hits = cluster_hit.sum(axis=1)
    return {
        "affected": [int(c) for c in counts],
        "cluster_hits": [int(h) for h in hits],
    }


def pair_hits(
    compiled: CompiledGraph,
    source: int,
    target: int,
    trials: int,
    seed: int,
    direct_only: bool = False,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> int:
    """How many of ``trials`` seeded at ``source`` reached ``target``."""
    if trials < 1:
        raise SimulationError("trials must be >= 1")
    _, affected = simulate_range(
        compiled,
        seed,
        0,
        trials,
        source=source,
        direct_only=direct_only,
        block_size=block_size,
    )
    return int(affected[:, target].sum())
