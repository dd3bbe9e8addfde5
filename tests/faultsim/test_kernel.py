"""The NumPy kernel: compile, shared-draw parity, determinism.

Two layers of evidence here, a third in ``test_exact.py``:

* **shared-draw parity** — fed one explicit per-edge draw matrix, the
  kernel's percolation walk and the per-trial walk's ``edge_draw`` hook
  must produce bit-identical affected sets, trial by trial;
* **batching invariance** — a campaign's outcome is a pure function of
  ``(seed, trial index)``, never of how trials were split into ranges;
* **exact agreement** (``test_exact.py``) — on small graphs the kernel's
  estimates must cover the exact hit probabilities of
  ``exact_hit_probabilities``.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.faultsim.kernel import (
    DEFAULT_BLOCK_SIZE,
    campaign_batch,
    compile_graph,
    pair_hits,
    propagate_with_draws,
    simulate_range,
)
from repro.faultsim.propagation import compile_adjacency, propagate_once
from repro.influence import InfluenceGraph
from repro.model import AttributeSet, FCM, Level

from tests.conftest import make_process


def tricky_graph() -> InfluenceGraph:
    """Replica links (weight 0), a certain edge (w = 1), and a cycle."""
    g = InfluenceGraph()
    base = FCM("r", Level.PROCESS, AttributeSet(fault_tolerance=2))
    g.add_fcm(base.replicate("1"))
    g.add_fcm(base.replicate("2"))
    g.link_replicas("r1", "r2")
    for name in ("a", "b", "c"):
        g.add_fcm(make_process(name))
    g.set_influence("a", "b", 1.0)  # certain edge: log1p(-1) clamp path
    g.set_influence("b", "c", 0.5)
    g.set_influence("c", "a", 0.3)  # cycle back into affected territory
    g.set_influence("r1", "a", 0.4)
    return g


def scalar_affected_with_draws(graph, source, draws, index, direct_only=False):
    """Per-trial walk driven by the kernel's draw matrix via ``edge_draw``."""
    record = propagate_once(
        graph,
        source,
        rng=None,
        direct_only=direct_only,
        adjacency=compile_adjacency(graph),
        edge_draw=lambda src, dst: float(draws[index[src], index[dst]]),
    )
    return record.affected


class TestCompileGraph:
    def test_weights_match_graph_influence(self, paper_graph):
        compiled = compile_graph(paper_graph)
        for src in compiled.names:
            for dst in compiled.names:
                if src == dst:
                    continue
                assert compiled.weights[
                    compiled.index[src], compiled.index[dst]
                ] == paper_graph.influence(src, dst)

    def test_replica_links_are_weight_zero(self):
        compiled = compile_graph(tricky_graph())
        i, j = compiled.index["r1"], compiled.index["r2"]
        assert compiled.weights[i, j] == 0.0
        assert compiled.weights[j, i] == 0.0

    def test_certain_edge_survival_is_finite_and_exact(self):
        compiled = compile_graph(tricky_graph())
        i, j = compiled.index["a"], compiled.index["b"]
        assert np.isfinite(compiled.log_survival[i, j])
        # -expm1(clamp) must round to exactly 1.0: certain edges always fire.
        assert -np.expm1(compiled.log_survival[i, j]) == 1.0

    def test_empty_graph_rejected(self):
        with pytest.raises(SimulationError):
            compile_graph(InfluenceGraph())


class TestSharedDrawParity:
    """Identical per-edge draws => identical affected sets, bit for bit."""

    @pytest.mark.parametrize("direct_only", [False, True])
    def test_paper_graph_every_source(self, paper_graph, direct_only):
        compiled = compile_graph(paper_graph)
        rng = np.random.default_rng(1234)
        for trial in range(50):
            draws = rng.random((len(compiled), len(compiled)))
            for source in compiled.names:
                vector = propagate_with_draws(
                    compiled, compiled.index[source], draws, direct_only
                )
                vector_names = {
                    compiled.names[i] for i in np.flatnonzero(vector)
                }
                scalar_names = scalar_affected_with_draws(
                    paper_graph, source, draws, compiled.index, direct_only
                )
                assert vector_names == scalar_names, (
                    f"trial {trial}, source {source!r}: "
                    f"vector {sorted(vector_names)} != "
                    f"scalar {sorted(scalar_names)}"
                )

    def test_replica_and_certain_edges(self):
        graph = tricky_graph()
        compiled = compile_graph(graph)
        rng = np.random.default_rng(99)
        for trial in range(100):
            draws = rng.random((len(compiled), len(compiled)))
            for source in compiled.names:
                vector = propagate_with_draws(
                    compiled, compiled.index[source], draws
                )
                vector_names = {
                    compiled.names[i] for i in np.flatnonzero(vector)
                }
                scalar_names = scalar_affected_with_draws(
                    graph, source, draws, compiled.index
                )
                assert vector_names == scalar_names
        # Spot-check the model edges: a always reaches b, replicas never
        # transmit over their weight-0 link.
        draws = rng.random((len(compiled), len(compiled)))
        affected = propagate_with_draws(compiled, compiled.index["a"], draws)
        assert affected[compiled.index["b"]]
        alone = propagate_with_draws(
            compiled,
            compiled.index["r2"],
            np.zeros((len(compiled), len(compiled))),
        )
        assert not alone[compiled.index["r1"]]

    def test_bad_draw_shape_rejected(self, paper_graph):
        compiled = compile_graph(paper_graph)
        with pytest.raises(SimulationError):
            propagate_with_draws(compiled, 0, np.zeros((2, 2)))


class TestBatchingInvariance:
    """Vector results depend on (seed, trial), never on the range split."""

    def test_simulate_range_slices_are_consistent(self, paper_graph):
        compiled = compile_graph(paper_graph)
        full_sources, full_affected = simulate_range(compiled, 7, 0, 600)
        cuts = [0, 1, 17, 255, 256, 300, 511, 599, 600]
        for lo, hi in zip(cuts, cuts[1:]):
            if lo == hi:
                continue
            sources, affected = simulate_range(compiled, 7, lo, hi)
            assert (sources == full_sources[lo:hi]).all()
            assert (affected == full_affected[lo:hi]).all()

    def test_small_block_size_still_deterministic(self, paper_graph):
        compiled = compile_graph(paper_graph)
        a = simulate_range(compiled, 3, 10, 90, block_size=16)
        b = simulate_range(compiled, 3, 10, 90, block_size=16)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    def test_campaign_batch_split_invariance(self, paper_graph):
        compiled = compile_graph(paper_graph)
        cluster_of = np.arange(len(compiled)) % 3
        whole = campaign_batch(compiled, cluster_of, 3, seed=5, start=0, size=400)
        left = campaign_batch(compiled, cluster_of, 3, seed=5, start=0, size=123)
        right = campaign_batch(compiled, cluster_of, 3, seed=5, start=123, size=277)
        assert whole["affected"] == left["affected"] + right["affected"]
        assert (
            whole["cluster_hits"]
            == left["cluster_hits"] + right["cluster_hits"]
        )

    def test_pair_hits_deterministic_and_seed_sensitive(self, paper_graph):
        # block_size is a stream parameter like seed: fixed block_size
        # (the default everywhere) => bit-identical reruns.  The
        # exec-layer batch plan, by contrast, must never matter — that is
        # test_simulate_range_slices_are_consistent.
        compiled = compile_graph(paper_graph)
        src, dst = 0, 1
        reference = pair_hits(compiled, src, dst, 500, seed=11)
        assert pair_hits(compiled, src, dst, 500, seed=11) == reference
        assert DEFAULT_BLOCK_SIZE == 256
        hits = [pair_hits(compiled, src, dst, 500, seed=s) for s in range(5)]
        assert len(set(hits)) > 1  # different seeds, different streams

    def test_bad_range_rejected(self, paper_graph):
        compiled = compile_graph(paper_graph)
        with pytest.raises(SimulationError):
            simulate_range(compiled, 0, 5, 5)
        with pytest.raises(SimulationError):
            simulate_range(compiled, 0, -1, 5)
