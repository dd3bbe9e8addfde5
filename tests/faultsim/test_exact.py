"""The exact oracle, and the fault kernel against it.

``exact_hit_probabilities`` enumerates every fired/unfired outcome of a
small graph's edges, so its values carry no sampling error.  It is
checked against closed forms first, then serves as the kernel's oracle:
on a fixed family of graphs every kernel estimate must cover the exact
value.  The bounds carry a Bonferroni correction over every check in
the family, so a correct kernel fails the family less than once in
1000 seeds; the seeds are fixed, so the tests are deterministic.
"""

import math
import random
from statistics import NormalDist

import pytest

from repro.errors import SimulationError
from repro.faultsim import (
    MAX_EXACT_EDGES,
    estimate_all_influences,
    estimate_transitive_influence,
    exact_hit_probabilities,
    run_campaign,
)
from repro.influence import InfluenceGraph
from repro.influence.estimation import wilson_interval
from repro.workloads import paper_influence_graph

from tests.conftest import make_process
from tests.faultsim.test_kernel import tricky_graph


def graph_of(*edges: tuple[str, str, float]) -> InfluenceGraph:
    g = InfluenceGraph()
    for name in sorted({n for src, dst, _ in edges for n in (src, dst)}):
        g.add_fcm(make_process(name))
    for src, dst, weight in edges:
        g.set_influence(src, dst, weight)
    return g


class TestClosedForms:
    def test_single_edge_gives_its_weight(self):
        exact = exact_hit_probabilities(graph_of(("a", "b", 0.37)))
        assert exact[("a", "b")] == pytest.approx(0.37, abs=1e-12)
        assert exact[("b", "a")] == 0.0

    def test_chain_gives_the_product(self):
        exact = exact_hit_probabilities(
            graph_of(("a", "b", 0.5), ("b", "c", 0.4), ("c", "d", 0.3))
        )
        assert exact[("a", "c")] == pytest.approx(0.5 * 0.4, abs=1e-12)
        assert exact[("a", "d")] == pytest.approx(0.5 * 0.4 * 0.3, abs=1e-12)
        assert exact[("d", "a")] == 0.0

    def test_two_parallel_paths(self):
        a, b, c, d = 0.5, 0.4, 0.3, 0.2
        exact = exact_hit_probabilities(
            graph_of(("s", "x", a), ("x", "t", b), ("s", "y", c), ("y", "t", d))
        )
        expected = 1.0 - (1.0 - a * b) * (1.0 - c * d)
        assert exact[("s", "t")] == pytest.approx(expected, abs=1e-12)

    def test_certain_edges_are_exactly_one(self):
        exact = exact_hit_probabilities(
            graph_of(("a", "b", 1.0), ("b", "c", 1.0), ("a", "d", 0.3))
        )
        assert exact[("a", "b")] == 1.0
        assert exact[("a", "c")] == 1.0
        assert exact[("a", "d")] == pytest.approx(0.3, abs=1e-12)
        assert exact[("c", "a")] == 0.0

    def test_replica_link_never_fires(self):
        exact = exact_hit_probabilities(tricky_graph())
        assert exact[("r1", "r2")] == 0.0
        assert exact[("r2", "r1")] == 0.0
        # r1 -> a (0.4), then the certain a -> b, then b -> c (0.5).
        assert exact[("r1", "a")] == pytest.approx(0.4, abs=1e-12)
        assert exact[("r1", "b")] == pytest.approx(0.4, abs=1e-12)
        assert exact[("r1", "c")] == pytest.approx(0.2, abs=1e-12)

    def test_cycle_is_tried_once(self):
        # a <-> b plus both into c: a path back to the source adds nothing.
        p, q, r, s = 0.3, 0.6, 0.2, 0.7
        exact = exact_hit_probabilities(
            graph_of(("a", "b", p), ("b", "a", q), ("a", "c", r), ("b", "c", s))
        )
        assert exact[("a", "b")] == pytest.approx(p, abs=1e-12)
        assert exact[("b", "a")] == pytest.approx(q, abs=1e-12)
        assert exact[("a", "c")] == pytest.approx(r + (1 - r) * p * s, abs=1e-12)
        assert exact[("b", "c")] == pytest.approx(s + (1 - s) * q * r, abs=1e-12)
        assert exact[("c", "a")] == 0.0

    def test_every_ordered_pair_reported(self):
        g = graph_of(("a", "b", 0.5))
        g.add_fcm(make_process("lone"))
        exact = exact_hit_probabilities(g)
        names = g.fcm_names()
        assert set(exact) == {(s, t) for s in names for t in names if s != t}
        assert exact[("lone", "a")] == 0.0 and exact[("a", "lone")] == 0.0

    def test_edge_limit(self):
        names = [f"n{i}" for i in range(6)]
        pairs = [(s, t) for s in names for t in names if s != t]
        at_limit = graph_of(*[(s, t, 0.5) for s, t in pairs[:MAX_EXACT_EDGES]])
        assert len(exact_hit_probabilities(at_limit)) == 30
        over = graph_of(*[(s, t, 0.5) for s, t in pairs[: MAX_EXACT_EDGES + 1]])
        with pytest.raises(SimulationError, match=str(MAX_EXACT_EDGES)):
            exact_hit_probabilities(over)


# -- the kernel against the oracle -------------------------------------------


def random_graph(seed: int) -> InfluenceGraph:
    """5-8 FCMs, 6-14 edges, always at least one cycle."""
    rng = random.Random(seed)
    names = [f"f{i}" for i in range(rng.randint(5, 8))]
    ring = rng.sample(names, rng.randint(2, 4))
    edges = {(ring[i - 1], ring[i]) for i in range(len(ring))}
    pairs = [(s, t) for s in names for t in names if s != t]
    target = rng.randint(max(6, len(edges)), 14)
    while len(edges) < target:
        edges.add(rng.choice(pairs))
    g = InfluenceGraph()
    for name in names:
        g.add_fcm(make_process(name))
    for src, dst in sorted(edges):
        g.set_influence(src, dst, round(rng.uniform(0.05, 0.95), 3))
    return g


def random_partition(graph: InfluenceGraph, seed: int) -> list[list[str]]:
    """Clusters of 1-3 FCMs."""
    rng = random.Random(seed)
    names = graph.fcm_names()
    rng.shuffle(names)
    blocks = []
    while names:
        size = rng.randint(1, 3)
        blocks.append(names[:size])
        names = names[size:]
    return blocks


FAMILY = {
    "fig3": paper_influence_graph(),
    "tricky": tricky_graph(),
    **{f"random-{i}": random_graph(i) for i in range(10)},
}

#: Every check that can fail by chance: each ordered pair's transitive
#: estimate, each edge's direct estimate and two campaign figures per
#: graph.  Their union may fail with probability at most 1/1000.
CHECKS = sum(
    len(g) * (len(g) - 1) + len(g.influence_edges()) + 2
    for g in FAMILY.values()
)
DELTA = 1e-3 / CHECKS
Z = NormalDist().inv_cdf(1.0 - DELTA / 2.0)

PAIR_TRIALS = 8192
CAMPAIGN_TRIALS = 65536


def hoeffding(trials: int, spread: float) -> float:
    """Half-width a mean of ``trials`` values in a ``spread``-wide range
    exceeds with probability at most ``DELTA``."""
    return spread * math.sqrt(math.log(2.0 / DELTA) / (2.0 * trials))


def exact_escape_rate(graph: InfluenceGraph, partition) -> float:
    """Exact ``cross_cluster_rate``: over uniformly seeded FCMs, the
    probability that the fault leaves the seed's cluster.

    A fault leaves cluster C exactly when a member it reaches inside C
    fires an edge out of C, and those edges fire independently of the
    edges inside C.  So give each member one edge to a sink standing
    for everything outside C, of weight ``1 - prod(1 - w)`` over its
    edges out of C: the escape probability from a seed is the oracle's
    hit probability of the sink.
    """
    total = 0.0
    for block in partition:
        members = set(block)
        local = InfluenceGraph()
        for name in block:
            local.add_fcm(make_process(name))
        local.add_fcm(make_process("outside"))
        stays = dict.fromkeys(block, 1.0)
        for src, dst, weight in graph.influence_edges():
            if src not in members:
                continue
            if dst in members:
                local.set_influence(src, dst, weight)
            else:
                stays[src] *= 1.0 - weight
        for member, stay in stays.items():
            if stay < 1.0:
                local.set_influence(member, "outside", 1.0 - stay)
        exact = exact_hit_probabilities(local)
        total += sum(exact[(seed, "outside")] for seed in block)
    return total / len(graph)


@pytest.mark.parametrize("name", sorted(FAMILY))
class TestKernelAgainstOracle:
    def test_transitive_estimates_cover_exact(self, name):
        graph = FAMILY[name]
        exact = exact_hit_probabilities(graph)
        for i, ((source, target), p) in enumerate(sorted(exact.items())):
            est = estimate_transitive_influence(
                graph, source, target, trials=PAIR_TRIALS, seed=7000 + i
            )
            if p in (0.0, 1.0):
                assert est.hits == p * est.trials, (source, target, p)
                continue
            low, high = wilson_interval(est.hits, est.trials, z=Z)
            assert low <= p <= high, (source, target, p, est.hits)

    def test_direct_estimates_cover_weights(self, name):
        graph = FAMILY[name]
        estimates = estimate_all_influences(graph, trials=PAIR_TRIALS, seed=11)
        assert len(estimates) == len(graph.influence_edges())
        for (source, target), est in estimates.items():
            weight = graph.influence(source, target)
            if weight == 1.0:
                assert est.hits == est.trials
                continue
            low, high = wilson_interval(est.hits, est.trials, z=Z)
            assert low <= weight <= high, (source, target, weight, est.hits)

    def test_campaign_within_hoeffding_of_exact(self, name):
        graph = FAMILY[name]
        partition = random_partition(graph, seed=len(name))
        exact = exact_hit_probabilities(graph)
        n = len(graph)
        mean_affected = sum(exact.values()) / n
        result = run_campaign(
            graph, partition, trials=CAMPAIGN_TRIALS, seed=2026
        )
        assert abs(result.mean_affected_fcms - mean_affected) <= hoeffding(
            CAMPAIGN_TRIALS, n - 1
        )
        assert abs(
            result.cross_cluster_rate - exact_escape_rate(graph, partition)
        ) <= hoeffding(CAMPAIGN_TRIALS, 1.0)
