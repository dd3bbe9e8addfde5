"""E13 — Ablation: Eq. (3) against the exact fault model.

Eq. (3) writes transitive interaction as a sum of path products, which
the paper truncates after three terms.  Under the paper's own fault
model (§4.2: each edge transmits independently with its influence) the
true interaction is the probability that a fired path reaches the
target, which ``exact_hit_probabilities`` computes exactly on small
graphs.  For each graph family we report how far the series at orders
1 and 3, and its closed form ``(I - P)^-1 - I``, sit above and below
that exact ``P(hit)``: the largest gap each way over every ordered pair.
"""

from repro.errors import InfluenceError
from repro.faultsim import exact_hit_probabilities
from repro.influence import InfluenceGraph, compute_separation
from repro.metrics import format_table
from repro.workloads import paper_influence_graph

from tests.conftest import make_process
from tests.faultsim.test_exact import random_graph

FORMS = [("order 1", 1), ("order 3", 3), ("closed form", None)]


def graph_of(n: int, edges) -> InfluenceGraph:
    g = InfluenceGraph()
    for i in range(n):
        g.add_fcm(make_process(f"p{i}"))
    for src, dst, weight in edges:
        g.set_influence(f"p{src}", f"p{dst}", weight)
    return g


def families() -> dict[str, list[InfluenceGraph]]:
    return {
        "Fig. 3": [paper_influence_graph()],
        "chain": [graph_of(6, [(i, i + 1, w) for i, w in enumerate((0.9, 0.8, 0.7, 0.6, 0.5))])],
        "cycle": [graph_of(5, [(i, (i + 1) % 5, 0.7) for i in range(5)])],
        # 16 of the 20 ordered pairs of 5 FCMs, all at 0.25.
        "near-clique": [
            graph_of(5, [(i, j, 0.25) for i in range(5) for j in range(5) if i != j][:16])
        ],
        # The kernel tests' family: 5-8 FCMs, 6-14 edges, one cycle each.
        "random": [random_graph(seed) for seed in range(10)],
    }


def gaps(graphs: list[InfluenceGraph]) -> dict:
    """Per Eq. (3) form: (largest overstatement, largest understatement,
    graphs whose series diverges)."""
    out = {label: [0.0, 0.0, 0] for label, _ in FORMS}
    for graph in graphs:
        exact = exact_hit_probabilities(graph)
        for label, order in FORMS:
            try:
                series = compute_separation(graph, order=order)
            except InfluenceError:  # closed form of a divergent series
                out[label][2] += 1
                continue
            for (src, dst), p_hit in exact.items():
                gap = series.transitive_influence(src, dst) - p_hit
                out[label][0] = max(out[label][0], gap)
                out[label][1] = max(out[label][1], -gap)
    return out


def sweep():
    return {name: (len(graphs), gaps(graphs)) for name, graphs in families().items()}


def test_ablation_eq3_exact(benchmark, artifact):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for family, (count, by_form) in results.items():
        cells = []
        for label, _ in FORMS:
            over, under, diverged = by_form[label]
            if diverged == count:
                cells += ["diverges", "diverges"]
            else:
                cells += [f"{over:.3f}", f"{under:.3f}"]
        rows.append((f"{family} ({count})", *cells))
    headers = ["family (graphs)"] + [
        f"{label} {side}" for label, _ in FORMS for side in ("over", "under")
    ]
    text = format_table(
        headers,
        rows,
        title="E13: Eq. (3) minus exact P(hit), largest gap each way",
    )
    diverged = results["random"][1]["closed form"][2]
    text += f"\nrandom graphs whose series diverges (no closed form): {diverged}"
    artifact("ablation_eq3_exact", text)

    fig3 = results["Fig. 3"][1]
    assert round(fig3["order 1"][1], 3) == 0.490
    assert round(fig3["order 3"][0], 3) == 0.371
    assert round(fig3["order 3"][1], 3) == 0.047
    assert round(fig3["closed form"][0], 3) == 0.618
    for count, by_form in results.values():
        # A direct edge that fires is a hit, so order 1 never overstates;
        # the closed form sums every walk, so it never understates.
        assert by_form["order 1"][0] < 1e-9
        assert by_form["closed form"][1] < 1e-9
    # A chain has one path per pair, so its closed form is exact.
    assert max(results["chain"][1]["closed form"][:2]) < 1e-9
