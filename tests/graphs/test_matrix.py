"""Matrix helpers for the separation series."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, InfluenceError
from repro.graphs import (
    Digraph,
    adjacency_matrix,
    power_series_limit,
    power_series_sum,
    series_tail_bound,
    spectral_radius,
)


@pytest.fixture
def line() -> Digraph:
    g = Digraph()
    g.add_edge("a", "b", 0.5)
    g.add_edge("b", "c", 0.4)
    return g


class TestAdjacency:
    def test_matrix_entries(self, line):
        m, names = adjacency_matrix(line)
        i = {n: k for k, n in enumerate(names)}
        assert m[i["a"], i["b"]] == 0.5
        assert m[i["b"], i["c"]] == 0.4
        assert m.sum() == pytest.approx(0.9)

    def test_explicit_order(self, line):
        m, names = adjacency_matrix(line, order=["c", "b", "a"])
        assert names == ["c", "b", "a"]
        assert m[2, 1] == 0.5  # a -> b

    def test_order_must_cover_all(self, line):
        with pytest.raises(GraphError):
            adjacency_matrix(line, order=["a", "b"])

    def test_order_rejects_unknown(self, line):
        with pytest.raises(GraphError):
            adjacency_matrix(line, order=["a", "b", "zz"])

    def test_order_rejects_duplicates(self, line):
        with pytest.raises(GraphError):
            adjacency_matrix(line, order=["a", "a", "b"])


class TestPowerSeries:
    def test_first_order_is_matrix(self, line):
        m, _ = adjacency_matrix(line)
        assert np.allclose(power_series_sum(m, 1), m)

    def test_second_order_adds_two_hop(self, line):
        m, names = adjacency_matrix(line)
        s = power_series_sum(m, 2)
        i = {n: k for k, n in enumerate(names)}
        assert s[i["a"], i["c"]] == pytest.approx(0.5 * 0.4)

    def test_order_zero_rejected(self):
        with pytest.raises(InfluenceError):
            power_series_sum(np.zeros((2, 2)), 0)

    def test_non_square_rejected(self):
        with pytest.raises(InfluenceError):
            power_series_sum(np.zeros((2, 3)), 1)

    def test_matches_explicit_sum(self):
        rng = np.random.default_rng(1)
        m = rng.uniform(0, 0.2, size=(5, 5))
        explicit = m + m @ m + m @ m @ m
        assert np.allclose(power_series_sum(m, 3), explicit)


class TestLimit:
    def test_limit_equals_high_order_truncation(self):
        rng = np.random.default_rng(2)
        m = rng.uniform(0, 0.15, size=(4, 4))
        limit = power_series_limit(m)
        truncated = power_series_sum(m, 60)
        assert np.allclose(limit, truncated, atol=1e-10)

    def test_divergent_matrix_rejected(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])  # spectral radius 1
        with pytest.raises(InfluenceError, match="diverges"):
            power_series_limit(m)

    def test_spectral_radius_of_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_spectral_radius_diagonal(self):
        assert spectral_radius(np.diag([0.2, -0.6])) == pytest.approx(0.6)


class TestTailBound:
    def test_bound_dominates_actual_tail(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(0, 0.1, size=(4, 4))
        limit = power_series_limit(m)
        for order in (1, 2, 3, 5):
            truncated = power_series_sum(m, order)
            actual_tail = np.abs(limit - truncated).max()
            assert actual_tail <= series_tail_bound(m, order) + 1e-12

    def test_bound_infinite_for_heavy_matrix(self):
        m = np.full((3, 3), 0.5)  # row sum 1.5 >= 1
        assert series_tail_bound(m, 3) == float("inf")

    def test_bound_decreases_with_order(self):
        m = np.full((3, 3), 0.1)
        bounds = [series_tail_bound(m, k) for k in range(1, 6)]
        assert bounds == sorted(bounds, reverse=True)


class TestCompiledInfluence:
    @pytest.fixture
    def influence(self):
        from repro.graphs.matrix import CompiledInfluence

        rng = np.random.default_rng(3)
        weights = np.where(rng.random((9, 9)) < 0.5, rng.random((9, 9)), 0.0)
        np.fill_diagonal(weights, 0.0)
        return CompiledInfluence.from_weights(tuple("abcdefghi"), weights)

    def test_group_influence_is_a_python_float(self, influence):
        # The 1x1 path used to leak np.float64 into scores.
        assert type(influence.group_influence([0], [1])) is float
        assert type(influence.group_influence([0, 2], [1])) is float

    @pytest.mark.parametrize(
        "blocks",
        [
            [[0], [1]],
            [[0, 1, 2], [3, 4], [5], [6, 7, 8]],
            [[8, 0, 4, 2, 6, 1], [3], [5], [7]],  # one block above the cap
            [[i] for i in range(9)],
        ],
    )
    def test_partition_influence_equals_group_influence(self, influence, blocks):
        out = influence.partition_influence(blocks)
        for i, a in enumerate(blocks):
            for j, b in enumerate(blocks):
                expected = 0.0 if i == j else influence.group_influence(a, b)
                assert out[i, j] == expected

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_group_influence_equals_the_gathered_fold(self, seed, rows, cols):
        # Blocks on both sides of the gather threshold (up to 144
        # products), rows and columns in any order, repeats allowed.
        import math

        from repro.graphs.matrix import CompiledInfluence

        rng = np.random.default_rng(seed)
        n = 14
        weights = np.where(rng.random((n, n)) < 0.6, rng.random((n, n)), 0.0)
        influence = CompiledInfluence.from_weights(
            tuple(f"p{i}" for i in range(n)), weights
        )
        a = rng.integers(0, n, rows).tolist()
        b = rng.integers(0, n, cols).tolist()
        block = influence.complements[np.ix_(a, b)]
        expected = 1.0 - math.prod(block.ravel().tolist())
        assert influence.group_influence(a, b) == expected

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.02, 0.5]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_row_influence_equals_group_influence(self, seed, scale):
        # Disjoint blocks of 1-12 rows (up to 144 products).  Small
        # weights keep each product near 1, where the order of its
        # factors shows in the influence's last bits.
        from repro.graphs.matrix import CompiledInfluence

        rng = np.random.default_rng(seed)
        n = 30
        weights = np.where(rng.random((n, n)) < 0.6, scale * rng.random((n, n)), 0.0)
        influence = CompiledInfluence.from_weights(
            tuple(f"p{i}" for i in range(n)), weights
        )
        order = rng.permutation(n).tolist()
        blocks = []
        while order:
            size = int(rng.integers(1, 13))
            blocks.append(order[:size])
            order = order[size:]
        width = max(len(block) for block in blocks)
        padded_blocks = np.full((len(blocks), width), n, dtype=np.intp)
        for k, block in enumerate(blocks):
            padded_blocks[k, :len(block)] = block
        padded = influence.padded_complements()
        for rows in blocks:
            out, into = influence.row_influence(padded, np.array(rows), padded_blocks)
            for k, block in enumerate(blocks):
                if block is rows:
                    continue
                assert out[k].tobytes() == np.float64(
                    influence.group_influence(rows, block)
                ).tobytes()
                assert into[k].tobytes() == np.float64(
                    influence.group_influence(block, rows)
                ).tobytes()

    def test_sequential_sum_adds_in_order(self):
        from repro.graphs.matrix import sequential_sum

        terms = [1e16, 1.0, -1e16, 1.0]
        total = 0.0
        for term in terms:
            total += term
        assert sequential_sum(np.array(terms)) == total == 1.0
        assert sequential_sum(np.array([])) == 0.0
        # 0.0 + -0.0 is 0.0, as in the loop.
        assert str(sequential_sum(np.array([-0.0]))) == "0.0"
        assert type(sequential_sum(np.array([0.5]))) is float
