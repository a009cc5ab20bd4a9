"""Simplex grid construction and barycentric interpolation."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpomdp import grid as grid_module
from beliefpomdp.errors import ResourceLimit
from beliefpomdp.grid import TABLE_BLOCK, SimplexGrid, build_grid, simplex_point_count
from beliefpomdp.solver import ValueFunction
from oracles import sorted_barycentric


class TestConstruction:
    def test_two_state_layout(self):
        grid = build_grid(2, 4)
        expected = [[1.0, 0.0], [0.75, 0.25], [0.5, 0.5], [0.25, 0.75], [0.0, 1.0]]
        assert grid.points.tolist() == expected

    def test_point_counts(self):
        assert build_grid(3, 2).num_points == 6
        for x, m in [(2, 17), (3, 9), (4, 6)]:
            assert build_grid(x, m).num_points == math.comb(m + x - 1, x - 1)
            assert simplex_point_count(x, m) == math.comb(m + x - 1, x - 1)

    def test_resource_cap(self):
        with pytest.raises(ResourceLimit):
            build_grid(3, 2000)
        build_grid(3, 2000, max_points=3_000_000)  # explicit cap raise works

    def test_rows_sum_to_resolution(self):
        grid = build_grid(4, 7)
        assert np.all(grid.coords.sum(axis=1) == 7)
        np.testing.assert_allclose(grid.points.sum(axis=1), 1.0, atol=1e-12)

    def test_index_of_round_trips(self):
        grid = build_grid(3, 12)
        idx = grid.index_of(grid.coords)
        np.testing.assert_array_equal(idx, np.arange(grid.num_points))

    def test_index_of_rejects_non_members(self):
        grid = build_grid(2, 4)
        with pytest.raises(ValueError):
            grid.index_of(np.array([[3, 2]]))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            build_grid(1, 5)
        with pytest.raises(ValueError):
            build_grid(3, 0)


def stars_and_bars(x, m):
    """Every k >= 0 with sum k = m, from the bar positions among m + x - 1 slots."""
    out = []
    for bars in itertools.combinations(range(m + x - 1), x - 1):
        edges = (-1,) + bars + (m + x - 1,)
        out.append([hi - lo - 1 for lo, hi in zip(edges, edges[1:])])
    return out


grid_sizes = st.integers(2, 6).flatmap(
    lambda x: st.tuples(st.just(x), st.integers(1, {2: 30, 3: 15, 4: 9, 5: 7, 6: 6}[x]))
)


class TestRanking:
    @given(grid_sizes)
    @settings(max_examples=40, deadline=None)
    def test_order_matches_brute_force(self, size):
        x, m = size
        expected = sorted(stars_and_bars(x, m), key=lambda k: k[::-1])
        grid = build_grid(x, m)
        assert grid.coords.tolist() == expected
        np.testing.assert_array_equal(grid.points, np.array(expected, dtype=float) / m)

    @given(grid_sizes)
    @settings(max_examples=40, deadline=None)
    def test_index_of_ranks_every_point(self, size):
        grid = build_grid(*size)
        np.testing.assert_array_equal(grid.index_of(grid.coords), np.arange(grid.num_points))

    @given(grid_sizes, st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_index_of_rejects_non_members(self, size, seed):
        x, m = size
        grid = build_grid(x, m)
        rng = np.random.default_rng(seed)
        k = grid.coords[rng.integers(grid.num_points)].copy()
        i, j = rng.choice(x, size=2, replace=False)
        negative = k.copy()
        negative[i] -= k[i] + 1  # row sum stays m
        negative[j] += k[i] + 1
        long_row = k.copy()
        long_row[i] += 1
        for bad in (negative, long_row):
            with pytest.raises(ValueError):
                grid.index_of(np.vstack([grid.coords[:1], bad]))
        with pytest.raises(ValueError):
            grid.index_of(k[:-1])


class TestBarycentric:
    @pytest.mark.parametrize("x,m", [(2, 10), (3, 8), (4, 5)])
    def test_exact_at_grid_points(self, x, m, rng):
        grid = build_grid(x, m)
        vals = rng.normal(size=grid.num_points)
        idx, w = grid.barycentric(grid.points)
        np.testing.assert_array_equal((vals[idx] * w).sum(axis=1), vals)

    @pytest.mark.parametrize("x", [2, 3, 4])
    def test_weights_are_convex_combinations(self, x, rng):
        grid = build_grid(x, 9)
        queries = rng.dirichlet(np.ones(x), size=500)
        idx, w = grid.barycentric(queries)
        assert np.all(w >= 0.0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        recon = (grid.points[idx] * w[:, :, None]).sum(axis=1)
        np.testing.assert_allclose(recon, queries, atol=1e-9)

    def test_continuity_across_cell_faces(self, rng):
        grid = build_grid(3, 10)
        vals = rng.normal(size=grid.num_points)
        # two-sided limits agree when a segment crosses interior faces
        for _ in range(200):
            a = rng.dirichlet(np.ones(3))
            direction = rng.normal(size=3)
            direction -= direction.mean()  # stay inside the simplex plane
            lo = grid.interpolate(vals, (a - 1e-10 * direction)[None, :])[0]
            hi = grid.interpolate(vals, (a + 1e-10 * direction)[None, :])[0]
            assert abs(hi - lo) < 1e-7

    def test_interpolates_linear_functions_exactly(self, rng):
        grid = build_grid(3, 7)
        coeffs = rng.normal(size=3)
        vals = grid.points @ coeffs
        queries = rng.dirichlet(np.ones(3), size=300)
        np.testing.assert_allclose(
            grid.interpolate(vals, queries), queries @ coeffs, atol=1e-12
        )

    def test_nearest_index_picks_heaviest_vertex(self):
        grid = build_grid(2, 4)
        q = np.array([[0.76, 0.24], [0.01, 0.99]])
        picked = grid.nearest_index(q)
        np.testing.assert_array_equal(grid.points[picked][:, 0], [0.75, 0.0])

    @pytest.mark.parametrize(
        "x, query, vertex",
        [
            (2, [0.625, 0.375], 0),  # weights 1/2, 1/2
            (3, [0.375, 0.5, 0.125], 0),  # 1/2, 0, 1/2
            (3, [0.3125, 0.34375, 0.34375], 1),  # 1/4, 3/8, 3/8
        ],
    )
    def test_nearest_index_ties_go_to_first_vertex(self, x, query, vertex):
        grid = build_grid(x, 4)
        idx, w = grid.barycentric([query])
        assert w[0, vertex] == w[0].max() and np.sum(w[0] == w[0].max()) == 2
        assert grid.nearest_index([query])[0] == idx[0, vertex]

    def test_lookups_block_by_block(self, monkeypatch, rng):
        grid = build_grid(3, 11)
        vals = rng.normal(size=grid.num_points)
        queries = rng.dirichlet(np.ones(3), size=66)
        whole = grid.interpolate(vals, queries), grid.nearest_index(queries)
        rows = []
        barycentric = SimplexGrid.barycentric

        def recording(self, q):
            rows.append(len(q))
            return barycentric(self, q)

        monkeypatch.setattr(SimplexGrid, "barycentric", recording)
        monkeypatch.setattr(grid_module, "TABLE_BLOCK", 7)  # ragged last block
        blocked = grid.interpolate(vals, queries), grid.nearest_index(queries)
        assert rows == 2 * ([7] * 9 + [3])
        np.testing.assert_array_equal(blocked[0], whole[0])
        np.testing.assert_array_equal(blocked[1], whole[1])

    def test_rejects_query_whose_cell_leaves_the_grid(self):
        grid = build_grid(3, 4)
        with pytest.raises(ValueError):
            grid.barycentric([[0.2, -0.3, 1.1]])

    def test_snapping_keeps_near_grid_queries_exact(self, rng):
        grid = build_grid(3, 6)
        vals = rng.normal(size=grid.num_points)
        jitter = rng.uniform(-1e-12, 1e-12, size=grid.points.shape)
        queries = grid.points + jitter
        queries /= queries.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(grid.interpolate(vals, queries), vals)


def lookup_queries(grid, kind, rng, rows=200):
    """Beliefs of one kind: Dirichlet draws, draws with exact zeros, grid
    points jittered by 1e-12, or half-step rationals k / (2M), whose
    fractional parts tie."""
    x, m = grid.num_states, grid.resolution
    if kind == "dirichlet":
        return rng.dirichlet(np.ones(x), size=rows)
    if kind == "zeros":
        q = rng.dirichlet(np.ones(x), size=rows)
        q[rng.random(q.shape) < 0.4] = 0.0
        q[np.arange(rows), rng.integers(x, size=rows)] += 0.5  # keep a positive entry
        return q / q.sum(axis=1, keepdims=True)
    if kind == "jittered":
        q = grid.points + rng.uniform(-1e-12, 1e-12, size=grid.points.shape)
        return q / q.sum(axis=1, keepdims=True)
    return rng.multinomial(2 * m, np.ones(x) / x, size=rows) / (2 * m)


class TestSortFreeLookup:
    @given(
        grid_sizes,
        st.sampled_from(["dirichlet", "zeros", "jittered", "half-steps"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(derandomize=True, max_examples=80, deadline=None)
    def test_matches_sorted_oracle(self, size, kind, seed):
        grid = build_grid(*size)
        queries = lookup_queries(grid, kind, np.random.default_rng(seed))
        idx, w = grid.barycentric(queries)
        want_idx, want_w = sorted_barycentric(grid, queries)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(w, want_w)
        heaviest = want_idx[np.arange(len(queries)), want_w.argmax(axis=1)]
        np.testing.assert_array_equal(grid.nearest_index(queries), heaviest)

    @pytest.mark.parametrize("x", [2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, -1])
    def test_non_finite_query_is_not_a_belief(self, x, bad, axis):
        grid = build_grid(x, 6)
        query = np.full(x, 1.0 / x)
        query[axis] = bad
        value = ValueFunction(grid, np.zeros(grid.num_points))
        lookups = [
            lambda: grid.barycentric(query[None, :]),
            lambda: grid.interpolate(value.values, query[None, :]),
            lambda: grid.nearest_index(query[None, :]),
            lambda: value.at(query),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lookup in lookups:
                with pytest.raises(ValueError, match="not a belief"):
                    lookup()

    @pytest.mark.parametrize("x, m", [(2, 200), (3, 60), (4, 20), (6, 7)])
    def test_peak_memory_is_a_few_outputs(self, x, m, rng):
        # per-row (rows, X, X - 1) temporaries would read 4.85-10.4 here
        grid = build_grid(x, m)
        queries = rng.dirichlet(np.ones(x), size=TABLE_BLOCK)
        tracemalloc.start()
        try:
            idx, w = grid.barycentric(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * (idx.nbytes + w.nbytes)
