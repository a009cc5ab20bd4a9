"""Uniform lattice discretization of the belief simplex.

Grid points are the beliefs with coordinates k_i / M, sum k_i = M, kept in
reverse-cumulative coordinates z_i = sum_{j >= i} k_j (i = 1..X-1), the
integers M >= z_1 >= ... >= z_{X-1} >= 0; a point's index is a closed-form
sum of binomials.  Query points are located inside a Freudenthal
triangulation in the same coordinates (Lovejoy, Operations Research 39(1),
1991): ranking the fractional parts of z yields at most X enclosing
vertices and their barycentric weights.  Interpolation is exact at grid
points and continuous across cell boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .columns import row_sum
from .errors import ResourceLimit

DEFAULT_MAX_POINTS = 2_000_000

#: query rows per barycentric call in every whole-set lookup (interpolation,
#: policy lookup, table building); bounds the lookup's temporaries, which
#: otherwise set the peak memory of a large solve
TABLE_BLOCK = 1 << 15

#: coordinates this close to an integer snap onto it before cell location
SNAP_TOL = 1e-9


def simplex_point_count(num_states: int, resolution: int) -> int:
    return math.comb(resolution + num_states - 1, num_states - 1)


@dataclass(frozen=True)
class SimplexGrid:
    """All beliefs with coordinates k/M, plus the interpolation machinery.

    ``points[n]`` is the n-th grid belief and ``coords[n]`` its integer
    vector k.  Points are ordered lexicographically in (z_{X-1}, ..., z_1),
    so for X = 2 the second coordinate increases with n, and z has index
    N - 1 - sum_{i=1}^{X-1} C(M - z_i + i - 1, i); ``binomials[i - 1, z]``
    holds the term C(M - z + i - 1, i).
    """

    num_states: int
    resolution: int
    points: np.ndarray
    coords: np.ndarray
    binomials: np.ndarray

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def _rank(self, z: np.ndarray) -> np.ndarray:
        """Flat indices of lattice points given as z_1..z_{X-1} in the last axis."""
        terms = sum(self.binomials[i, z[..., i]] for i in range(self.num_states - 1))
        return self.num_points - 1 - terms

    def index_of(self, coords: np.ndarray) -> np.ndarray:
        """Flat indices of integer coordinate vectors (must be grid members)."""
        coords = np.atleast_2d(np.asarray(coords, dtype=np.intp))
        bad = coords.shape[1] != self.num_states or np.any(coords < 0)
        if bad or np.any(coords.sum(axis=1) != self.resolution):
            raise ValueError("coordinate vector is not a grid point")
        z = np.cumsum(coords[:, :0:-1], axis=1)[:, ::-1]
        return self._rank(z)

    def barycentric(self, queries: np.ndarray):
        """Enclosing vertex indices and weights for each query belief.

        Returns (indices, weights), both shaped (n_queries, X); weights
        are nonnegative and sum to one per row.  Vertices with zero
        weight are replaced by the cell base point so every index is
        valid.  A query with a non-finite entry, or whose cell leaves the
        grid, raises ValueError.
        """
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        n, x = q.shape
        if x != self.num_states:
            raise ValueError(f"queries have dimension {x}, grid has {self.num_states}")
        if not np.isfinite(q).all():
            raise ValueError("query is not a belief: it has a non-finite entry")
        m = self.resolution

        # z[:, i] = M * sum_{j>=i} pi_j for i = 1..X-1 (z for i=0 would be
        # identically M and carries no information), summed from the tail;
        # stored column-major, so that every column below is contiguous
        tails = np.empty((x - 1, n)).T
        tails[:, -1] = q[:, -1]
        for i in range(x - 3, -1, -1):
            np.add(tails[:, i + 1], q[:, i + 1], out=tails[:, i])
        z = np.multiply(tails, m, out=tails)
        np.clip(z, 0.0, float(m), out=z)
        nearest = np.rint(z)
        np.copyto(z, nearest, where=np.abs(z - nearest) <= SNAP_TOL)
        # a nonnegative query has nonincreasing z; others leave the lattice
        if np.any(z[:, 1:] > z[:, :-1]):
            raise ValueError("query is not a belief: its cell leaves the grid")

        base = np.floor(z, out=nearest)
        base_z = base.astype(np.intp)
        frac = np.subtract(z, base, out=z)
        d = x - 1

        # the parts in descending order, through an insertion network of
        # max and min: it orders the values and tracks no axis
        frac_sorted = [frac[:, 0]]
        for i in range(1, d):
            part = frac[:, i]
            for r, above in enumerate(frac_sorted):
                frac_sorted[r] = np.maximum(above, part)
                part = np.minimum(above, part)
            frac_sorted.append(part)

        weights = np.empty((n, x))
        np.subtract(1.0, frac_sorted[0], out=weights[:, 0])
        for k in range(1, d):
            np.subtract(frac_sorted[k - 1], frac_sorted[k], out=weights[:, k])
        weights[:, d] = frac_sorted[d - 1]
        np.clip(weights, 0.0, 1.0, out=weights)
        tiny = weights <= 1e-15
        weights[tiny] = 0.0
        total = row_sum(weights)
        for k in range(x):
            weights[:, k] /= total

        # the base vertex's index, and how much a unit step up each axis
        # raises it: by Pascal's rule, stepping z_i up lowers its term
        # C(M - z_i + i - 1, i) by C(M - z_i + i - 2, i - 1), the term axis
        # i - 1 would have at the same z (and 1 on the first axis)
        idx = np.empty((n, x), dtype=np.intp)
        base_idx = idx[:, 0]
        np.subtract(self.num_points - 1, self.binomials[0].take(base_z[:, 0]), out=base_idx)
        steps = [1]
        for i in range(1, d):
            base_idx -= self.binomials[i].take(base_z[:, i])
            steps.append(self.binomials[i - 1].take(base_z[:, i]))
        # vertex k steps up the k axes with the largest parts (every axis
        # at k = X - 1): those whose part is at least the k-th largest.  If
        # that part ties with the next one, more than k axes qualify, but
        # then the vertex has zero weight; a zero-weight vertex, which may
        # also sit at z = M + 1 off the lattice, falls back to the base
        for k in range(1, x):
            vertex = idx[:, k]
            np.copyto(vertex, base_idx)
            for i in range(d):
                if k == d:
                    vertex += steps[i]
                else:
                    vertex += steps[i] * (frac[:, i] >= frac_sorted[k - 1])
            np.copyto(vertex, base_idx, where=tiny[:, k])
        return idx, weights

    def _lookups(self, queries: np.ndarray):
        """(rows, indices, weights) for each block of TABLE_BLOCK queries."""
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        for lo in range(0, q.shape[0], TABLE_BLOCK):
            rows = slice(lo, lo + TABLE_BLOCK)
            yield (rows, *self.barycentric(q[rows]))

    def interpolate(self, values: np.ndarray, queries: np.ndarray) -> np.ndarray:
        out = np.empty(len(np.atleast_2d(queries)))
        for rows, idx, w in self._lookups(queries):
            out[rows] = row_sum(values.take(idx) * w)
        return out

    def nearest_index(self, queries: np.ndarray) -> np.ndarray:
        """Index of the enclosing-cell vertex with the largest weight.

        Ties go to the first such vertex, as with ``argmax``.
        """
        out = np.empty(len(np.atleast_2d(queries)), dtype=np.intp)
        for rows, idx, w in self._lookups(queries):
            best, best_w = idx[:, 0], w[:, 0]
            for j in range(1, self.num_states):
                better = w[:, j] > best_w
                best = np.where(better, idx[:, j], best)
                best_w = np.where(better, w[:, j], best_w)
            out[rows] = best
        return out


def build_grid(
    num_states: int, resolution: int, max_points: int = DEFAULT_MAX_POINTS
) -> SimplexGrid:
    """Uniform simplex grid of the given resolution.

    Raises ResourceLimit before allocating anything when the point count
    would exceed ``max_points``.
    """
    if num_states < 2:
        raise ValueError("num_states must be >= 2")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    count = simplex_point_count(num_states, resolution)
    if count > max_points:
        raise ResourceLimit(
            f"grid would have {count} points, cap is {max_points}; "
            f"reduce the resolution"
        )
    m = resolution
    # columns z_i..z_{X-1} in lexicographic order of (z_{X-1}, ..., z_i);
    # each prefix ending at c gets the children z_{i-1} = c..M in turn
    z = np.arange(m + 1, dtype=np.intp)[:, None]
    for _ in range(num_states - 2):
        counts = m + 1 - z[:, 0]
        offsets = np.cumsum(counts) - counts
        child = np.arange(counts.sum()) + np.repeat(z[:, 0] - offsets, counts)
        z = np.column_stack([child, np.repeat(z, counts, axis=0)])
    coords = -np.diff(z, axis=1, prepend=m, append=0)
    points = coords.astype(float) / m

    # binomials[i - 1, z] = C(M - z + i - 1, i): row 1 is M - z, and each
    # further row is the suffix sum of the one before (hockey stick)
    binomials = np.empty((num_states - 1, m + 1), dtype=np.intp)
    binomials[0] = np.arange(m, -1, -1)
    for i in range(1, num_states - 1):
        binomials[i] = np.cumsum(binomials[i - 1, ::-1])[::-1]
    for arr in (points, coords, binomials):
        arr.setflags(write=False)
    return SimplexGrid(num_states, resolution, points, coords, binomials)
