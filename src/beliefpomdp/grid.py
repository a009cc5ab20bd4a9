"""Uniform lattice discretization of the belief simplex.

Grid points are the beliefs with coordinates k_i / M, sum k_i = M, kept in
reverse-cumulative coordinates z_i = sum_{j >= i} k_j (i = 1..X-1), the
integers M >= z_1 >= ... >= z_{X-1} >= 0; a point's index is a closed-form
sum of binomials.  Query points are located inside a Freudenthal
triangulation in the same coordinates (Lovejoy, Operations Research 39(1),
1991): sorting the fractional parts of z yields at most X enclosing
vertices and their barycentric weights.  Interpolation is exact at grid
points and continuous across cell boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimit

DEFAULT_MAX_POINTS = 2_000_000

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
        valid.
        """
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        n, x = q.shape
        if x != self.num_states:
            raise ValueError(f"queries have dimension {x}, grid has {self.num_states}")
        m = self.resolution

        # z[:, i] = M * sum_{j>=i} pi_j for i = 1..X-1 (z for i=0 would be
        # identically M and carries no information)
        tails = np.cumsum(q[:, ::-1], axis=1)[:, ::-1]
        z = m * tails[:, 1:]
        z = np.clip(z, 0.0, float(m))
        nearest = np.rint(z)
        snap = np.abs(z - nearest) <= SNAP_TOL
        z = np.where(snap, nearest, z)
        # a nonnegative query has nonincreasing z; others leave the lattice
        if np.any(z[:, 1:] > z[:, :-1]):
            raise ValueError("query is not a belief: its cell leaves the grid")

        base = np.floor(z)
        frac = z - base
        d = x - 1
        # descending fractional parts; ties resolve toward the earlier
        # coordinate, which keeps every intermediate vertex monotone
        order = np.argsort(-frac, axis=1, kind="stable")
        frac_sorted = np.take_along_axis(frac, order, axis=1)

        weights = np.empty((n, x))
        weights[:, 0] = 1.0 - frac_sorted[:, 0]
        if d > 1:
            weights[:, 1:d] = frac_sorted[:, :-1] - frac_sorted[:, 1:]
        weights[:, d] = frac_sorted[:, d - 1]
        np.clip(weights, 0.0, 1.0, out=weights)

        # vertex v_k adds unit steps to the base along the first k sorted axes
        steps = np.zeros((n, x, d), dtype=np.intp)
        rows = np.repeat(np.arange(n), d)
        level = np.tile(np.arange(1, d + 1), n)
        steps[rows, level, order.ravel()] = 1
        np.cumsum(steps, axis=1, out=steps)

        # zero-weight vertices, which may sit at z = M + 1 off the lattice,
        # fall back to the base vertex before ranking
        tiny = weights <= 1e-15
        steps[tiny] = 0
        weights[tiny] = 0.0
        weights /= weights.sum(axis=1, keepdims=True)

        idx = self._rank(base.astype(np.intp)[:, None, :] + steps)
        return idx, weights

    def interpolate(self, values: np.ndarray, queries: np.ndarray) -> np.ndarray:
        idx, w = self.barycentric(queries)
        return (values[idx] * w).sum(axis=1)

    def nearest_index(self, queries: np.ndarray) -> np.ndarray:
        """Index of the enclosing-cell vertex with the largest weight."""
        idx, w = self.barycentric(queries)
        pick = np.argmax(w, axis=1)
        return idx[np.arange(idx.shape[0]), pick]


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
