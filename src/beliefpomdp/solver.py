"""Value iteration on the belief grid.

The one-step backup is Q(pi, u) = C(pi, u) + rho * sum_y V(T(pi, y, u)) *
sigma(pi, y, u); continuation values are read from the grid by
barycentric interpolation.  For stopping-time models the stop action has
no continuation and its Q is the linear terminal cost.  The relaxed
variant extends a converged linear-cost value function to the positive
orthant by positive homogeneity.

All per-point filter posteriors, normalizers, and interpolation weights
are precomputed once: for each action the continuation is then a fixed
sparse map of the value vector (Lovejoy's Freudenthal interpolation,
Operations Research 39(1), 1991), and one sweep is a gather and a row
sum per action followed by the minimum over actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import instantaneous_cost_batch
from .errors import PreconditionFailed
from .grid import TABLE_BLOCK, SimplexGrid
from .model import Belief, PomdpModel, RelaxedBelief

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 100_000


@dataclass
class ValueFunction:
    """Values at the grid points plus barycentric evaluation anywhere."""

    grid: SimplexGrid
    values: np.ndarray

    def at(self, belief) -> float:
        probs = belief.probs if isinstance(belief, Belief) else np.asarray(belief, float)
        return float(self.grid.interpolate(self.values, probs[None, :])[0])

    def at_many(self, points: np.ndarray) -> np.ndarray:
        return self.grid.interpolate(self.values, points)

    def scale(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass
class RelaxedValueFunction:
    """Positively homogeneous extension W(alpha) = |alpha|_1 V(alpha / |alpha|_1)."""

    base: ValueFunction

    def at(self, alpha) -> float:
        w = alpha.weights if isinstance(alpha, RelaxedBelief) else np.asarray(alpha, float)
        total = float(w.sum())
        if total <= 0.0:
            return 0.0
        return total * self.base.at(w / total)

    def scale(self) -> float:
        return self.base.scale()


@dataclass
class NotThreshold:
    """Diagnostic returned when a policy is not a single-switch threshold."""

    switch_count: int
    reason: str = ""


@dataclass
class Policy:
    """1-based action per grid point; beliefs map to the nearest cell vertex."""

    grid: SimplexGrid
    actions: np.ndarray

    def action_at(self, belief) -> int:
        probs = belief.probs if isinstance(belief, Belief) else np.asarray(belief, float)
        return int(self.actions[self.grid.nearest_index(probs[None, :])[0]])

    def actions_at(self, points: np.ndarray) -> np.ndarray:
        return self.actions[self.grid.nearest_index(points)]

    def threshold(self):
        return extract_threshold(self)


@dataclass
class IterationLog:
    """Per-iteration sup-norm changes of value iteration."""

    changes: list = field(default_factory=list)
    converged: bool = False
    tol: float = DEFAULT_TOL

    @property
    def iterations(self) -> int:
        return len(self.changes)

    @property
    def final_change(self) -> float:
        return self.changes[-1] if self.changes else 0.0

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_change": float(self.final_change),
            "converged": bool(self.converged),
            "tol": float(self.tol),
        }


@dataclass
class SolveResult:
    value: ValueFunction
    policy: Policy
    log: IterationLog


@dataclass
class BackupTables:
    """Per-action backup operators over the grid.

    ``sigma[u, y, n]`` is the observation normalizer at grid point n;
    rows beyond an action's alphabet are zero-padded.  ``vert_idx[u]`` and
    ``vert_w[u]``, both shaped (N, Y * X) and observation-major, hold the
    barycentric footprint of every posterior T(pi_n, y, u) with its
    weights premultiplied by sigma, so the continuation of action u is
    the sparse product sum_k vert_w[u, n, k] * V[vert_idx[u, n, k]].
    Padded and impossible observations have zero weight on vertex 0.
    """

    cost: np.ndarray
    sigma: np.ndarray
    vert_idx: np.ndarray
    vert_w: np.ndarray
    has_continuation: np.ndarray
    discount: float


def build_tables(model: PomdpModel, grid: SimplexGrid) -> BackupTables:
    if grid.num_states != model.num_states:
        raise ValueError("grid dimension does not match the model")
    pts = grid.points
    n = grid.num_points
    x = model.num_states
    u_count = model.num_actions
    y_max = max(model.num_observations)

    cost = np.zeros((u_count, n))
    sigma = np.zeros((u_count, y_max, n))
    # intp, not int32: numpy converts any other index dtype on every gather
    vert_idx = np.zeros((u_count, n, y_max * x), dtype=np.intp)
    vert_w = np.zeros((u_count, n, y_max * x))
    has_cont = np.ones(u_count, dtype=np.uint8)

    for u in range(1, u_count + 1):
        cost[u - 1] = instantaneous_cost_batch(model, pts, u)
        if model.is_stopping and u == 1:
            has_cont[u - 1] = 0
            continue
        for lo in range(0, n, TABLE_BLOCK):
            block = slice(lo, lo + TABLE_BLOCK)
            predicted = pts[block] @ model.transition[u - 1]
            for y in range(1, model.num_observations[u - 1] + 1):
                z = predicted * model.observation[u - 1][:, y - 1][None, :]
                s = z.sum(axis=1)
                sigma[u - 1, y - 1, block] = s
                live = s > 0.0
                if np.any(live):
                    idx, w = grid.barycentric(z[live] / s[live, None])
                    cols = slice((y - 1) * x, y * x)
                    vert_idx[u - 1, block, cols][live] = idx
                    vert_w[u - 1, block, cols][live] = s[live, None] * w
    return BackupTables(
        cost=cost,
        sigma=sigma,
        vert_idx=vert_idx,
        vert_w=vert_w,
        has_continuation=has_cont,
        discount=model.discount,
    )


def continuation_values(tables: BackupTables, values: np.ndarray, u: int) -> np.ndarray:
    """sum_y V(T(pi, y, u)) sigma(pi, y, u) at every grid point."""
    return np.einsum("nk,nk->n", tables.vert_w[u - 1], values[tables.vert_idx[u - 1]])


def q_values(tables: BackupTables, values: np.ndarray) -> np.ndarray:
    """Q(n, u) for every grid point and action, shaped (U, N)."""
    q = tables.cost.copy()
    for u in np.flatnonzero(tables.has_continuation):
        q[u] += tables.discount * continuation_values(tables, values, u + 1)
    return q


def sweep_once(tables: BackupTables, values: np.ndarray):
    """Apply one backup sweep; returns (new values, 1-based actions), ties to smaller u."""
    q = q_values(tables, values)
    # a running minimum over the few action rows; min/argmin along axis 0
    # take several times longer because they reduce across the strided axis
    best = q[0].copy()
    actions = np.ones(best.size, dtype=np.int32)
    for u in range(1, q.shape[0]):
        actions[q[u] < best] = u + 1
        np.minimum(best, q[u], out=best)
    return best, actions


def _iterate(tables: BackupTables, tol: float, max_iters: int):
    n = tables.cost.shape[1]
    values = np.zeros(n)
    actions = np.ones(n, dtype=np.int32)
    log = IterationLog(tol=tol)
    for _ in range(max_iters):
        new_values, actions = sweep_once(tables, values)
        change = float(np.max(np.abs(new_values - values)))
        log.changes.append(change)
        values = new_values
        if change < tol:
            log.converged = True
            break
    return values, actions, log


def _solve(model: PomdpModel, grid: SimplexGrid, tol: float, max_iters: int) -> SolveResult:
    """The body shared by the public solvers, which only add precondition
    checks; none of them calls another, so a wrapper around each public
    solver sees exactly one solve."""
    tables = build_tables(model, grid)
    values, actions, log = _iterate(tables, tol, max_iters)
    return SolveResult(
        value=ValueFunction(grid, values), policy=Policy(grid, actions), log=log
    )


def solve_discounted(
    model: PomdpModel,
    grid: SimplexGrid,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SolveResult:
    """Value iteration from V = 0 for a discounted model (rho < 1).

    Non-convergence within ``max_iters`` is reported in the log, not
    raised; the best iterate is still returned.
    """
    if model.is_stopping:
        raise PreconditionFailed("use solve_stopping for stopping_time models")
    if not model.discount < 1.0:
        raise PreconditionFailed("solve_discounted requires discount < 1")
    return _solve(model, grid, tol, max_iters)


def solve_stopping(
    model: PomdpModel,
    grid: SimplexGrid,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SolveResult:
    """Value iteration for a stopping-time model (rho = 1 allowed).

    With nonnegative costs the iteration from V = 0 is monotone
    nondecreasing and bounded by the stopping cost, so the sup-norm
    change is a clean convergence certificate even undiscounted.
    """
    if not model.is_stopping:
        raise PreconditionFailed("solve_stopping requires a stopping_time model")
    if model.discount > 1.0:
        raise PreconditionFailed("discount must be <= 1")
    return _solve(model, grid, tol, max_iters)


def check_relaxed(model: PomdpModel) -> None:
    """Raise unless the orthant recursion is defined: linear costs, discounted."""
    if model.nonlinear_cost.family != "none":
        raise PreconditionFailed(
            "the relaxed recursion is defined for linear costs only"
        )
    if model.is_stopping or not model.discount < 1.0:
        raise PreconditionFailed("the relaxed recursion requires a discounted model")


def solve_relaxed(
    model: PomdpModel,
    grid: SimplexGrid,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SolveResult:
    """Value iteration for the orthant Bellman recursion of a linear-cost model.

    For unnormalized alpha the backup term W(B_y(u) P'(u) alpha) equals
    sigma * V(posterior) by homogeneity, so on the simplex the recursion
    coincides with the normalized one and the result is the simplex
    solution; ``RelaxedValueFunction(result.value)`` is its homogeneous
    extension to the whole orthant.
    """
    check_relaxed(model)
    return _solve(model, grid, tol, max_iters)


def bellman_backup(model: PomdpModel, value: ValueFunction, belief: Belief):
    """Single-point backup: (per-action Q, min value, 1-based argmin).

    Reference implementation evaluated directly from the model; the
    table-driven sweep must agree with it at grid points.  Observations
    with zero normalizer contribute nothing.
    """
    probs = belief.probs
    rho = model.discount
    qs = np.empty(model.num_actions)
    for u in range(1, model.num_actions + 1):
        q = float(instantaneous_cost_batch(model, probs, u)[0])
        if not (model.is_stopping and u == 1):
            predicted = probs @ model.transition[u - 1]
            cont = 0.0
            for y in range(1, model.num_observations[u - 1] + 1):
                z = model.observation[u - 1][:, y - 1] * predicted
                s = float(z.sum())
                if s > 0.0:
                    cont += s * value.at(z / s)
            q += rho * cont
        qs[u - 1] = q
    best = int(np.argmin(qs))
    return qs, float(qs[best]), best + 1


def extract_threshold(policy: Policy):
    """Threshold location of a two-state stopping policy.

    Expects stop (1) at pi(2) = 0 switching once to continue (2);
    returns the grid midpoint between the last stop point and the first
    continue point, or a NotThreshold diagnostic with the switch count.
    """
    if policy.grid.num_states != 2:
        raise PreconditionFailed("threshold extraction needs a two-state grid")
    actions = policy.actions
    up = int(np.count_nonzero((actions[:-1] == 1) & (actions[1:] == 2)))
    down = int(np.count_nonzero((actions[:-1] == 2) & (actions[1:] == 1)))
    if up != 1 or down != 0:
        return NotThreshold(switch_count=up, reason="not a single stop-to-continue switch")
    if actions[0] != 1:
        return NotThreshold(
            switch_count=up, reason="policy does not stop at pi(2) = 0"
        )
    first_continue = int(np.argmax(actions == 2))
    m = policy.grid.resolution
    return (first_continue - 0.5) / m
