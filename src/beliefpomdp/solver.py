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
sum per action followed by the minimum over actions.  Models that share
``stack_key`` stack into one block-diagonal operator, so one sweep
advances all of them; a single model is a stack of one.

A sweep splits the B * N stacked rows into contiguous parts, one per
usable CPU (``os.sched_getaffinity``, else ``os.cpu_count``) but never
more than one per TABLE_BLOCK rows, so a stack of at most TABLE_BLOCK
rows is swept inline on the calling thread.  Each part walks its rows
in TABLE_BLOCK blocks (gather, row sums, ``cost + rho * cont``, running
minimum over actions) through buffers it allocates once per solve.  The
calling thread sweeps the first part and one thread pool per solve the
others; ``take`` and ``einsum`` release the GIL.  Every row's arithmetic
is the same whichever part or block holds it, so values, actions and
change logs are bit-identical for any thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from .columns import row_sum
from .costs import instantaneous_cost_batch
from .errors import PostconditionFailed, PreconditionFailed
from .grid import TABLE_BLOCK, SimplexGrid
from .model import Belief, PomdpModel

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

    def at_many(self, alphas: np.ndarray) -> np.ndarray:
        """W at each row of an (n, X) array, with one grid lookup; 0 where
        a row sums to 0 or less."""
        w = np.atleast_2d(np.asarray(alphas, dtype=float))
        total = row_sum(w)
        positive = total > 0.0
        out = np.zeros(w.shape[0])
        t = total[positive]
        out[positive] = t * self.base.at_many(w[positive] / t[:, None])
        return out

    def scale(self) -> float:
        return self.base.scale()


@dataclass
class Policy:
    """1-based action per grid point; beliefs map to the nearest cell vertex.

    Like every policy that ``simulate`` runs, it is a function
    ``points -> (actions, costs)``; it computes no cost, so ``costs`` is
    None.
    """

    grid: SimplexGrid
    actions: np.ndarray

    def __call__(self, points: np.ndarray) -> tuple:
        return self.actions.take(self.grid.nearest_index(points)), None


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


@dataclass
class SolveResult:
    value: ValueFunction
    policy: Policy
    log: IterationLog


@dataclass
class BackupTables:
    """Per-action backup operators over the grid, for one model or a stack.

    A stack of B models that share ``stack_key`` has B * N point rows,
    model-major: row b * N + n is model b's grid point n, and that row's
    footprint indexes model b's own rows, so the operators are
    block-diagonal.  ``sigma[u, y, r]`` is the observation normalizer at
    row r; rows beyond an action's alphabet are zero-padded.
    ``vert_idx[u]`` and ``vert_w[u]``, both shaped (B * N, Y * X) and
    observation-major, hold the barycentric footprint of every posterior
    T(pi_n, y, u) with its weights premultiplied by sigma, so the
    continuation of action u is the sparse product sum_k vert_w[u, r, k] *
    V[vert_idx[u, r, k]].  Padded and impossible observations have zero
    weight on vertex 0.
    """

    cost: np.ndarray
    sigma: np.ndarray
    vert_idx: np.ndarray
    vert_w: np.ndarray
    has_continuation: np.ndarray
    discount: float
    num_models: int


def stack_key(model: PomdpModel) -> tuple:
    """What models must share to be solved in one stack.

    The table width X * max Y is part of it: the sweep's row sums may
    round differently over a zero-padded row, so a model stacked at
    another width would no longer match its own solve bit for bit.
    """
    width = model.num_states * max(model.num_observations)
    return (model.num_states, model.num_actions, width, model.discount, model.is_stopping)


def build_tables(model: PomdpModel, grid: SimplexGrid) -> BackupTables:
    return stack_tables([model], grid)


def stack_tables(models: list, grid: SimplexGrid) -> BackupTables:
    """Block-diagonal backup tables of models that share ``stack_key``.

    Posteriors go through ``grid.barycentric`` once per action,
    observation and block of TABLE_BLOCK stacked rows, whichever models
    the block spans.
    """
    first = models[0]
    if any(stack_key(m) != stack_key(first) for m in models):
        raise ValueError("stacked models must share stack_key")
    if grid.num_states != first.num_states:
        raise ValueError("grid dimension does not match the model")
    pts = grid.points
    n = grid.num_points
    x = first.num_states
    u_count = first.num_actions
    rows = len(models) * n
    y_max = max(first.num_observations)

    cost = np.zeros((u_count, rows))
    sigma = np.zeros((u_count, y_max, rows))
    # intp, not int32: numpy converts any other index dtype on every gather
    vert_idx = np.zeros((u_count, rows, y_max * x), dtype=np.intp)
    vert_w = np.zeros((u_count, rows, y_max * x))
    has_cont = np.ones(u_count, dtype=np.uint8)

    for u in range(1, u_count + 1):
        for b, model in enumerate(models):
            cost[u - 1, b * n : (b + 1) * n] = instantaneous_cost_batch(model, pts, u)
        if first.is_stopping and u == 1:
            has_cont[u - 1] = 0
            continue
        # likelihood[b, y] is column y of model b's observation matrix
        likelihood = np.zeros((len(models), y_max, x))
        for b, model in enumerate(models):
            likelihood[b, : model.num_observations[u - 1]] = model.observation[u - 1].T
        for lo in range(0, rows, TABLE_BLOCK):
            hi = min(lo + TABLE_BLOCK, rows)
            block = slice(lo, hi)
            # one matmul per model the block spans, as a single-model build
            # computes it; a batched einsum would round differently
            predicted = np.concatenate(
                [
                    pts[max(lo - b * n, 0) : hi - b * n] @ models[b].transition[u - 1]
                    for b in range(lo // n, (hi - 1) // n + 1)
                ]
            )
            owner = np.arange(lo, hi) // n  # the model of each row
            for y in range(y_max):
                z = likelihood[owner, y]
                z *= predicted
                s = z.sum(axis=1)
                sigma[u - 1, y, block] = s
                live = s > 0.0
                if np.any(live):
                    idx, w = grid.barycentric(z[live] / s[live, None])
                    idx += n * owner[live, None]
                    # the sweep gathers with mode="wrap", which checks no bounds
                    if idx.min() < 0 or idx.max() >= rows:
                        raise ValueError("a barycentric vertex lies outside the stacked rows")
                    cols = slice(y * x, (y + 1) * x)
                    vert_idx[u - 1, block, cols][live] = idx
                    vert_w[u - 1, block, cols][live] = s[live, None] * w
    return BackupTables(
        cost=cost,
        sigma=sigma,
        vert_idx=vert_idx,
        vert_w=vert_w,
        has_continuation=has_cont,
        discount=first.discount,
        num_models=len(models),
    )


def continuation_values(tables: BackupTables, values: np.ndarray, u: int) -> np.ndarray:
    """sum_y V(T(pi, y, u)) sigma(pi, y, u) at every point row."""
    return np.einsum("nk,nk->n", tables.vert_w[u - 1], values[tables.vert_idx[u - 1]])


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def sweep_threads(rows: int) -> int:
    """Threads that sweep ``rows`` stacked rows: one per usable CPU and
    at most one per TABLE_BLOCK rows, so 1 (inline) up to TABLE_BLOCK."""
    return max(1, min(usable_cpus(), -(-rows // TABLE_BLOCK)))


class _Part:
    """Stacked rows [start, stop) of a sweep, with the block buffers it
    reuses for every sweep of one solve."""

    def __init__(self, tables: BackupTables, start: int, stop: int):
        self.tables, self.start, self.stop = tables, start, stop
        block = min(TABLE_BLOCK, stop - start)
        self.gathered = np.empty((block, tables.vert_idx.shape[2]))
        self.cont = np.empty(block)
        self.q = np.empty(block)
        self.less = np.empty(block, dtype=bool)

    # set on the sweeping thread, as the caller's errstate does not reach the
    # pool's; _iterate raises PostconditionFailed on a non-finite change
    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, values, new_values, actions, change):
        """Write this part's rows of one sweep into new_values and actions,
        ties to the smaller action, and |new_values - values| into change."""
        t = self.tables
        for lo in range(self.start, self.stop, TABLE_BLOCK):
            hi = min(lo + TABLE_BLOCK, self.stop)
            m = hi - lo
            best, act, less = new_values[lo:hi], actions[lo:hi], self.less[:m]
            # a running minimum over the few actions; min/argmin along a
            # (U, rows) axis take several times longer
            for u in range(t.cost.shape[0]):
                q = best if u == 0 else self.q[:m]
                if t.has_continuation[u]:
                    gathered, cont = self.gathered[:m], self.cont[:m]
                    np.take(values, t.vert_idx[u, lo:hi], out=gathered, mode="wrap")
                    np.einsum("nk,nk->n", t.vert_w[u, lo:hi], gathered, out=cont)
                    np.multiply(cont, t.discount, out=cont)
                    np.add(t.cost[u, lo:hi], cont, out=q)
                else:
                    np.copyto(q, t.cost[u, lo:hi])
                if u == 0:
                    act.fill(1)
                    continue
                np.less(q, best, out=less)
                np.copyto(act, u + 1, where=less)
                np.minimum(best, q, out=best)
            np.subtract(best, values[lo:hi], out=change[lo:hi])
            np.abs(change[lo:hi], out=change[lo:hi])


@contextmanager
def _sweeper(tables: BackupTables):
    """Yield ``sweep(values) -> (new values, 1-based actions, each model's
    sup-norm change)``, one backup sweep, with the parts' buffers and the
    thread pool open until the block ends."""
    rows = tables.cost.shape[1]
    threads = sweep_threads(rows)
    parts = [_Part(tables, rows * i // threads, rows * (i + 1) // threads) for i in range(threads)]
    change = np.empty(rows)

    # the calling thread sweeps the first part, the pool the others
    with ThreadPoolExecutor(threads - 1) if threads > 1 else nullcontext() as pool:

        def sweep(values):
            new_values = np.empty(rows)
            actions = np.empty(rows, dtype=np.int32)
            args = (values, new_values, actions, change)
            others = [pool.submit(part, *args) for part in parts[1:]]
            parts[0](*args)
            for other in others:
                other.result()
            return new_values, actions, change.reshape(tables.num_models, -1).max(axis=1).tolist()

        yield sweep


def _iterate(tables: BackupTables, tol: float, max_iters: int):
    """Value iteration from V = 0 on every stacked model at once.

    Returns per-model lists (values, actions, logs).  The sup-norm change
    is taken per model, and each model keeps the iterate, actions and
    change log of the sweep at which its change fell below ``tol``, or of
    the last sweep if it never did.  A sweep whose change is not finite
    (costs so large that the values overflow) raises PostconditionFailed.
    """
    count = tables.num_models
    values = np.zeros(tables.cost.shape[1])
    actions = np.ones(values.size, dtype=np.int32)
    logs = [IterationLog(tol=tol) for _ in range(count)]
    # each model's rows of the last sweep it took part in; every sweep
    # returns fresh arrays, so no later sweep writes into them
    kept_values = list(values.reshape(count, -1))
    kept_actions = list(actions.reshape(count, -1))
    running = range(count)
    with _sweeper(tables) as sweep:
        for sweeps in range(1, max_iters + 1):
            values, actions, change = sweep(values)
            bad = [c for c in change if not math.isfinite(c)]
            if bad:
                raise PostconditionFailed(f"sweep {sweeps} changed the values by {bad[0]}")
            value_rows, action_rows = values.reshape(count, -1), actions.reshape(count, -1)
            for b in running:
                logs[b].changes.append(change[b])
                logs[b].converged = change[b] < tol
                kept_values[b], kept_actions[b] = value_rows[b], action_rows[b]
            running = [b for b in running if not logs[b].converged]
            if not running:
                break
    return kept_values, kept_actions, logs


def _results(tables: BackupTables, grid: SimplexGrid, tol: float, max_iters: int) -> list:
    values, actions, logs = _iterate(tables, tol, max_iters)
    return [
        SolveResult(value=ValueFunction(grid, v), policy=Policy(grid, a), log=log)
        for v, a, log in zip(values, actions, logs)
    ]


def solve_stack(models: list, grid: SimplexGrid, tol: float, max_iters: int) -> list:
    """Solve models that share ``stack_key`` as one block-diagonal value
    iteration; result b is bit-identical to solving model b alone.

    It checks no preconditions: callers apply the public solver's checks
    to every model first.
    """
    return _results(stack_tables(models, grid), grid, tol, max_iters)


def _solve(model: PomdpModel, grid: SimplexGrid, tol: float, max_iters: int) -> SolveResult:
    """The one-model stack behind the public solvers, which only add
    precondition checks; none of them calls another, so a wrapper around
    each public solver sees exactly one solve."""
    return _results(build_tables(model, grid), grid, tol, max_iters)[0]


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
    check_discounted(model)
    return _solve(model, grid, tol, max_iters)


def check_discounted(model: PomdpModel) -> None:
    """Raise unless ``solve_discounted`` applies: a discounted model, rho < 1."""
    if model.is_stopping:
        raise PreconditionFailed("use solve_stopping for stopping_time models")
    if not model.discount < 1.0:
        raise PreconditionFailed("solve_discounted requires discount < 1")


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
