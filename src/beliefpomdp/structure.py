"""Numerical certification of structural properties on solved models.

Each verifier samples or sweeps a concrete finite model and reports the
worst violation it found, never just a boolean; a property "holds" when
that worst case is within the stated tolerance.  These are instance
checks on solved grids, not proofs.  The three grid-pair checks,
concavity, stopping-set convexity and MLR monotonicity, report their
largest gap and its canonical witness through one builder; concavity and
MLR draw from one pair stream, and convexity sweeps every stop pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .costs import instantaneous_cost_batch
from .errors import (
    DimensionMismatch,
    NegativeEigenvalue,
    PostconditionFailed,
    PreconditionFailed,
)
from .grid import TABLE_BLOCK, SimplexGrid, build_grid, simplex_point_count
from .model import PomdpModel
from .reports import OrderCheckReport, make_report
from .simulate import child_seed
from .solver import (
    DEFAULT_MAX_ITERS,
    RelaxedValueFunction,
    SolveResult,
    ValueFunction,
    build_tables,
    check_discounted,
    check_relaxed,
    continuation_values,
    solve_stack,
    stack_key,
)

MINOR_TOL = 1e-12
#: largest defects that still hold: a cost increase along first-order
#: dominance, and a violated ultrametric condition
FOSD_TOLERANCE = 1e-9
#: dominating belief pairs per fosd-cost report
FOSD_SAMPLES = 500
#: grid-point pairs per concavity report
CONCAVITY_PAIRS = 2000
#: homogeneity: the scales kappa, the orthant points, and the largest
#: relative defect that holds
HOMOGENEITY_SCALES = (0.001, 0.5, 1.0, 2.0, 7.3)
HOMOGENEITY_POINTS = 50
HOMOGENEITY_TOLERANCE = 1e-10
ULTRAMETRIC_TOL = 1e-12
#: garbling search: iteration cap, the largest entry move below which it
#: stops, and the largest residual that certifies dominance
BLACKWELL_MAX_ITERS = 50_000
BLACKWELL_STEP_TOL = 1e-14
BLACKWELL_RESIDUAL_TOLERANCE = 1e-6
MLR_TOL = 1e-12
#: gaps this close to the worst, relative to max(1, |worst|), tie for the
#: witness of a grid-pair report: concavity's, convexity's and MLR's
MLR_TIE_RTOL = 1e-12
#: MLR pairs: all of them up to this many, a uniform sample of this many beyond;
#: concavity's draws stop at this many too
PAIR_CAP = 1_000_000
#: pairs drawn and compared at a time; bounds the temporaries of one block,
#: and so the verifier's memory, whatever PAIR_CAP is.  Blocks this small
#: reuse freed heap memory: a sampled call at X = 3 takes about 30 minor
#: page faults, against 18k with blocks of 1 << 16
PAIR_BLOCK = 1 << 13
#: myopic bound: Jensen tolerance per unit of value scale, the absolute Q
#: tolerance, and the cost margin by which sensor 2 counts as cheaper
JENSEN_TOLERANCE_SCALE = 1e-8
Q_TOLERANCE = 1e-9
STRICTNESS_MARGIN = 1e-9
#: conjecture probe: MLR tolerance per unit of value scale, and the solve's
#: tolerance; its iteration cap is the solver's default
PROBE_TOLERANCE_SCALE = 1e-6
PROBE_SOLVER_TOL = 1e-9


# ---------------------------------------------------------------------------
# order predicates
# ---------------------------------------------------------------------------


def is_tp2(matrix) -> OrderCheckReport:
    """Check that every 2x2 minor of a nonnegative matrix is nonnegative; a
    matrix with one row or column has none and reports 0 over 0 samples."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch("TP2 check needs a matrix")
    worst = -np.inf
    witness = None
    rows, cols = a.shape
    count = 0
    for i in range(rows):
        for j in range(i + 1, rows):
            # minors a[i,k]a[j,l] - a[i,l]a[j,k] for all k < l
            for k in range(cols):
                minors = a[i, k] * a[j, k + 1 :] - a[i, k + 1 :] * a[j, k]
                count += minors.size
                if minors.size and float(-minors.min()) > worst:
                    l_rel = int(np.argmin(minors))
                    worst = float(-minors.min())
                    witness = {"rows": [i + 1, j + 1], "cols": [k + 1, k + 2 + l_rel]}
    return make_report("tp2", worst if count else 0.0, MINOR_TOL, witness=witness, samples=count)


# ---------------------------------------------------------------------------
# cost and value-function shape checks
# ---------------------------------------------------------------------------


def fosd_decreasing_cost(model: PomdpModel, u: int, seed: int = 0) -> OrderCheckReport:
    """Check C(pi, u) decreases along first-order dominance.

    Comparable pairs are built by perturbing tail cumulative sums upward,
    which yields a dominating belief for each sampled base point.
    """
    rng = np.random.default_rng(seed)
    x = model.num_states
    low = rng.dirichlet(np.ones(x), size=FOSD_SAMPLES)
    tails = np.cumsum(low[:, ::-1], axis=1)[:, ::-1]
    lift = rng.uniform(0.0, 1.0, size=(FOSD_SAMPLES, x - 1))
    high_tails = tails.copy()
    for i in range(1, x):
        high_tails[:, i] = high_tails[:, i] + lift[:, i - 1] * (
            high_tails[:, i - 1] - high_tails[:, i]
        )
    high = np.empty_like(low)
    high[:, :-1] = high_tails[:, :-1] - high_tails[:, 1:]
    high[:, -1] = high_tails[:, -1]

    gap = instantaneous_cost_batch(model, high, u) - instantaneous_cost_batch(
        model, low, u
    )
    worst = int(np.argmax(gap))
    return make_report(
        "fosd_decreasing_cost",
        float(gap[worst]),
        FOSD_TOLERANCE,
        witness={"pi_high": high[worst].tolist(), "pi_low": low[worst].tolist()},
        samples=FOSD_SAMPLES,
        action=u,
    )


def _on_grid_midpoints(grid: SimplexGrid, a, b) -> tuple:
    """The index pairs (a, b) whose coordinate midpoint is a grid point,
    which holds iff both share every coordinate parity, and the index of
    that midpoint: (a, b, mid)."""
    coords = grid.coords
    ok = ~np.any((coords[a] + coords[b]) % 2, axis=1)
    a, b = a[ok], b[ok]
    return a, b, grid.index_of((coords[a] + coords[b]) // 2)


def verify_concavity(value: ValueFunction, tolerance: float, seed: int = 0) -> OrderCheckReport:
    """Midpoint concavity test on the stored grid values.

    Takes the first CONCAVITY_PAIRS of the ``_sampled_pairs`` stream whose
    midpoint is itself a grid point, at any resolution, and checks
    V(mid) >= (V(a) + V(b)) / 2 - tolerance; a grid with no such pair
    reports 0 over 0 samples.  The witness is canonical, as for MLR.
    """
    grid = value.grid
    v = value.values

    def gaps():
        if grid.resolution < 2:
            return  # grid 1 is the vertices: no two share every parity
        left = CONCAVITY_PAIRS
        for pair in _sampled_pairs(grid.num_points, seed):
            a, b, mid = (part[:left] for part in _on_grid_midpoints(grid, *pair))
            yield 0.5 * v[a] + 0.5 * v[b] - v[mid], a, b
            left -= a.size
            if left == 0:
                return

    return _worst_gap_report("value_concavity", grid, gaps(), tolerance, ("pi1", "pi2"))


def _triu_pairs(n: int, block: int):
    """Yield the pairs (i, j), i < j < n, in ``np.triu_indices(n, k=1)``
    order, as index arrays of up to ``block`` pairs, without holding
    them all: pair p is (i, p - row_start[i] + i + 1) for the last
    row_start at or below p."""
    rows = np.arange(n - 1)
    row_start = rows * (2 * n - rows - 1) // 2
    total = n * (n - 1) // 2
    for start in range(0, total, block):
        p = np.arange(start, min(start + block, total))
        i = np.searchsorted(row_start, p, side="right") - 1
        yield i, p - row_start[i] + i + 1


def verify_stopping_set_convex(policy) -> OrderCheckReport:
    """Sweep all stop-region pairs with on-grid midpoints for convexity.

    The stop region is the set of grid points with action 1; a violation
    is a pair of stop points whose midpoint continues, a gap of 1 against
    a tolerance of 0.5.  ``samples`` counts every pair checked, and the
    witness is the smallest violating (pi1, pi2) pair.
    """
    grid = policy.grid
    if grid.resolution % 2 != 0:
        raise PreconditionFailed("convexity sweep needs an even grid resolution")
    stop = policy.actions == 1
    stop_idx = np.flatnonzero(stop)

    def gaps():
        for i, j in _triu_pairs(stop_idx.size, PAIR_BLOCK):
            a, b, mid = _on_grid_midpoints(grid, stop_idx[i], stop_idx[j])
            yield np.where(stop[mid], 0.0, 1.0), a, b

    report = _worst_gap_report("stopping_set_convex", grid, gaps(), 0.5, ("pi1", "pi2"))
    report.details["stop_points"] = int(stop_idx.size)
    return report


def verify_homogeneity(model: PomdpModel, value: ValueFunction, seed: int = 0) -> OrderCheckReport:
    """Check W(kappa * alpha) = kappa * W(alpha) on sampled orthant points.

    ``value`` is the model's solved simplex value function and W its
    homogeneous extension; the model must satisfy ``solve_relaxed``'s
    preconditions.  Each of HOMOGENEITY_POINTS points is checked at every
    scale in HOMOGENEITY_SCALES.  Violations are scaled by
    max(1, kappa * |W|) so the tolerance is relative to the value
    magnitude at each scale.  W is built as |alpha| V(alpha / |alpha|),
    so any value array passes up to roundoff.
    """
    check_relaxed(model)
    w = RelaxedValueFunction(value)
    scale = max(1.0, w.scale())
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.05, 2.0, size=(HOMOGENEITY_POINTS, model.num_states))
    base = w.at_many(alphas)
    # rel[i, k]: alpha i at kappa k; argmax keeps the first of equal maxima
    rel = np.column_stack([
        np.abs(w.at_many(kappa * alphas) - kappa * base) / max(1.0, kappa * scale)
        for kappa in HOMOGENEITY_SCALES
    ])
    i, k = np.unravel_index(int(np.argmax(rel)), rel.shape)
    worst = float(rel[i, k])
    witness = {"alpha": alphas[i].tolist(), "kappa": HOMOGENEITY_SCALES[k]}
    return make_report(
        "positive_homogeneity",
        worst,
        HOMOGENEITY_TOLERANCE,
        witness=witness,
        samples=HOMOGENEITY_POINTS * len(HOMOGENEITY_SCALES),
    )


def _mlr_direction(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """+1 where points[a] >=_r points[b], -1 for the reverse, 0 incomparable."""
    pa, pb = points[a], points[b]
    x = points.shape[1]
    a_dom = np.ones(a.size, dtype=bool)
    b_dom = np.ones(a.size, dtype=bool)
    for i in range(x):
        for j in range(i + 1, x):
            lhs = pa[:, i] * pb[:, j]
            rhs = pb[:, i] * pa[:, j]
            a_dom &= lhs <= rhs + MLR_TOL
            b_dom &= rhs <= lhs + MLR_TOL
    return np.where(a_dom, 1, np.where(b_dom, -1, 0))


def verify_mlr_monotone_value(
    value: ValueFunction, tolerance: float, seed: int = 0
) -> OrderCheckReport:
    """Check V is MLR decreasing over comparable grid-point pairs.

    Enumerates all pairs up to PAIR_CAP and samples uniformly beyond; for
    each comparable pair the dominating belief must not have the larger
    value (within tolerance).
    """
    return _mlr_report(value, _mlr_pairs(value.grid, seed), tolerance)


def _mlr_pairs(grid: SimplexGrid, seed: int):
    """(hi, lo) grid indices of the MLR-comparable pairs, hi dominating,
    one block of up to PAIR_BLOCK candidate pairs at a time."""
    n = grid.num_points
    if n * (n - 1) // 2 <= PAIR_CAP:
        blocks = _triu_pairs(n, PAIR_BLOCK)
    else:
        blocks = _sampled_pairs(n, seed)
    for pa, pb in blocks:
        direction = _mlr_direction(grid.points, pa, pb)
        comparable = direction != 0
        pa, pb, direction = pa[comparable], pb[comparable], direction[comparable]
        yield np.where(direction > 0, pa, pb), np.where(direction > 0, pb, pa)


def _sampled_pairs(n: int, seed: int):
    """The PAIR_CAP uniform index pairs (a, b), less those with a == b,
    one block of up to PAIR_BLOCK draws at a time: MLR's sample beyond
    PAIR_CAP pairs, and the stream that concavity takes its pairs from.

    a comes from ``default_rng(child_seed(seed, 0))`` and b from
    ``default_rng(child_seed(seed, 1))``.  ``Generator.integers``
    continues its stream exactly across calls, so the pairs do not
    depend on PAIR_BLOCK, and no draw is discarded.
    """
    draw_a, draw_b = (np.random.default_rng(child_seed(seed, i)) for i in (0, 1))
    for lo in range(0, PAIR_CAP, PAIR_BLOCK):
        size = min(PAIR_BLOCK, PAIR_CAP - lo)
        a = draw_a.integers(0, n, size=size)
        b = draw_b.integers(0, n, size=size)
        keep = a != b
        yield a[keep], b[keep]


def _mlr_report(value: ValueFunction, pairs, tolerance: float) -> OrderCheckReport:
    """The MLR monotonicity report of ``value`` over ``_mlr_pairs`` blocks:
    the gaps V(hi) - V(lo)."""
    v = value.values
    blocks = ((v[hi] - v[lo], hi, lo) for hi, lo in pairs)
    return _worst_gap_report(
        "mlr_monotone_value", value.grid, blocks, tolerance, ("pi_high", "pi_low")
    )


def _worst_gap_report(
    predicate: str, grid: SimplexGrid, blocks, tolerance: float, names: tuple
) -> OrderCheckReport:
    """The ``predicate`` report of the largest gap over ``blocks`` of
    (gaps, a, b), a and b grid indices whose points the witness names
    ``names``.

    The witness is canonical: among the pairs whose gap lies within
    ``MLR_TIE_RTOL * max(1, |worst|)`` of the worst, the one with the
    smallest (a, b) grid indices, so a roundoff-level change in the
    values does not move it.  Each block keeps the pairs at or above the
    tie floor of the worst so far; the floor only rises, so every pair
    that ties with the final worst is kept.  Of those, a block keeps only
    the pairs whose gap exceeds that of every pair before them in (a, b)
    order: any other is beaten by a smaller pair that clears every floor
    it clears, so a block of exact ties keeps one pair.
    """
    n = grid.num_points
    worst = -np.inf
    kept = []  # (gaps, a * n + b), which orders pairs as (a, b)
    samples = 0
    for gap, a, b in blocks:
        samples += gap.size
        if gap.size == 0:
            continue
        worst = max(worst, float(gap.max()))
        near = gap >= _tie_floor(worst)
        keys = a[near].astype(np.int64) * n + b[near]
        order = np.argsort(keys)
        keys, gap = keys[order], gap[near][order]
        front = np.ones(gap.size, dtype=bool)
        front[1:] = gap[1:] > np.maximum.accumulate(gap)[:-1]
        kept.append((gap[front], keys[front]))
    if samples == 0:
        return make_report(predicate, 0.0, tolerance, samples=0)
    floor = _tie_floor(worst)
    smallest = min(keys[gaps >= floor].min(initial=n * n) for gaps, keys in kept)
    a, b = divmod(int(smallest), n)
    return make_report(
        predicate,
        worst,
        tolerance,
        witness={names[0]: grid.points[a].tolist(), names[1]: grid.points[b].tolist()},
        samples=samples,
    )


def _tie_floor(worst: float) -> float:
    """Smallest gap that ties with ``worst`` for a grid-pair witness."""
    return worst - MLR_TIE_RTOL * max(1.0, abs(worst))


# ---------------------------------------------------------------------------
# conjecture probe: monotone values without a TP2 observation matrix
# ---------------------------------------------------------------------------


def random_a1a2_non_tp2_model(rng):
    """Random two-state model, discount 0.8, with decreasing costs and
    TP2 transitions whose observation matrices are deliberately not TP2."""
    y = int(rng.integers(2, 4))
    transition = []
    linear_cost = []
    for _ in range(2):
        p11 = rng.uniform(0.5, 0.95)
        p21 = rng.uniform(0.05, p11)
        transition.append([[p11, 1.0 - p11], [p21, 1.0 - p21]])
        c1 = rng.uniform(0.5, 1.0)
        linear_cost.append([c1, rng.uniform(0.0, c1)])
    observation = []
    for _ in range(2):
        while True:
            b = rng.dirichlet(np.ones(y), size=2)
            if not is_tp2(b).holds:
                observation.append(b.tolist())
                break
    return PomdpModel(
        num_states=2,
        num_actions=2,
        num_observations=(y, y),
        transition=transition,
        observation=observation,
        linear_cost=linear_cost,
        discount=0.8,
    )


def conjecture_probe(
    model_generator, num_models: int, resolution: int = 200, sizes: dict | None = None
) -> dict:
    """Search for an MLR-monotonicity counterexample in a model stream.

    ``model_generator(index)`` must yield discounted models; each is
    solved and its value function checked for MLR monotonicity.  Models
    are generated, and checked as ``solve_discounted`` checks them, one
    window of at most TABLE_BLOCK grid points at a time; the window's
    models that share ``solver.stack_key`` are solved as one stack.  The
    reports are then checked in stream order, so the summary names the
    first counterexample, as a model-by-model search would.  When given,
    ``sizes`` receives the work done: models solved, the grid's point
    count (the largest grid's, if the state count varies), their summed
    sweeps, and how many hit the iteration cap unconverged.
    """
    work = {} if sizes is None else sizes
    work.update(models=0, grid_points=0, sweeps=0, unconverged=0)

    @functools.cache
    def grid_and_pairs(num_states):
        # the MLR-comparable pairs depend on the grid alone
        grid = build_grid(num_states, resolution)
        return grid, list(_mlr_pairs(grid, seed=0))

    for window in _probe_windows(model_generator, num_models, resolution):
        models = dict(window)
        stacks = {}
        for index, model in window:
            stacks.setdefault(stack_key(model), []).append(index)
        results = {}
        for indices in stacks.values():
            stack = [models[i] for i in indices]
            grid, _ = grid_and_pairs(stack[0].num_states)
            solved = solve_stack(stack, grid, tol=PROBE_SOLVER_TOL, max_iters=DEFAULT_MAX_ITERS)
            results.update(zip(indices, solved))
        for result in results.values():
            work["models"] += 1
            work["grid_points"] = max(work["grid_points"], result.value.grid.num_points)
            work["sweeps"] += result.log.iterations
            work["unconverged"] += not result.log.converged
        for index, model in window:
            result = results[index]
            tolerance = PROBE_TOLERANCE_SCALE * max(1.0, result.value.scale())
            report = _mlr_report(result.value, grid_and_pairs(model.num_states)[1], tolerance)
            if not report.holds:
                return {
                    "num_models": num_models,
                    "counterexample_found": True,
                    "model_index": index,
                    "model": model.to_dict(),
                    "report": report,
                }
    return {"num_models": num_models, "counterexample_found": False}


def _probe_windows(model_generator, num_models: int, resolution: int):
    """Runs of consecutive (index, model) pairs whose grids hold at most
    TABLE_BLOCK points in all (a bigger grid takes a window of its own)."""
    window, rows = [], 0
    for index in range(num_models):
        model = model_generator(index)
        check_discounted(model)
        points = simplex_point_count(model.num_states, resolution)
        if window and rows + points > TABLE_BLOCK:
            yield window
            window, rows = [], 0
        window.append((index, model))
        rows += points
    if window:
        yield window


# ---------------------------------------------------------------------------
# Blackwell dominance
# ---------------------------------------------------------------------------


@dataclass
class BlackwellFactorization:
    """Best row-stochastic R with B1 ~ B2 R, and whether it certifies dominance."""

    garbling: np.ndarray
    residual: float
    dominates: bool
    iterations: int
    residual_tolerance: float


def project_rows_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    srt = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(srt, axis=1) - 1.0
    ks = np.arange(1, v.shape[1] + 1)
    cond = srt - css / ks > 0
    rho = cond.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(v.shape[0]), rho] / (rho + 1.0)
    return np.maximum(v - theta[:, None], 0.0)


def blackwell_factorize(b1, b2) -> BlackwellFactorization:
    """Least-squares garbling recovery: min ||B2 R - B1||_F over stochastic R.

    Solved by accelerated projected gradient with per-row simplex
    projection; the problem is convex, so the residual at the returned R
    is a certificate.  Dominance is declared when the residual is within
    BLACKWELL_RESIDUAL_TOLERANCE.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if b1.ndim != 2 or b2.ndim != 2 or b1.shape[0] != b2.shape[0]:
        raise DimensionMismatch(
            f"observation matrices need matching state counts, got {b1.shape} and {b2.shape}"
        )
    y1, y2 = b1.shape[1], b2.shape[1]
    gram = b2.T @ b2
    lipschitz = 2.0 * float(np.linalg.eigvalsh(gram).max())
    step = 1.0 / lipschitz

    r = np.full((y2, y1), 1.0 / y1)
    z = r.copy()
    t = 1.0
    best_r = r
    best_obj = float(np.linalg.norm(b2 @ r - b1))
    iterations = 0
    for iterations in range(1, BLACKWELL_MAX_ITERS + 1):
        grad = 2.0 * (gram @ z - b2.T @ b1)
        r_new = project_rows_to_simplex(z - step * grad)
        obj = float(np.linalg.norm(b2 @ r_new - b1))
        if obj < best_obj:
            best_obj = obj
            best_r = r_new
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = r_new + ((t - 1.0) / t_new) * (r_new - r)
        move = float(np.max(np.abs(r_new - r)))
        r = r_new
        t = t_new
        if move < BLACKWELL_STEP_TOL and iterations > 10:
            break
        if best_obj < 1e-15:
            break
    return BlackwellFactorization(
        garbling=best_r,
        residual=best_obj,
        dominates=bool(best_obj <= BLACKWELL_RESIDUAL_TOLERANCE),
        iterations=iterations,
        residual_tolerance=BLACKWELL_RESIDUAL_TOLERANCE,
    )


def verify_myopic_bound(model: PomdpModel, solution: SolveResult) -> OrderCheckReport:
    """Certify the myopic lower bound on a two-sensor model's solution.

    Requires both actions to share the transition matrix and sensor 2 to
    Blackwell-dominate sensor 1.  Checks, at every grid point: (a) the
    dominated sensor's continuation value is not below the dominant
    sensor's (Jensen inequality), and (b) wherever sensor 2 is strictly
    cheaper instantaneously, Q(pi, 2) <= Q(pi, 1), so the optimal policy
    sits above the myopic one with ties resolved by Q comparison.

    The backup tables are built on ``solution``'s grid and evaluated at
    its values.  The reported worst violation is normalized: each raw
    defect is divided by its own tolerance, so "holds" means both checks
    pass.
    """
    if model.num_actions != 2:
        raise PreconditionFailed("myopic bound check needs exactly two sensing modes")
    if model.is_stopping:
        raise PreconditionFailed("myopic bound check applies to discounted models")
    if not np.allclose(model.transition[0], model.transition[1], atol=1e-12):
        raise PreconditionFailed(
            "both sensing modes must share one transition matrix"
        )
    fac = blackwell_factorize(model.observation[0], model.observation[1])
    if not fac.dominates:
        raise PreconditionFailed(
            f"sensor 2 does not Blackwell-dominate sensor 1 "
            f"(residual {fac.residual:.3e})"
        )

    grid = solution.value.grid
    values = solution.value.values
    tables = build_tables(model, grid)
    cont = np.stack([continuation_values(tables, values, u) for u in (1, 2)])
    jensen_gap = cont[1] - cont[0]
    jensen_tol = JENSEN_TOLERANCE_SCALE * max(1.0, solution.value.scale())
    jensen_worst = int(np.argmax(jensen_gap))

    q = tables.cost + tables.discount * cont
    cheaper2 = tables.cost[1] < tables.cost[0] - STRICTNESS_MARGIN
    if np.any(cheaper2):
        q_gap = np.where(cheaper2, q[1] - q[0], -np.inf)
        q_worst = int(np.argmax(q_gap))
        q_worst_val = float(q_gap[q_worst])
    else:
        q_worst, q_worst_val = None, -np.inf

    myopic = np.where(cheaper2, 2, 1)
    policy_ok = (solution.policy.actions >= myopic) | (
        cheaper2 & (q[1] <= q[0] + Q_TOLERANCE)
    )

    ratios = [jensen_gap[jensen_worst] / jensen_tol]
    if q_worst is not None:
        ratios.append(q_worst_val / Q_TOLERANCE)
    worst_ratio = float(max(ratios))
    witness_idx = jensen_worst if ratios[0] == worst_ratio else q_worst
    return make_report(
        "myopic_policy_bound",
        worst_ratio,
        1.0,
        witness={"pi": grid.points[witness_idx].tolist()},
        samples=grid.num_points,
        jensen_worst=float(jensen_gap[jensen_worst]),
        jensen_tolerance=float(jensen_tol),
        q_worst=(None if q_worst is None else q_worst_val),
        q_tolerance=Q_TOLERANCE,
        strict_set_size=int(np.count_nonzero(cheaper2)),
        policy_respects_bound=bool(np.all(policy_ok)),
        factorization_residual=float(fac.residual),
    )


# ---------------------------------------------------------------------------
# ultrametric matrices and stochastic roots
# ---------------------------------------------------------------------------


def is_ultrametric(matrix) -> OrderCheckReport:
    """Check symmetry, stochasticity, the min inequality
    B_ij >= min(B_ik, B_kj), and strict diagonal dominance."""
    b = np.asarray(matrix, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionMismatch("ultrametric check needs a square matrix")
    x = b.shape[0]
    checks = []

    asym = float(np.max(np.abs(b - b.T)))
    checks.append(("symmetry", asym, None))
    row_err = float(np.max(np.abs(b.sum(axis=1) - 1.0)))
    checks.append(("row_sums", row_err, None))
    neg = float(max(0.0, -b.min()))
    checks.append(("nonnegativity", neg, None))

    lhs = np.minimum(b[:, None, :], b.T[None, :, :])  # min(B_ik, B_kj) at (i, j, k)
    need = lhs.max(axis=2)
    min_gap = need - b
    i, j = np.unravel_index(np.argmax(min_gap), min_gap.shape)
    checks.append(("min_inequality", float(min_gap[i, j]), {"i": int(i + 1), "j": int(j + 1)}))

    off = b.copy()
    np.fill_diagonal(off, -np.inf)
    diag_gap = float(np.max(off.max(axis=1) - np.diag(b)))
    # strictness: diagonal must exceed every off-diagonal entry in its row
    strict_viol = diag_gap if diag_gap < 0.0 else max(diag_gap, 2.0 * ULTRAMETRIC_TOL)
    checks.append(("strict_diagonal", strict_viol, None))

    name, worst, witness = max(checks, key=lambda c: c[1])
    return make_report(
        "ultrametric",
        worst,
        ULTRAMETRIC_TOL,
        witness={"condition": name, **(witness or {})},
        samples=x * x * x,
        conditions={n: float(v) for n, v, _ in checks},
    )


def matrix_root(matrix, degree: int) -> np.ndarray:
    """Spectral ``degree``-th root of a symmetric stochastic ultrametric matrix.

    The root of such a matrix is again stochastic; the computed root is
    checked for row sums, nonnegativity, and for reproducing the input
    when raised back to ``degree``.
    """
    if degree < 1 or int(degree) != degree:
        raise ValueError("degree must be a positive integer")
    b = np.asarray(matrix, dtype=float)
    report = is_ultrametric(b)
    if not report.holds:
        raise PreconditionFailed(
            f"matrix is not symmetric stochastic ultrametric "
            f"(failed {report.witness['condition']}, defect {report.worst_violation:.3e})"
        )
    if degree == 1:
        return b.copy()
    eigvals, eigvecs = np.linalg.eigh(b)
    if float(eigvals.min()) < -1e-10:
        raise NegativeEigenvalue(
            f"eigenvalue {float(eigvals.min()):.3e} < 0; no real stochastic root"
        )
    rooted = np.clip(eigvals, 0.0, None) ** (1.0 / degree)
    root = (eigvecs * rooted) @ eigvecs.T

    row_err = float(np.max(np.abs(root.sum(axis=1) - 1.0)))
    neg = float(max(0.0, -root.min()))
    back = np.linalg.matrix_power(root, degree)
    recon = float(np.max(np.abs(back - b)))
    if row_err > 1e-10 or neg > 1e-10 or recon > 1e-8:
        raise PostconditionFailed(
            f"root checks failed: row sums off by {row_err:.3e}, "
            f"negativity {neg:.3e}, reconstruction {recon:.3e}"
        )
    return root
