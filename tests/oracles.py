"""Independent reference implementations the tests compare the program against.

None of these run in a command: each is a direct, one-belief (or
one-path) form of something the library computes in batch, kept simple
enough to trust by reading.

- ``filter_update`` is the normalized one-step Bayes recursion: the
  posterior is B_y(u) P'(u) pi rescaled to sum to one, and the
  normalizer is the predictive probability of the observation.
  ``relaxed_update`` is the same linear map without normalization, on
  ``RelaxedBelief`` weights over the whole positive orthant.
  ``exact_posterior_oracle`` enumerates hidden state paths.
- ``bellman_backup`` is the single-point backup evaluated from the
  model; ``sweep_once`` runs one table-driven sweep.
- ``fosd_geq`` is the first-order stochastic dominance predicate.
- ``concavity_probe`` is a randomized midpoint test of a cost's concavity.
- ``constant_policy`` always picks one action.
- ``sorted_barycentric`` locates Freudenthal cells by sorting each row's
  fractional parts, the form ``SimplexGrid.barycentric`` replaced.
- ``one_shot_mlr_pairs`` draws the MLR verifier's sampled index pairs in
  two whole-length draws from spawned children, where
  ``structure._sampled_pairs`` draws blocks from ``child_seed`` streams.
  ``one_shot_concavity_pairs`` keeps the first of those pairs whose
  coordinate midpoint is a grid point, in one pass over the whole draw.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from beliefpomdp.columns import row_sum
from beliefpomdp.costs import NonlinearCostSpec, instantaneous_cost_batch, performance_loss_batch
from beliefpomdp.errors import ZERO_LIKELIHOOD_THRESHOLD, DimensionMismatch, ZeroLikelihood
from beliefpomdp.grid import SNAP_TOL, SimplexGrid
from beliefpomdp.model import Belief, PomdpModel
from beliefpomdp.reports import OrderCheckReport, make_report
from beliefpomdp.solver import BackupTables, ValueFunction, _sweeper
from beliefpomdp.structure import CONCAVITY_PAIRS, MLR_TOL, PAIR_CAP

#: path enumeration is exponential in sequence length
MAX_ORACLE_STEPS = 12


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelaxedBelief:
    """Unnormalized nonnegative weight vector on the positive orthant.

    The zero vector is rejected by default; operations whose output may
    legitimately collapse to zero construct with ``allow_zero=True``.
    """

    weights: np.ndarray
    allow_zero: InitVar[bool] = False

    def __post_init__(self, allow_zero):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("relaxed belief must be a nonempty 1-D vector")
        if np.any(w < 0):
            raise ValueError(f"relaxed belief has negative entry {float(w.min()):.3e}")
        if not allow_zero and not np.any(w > 0):
            raise ValueError("relaxed belief must have a positive entry")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def num_states(self) -> int:
        return self.weights.size

    def total(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class FilterStep:
    """Posterior belief plus the predictive likelihood of the observation."""

    posterior: Belief
    likelihood: float


def _unnormalized(model: PomdpModel, probs: np.ndarray, y: int, u: int) -> np.ndarray:
    if not 1 <= u <= model.num_actions:
        raise ValueError(f"action index {u} out of range 1..{model.num_actions}")
    y_count = model.num_observations[u - 1]
    if not 1 <= y <= y_count:
        raise ValueError(f"observation index {y} out of range 1..{y_count}")
    predicted = probs @ model.transition[u - 1]
    return model.observation[u - 1][:, y - 1] * predicted


def filter_update(model: PomdpModel, belief: Belief, y: int, u: int) -> FilterStep:
    """One Bayes step: posterior and likelihood for observation y under action u.

    Raises ZeroLikelihood when the observation has numerically no
    probability under the model (nothing meaningful to condition on).
    """
    z = _unnormalized(model, belief.probs, y, u)
    sigma = float(z.sum())
    if sigma <= ZERO_LIKELIHOOD_THRESHOLD:
        raise ZeroLikelihood(
            f"observation {y} under action {u} has probability {sigma:.3e}"
        )
    posterior = z / sigma
    posterior /= posterior.sum()
    return FilterStep(posterior=Belief(posterior), likelihood=sigma)


def relaxed_update(model: PomdpModel, alpha: RelaxedBelief, y: int, u: int) -> RelaxedBelief:
    """Unnormalized update B_y(u) P'(u) alpha; the zero vector is legal output."""
    z = _unnormalized(model, alpha.weights, y, u)
    return RelaxedBelief(z, allow_zero=True)


def exact_posterior_oracle(model: PomdpModel, initial: Belief, steps) -> Belief:
    """Posterior after a (y, u) sequence, by explicit path enumeration.

    Maintains one joint probability per hidden state path, so the work is
    X^(len(steps)+1); sequences longer than MAX_ORACLE_STEPS are refused.
    Serves as an independent cross-check of the iterated filter.
    """
    steps = list(steps)
    if len(steps) > MAX_ORACLE_STEPS:
        raise ValueError(
            f"oracle sequences are capped at {MAX_ORACLE_STEPS} steps, got {len(steps)}"
        )
    x = model.num_states
    # path_probs[i0, i1, ..., ik] flattened, last state varying fastest
    path_probs = initial.probs.copy()
    for y, u in steps:
        if not 1 <= u <= model.num_actions:
            raise ValueError(f"action index {u} out of range 1..{model.num_actions}")
        if not 1 <= y <= model.num_observations[u - 1]:
            raise ValueError(
                f"observation index {y} out of range 1..{model.num_observations[u - 1]}"
            )
        step = model.transition[u - 1] * model.observation[u - 1][:, y - 1][None, :]
        last_state = np.arange(path_probs.size) % x
        path_probs = (path_probs[:, None] * step[last_state]).ravel()
    total = float(path_probs.sum())
    if total <= ZERO_LIKELIHOOD_THRESHOLD:
        raise ZeroLikelihood("observation sequence has zero probability")
    marginal = path_probs.reshape(-1, x).sum(axis=0)
    return Belief(marginal / total)


# ---------------------------------------------------------------------------
# value iteration
# ---------------------------------------------------------------------------


def sweep_once(tables: BackupTables, values: np.ndarray):
    """Apply one backup sweep; returns (new values, 1-based actions), ties to smaller u."""
    with _sweeper(tables) as sweep:
        return sweep(values)[:2]


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


# ---------------------------------------------------------------------------
# orders, costs and policies
# ---------------------------------------------------------------------------


def fosd_geq(pi1, pi2, tol: float = MLR_TOL) -> bool:
    """True iff pi1 first-order stochastically dominates pi2 (mass on higher states)."""
    p1 = pi1.probs if isinstance(pi1, Belief) else np.asarray(pi1, float)
    p2 = pi2.probs if isinstance(pi2, Belief) else np.asarray(pi2, float)
    if p1.shape != p2.shape:
        raise DimensionMismatch("beliefs must have the same dimension")
    t1 = np.cumsum(p1[::-1])[::-1]
    t2 = np.cumsum(p2[::-1])[::-1]
    return bool(np.all(t1 >= t2 - tol))


def concavity_probe(
    cost_source,
    u: int,
    num_trials: int,
    tolerance: float,
    num_states: int | None = None,
    seed: int = 0,
) -> OrderCheckReport:
    """Randomized midpoint test for concavity of the instantaneous cost.

    ``cost_source`` is either a PomdpModel (probes the full C(pi, u)) or a
    NonlinearCostSpec (probes the loss alone; ``num_states`` required).
    Samples (pi1, pi2, lam) and reports the largest chord-above-function
    gap found; the cost is declared concave iff that gap is <= tolerance.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be >= 1")
    if isinstance(cost_source, NonlinearCostSpec):
        spec = cost_source
        if num_states is None:
            if spec.weight_matrix is None:
                raise ValueError("num_states required for families without a matrix")
            num_states = spec.weight_matrix.shape[0]
        evaluate = lambda pts: performance_loss_batch(spec, pts, u)
    else:
        model = cost_source
        num_states = model.num_states
        evaluate = lambda pts: instantaneous_cost_batch(model, pts, u)

    rng = np.random.default_rng(seed)
    p1 = rng.dirichlet(np.ones(num_states), size=num_trials)
    p2 = rng.dirichlet(np.ones(num_states), size=num_trials)
    lam = rng.uniform(0.0, 1.0, size=num_trials)
    mid = lam[:, None] * p1 + (1.0 - lam)[:, None] * p2
    gap = lam * evaluate(p1) + (1.0 - lam) * evaluate(p2) - evaluate(mid)
    worst = int(np.argmax(gap))
    return make_report(
        "cost_concavity",
        float(gap[worst]),
        tolerance,
        witness={
            "pi1": p1[worst].tolist(),
            "pi2": p2[worst].tolist(),
            "lam": float(lam[worst]),
        },
        samples=num_trials,
        action=u,
    )


def constant_policy(action: int):
    return lambda pts: (np.full(pts.shape[0], action, dtype=np.int32), None)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def sorted_barycentric(grid: SimplexGrid, queries):
    """``grid.barycentric`` by a stable descending sort of each row.

    Vertex k of the cell adds unit steps to the base along the k axes with
    the largest fractional parts, ties going to the earlier axis.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    n, x = q.shape
    m = grid.resolution
    tails = np.empty((n, x - 1))
    tails[:, -1] = q[:, -1]
    for i in range(x - 3, -1, -1):
        np.add(tails[:, i + 1], q[:, i + 1], out=tails[:, i])
    z = np.clip(m * tails, 0.0, float(m))
    nearest = np.rint(z)
    z = np.where(np.abs(z - nearest) <= SNAP_TOL, nearest, z)
    if np.any(z[:, 1:] > z[:, :-1]):
        raise ValueError("query is not a belief: its cell leaves the grid")

    base = np.floor(z)
    frac = z - base
    d = x - 1
    order = np.argsort(-frac, axis=1, kind="stable")
    frac_sorted = np.take_along_axis(frac, order, axis=1)

    weights = np.empty((n, x))
    weights[:, 0] = 1.0 - frac_sorted[:, 0]
    if d > 1:
        weights[:, 1:d] = frac_sorted[:, :-1] - frac_sorted[:, 1:]
    weights[:, d] = frac_sorted[:, d - 1]
    np.clip(weights, 0.0, 1.0, out=weights)

    steps = np.zeros((n, x, d), dtype=np.intp)
    rows = np.repeat(np.arange(n), d)
    level = np.tile(np.arange(1, d + 1), n)
    steps[rows, level, order.ravel()] = 1
    np.cumsum(steps, axis=1, out=steps)

    tiny = weights <= 1e-15
    steps[tiny] = 0
    weights[tiny] = 0.0
    weights /= row_sum(weights)[:, None]
    return grid._rank(base.astype(np.intp)[:, None, :] + steps), weights


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def one_shot_mlr_pairs(n: int, seed: int, cap: int):
    """The ``cap`` index pairs (a, b) over ``n`` grid points, a from the
    first and b from the second child that ``SeedSequence.spawn`` makes of
    ``seed``, each in one call, less those with a == b."""
    rng_a, rng_b = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    a = rng_a.integers(0, n, size=cap)
    b = rng_b.integers(0, n, size=cap)
    keep = a != b
    return a[keep], b[keep]


def one_shot_concavity_pairs(grid: SimplexGrid, seed: int):
    """The first CONCAVITY_PAIRS of the ``one_shot_mlr_pairs`` draw of
    PAIR_CAP whose coordinate midpoint is a grid point, which holds iff
    both points share every coordinate parity, and that midpoint's index:
    (a, b, mid)."""
    a, b = one_shot_mlr_pairs(grid.num_points, seed, PAIR_CAP)
    total = grid.coords[a] + grid.coords[b]
    keep = np.flatnonzero(np.all(total % 2 == 0, axis=1))[:CONCAVITY_PAIRS]
    return a[keep], b[keep], grid.index_of(total[keep] // 2)
