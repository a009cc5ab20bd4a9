"""Monte Carlo policy evaluation on POMDP models.

Paths are simulated in fixed-size chunks, each drawing from its own
child of the master seed, and reduced in chunk order; results are
therefore identical for any worker count.  Every step draws one
transition uniform and one observation uniform for every path in the
chunk, whether or not the path is still active, so two policies
evaluated with the same seed see common random numbers path by path.
A path that has stopped is neither looked up nor priced: each step
gathers the beliefs of the active paths once, and the policy lookup,
the costs and the per-action rows all come out of that gather.

``child_seed`` is the one rule that turns a seed into streams, and one
loop runs the start beliefs, so ``evaluate_policy`` reproduces
``compare_policies``'s ``mean_a`` and ``se_a`` at the same seed.

``path_simulator`` is the one path loop; ``simulate_path_costs`` runs it
over the chunks.  Its table keeps the discounted stop cost in a column
of its own, within the total, so a stopping model's cost splits into
what continuing and what stopping accrued.  Quickest detection prices
its threshold rule this way (``quickest.ks_cost_estimate``).

Short-axis rule: a chunk holds thousands of paths but only X states and
Y observations, so no step reduces along a state or observation axis.
Sampling, filter normalizers, costs and the policy lookup loop over the
X or Y columns with full-length vector operations (``columns.row_sum``,
``columns.inverse_cdf``), and each action's rows are gathered once per
step.  The columns are added left to right, as numpy's ``sum(axis=1)``
adds rows shorter than 8, so paths are bit-identical to the row-wise
form on such models; from width 8 up numpy's sum is unrolled and a cost
or belief can differ in the last bit.

Gather rule: rows come out of a 2-D array by ``take(rows, axis=0)``,
never by fancy or boolean indexing.  At (8192, 2) float64, 2 CPUs and
numpy 2.4, ``beliefs[rows]`` costs 8.3 ns per row and
``beliefs.take(rows, axis=0)`` 0.67 ns.  Rows go back one column at a
time (``beliefs[rows, j] = post[:, j]``, 4.4 ns per row against 8.9 ns
for ``beliefs[rows] = post``).

A policy is a function ``points -> (actions, costs)`` on the (N, X)
points: a solved ``solver.Policy``, the myopic rule or a threshold
rule alike.  ``costs`` holds the chosen action's instantaneous cost per
row when the policy computed it to choose (the myopic rule), so no cost
is computed twice, and is None otherwise.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .columns import inverse_cdf, row_sum, sampling_table
from .costs import instantaneous_cost_batch, max_cost_bound
from .errors import (
    ZERO_LIKELIHOOD_THRESHOLD,
    HorizonUnbounded,
    PreconditionFailed,
    ZeroLikelihood,
)
from .model import STOP, Belief, PomdpModel, uniform_belief, unit_belief

CHUNK_SIZE = 8192
#: largest discount truncation error of an evaluation horizon
EVAL_TOLERANCE = 1e-3
#: most steps any path runs: the undiscounted horizon, and the cap on a
#: discounted one
HORIZON_CAP = 10_000


def child_seed(seed, i: int) -> np.random.SeedSequence:
    """Child ``i`` of a seed, an int or a SeedSequence.

    It equals ``spawn(n)[i]`` on a fresh copy of the seed for any n > i,
    but spawns nothing: the seed's spawn counter does not advance, so
    reruns from one seed reproduce every stream, and no list of children
    is allocated up front.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    key = (*seed.spawn_key, i)
    return np.random.SeedSequence(seed.entropy, spawn_key=key, pool_size=seed.pool_size)


def run_chunked(sim_fn, seed, num_paths: int, workers: int = 1):
    """Run sim_fn(rng, count) over all chunks; concatenate in chunk order.

    Chunk k holds CHUNK_SIZE paths, the last one the rest, and draws
    from ``child_seed(seed, k)``.  Fewer than one path raises ValueError.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    counts = [min(CHUNK_SIZE, num_paths - lo) for lo in range(0, num_paths, CHUNK_SIZE)]

    def one(k):
        return sim_fn(np.random.default_rng(child_seed(seed, k)), counts[k])

    if workers <= 1:
        return np.concatenate([one(k) for k in range(len(counts))])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(one, range(len(counts)))))


@dataclass
class EvalResult:
    """Monte Carlo estimate of the discounted objective from one start belief."""

    mean: float
    std_error: float
    num_paths: int
    horizon: int
    truncation_bound: float | None
    cap_hits: int = 0


def myopic_sensor_policy(model: PomdpModel):
    """Pick sensor 2 wherever it is instantaneously cheaper, else sensor 1.

    The rule returns the chosen sensor's cost with its choice."""
    if model.num_actions != 2:
        raise PreconditionFailed("the myopic sensor rule needs a two-action model")

    def rule(points):
        c1 = instantaneous_cost_batch(model, points, 1)
        c2 = instantaneous_cost_batch(model, points, 2)
        cheaper = c2 < c1
        return np.where(cheaper, 2, 1), np.where(cheaper, c2, c1)

    return rule


def discounted_horizon(model: PomdpModel) -> int:
    """Smallest horizon whose discount truncation error is within
    EVAL_TOLERANCE."""
    rho = model.discount
    bound_scale = max_cost_bound(model)
    if bound_scale == 0.0 or rho == 0.0:
        return 1
    horizon = math.ceil(math.log(EVAL_TOLERANCE * (1.0 - rho) / bound_scale) / math.log(rho))
    return max(1, horizon)


def truncation_bound(model: PomdpModel, horizon: int) -> float | None:
    """rho^H * B / (1 - rho): the most the discounted cost after ``horizon``
    steps can add, with B the cost bound; None when rho = 1."""
    rho = model.discount
    if rho == 1.0:
        return None
    return rho**horizon * max_cost_bound(model) / (1.0 - rho)


def _belief_step(model, beliefs, u, obs):
    """Vectorized filter update for rows sharing action u, per-row observation.

    Raises ZeroLikelihood when some row's observation has numerically no
    probability under its belief (a normalizer at or below
    ZERO_LIKELIHOOD_THRESHOLD).
    """
    predicted = beliefs @ model.transition[u - 1]
    z = predicted * model.observation[u - 1].T.take(obs, axis=0)
    sigma = row_sum(z)
    if np.any(sigma <= ZERO_LIKELIHOOD_THRESHOLD):
        row = int(np.argmin(sigma))
        raise ZeroLikelihood(
            f"observation {int(obs[row]) + 1} under action {u} has probability "
            f"{sigma[row]:.3e}"
        )
    post = z / sigma[:, None]
    post /= row_sum(post)[:, None]
    return post


def path_simulator(model: PomdpModel, policy, initial_belief: Belief, horizon: int):
    """The path loop of one chunk: ``sim(rng, count)`` for ``run_chunked``.

    ``sim`` returns a (count, 3) table, one row per path: the accumulated
    discounted cost, a 0/1 flag marking paths still running at the
    horizon, and the discounted stop cost, which is part of the first
    column and zero for a path that never stopped (always, on a general
    model).
    """
    rho = model.discount
    x = model.num_states
    stop_action = STOP if model.is_stopping else None
    cum_pi0 = sampling_table(initial_belief.probs)
    cum_p = [sampling_table(p) for p in model.transition]
    cum_b = [sampling_table(b) for b in model.observation]

    def sim(rng, count):
        states = inverse_cdf(rng.random(count), cum_pi0)
        beliefs = np.tile(initial_belief.probs, (count, 1))
        costs = np.zeros(count)
        stops = np.zeros(count)
        active = np.ones(count, dtype=bool)
        disc = 1.0
        for _ in range(horizon):
            live = np.flatnonzero(active)
            if live.size == 0:
                break
            # points, actions and chosen costs are indexed by position in live
            points = beliefs.take(live, axis=0)
            actions, chosen = policy(points)
            actions = np.asarray(actions, dtype=np.int64)
            step_u = rng.random(count)
            step_y = rng.random(count)
            for u in range(1, model.num_actions + 1):
                picked = np.flatnonzero(actions == u)
                if picked.size == 0:
                    continue
                rows = live.take(picked)
                here = points.take(picked, axis=0)
                if chosen is None:
                    cost = instantaneous_cost_batch(model, here, u)
                else:
                    cost = chosen.take(picked)
                priced = disc * cost
                costs[rows] += priced
                if u == stop_action:
                    stops[rows] = priced
                    active[rows] = False
                    continue
                nxt = inverse_cdf(step_u.take(rows), cum_p[u - 1].take(states.take(rows), axis=0))
                obs = inverse_cdf(step_y.take(rows), cum_b[u - 1].take(nxt, axis=0))
                states[rows] = nxt
                post = _belief_step(model, here, u, obs)
                for j in range(x):
                    beliefs[rows, j] = post[:, j]
            disc *= rho
        return np.stack([costs, active.astype(float), stops], axis=1)

    return sim


def simulate_path_costs(
    model: PomdpModel,
    policy,
    initial_belief: Belief,
    num_paths: int,
    horizon: int,
    seed=0,
    workers: int = 1,
):
    """The (num_paths, 3) table of ``path_simulator`` over every chunk."""
    sim = path_simulator(model, policy, initial_belief, horizon)
    return run_chunked(sim, seed, num_paths, workers=workers)


def _evaluation_horizon(model: PomdpModel, policies):
    """(horizon, truncation bound) for evaluating the policies on the model.

    Discounted models take ``discounted_horizon``, capped at HORIZON_CAP,
    and the ``truncation_bound`` of the horizon run, which exceeds
    EVAL_TOLERANCE when the cap bites.  Undiscounted stopping models run
    to HORIZON_CAP with no bound, and only for policies that stop at some
    absorbing state's vertex.
    """
    if model.discount < 1.0:
        horizon = min(discounted_horizon(model), HORIZON_CAP)
        return horizon, truncation_bound(model, horizon)
    if not model.is_stopping:
        raise HorizonUnbounded("undiscounted general models cannot be evaluated")
    absorbing = np.isclose(np.diag(model.transition[1]), 1.0)
    for policy in policies:
        actions = np.asarray(policy(np.eye(model.num_states))[0], dtype=np.int64)
        if not np.any(absorbing & (actions == 1)):
            raise HorizonUnbounded(
                "undiscounted evaluation needs a policy that stops at some "
                "absorbing state's vertex"
            )
    return HORIZON_CAP, None


def standard_error(samples: np.ndarray) -> float:
    """Standard error of the sample mean; 0.0 for fewer than two samples."""
    n = samples.size
    return float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def _start_belief_tables(model, policies, initial_beliefs, num_paths, seed, workers):
    """Yield (start belief, horizon, truncation bound, tables) per start belief.

    ``tables`` holds each policy's ``simulate_path_costs`` table from
    start belief i, all on the stream ``child_seed(seed, i)``, so the
    policies see common random numbers path by path.
    """
    horizon, bound = _evaluation_horizon(model, policies)
    beliefs = [b if isinstance(b, Belief) else Belief(b) for b in initial_beliefs]
    if not beliefs:
        raise PreconditionFailed("Monte Carlo evaluation needs at least one initial belief")
    for i, pi0 in enumerate(beliefs):
        stream = child_seed(seed, i)
        yield pi0, horizon, bound, [
            simulate_path_costs(model, p, pi0, num_paths, horizon, seed=stream, workers=workers)
            for p in policies
        ]


def evaluate_policy(
    model: PomdpModel,
    policy,
    initial_beliefs,
    num_paths: int,
    seed=0,
    workers: int = 1,
) -> list:
    """Estimate the discounted objective of a policy: one EvalResult per
    start belief, in order.

    The horizon is ``_evaluation_horizon``'s; on a stopping model
    ``cap_hits`` counts the paths still running when it ran out.
    """
    return [
        EvalResult(
            mean=float(table[:, 0].mean()),
            std_error=standard_error(table[:, 0]),
            num_paths=num_paths,
            horizon=horizon,
            truncation_bound=bound,
            cap_hits=int(table[:, 1].sum()) if model.is_stopping else 0,
        )
        for _, horizon, bound, (table,) in _start_belief_tables(
            model, (policy,), initial_beliefs, num_paths, seed, workers
        )
    ]


@dataclass
class PolicyComparison:
    """Paired-seed comparison of two policies across start beliefs."""

    rows: list
    a_not_worse: int
    num_beliefs: int


def compare_policies(
    model: PomdpModel,
    policy_a,
    policy_b,
    initial_beliefs,
    num_paths: int,
    seed=0,
    workers: int = 1,
) -> PolicyComparison:
    """Evaluate two policies under common random numbers per start belief.

    A row records both means, their standard errors, and the paired
    difference (a minus b); ``a_not_worse`` counts beliefs where the
    difference is within three standard errors of nonpositive.
    """
    rows = []
    for pi0, horizon, _, (table_a, table_b) in _start_belief_tables(
        model, (policy_a, policy_b), initial_beliefs, num_paths, seed, workers
    ):
        cost_a, cost_b = table_a[:, 0], table_b[:, 0]
        diff = cost_a - cost_b
        rows.append(
            {
                "initial_belief": pi0.probs.tolist(),
                "mean_a": float(cost_a.mean()),
                "se_a": standard_error(cost_a),
                "mean_b": float(cost_b.mean()),
                "se_b": standard_error(cost_b),
                "mean_diff": float(diff.mean()),
                "se_diff": standard_error(diff),
                "num_paths": num_paths,
                "horizon": horizon,
            }
        )
    wins = sum(row["mean_diff"] <= 3.0 * row["se_diff"] for row in rows)
    return PolicyComparison(rows=rows, a_not_worse=wins, num_beliefs=len(rows))


def initial_belief_set(num_states: int) -> list:
    """The start beliefs of ``evaluate`` and ``compare``: the vertices, the
    centroid, and the beliefs proportional to (1, ..., X) and (X, ..., 1)."""
    beliefs = [unit_belief(i, num_states) for i in range(1, num_states + 1)]
    beliefs.append(uniform_belief(num_states))
    w = np.arange(1, num_states + 1, dtype=float)
    beliefs.append(Belief(w / w.sum()))
    beliefs.append(Belief(w[::-1] / w.sum()))
    return beliefs
