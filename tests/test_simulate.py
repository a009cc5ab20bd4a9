"""Monte Carlo policy evaluation and paired comparisons."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpomdp import simulate
from beliefpomdp.costs import NonlinearCostSpec, instantaneous_cost_batch
from beliefpomdp.errors import HorizonUnbounded, PreconditionFailed, ZeroLikelihood
from beliefpomdp.grid import build_grid
from beliefpomdp.model import (
    Belief,
    PomdpModel,
    fixture_path,
    load_model,
    uniform_belief,
    unit_belief,
)
from beliefpomdp.simulate import (
    _belief_step,
    child_seed,
    compare_policies,
    evaluate_policy,
    initial_belief_set,
    myopic_sensor_policy,
    run_chunked,
    simulate_path_costs,
    standard_error,
)
from beliefpomdp.solver import Policy, solve_discounted, solve_stopping
from conftest import (
    LargestDraws,
    qd_model,
    random_model,
    three_state_general,
    two_state_general,
)
from oracles import constant_policy, filter_update

DISCOUNTED_FIXTURES = [
    "filter_vs_predictor",
    "increasing_cost",
    "linear_x3",
    "monotone_a123",
    "non_tp2_observation",
    "ultrametric_chain",
    "ultrametric_chain_x3",
]

ENTROPY = NonlinearCostSpec("entropy", alpha=[0.7, 0.4], beta=[0.1, 0.0])


def reference_cost(model, beliefs, u):
    """Instantaneous cost with the entropy loss summed row-wise over a mask."""
    spec = model.nonlinear_cost
    if spec.family != "entropy" or (model.is_stopping and u == 1):
        return instantaneous_cost_batch(model, beliefs, u)
    plogp = np.zeros_like(beliefs)
    mask = beliefs > 0
    plogp[mask] = beliefs[mask] * np.log2(beliefs[mask])
    loss = -float(spec.alpha[u - 1]) * plogp.sum(axis=1) + float(spec.beta[u - 1])
    return beliefs @ model.linear_cost[u - 1] + loss


def reference_actions(policy, points):
    """Grid policies pick the heaviest cell vertex by argmax."""
    if isinstance(policy, Policy):
        idx, w = policy.grid.barycentric(points)
        return policy.actions[idx[np.arange(idx.shape[0]), np.argmax(w, axis=1)]]
    return np.asarray(policy(points)[0], dtype=np.int64)


def reference_belief_step(model, beliefs, u, obs):
    predicted = beliefs @ model.transition[u - 1]
    z = predicted * model.observation[u - 1].T[obs]
    post = z / z.sum(axis=1)[:, None]
    post /= post.sum(axis=1, keepdims=True)
    return post


def reference_path_costs(model, policy, initial_belief, num_paths, horizon, seed=0):
    """The row-wise step loop: boolean row masks, sums and counts along axis 1.

    Its columns are the cost, the still-running flag and the stop cost."""
    rho = model.discount
    pi0 = initial_belief.probs

    def sim(rng, count):
        states = (rng.random(count)[:, None] > np.cumsum(pi0)[None, :]).sum(axis=1)
        beliefs = np.tile(pi0, (count, 1))
        costs = np.zeros(count)
        stops = np.zeros(count)
        active = np.ones(count, dtype=bool)
        disc = 1.0
        for _ in range(horizon):
            if not np.any(active):
                break
            actions = reference_actions(policy, beliefs)
            if model.is_stopping:
                stopping_now = active & (actions == 1)
                if np.any(stopping_now):
                    term = reference_cost(model, beliefs[stopping_now], 1)
                    costs[stopping_now] += disc * term
                    stops[stopping_now] = disc * term
                    active = active & ~stopping_now
            step_u = rng.random(count)
            step_y = rng.random(count)
            for u in range(1, model.num_actions + 1):
                rows = active & (actions == u)
                if (model.is_stopping and u == 1) or not np.any(rows):
                    continue
                costs[rows] += disc * reference_cost(model, beliefs[rows], u)
                cum_p = np.cumsum(model.transition[u - 1], axis=1)
                nxt = (step_u[rows, None] > cum_p[states[rows]]).sum(axis=1)
                cum_b = np.cumsum(model.observation[u - 1], axis=1)
                obs = (step_y[rows, None] > cum_b[nxt]).sum(axis=1)
                states[rows] = nxt
                beliefs[rows] = reference_belief_step(model, beliefs[rows], u, obs)
            disc *= rho
        return np.stack([costs, active.astype(float), stops], axis=1)

    return run_chunked(sim, seed, num_paths)


def random_grid_policy(model, resolution, seed=0):
    """A grid policy with actions drawn at random, so lookups switch often."""
    grid = build_grid(model.num_states, resolution)
    rng = np.random.default_rng(seed)
    return Policy(grid, rng.integers(1, model.num_actions + 1, grid.num_points))


def interior_belief(num_states):
    w = np.arange(1, num_states + 1, dtype=float)
    return Belief(w / w.sum())


class TestStepOracle:
    """simulate_path_costs is bit-identical to the row-wise step loop."""

    def check(self, model, policy, pi0, num_paths=600, horizon=25, seed=4, workers=1):
        new = simulate_path_costs(
            model, policy, pi0, num_paths, horizon, seed=seed, workers=workers
        )
        ref = reference_path_costs(model, policy, pi0, num_paths, horizon, seed=seed)
        assert np.array_equal(new, ref)
        return new

    @pytest.mark.parametrize("name", DISCOUNTED_FIXTURES)
    def test_discounted_fixtures(self, name):
        model = load_model(fixture_path(f"{name}.json"))
        resolution = 40 if model.num_states == 2 else 12
        policy = random_grid_policy(model, resolution)
        for pi0 in (interior_belief(model.num_states), unit_belief(1, model.num_states)):
            self.check(model, policy, pi0)

    def test_stopping_model(self):
        model = qd_model(b=[[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]])
        policy = solve_stopping(model, build_grid(2, 30), tol=1e-9).policy
        out = self.check(model, policy, unit_belief(2, 2), horizon=30)
        assert 0 < out[:, 1].sum() < out.shape[0]  # some paths stop, some run on

    def test_actions_with_different_alphabets(self):
        model = three_state_general(nonlinear=ENTROPY)
        assert model.num_observations == (2, 3)
        self.check(model, random_grid_policy(model, 9), interior_belief(3))

    def test_myopic_function_policy(self):
        model = load_model(fixture_path("filter_vs_predictor.json"))
        self.check(model, myopic_sensor_policy(model), uniform_belief(2), horizon=40)

    def test_stopping_model_under_myopic_rule(self):
        # the rule hands its stop and continue costs to the loop
        base = qd_model(b=[[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]])
        model = dataclasses.replace(base, nonlinear_cost=ENTROPY)
        out = self.check(model, myopic_sensor_policy(model), unit_belief(2, 2), horizon=30)
        assert 0 < out[:, 1].sum() < out.shape[0]  # some paths stop, some run on

    def test_myopic_rule_with_different_alphabets(self):
        # sensor 2 is cheaper near the vertices and dearer inside
        spec = NonlinearCostSpec("entropy", alpha=[0.1, 0.9], beta=[0.0, 0.0])
        model = three_state_general(nonlinear=spec)
        assert model.num_observations == (2, 3)
        rule = myopic_sensor_policy(model)
        assert rule(np.eye(3))[0].tolist() == [2, 2, 2]
        assert rule(interior_belief(3).probs[None])[0].tolist() == [1]
        self.check(model, rule, interior_belief(3), horizon=30)

    def test_two_workers_over_several_chunks(self):
        model = three_state_general(nonlinear=ENTROPY)
        policy = random_grid_policy(model, 9, seed=2)
        self.check(model, policy, interior_belief(3), num_paths=9000, horizon=8, workers=2)

    def test_wide_model_agrees_to_roundoff(self):
        # from width 8 numpy's row sum is unrolled, so only roundoff agreement holds
        spec = NonlinearCostSpec("entropy", alpha=[0.5, 0.5], beta=[0.0, 0.0])
        base = random_model(np.random.default_rng(8), num_states=9, num_actions=2, max_obs=9)
        model = PomdpModel(**{**base.to_dict(), "nonlinear_cost": spec})
        policy = constant_policy(2)
        pi0 = interior_belief(9)
        new = simulate_path_costs(model, policy, pi0, 600, 20, seed=5)
        ref = reference_path_costs(model, policy, pi0, 600, 20, seed=5)
        np.testing.assert_allclose(new, ref, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(new[:, 1], ref[:, 1])


def test_run_chunked_rejects_fewer_than_one_path():
    # the one path-count check of evaluation and the detection estimate
    sim = lambda rng, count: np.zeros((count, 3))  # noqa: E731
    for num_paths in (0, -3):
        with pytest.raises(ValueError, match="num_paths"):
            run_chunked(sim, 0, num_paths)


def count_cost_rows(monkeypatch):
    """Wrap the simulator's cost function; the list collects rows per call."""
    rows = []

    def counting(model, beliefs, u):
        rows.append(np.atleast_2d(beliefs).shape[0])
        return instantaneous_cost_batch(model, beliefs, u)

    monkeypatch.setattr(simulate, "instantaneous_cost_batch", counting)
    return rows


def test_myopic_rule_costs_each_action_once_per_path_step(monkeypatch):
    model = load_model(fixture_path("filter_vs_predictor.json"))
    rows = count_cost_rows(monkeypatch)
    num_paths, horizon = 500, 12
    out = simulate_path_costs(
        model, myopic_sensor_policy(model), uniform_belief(2), num_paths, horizon, seed=3
    )
    assert np.all(out[:, 1] == 1.0)  # discounted: every path is active at every step
    assert sum(rows) == 2 * num_paths * horizon


def test_grid_policy_costs_its_action_once_per_path_step(monkeypatch):
    model = three_state_general(nonlinear=ENTROPY)
    rows = count_cost_rows(monkeypatch)
    simulate_path_costs(model, random_grid_policy(model, 9), interior_belief(3), 400, 10)
    assert sum(rows) == 400 * 10


def test_stopped_paths_are_neither_looked_up_nor_priced(monkeypatch):
    model = qd_model(b=[[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]])
    policy = solve_stopping(model, build_grid(2, 30), tol=1e-9).policy
    lookups = []

    def counting(points):
        lookups.append(points.shape[0])
        return policy(points)

    priced = count_cost_rows(monkeypatch)  # one row per active path-step
    num_paths, horizon = 600, 30
    out = simulate_path_costs(model, counting, unit_belief(2, 2), num_paths, horizon, seed=4)
    assert 0 < out[:, 1].sum() < num_paths  # some paths stop, some run on
    assert sum(lookups) == sum(priced) < num_paths * horizon


def test_rows_summing_below_one_never_sample_past_the_last_category(monkeypatch):
    # rows may sum to 1 within ROW_SUM_TOL = 1e-12, so a cumulative row can
    # end below the largest draw; without the exact last entry of 1 this
    # run samples state and observation 3 of 2 and raises IndexError
    monkeypatch.setattr(
        simulate, "run_chunked", lambda sim, seed, num_paths, workers=1: sim(LargestDraws(), num_paths)
    )
    outs = []
    for row in ([0.5, 0.5 - 5e-13], [0.5, 0.5]):
        matrix = [row, row]
        model = dataclasses.replace(
            two_state_general(), transition=(matrix, matrix), observation=(matrix, matrix)
        )
        outs.append(simulate_path_costs(model, constant_policy(2), Belief(row), 20, 15))
    assert np.all(np.isfinite(outs[0]))
    np.testing.assert_allclose(outs[0], outs[1], rtol=1e-11)


class TestEvaluatePolicy:
    def test_constant_cost_gives_geometric_series(self, monkeypatch):
        monkeypatch.setattr(simulate, "EVAL_TOLERANCE", 1e-6)
        model = two_state_general(linear=[[0.7, 0.7], [0.7, 0.7]], discount=0.9)
        (result,) = evaluate_policy(model, constant_policy(1), [uniform_belief(2)], num_paths=400)
        expected = 0.7 / (1.0 - 0.9)
        # constant costs make every path identical up to truncation
        assert result.std_error <= 1e-12
        assert abs(result.mean - expected) <= 1e-5
        assert result.truncation_bound <= 1e-6

    def test_capped_horizon_reports_the_bound_of_the_steps_run(self):
        # the discount asks for 29,011 steps; HORIZON_CAP runs 10,000, after
        # which a cost bound of 1 can still add 0.9995^10000 / 0.0005 = 13.459
        model = two_state_general(discount=0.9995)
        (result,) = evaluate_policy(model, constant_policy(1), [uniform_belief(2)], num_paths=2)
        assert result.horizon == simulate.HORIZON_CAP
        assert result.truncation_bound == pytest.approx(0.9995**10_000 / 0.0005, rel=1e-12)
        assert result.truncation_bound > 13.45

    def test_zero_discount_is_exact_myopic_cost(self):
        model = two_state_general(discount=0.0)
        pi0 = Belief([0.3, 0.7])
        (result,) = evaluate_policy(model, constant_policy(2), [pi0], num_paths=50)
        cost = instantaneous_cost_batch(model, pi0.probs, 2)[0]
        assert result.mean == pytest.approx(cost, abs=1e-15)
        assert result.horizon == 1

    def test_matches_grid_value_within_noise(self, monkeypatch):
        monkeypatch.setattr(simulate, "EVAL_TOLERANCE", 1e-4)
        spec = NonlinearCostSpec("entropy", alpha=[0.3, 0.3], beta=[0.0, 0.0])
        model = two_state_general(nonlinear=spec)
        grid = build_grid(2, 400)
        sol = solve_discounted(model, grid, tol=1e-10)
        pi0 = uniform_belief(2)
        (result,) = evaluate_policy(model, sol.policy, [pi0], num_paths=40_000, seed=11)
        grid_error = 1e-3  # refinement estimate for M = 400 on this fixture
        assert abs(result.mean - sol.value.at(pi0)) <= 3 * result.std_error + grid_error + 1e-4

    def test_stopping_policy_evaluation_matches_value(self):
        model = qd_model()
        sol = solve_stopping(model, build_grid(2, 500), tol=1e-9)
        (result,) = evaluate_policy(
            model, sol.policy, [unit_belief(2, 2)], num_paths=40_000, seed=3
        )
        assert result.truncation_bound is None
        assert abs(result.mean - sol.value.at(unit_belief(2, 2))) <= (
            3 * result.std_error + 2.0 / 500
        )

    def test_never_stopping_policy_rejected_undiscounted(self):
        model = qd_model()
        with pytest.raises(HorizonUnbounded):
            evaluate_policy(model, constant_policy(2), [unit_belief(2, 2)], num_paths=10)

    def test_undiscounted_general_models_rejected(self):
        model = qd_model()
        relabeled = PomdpModel(
            **{
                **{
                    k: v
                    for k, v in model.to_dict().items()
                    if k not in ("model_kind", "nonlinear_cost")
                },
                "model_kind": "general_discounted",
            }
        )
        with pytest.raises(HorizonUnbounded):
            evaluate_policy(relabeled, constant_policy(2), [unit_belief(2, 2)], num_paths=10)


class TestComparePolicies:
    def test_policy_against_itself_is_exactly_zero(self):
        model = two_state_general()
        grid = build_grid(2, 100)
        sol = solve_discounted(model, grid)
        pi0s = [uniform_belief(2), unit_belief(1, 2)]
        comparison = compare_policies(
            model, sol.policy, sol.policy, pi0s, num_paths=2000, seed=5
        )
        for row in comparison.rows:
            assert row["mean_diff"] == 0.0
            assert row["se_diff"] == 0.0
        assert comparison.a_not_worse == 2

    def test_generator_of_beliefs_is_compared_once_each(self):
        model = two_state_general()
        pi0s = [uniform_belief(2), unit_belief(1, 2), Belief([0.2, 0.8])]
        args = (model, constant_policy(1), constant_policy(2))
        from_list = compare_policies(*args, pi0s, num_paths=200, seed=3)
        from_gen = compare_policies(*args, (b for b in pi0s), num_paths=200, seed=3)
        assert from_gen.num_beliefs == 3
        assert from_gen == from_list

    def test_empty_belief_set_rejected(self):
        model = two_state_general()
        with pytest.raises(PreconditionFailed):
            compare_policies(model, constant_policy(1), constant_policy(2), [], num_paths=10)

    def test_zero_paths_rejected(self):
        model = two_state_general()
        with pytest.raises(ValueError, match="num_paths"):
            compare_policies(
                model, constant_policy(1), constant_policy(2), [uniform_belief(2)], num_paths=0
            )

    def test_one_path_has_zero_standard_errors(self):
        model = two_state_general()
        args = (model, constant_policy(1), constant_policy(2), [uniform_belief(2)])
        row = compare_policies(*args, num_paths=1, seed=3).rows[0]
        assert (row["se_a"], row["se_b"], row["se_diff"]) == (0.0, 0.0, 0.0)

    def test_common_random_numbers_pair_paths(self):
        model = two_state_general()
        pi0 = uniform_belief(2)
        a = simulate_path_costs(model, constant_policy(1), pi0, 500, 40, seed=7)
        b = simulate_path_costs(model, constant_policy(1), pi0, 500, 40, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_optimal_not_worse_than_constant_sensors(self):
        spec = NonlinearCostSpec("entropy", alpha=[1.0, 0.5], beta=[0.0, 0.0])
        shared_p = [[0.9, 0.1], [0.2, 0.8]]
        model = PomdpModel(
            num_states=2,
            num_actions=2,
            num_observations=(2, 2),
            transition=(shared_p, shared_p),
            observation=([[0.5, 0.5], [0.5, 0.5]], [[0.8, 0.2], [0.3, 0.7]]),
            linear_cost=([0.0, 0.0], [0.3, 0.3]),
            nonlinear_cost=spec,
            discount=0.9,
        )
        sol = solve_discounted(model, build_grid(2, 200), tol=1e-9)
        beliefs = initial_belief_set(2)
        for rival in (myopic_sensor_policy(model), constant_policy(1)):
            comparison = compare_policies(
                model, sol.policy, rival, beliefs, num_paths=4000, seed=1
            )
            assert comparison.a_not_worse == len(beliefs)

    def test_worker_count_does_not_change_results(self):
        model = two_state_general()
        pi0 = uniform_belief(2)
        grid = build_grid(2, 50)
        sol = solve_discounted(model, grid)
        (one,) = evaluate_policy(model, sol.policy, [pi0], num_paths=9000, seed=2, workers=1)
        (many,) = evaluate_policy(model, sol.policy, [pi0], num_paths=9000, seed=2, workers=8)
        assert one.mean == many.mean
        assert one.std_error == many.std_error


class TestOneWay:
    """Relations that hold the start-belief loop, the child-seed rule and
    the path loop to their definitions."""

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        model_seed=st.integers(0, 2**32 - 1),
        num_states=st.integers(2, 4),
        discount=st.sampled_from([0.0, 0.5, 0.8]),
        action=st.integers(1, 2),
        start=st.integers(0, 5),
    )
    def test_constant_policy_mean_is_the_linear_value(
        self, model_seed, num_states, discount, action, start
    ):
        # under one fixed action the expected cost is pi0' (I - rho P_u)^-1 c_u
        rng = np.random.default_rng(model_seed)
        model = random_model(rng, num_states, num_actions=2, discount=discount)
        pi0 = initial_belief_set(num_states)[start % (num_states + 3)]
        p, c = model.transition[action - 1], model.linear_cost[action - 1]
        exact = pi0.probs @ np.linalg.solve(np.eye(num_states) - discount * p, c)
        (ev,) = evaluate_policy(model, constant_policy(action), [pi0], 2000, seed=model_seed)
        assert abs(ev.mean - exact) <= 4 * ev.std_error + ev.truncation_bound + 1e-12

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), spawned=st.booleans())
    def test_evaluate_reproduces_compares_first_policy(self, seed, spawned):
        model = three_state_general(nonlinear=ENTROPY)
        beliefs = initial_belief_set(3)
        p, q = random_grid_policy(model, 9, seed=seed), myopic_sensor_policy(model)
        if spawned:
            seed = np.random.SeedSequence(seed).spawn(2)[1]
        evals = evaluate_policy(model, p, beliefs, 300, seed=seed)
        rows = compare_policies(model, p, q, beliefs, 300, seed=seed).rows
        assert [(e.mean, e.std_error) for e in evals] == [(r["mean_a"], r["se_a"]) for r in rows]

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        entropy=st.integers(0, 2**128),
        key=st.lists(st.integers(0, 2**16), max_size=3),
        n=st.integers(1, 12),
    )
    def test_child_seed_is_spawn_on_a_fresh_copy(self, entropy, key, n):
        def fields(seq):
            return seq.entropy, seq.spawn_key, seq.pool_size, seq.generate_state(4).tolist()

        parent = np.random.SeedSequence(entropy, spawn_key=tuple(key))
        for seed in (entropy, parent) if not key else (parent,):
            fresh = np.random.SeedSequence(entropy, spawn_key=tuple(key)).spawn(n)
            twice = [[fields(child_seed(seed, i)) for i in range(n)] for _ in range(2)]
            assert twice[0] == twice[1] == [fields(c) for c in fresh]
        assert parent.n_children_spawned == 0

    def test_a_spawned_child_passed_twice_gives_one_stream(self):
        child = np.random.SeedSequence(31).spawn(3)[2]
        model = two_state_general()
        runs = [
            simulate_path_costs(model, constant_policy(1), uniform_belief(2), 9000, 5, seed=child)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0], runs[1])
        again = np.random.SeedSequence(31).spawn(3)[2].spawn(2)
        for k, part in enumerate((runs[0][:8192], runs[0][8192:])):
            sim = simulate.path_simulator(model, constant_policy(1), uniform_belief(2), 5)
            np.testing.assert_array_equal(sim(np.random.default_rng(again[k]), len(part)), part)


def test_default_initial_beliefs_cover_vertices():
    beliefs = initial_belief_set(3)
    mat = np.array([b.probs for b in beliefs])
    assert mat.shape[1] == 3
    for i in range(3):
        assert any(np.array_equal(b.probs, unit_belief(i + 1, 3).probs) for b in beliefs)


def test_belief_step_raises_on_zero_likelihood_like_filter_update():
    eye = [[1.0, 0.0], [0.0, 1.0]]
    model = PomdpModel(
        num_states=2,
        num_actions=1,
        num_observations=(2,),
        transition=[eye],
        observation=[eye],
        linear_cost=[[0.0, 0.0]],
        discount=0.9,
    )
    with pytest.raises(ZeroLikelihood):
        filter_update(model, unit_belief(1, 2), y=2, u=1)
    with pytest.raises(ZeroLikelihood):
        _belief_step(model, np.array([[1.0, 0.0], [0.0, 1.0]]), 1, np.array([0, 0]))
    post = _belief_step(model, np.array([[1.0, 0.0], [0.5, 0.5]]), 1, np.array([0, 1]))
    np.testing.assert_array_equal(post, [[1.0, 0.0], [0.0, 1.0]])


def test_standard_error():
    assert standard_error(np.array([2.5])) == 0.0
    assert standard_error(np.array([1.0, 3.0])) == 1.0
    samples = np.arange(10.0)
    assert standard_error(samples) == float(samples.std(ddof=1) / np.sqrt(10))
