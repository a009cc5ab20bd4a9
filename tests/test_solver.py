"""Value iteration, stopping solves, the relaxed recursion, and thresholds."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpomdp import solver
from beliefpomdp.costs import NonlinearCostSpec, instantaneous_cost_batch
from beliefpomdp.errors import PostconditionFailed, PreconditionFailed, StructureViolation
from beliefpomdp.grid import build_grid
from beliefpomdp.model import (
    STOPPING_TIME,
    Belief,
    PomdpModel,
    model_from_dict,
    unit_belief,
)
from beliefpomdp.quickest import qd_threshold
from beliefpomdp.solver import (
    Policy,
    RelaxedValueFunction,
    build_tables,
    continuation_values,
    solve_discounted,
    solve_relaxed,
    solve_stopping,
)
from conftest import qd_model, random_model, two_state_general, three_state_general
from oracles import bellman_backup, filter_update, sweep_once


class TestBellmanBackup:
    def test_zero_discount_is_myopic(self):
        model = two_state_general(discount=0.0)
        grid = build_grid(2, 10)
        sol = solve_discounted(model, grid)
        pi = Belief([0.4, 0.6])
        qs, best, action = bellman_backup(model, sol.value, pi)
        for u in (1, 2):
            cost = instantaneous_cost_batch(model, pi.probs, u)[0]
            assert qs[u - 1] == pytest.approx(cost, abs=1e-14)
        assert best == min(qs)

    def test_zero_value_function_gives_cost(self):
        model = two_state_general()
        grid = build_grid(2, 10)
        from beliefpomdp.solver import ValueFunction

        zero = ValueFunction(grid, np.zeros(grid.num_points))
        pi = Belief([0.7, 0.3])
        qs, _, _ = bellman_backup(model, zero, pi)
        for u in (1, 2):
            cost = instantaneous_cost_batch(model, pi.probs, u)[0]
            assert qs[u - 1] == pytest.approx(cost, abs=1e-14)

    def test_hand_expanded_two_observation_sum(self, rng):
        model = two_state_general()
        grid = build_grid(2, 50)
        values = rng.normal(size=grid.num_points)
        from beliefpomdp.solver import ValueFunction

        vf = ValueFunction(grid, values)
        pi = Belief([0.5, 0.5])
        qs, _, _ = bellman_backup(model, vf, pi)
        for u in (1, 2):
            expected = instantaneous_cost_batch(model, pi.probs, u)[0]
            for y in (1, 2):
                step = filter_update(model, pi, y, u)
                expected += model.discount * step.likelihood * vf.at(step.posterior)
            assert qs[u - 1] == pytest.approx(expected, abs=1e-12)

    def test_tie_breaks_to_smallest_action(self):
        model = two_state_general(linear=[[0.5, 0.5], [0.5, 0.5]], discount=0.0)
        grid = build_grid(2, 10)
        sol = solve_discounted(model, grid)
        _, _, action = bellman_backup(model, sol.value, Belief([0.5, 0.5]))
        assert action == 1
        assert np.all(sol.policy.actions == 1)


class TestSolveDiscounted:
    def test_zero_discount_converges_immediately_to_min_cost(self):
        model = two_state_general(discount=0.0)
        grid = build_grid(2, 40)
        sol = solve_discounted(model, grid, tol=1e-12)
        expected = np.minimum(
            *(grid.points @ model.linear_cost[u] for u in range(2))
        )
        np.testing.assert_allclose(sol.value.values, expected, atol=1e-14)
        assert sol.log.iterations <= 2

    def test_contraction_of_sup_norm_changes(self):
        model = two_state_general(
            linear=[[0.2, 0.05], [0.15, 0.02]], discount=0.9
        )
        sol = solve_discounted(model, build_grid(2, 60), tol=1e-10)
        changes = sol.log.changes
        eps10 = 10 * np.finfo(float).eps
        for k in range(len(changes) - 1):
            assert changes[k + 1] <= model.discount * changes[k] + eps10

    def test_rejects_stopping_models(self):
        with pytest.raises(PreconditionFailed):
            solve_discounted(qd_model(), build_grid(2, 10))

    def test_nonconvergence_is_flagged_not_raised(self):
        model = two_state_general(discount=0.95)
        sol = solve_discounted(model, build_grid(2, 20), tol=1e-12, max_iters=3)
        assert not sol.log.converged
        assert sol.log.iterations == 3

    def test_grid_refinement_differences_shrink(self):
        model = two_state_general(
            nonlinear=NonlinearCostSpec("entropy", alpha=[0.5, 0.5], beta=[0.0, 0.0])
        )
        sols = {m: solve_discounted(model, build_grid(2, m), tol=1e-10) for m in (25, 50, 100, 200)}
        gaps = []
        for coarse, fine in ((25, 50), (50, 100), (100, 200)):
            shared = sols[coarse].value.grid.points
            gap = np.max(
                np.abs(sols[coarse].value.values - sols[fine].value.at_many(shared))
            )
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]


class TestSolveStopping:
    def test_free_stopping_stops_everywhere(self):
        model = qd_model()
        free = model_from_dict(
            {**model.to_dict(), "linear_cost": [[0.0, 0.0], [0.05, 0.0]]}
        )
        sol = solve_stopping(free, build_grid(2, 30), tol=1e-12)
        np.testing.assert_allclose(sol.value.values, 0.0, atol=1e-15)
        assert np.all(sol.policy.actions == 1)

    def test_stop_always_available_bounds_value(self):
        model = qd_model()
        sol = solve_stopping(model, build_grid(2, 200), tol=1e-10)
        stop_cost = sol.value.grid.points @ np.array([0.0, 1.0])
        assert np.all(sol.value.values <= stop_cost + 1e-12)

    def test_free_continuation_still_bounded_by_stop(self):
        model = qd_model()
        free_continue = model_from_dict(
            {
                **model.to_dict(),
                "linear_cost": [[0.3, 1.0], [0.0, 0.0]],
                "discount": 0.9,
            }
        )
        sol = solve_stopping(free_continue, build_grid(2, 50), tol=1e-12)
        stop_cost = sol.value.grid.points @ np.array([0.3, 1.0])
        assert np.all(sol.value.values <= stop_cost + 1e-12)
        assert np.any(sol.value.values < stop_cost - 1e-6)

    def test_monotone_value_iteration_at_discount_one(self):
        model = qd_model()
        grid = build_grid(2, 100)
        tables = build_tables(model, grid)
        v = np.zeros(grid.num_points)
        for _ in range(40):
            v_next, _ = sweep_once(tables, v)
            assert np.all(v_next >= v - 1e-15)
            v = v_next

    def test_absorbing_fully_observed_closed_form(self):
        # state 1 absorbing: stopping pays c1(1) once, continuing forever
        # pays c2(1) each step; the value at the vertex is their best
        model = PomdpModel(
            num_states=2,
            num_actions=2,
            num_observations=(2, 2),
            transition=([[1.0, 0.0], [0.1, 0.9]],) * 2,
            observation=([[0.8, 0.2], [0.3, 0.7]],) * 2,
            linear_cost=([0.5, 1.0], [0.02, 0.0]),
            discount=0.9,
            model_kind=STOPPING_TIME,
        )
        sol = solve_stopping(model, build_grid(2, 400), tol=1e-12)
        expected = min(0.5, 0.02 / (1.0 - 0.9))
        assert sol.value.at(unit_belief(1, 2)) == pytest.approx(expected, abs=1e-9)

    def test_quickest_detection_fixture_structure(self):
        sol = solve_stopping(qd_model(), build_grid(2, 1000), tol=1e-9)
        assert sol.log.converged
        threshold = qd_threshold(sol.policy)  # raises StructureViolation without one
        assert 0.0 < threshold < 1.0
        # concave in pi(2): discrete midpoint test along the line
        v = sol.value.values
        assert np.all(v[:-2] + v[2:] <= 2.0 * v[1:-1] + 1e-12)


PUBLIC_SOLVERS = ("solve_discounted", "solve_stopping", "solve_relaxed")


@pytest.mark.parametrize("name", PUBLIC_SOLVERS)
def test_public_solvers_do_not_call_each_other(monkeypatch, name):
    """A wrapper around each public solver must see exactly one solve."""
    model = qd_model() if name == "solve_stopping" else two_state_general()
    chosen = getattr(solver, name)

    def refuse(*args, **kwargs):
        raise AssertionError("a public solver called another one")

    for other in PUBLIC_SOLVERS:
        if other != name:
            monkeypatch.setattr(solver, other, refuse)
    assert chosen(model, build_grid(2, 20), tol=1e-9).log.converged


class TestSolveRelaxed:
    def test_requires_linear_costs(self):
        model = two_state_general(
            nonlinear=NonlinearCostSpec("entropy", alpha=[1.0, 1.0], beta=[0.0, 0.0])
        )
        with pytest.raises(PreconditionFailed):
            solve_relaxed(model, build_grid(2, 10))

    def test_homogeneous_scaling(self, rng):
        model = two_state_general()
        w = RelaxedValueFunction(solve_relaxed(model, build_grid(2, 100), tol=1e-10).value)
        alphas = rng.uniform(0.05, 3.0, size=(20, 2))
        base = w.at_many(alphas)
        for kappa in (0.1, 1.0, 7.3):
            scaled = w.at_many(kappa * alphas)
            bound = 1e-10 * np.maximum(1.0, kappa * np.abs(base))
            assert np.all(np.abs(scaled - kappa * base) <= bound)

    def test_agrees_with_normalized_solve_on_simplex(self):
        model = two_state_general()
        grid = build_grid(2, 100)
        relaxed = solve_relaxed(model, grid, tol=1e-10)
        plain = solve_discounted(model, grid, tol=1e-10)
        np.testing.assert_array_equal(relaxed.value.values, plain.value.values)
        np.testing.assert_array_equal(relaxed.policy.actions, plain.policy.actions)

    def test_small_scale_ratio_independent_of_epsilon(self, rng):
        model = two_state_general()
        w = RelaxedValueFunction(solve_relaxed(model, build_grid(2, 80), tol=1e-10).value)
        alpha = rng.uniform(0.5, 1.5, size=2)
        eps = np.array([1e-3, 1e-2, 1e-1])
        ratios = w.at_many(eps[:, None] * alpha) / eps
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)

    def test_zero_vector_has_zero_value(self):
        model = two_state_general()
        w = RelaxedValueFunction(solve_relaxed(model, build_grid(2, 40)).value)
        assert w.at_many(np.zeros(2)).tolist() == [0.0]


class TestExtractThreshold:
    def grid_policy(self, actions):
        grid = build_grid(2, len(actions) - 1)
        return Policy(grid, np.array(actions, dtype=np.int32))

    def test_single_switch(self):
        policy = self.grid_policy([1, 1, 2, 2, 2])
        assert qd_threshold(policy) == pytest.approx((2 - 0.5) / 4)

    def test_two_switches_reports_count(self):
        reason = r"not a single stop-to-continue switch \(2 switches\)"
        with pytest.raises(StructureViolation, match=reason):
            qd_threshold(self.grid_policy([1, 2, 1, 2]))

    def test_wrong_direction_is_not_threshold(self):
        with pytest.raises(StructureViolation, match="not a single stop-to-continue switch"):
            qd_threshold(self.grid_policy([2, 2, 1, 1]))

    def test_requires_two_states(self):
        grid = build_grid(3, 4)
        policy = Policy(grid, np.ones(grid.num_points, dtype=np.int32))
        with pytest.raises(PreconditionFailed):
            qd_threshold(policy)


def test_three_state_solve_smoke():
    model = three_state_general()
    sol = solve_discounted(model, build_grid(3, 30), tol=1e-9)
    assert sol.log.converged
    assert set(np.unique(sol.policy.actions)) <= {1, 2}


def test_overflowing_values_stop_the_solve():
    """Costs near the float maximum overflow the second sweep's
    cost + rho * continuation; the solve stops instead of sweeping NaN."""
    huge = two_state_general(linear=[[1e308, 1e308], [1e308, 1e308]])
    with pytest.raises(PostconditionFailed, match="sweep 2 changed the values by inf"):
        solve_discounted(huge, build_grid(2, 10), max_iters=1000)


#: grid resolution per state count in the metamorphic relations
RELATION_RESOLUTION = {2: 30, 3: 8, 4: 4}


def q_gap(model, solution):
    """|Q(pi, 1) - Q(pi, 2)| at every grid point of a two-action solution."""
    tables = build_tables(model, solution.value.grid)
    q = [
        tables.cost[u - 1] + model.discount * continuation_values(tables, solution.value.values, u)
        for u in (1, 2)
    ]
    return np.abs(q[0] - q[1])


class TestMetamorphic:
    """Relations between two solves that need no oracle, on random
    two-action models with X <= 4 states and Y <= 3 observations."""

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_states=st.integers(2, 4))
    def test_duplicating_an_action_changes_nothing(self, seed, num_states):
        # the copy ties with its original everywhere, and ties go to the
        # smaller action; copying the action chosen at point 0 makes the
        # tie decide at least one point
        model = random_model(np.random.default_rng(seed), num_states, num_actions=2)
        grid = build_grid(num_states, RELATION_RESOLUTION[num_states])
        want = solve_discounted(model, grid, tol=1e-9)
        u = int(want.policy.actions[0]) - 1
        widened = dataclasses.replace(
            model,
            num_actions=3,
            num_observations=(*model.num_observations, model.num_observations[u]),
            transition=(*model.transition, model.transition[u]),
            observation=(*model.observation, model.observation[u]),
            linear_cost=(*model.linear_cost, model.linear_cost[u]),
        )
        got = solve_discounted(widened, grid, tol=1e-9)
        assert np.array_equal(got.value.values, want.value.values)
        assert np.array_equal(got.policy.actions, want.policy.actions)
        assert got.log.changes == want.log.changes

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_states=st.integers(2, 4))
    def test_doubling_every_cost_doubles_the_values(self, seed, num_states):
        # every sweep scales exactly by a power of two, so with tol = 0 both
        # solves run the same max_iters sweeps and stay bit for bit apart
        model = random_model(np.random.default_rng(seed), num_states, num_actions=2)
        doubled = dataclasses.replace(
            model, linear_cost=tuple(2.0 * np.asarray(c) for c in model.linear_cost)
        )
        grid = build_grid(num_states, RELATION_RESOLUTION[num_states])
        want = solve_discounted(model, grid, tol=0.0, max_iters=40)
        got = solve_discounted(doubled, grid, tol=0.0, max_iters=40)
        assert got.log.iterations == want.log.iterations == 40
        assert np.array_equal(got.value.values, 2.0 * want.value.values)
        assert np.array_equal(got.policy.actions, want.policy.actions)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_states=st.integers(2, 4))
    def test_shifting_the_costs_by_a_linear_function_shifts_the_values(self, seed, num_states):
        # c_u - (I - rho P_u) phi maps V to V - phi'pi and keeps every
        # argmin; grid interpolation is exact on linear functions, so the
        # grid fixed point inherits this, but the iterates from V = 0 do
        # not: compare converged solves, up to their tolerance
        rng = np.random.default_rng(seed)
        model = random_model(rng, num_states, num_actions=2)
        phi = rng.normal(size=num_states)
        shifted = dataclasses.replace(
            model,
            linear_cost=tuple(
                c - (np.eye(num_states) - model.discount * p) @ phi
                for c, p in zip(model.linear_cost, model.transition)
            ),
        )
        grid = build_grid(num_states, RELATION_RESOLUTION[num_states])
        want = solve_discounted(model, grid, tol=1e-12)
        got = solve_discounted(shifted, grid, tol=1e-12)
        expected = want.value.values - grid.points @ phi
        bound = 1e-9 * max(1.0, want.value.scale())
        assert np.max(np.abs(got.value.values - expected)) <= bound
        decided = q_gap(model, want) > 1e-9
        assert np.array_equal(got.policy.actions[decided], want.policy.actions[decided])

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), num_states=st.integers(2, 4), action=st.integers(1, 2)
    )
    def test_relabeling_one_actions_observations_changes_nothing(self, seed, num_states, action):
        # the backup sums over observations, so their order is a label;
        # the table's columns, and with them the summation order, move,
        # so the values agree to rounding, not bit for bit
        rng = np.random.default_rng(seed)
        model = random_model(rng, num_states, num_actions=2)
        order = rng.permutation(model.num_observations[action - 1])
        if np.array_equal(order, np.sort(order)):
            order = order[::-1]  # the identity would test nothing
        observation = list(model.observation)
        observation[action - 1] = observation[action - 1][:, order]
        relabeled = dataclasses.replace(model, observation=tuple(observation))
        grid = build_grid(num_states, RELATION_RESOLUTION[num_states])
        want = solve_discounted(model, grid, tol=1e-12)
        got = solve_discounted(relabeled, grid, tol=1e-12)
        np.testing.assert_allclose(got.value.values, want.value.values, rtol=1e-10, atol=0.0)
        decided = q_gap(model, want) > 1e-9
        assert np.array_equal(got.policy.actions[decided], want.policy.actions[decided])

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_states=st.integers(2, 4),
        entropy=st.booleans(),
        rhos=st.lists(st.floats(0.0, 0.99), min_size=2, max_size=2, unique=True),
    )
    def test_a_larger_discount_never_lowers_the_values(self, seed, num_states, entropy, rhos):
        # with nonnegative costs every iterate from V = 0 is nonnegative;
        # both discounts share one table of nonnegative weights, and
        # rounded products and sums are monotone, so after the same
        # sweeps V_rho <= V_rho' holds bit for bit, not just to rounding
        rng = np.random.default_rng(seed)
        model = random_model(rng, num_states, num_actions=2)
        if entropy:
            spec = NonlinearCostSpec("entropy", alpha=rng.uniform(0.0, 1.0, 2), beta=[0.0, 0.0])
            model = dataclasses.replace(model, nonlinear_cost=spec)
        grid = build_grid(num_states, RELATION_RESOLUTION[num_states])
        low, high = (
            solve_discounted(dataclasses.replace(model, discount=rho), grid, tol=0.0, max_iters=40)
            for rho in sorted(rhos)
        )
        assert low.log.iterations == high.log.iterations == 40
        assert np.all(low.value.values <= high.value.values)
