"""The vectorized backup sweep against a per-point loop and bellman_backup."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpomdp import solver
from beliefpomdp.grid import build_grid
from beliefpomdp.model import Belief, PomdpModel, fixture_path, load_model
from beliefpomdp.solver import (
    ValueFunction,
    bellman_backup,
    build_tables,
    q_values,
    sweep_once,
)
from conftest import qd_model, random_model, three_state_general, two_state_general

FIXTURES = [
    "filter_vs_predictor",
    "increasing_cost",
    "linear_x3",
    "monotone_a123",
    "non_tp2_observation",
    "quickest_detection_x2",
    "quickest_detection_x3",
    "ultrametric_chain",
    "ultrametric_chain_x3",
]

#: small resolutions keep the per-point references fast
RESOLUTION = {2: 40, 3: 10, 4: 5}


def loop_sweep(tables, values):
    """Reference sweep: one scalar accumulation per point, action and vertex."""
    num_actions, num_points = tables.cost.shape
    out_values = np.empty(num_points)
    out_actions = np.empty(num_points, dtype=np.int64)
    for n in range(num_points):
        best, best_u = 0.0, 0
        for u in range(num_actions):
            q = tables.cost[u, n]
            if tables.has_continuation[u]:
                cont = 0.0
                for k in range(tables.vert_idx.shape[2]):
                    cont += tables.vert_w[u, n, k] * values[tables.vert_idx[u, n, k]]
                q += tables.discount * cont
            if u == 0 or q < best:
                best, best_u = q, u + 1
        out_values[n] = best
        out_actions[n] = best_u
    return out_values, out_actions


def check_against_references(model, seed=0):
    grid = build_grid(model.num_states, RESOLUTION[model.num_states])
    tables = build_tables(model, grid)
    values = np.random.default_rng(seed).normal(size=grid.num_points)

    new_values, actions = sweep_once(tables, values)
    ref_values, ref_actions = loop_sweep(tables, values)
    np.testing.assert_allclose(new_values, ref_values, atol=1e-13, rtol=0)
    np.testing.assert_array_equal(actions, ref_actions)

    vf = ValueFunction(grid, values)
    q = q_values(tables, values)
    for n in range(grid.num_points):
        qs, best, action = bellman_backup(model, vf, Belief(grid.points[n]))
        np.testing.assert_allclose(q[:, n], qs, atol=1e-12, rtol=0)
        assert new_values[n] == pytest.approx(best, abs=1e-12)
        gap = np.sort(qs)[1] - best if qs.size > 1 else np.inf
        if gap > 1e-12:  # a closer tie may legitimately resolve either way
            assert actions[n] == action


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_sweeps_match_references(name):
    check_against_references(load_model(fixture_path(f"{name}.json")))


def duplicate_actions():
    """Two identical actions: every Q ties, and the sweep must pick action 1."""
    rng = np.random.default_rng(10)
    p = rng.dirichlet(np.ones(3), size=3)
    b = rng.dirichlet(np.ones(2), size=3)
    c = rng.uniform(size=3)
    return PomdpModel(
        num_states=3,
        num_actions=2,
        num_observations=(2, 2),
        transition=(p, p),
        observation=(b, b),
        linear_cost=(c, c),
        discount=0.9,
    )


@pytest.mark.parametrize(
    "model",
    [
        random_model(np.random.default_rng(7), num_states=2),
        random_model(np.random.default_rng(8), num_states=3),
        random_model(np.random.default_rng(9), num_states=4, num_actions=2),
        qd_model(),
        two_state_general(),
        three_state_general(),
        duplicate_actions(),
    ],
    ids=["random2", "random3", "random4", "stopping", "two_state", "three_state", "ties"],
)
def test_conftest_model_sweeps_match_references(model):
    check_against_references(model)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_random_models_match_references(seed):
    rng = np.random.default_rng(seed)
    check_against_references(random_model(rng), seed=seed)


def test_full_solve_tracks_the_loop_reference():
    model = qd_model()
    grid = build_grid(2, 120)
    tables = build_tables(model, grid)
    v_new = np.zeros(grid.num_points)
    v_ref = np.zeros(grid.num_points)
    for _ in range(60):
        v_new, a_new = sweep_once(tables, v_new)
        v_ref, a_ref = loop_sweep(tables, v_ref)
    np.testing.assert_allclose(v_new, v_ref, atol=1e-12, rtol=0)
    np.testing.assert_array_equal(a_new, a_ref)


def test_table_layout():
    model = three_state_general()  # alphabets of 2 and 3 observations
    grid = build_grid(3, 10)
    tables = build_tables(model, grid)
    n, x = grid.num_points, model.num_states
    assert tables.vert_idx.dtype == np.intp
    assert tables.vert_idx.shape == tables.vert_w.shape == (2, n, 3 * x)
    # sigma-weighted footprints: each action's weights sum to sum_y sigma = 1
    np.testing.assert_allclose(tables.vert_w.sum(axis=2), 1.0, atol=1e-12)
    # action 1 has two observations, so its third block is padding
    assert not np.any(tables.vert_w[0, :, 2 * x :])
    assert not np.any(tables.vert_idx[0, :, 2 * x :])


def test_stop_action_has_no_continuation():
    tables = build_tables(qd_model(), build_grid(2, 40))
    assert tables.has_continuation.tolist() == [False, True]
    assert not np.any(tables.vert_w[0])
    _, actions = sweep_once(tables, np.zeros(tables.cost.shape[1]))
    assert set(np.unique(actions)) <= {1, 2}


def test_blocked_build_matches_a_single_block(monkeypatch):
    model = three_state_general()
    grid = build_grid(3, 10)
    whole = build_tables(model, grid)
    monkeypatch.setattr(solver, "TABLE_BLOCK", 7)  # 66 points, ragged last block
    blocked = build_tables(model, grid)
    for name in ("cost", "sigma", "vert_idx", "vert_w"):
        np.testing.assert_array_equal(getattr(blocked, name), getattr(whole, name))
