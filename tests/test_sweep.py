"""The vectorized backup sweep against a per-point loop and the
single-point ``oracles.bellman_backup``,
stacked solves against single ones, and threaded row parts against the
inline sweep."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpomdp import solver
from beliefpomdp.errors import PostconditionFailed
from beliefpomdp.grid import SimplexGrid, build_grid
from beliefpomdp.model import Belief, PomdpModel, fixture_path, load_model
from beliefpomdp.structure import random_a1a2_non_tp2_model
from beliefpomdp.solver import ValueFunction, build_tables, q_values
from conftest import qd_model, random_model, three_state_general, two_state_general
from oracles import bellman_backup, sweep_once

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


# ---------------------------------------------------------------------------
# stacked solves against one-at-a-time solves
# ---------------------------------------------------------------------------


def assert_stack_matches_single(models, grid, tol=1e-9, max_iters=100_000):
    """Tables, values, actions and change logs of a stack equal each model's own."""
    n = grid.num_points
    stacked = solver.stack_tables(models, grid)
    assert stacked.num_models == len(models)
    for b, model in enumerate(models):
        single = build_tables(model, grid)
        rows = slice(b * n, (b + 1) * n)
        ys, width = single.sigma.shape[1], single.vert_w.shape[2]
        np.testing.assert_array_equal(stacked.cost[:, rows], single.cost)
        np.testing.assert_array_equal(stacked.sigma[:, :ys, rows], single.sigma)
        np.testing.assert_array_equal(stacked.vert_w[:, rows, :width], single.vert_w)
        live = single.vert_w != 0.0
        np.testing.assert_array_equal(
            stacked.vert_idx[:, rows, :width][live], single.vert_idx[live] + b * n
        )
        assert not np.any(stacked.vert_w[:, rows, width:])  # padding
    results = solver.solve_stack(models, grid, tol, max_iters)
    assert len(results) == len(models)
    for model, got in zip(models, results):
        want = solver._solve(model, grid, tol, max_iters)
        assert np.array_equal(got.value.values, want.value.values)
        assert np.array_equal(got.policy.actions, want.policy.actions)
        assert got.log.changes == want.log.changes
        assert got.log.converged == want.log.converged
    return results


def probe_models(seed, count):
    rng = np.random.default_rng(seed)
    return [random_a1a2_non_tp2_model(rng, num_obs=2 + i % 2) for i in range(count)]


def by_stack_key(models):
    stacks = {}
    for model in models:
        stacks.setdefault(solver.stack_key(model), []).append(model)
    return list(stacks.values())


def test_stacks_of_probe_models_with_mixed_alphabets():
    stacks = by_stack_key(probe_models(3, 7))
    assert sorted(len(s) for s in stacks) == [3, 4]  # Y = 3 and Y = 2
    for stack in stacks:
        assert_stack_matches_single(stack, build_grid(2, 40))


def test_stacks_of_random_three_state_models():
    rng = np.random.default_rng(11)
    stacks = by_stack_key([random_model(rng, num_states=3, num_actions=2) for _ in range(8)])
    assert len(stacks) == 2 and min(map(len, stacks)) >= 2
    for stack in stacks:
        assert_stack_matches_single(stack, build_grid(3, 10))


def test_stopping_stack():
    models = [
        qd_model(),
        qd_model(persistence=0.8, delay=0.1),
        qd_model(persistence=0.95, b=[[0.9, 0.1], [0.4, 0.6]]),
    ]
    assert_stack_matches_single(models, build_grid(2, 40))


def test_stack_where_a_model_hits_max_iters():
    models = probe_models(5, 10)[::2]
    grid = build_grid(2, 40)
    sweeps = [solver._solve(m, grid, 1e-9, 100_000).log.iterations for m in models]
    cap = max(sweeps) - 1
    results = assert_stack_matches_single(models, grid, max_iters=cap)
    converged = [r.log.converged for r in results]
    assert any(converged) and not all(converged)
    assert all(r.log.iterations == cap for r in results if not r.log.converged)


def test_stack_of_one():
    assert_stack_matches_single([three_state_general()], build_grid(3, 10))


def test_blocks_spanning_several_models(monkeypatch):
    models = probe_models(9, 8)[1::2]
    grid = build_grid(2, 20)  # 21 points per model
    whole = solver.stack_tables(models, grid)
    monkeypatch.setattr(solver, "TABLE_BLOCK", 16)  # blocks start mid-model
    blocked = solver.stack_tables(models, grid)
    for name in ("cost", "sigma", "vert_idx", "vert_w"):
        np.testing.assert_array_equal(getattr(blocked, name), getattr(whole, name))


def test_stack_rejects_models_that_differ_in_key():
    grid = build_grid(2, 10)
    with pytest.raises(ValueError, match="share"):
        solver.stack_tables([two_state_general(discount=0.8), two_state_general()], grid)
    with pytest.raises(ValueError, match="share"):
        solver.stack_tables([two_state_general(discount=1.0), qd_model()], grid)
    y2, y3 = probe_models(1, 2)  # one width is zero-padded past the other
    with pytest.raises(ValueError, match="share"):
        solver.stack_tables([y2, y3], grid)


# ---------------------------------------------------------------------------
# row parts on several threads against the inline sweep
# ---------------------------------------------------------------------------


def iterate_with(monkeypatch, tables, cpus, tol=1e-9, max_iters=100_000):
    """_iterate with ``cpus`` usable CPUs: (its result, {first row of a
    part: the threads that ran that part})."""
    monkeypatch.setattr(solver, "usable_cpus", lambda: cpus)
    ran = {}
    part_call = solver._Part.__call__

    def recording_call(self, *args):
        ran.setdefault(self.start, set()).add(threading.get_ident())
        return part_call(self, *args)

    monkeypatch.setattr(solver._Part, "__call__", recording_call)
    try:
        return solver._iterate(tables, tol, max_iters), ran
    finally:
        monkeypatch.setattr(solver._Part, "__call__", part_call)


def assert_parts_ran(tables, cpus, ran):
    """The sweep had ``cpus`` parts and each ran: the first on the calling
    thread only, every other one off it.  The pool may hand several parts
    to one idle worker, so the count of distinct threads is not fixed."""
    rows = tables.cost.shape[1]
    assert solver.sweep_threads(rows) == cpus
    assert sorted(ran) == [rows * i // cpus for i in range(cpus)]
    caller = threading.get_ident()
    assert ran[0] == {caller}
    assert all(caller not in threads for start, threads in ran.items() if start != 0)


def assert_threads_match_inline(monkeypatch, tables, cpus, **kwargs):
    """Values, actions and change logs of a solve on ``cpus`` threads equal
    the inline solve's bit for bit; returns the logs."""
    (want_v, want_a, want_logs), inline = iterate_with(monkeypatch, tables, 1, **kwargs)
    (got_v, got_a, got_logs), ran = iterate_with(monkeypatch, tables, cpus, **kwargs)
    assert inline == {0: {threading.get_ident()}}
    assert_parts_ran(tables, cpus, ran)
    for b in range(tables.num_models):
        assert np.array_equal(got_v[b], want_v[b])
        assert np.array_equal(got_a[b], want_a[b])
        assert got_logs[b].changes == want_logs[b].changes
        assert got_logs[b].converged == want_logs[b].converged
    return got_logs


def test_sweep_threads_rule(monkeypatch):
    monkeypatch.setattr(solver, "usable_cpus", lambda: 4)
    block = solver.TABLE_BLOCK
    assert solver.sweep_threads(1) == solver.sweep_threads(block) == 1
    assert solver.sweep_threads(block + 1) == 2
    assert solver.sweep_threads(3 * block) == 3
    assert solver.sweep_threads(100 * block) == 4
    monkeypatch.setattr(solver, "usable_cpus", lambda: 1)
    assert solver.sweep_threads(100 * block) == 1
    assert solver.usable_cpus() == 1
    monkeypatch.undo()
    assert solver.usable_cpus() >= 1


@pytest.mark.parametrize("cpus", [2, 3])
def test_threaded_stack_matches_inline(monkeypatch, cpus):
    """Five 41-point models in 205 rows: with blocks of 16, parts of 102 or
    68 rows start mid-block and mid-model."""
    monkeypatch.setattr(solver, "TABLE_BLOCK", 16)
    tables = solver.stack_tables(probe_models(3, 10)[::2], build_grid(2, 40))
    assert tables.cost.shape[1] == 205
    assert_threads_match_inline(monkeypatch, tables, cpus)


@pytest.mark.parametrize("cpus", [2, 3])
def test_threaded_stack_where_a_model_hits_max_iters(monkeypatch, cpus):
    models = probe_models(5, 10)[::2]
    grid = build_grid(2, 40)
    cap = max(solver._solve(m, grid, 1e-9, 100_000).log.iterations for m in models) - 1
    monkeypatch.setattr(solver, "TABLE_BLOCK", 16)
    tables = solver.stack_tables(models, grid)
    logs = assert_threads_match_inline(monkeypatch, tables, cpus, max_iters=cap)
    converged = [log.converged for log in logs]
    assert any(converged) and not all(converged)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize(
    "model", [duplicate_actions(), qd_model()], ids=["ties", "stopping"]
)
def test_threaded_single_models_match_inline(monkeypatch, cpus, model):
    """Every Q of the tie model ties, so every row must pick action 1; the
    stopping model's stop action has no continuation."""
    monkeypatch.setattr(solver, "TABLE_BLOCK", 7)
    grid = build_grid(model.num_states, RESOLUTION[model.num_states])
    tables = build_tables(model, grid)
    assert_threads_match_inline(monkeypatch, tables, cpus)
    if model.num_states == 3:
        (_, [actions], _), _ = iterate_with(monkeypatch, tables, cpus)
        assert np.all(actions == 1)


def test_threaded_sweep_once_matches_inline(monkeypatch):
    model = three_state_general()
    grid = build_grid(3, 10)
    tables = build_tables(model, grid)
    values = np.random.default_rng(4).normal(size=grid.num_points)
    want = sweep_once(tables, values)
    monkeypatch.setattr(solver, "TABLE_BLOCK", 5)
    monkeypatch.setattr(solver, "usable_cpus", lambda: 3)
    got = sweep_once(tables, values)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_overflow_on_a_pool_thread_stops_the_solve(monkeypatch):
    """40,001 rows sweep in two parts; the second part's overflow raises no
    warning on its pool thread, and the change it leaves stops the solve."""
    huge = two_state_general(linear=[[1e308, 1e308], [1e308, 1e308]])
    tables = build_tables(huge, build_grid(2, 40_000))
    with pytest.raises(PostconditionFailed, match="sweep 2 changed the values by inf"):
        iterate_with(monkeypatch, tables, 2, max_iters=1000)
    assert solver.sweep_threads(tables.cost.shape[1]) == 2


def test_no_thread_outlives_a_solve(monkeypatch):
    monkeypatch.setattr(solver, "TABLE_BLOCK", 16)
    tables = solver.stack_tables(probe_models(3, 10)[::2], build_grid(2, 40))
    before = threading.active_count()
    _, ran = iterate_with(monkeypatch, tables, 3)
    assert_parts_ran(tables, 3, ran)
    assert threading.active_count() == before


def test_vertex_outside_the_stack_raises_at_table_build(monkeypatch):
    grid = build_grid(2, 10)
    barycentric = SimplexGrid.barycentric

    def shifted(self, queries):
        idx, w = barycentric(self, queries)
        return idx + self.num_points, w

    monkeypatch.setattr(SimplexGrid, "barycentric", shifted)
    with pytest.raises(ValueError, match="outside the stacked rows"):
        build_tables(qd_model(), grid)
