"""Order predicates, structural verifiers, Blackwell dominance, roots."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefpomdp import cli, solver, structure
from beliefpomdp.costs import NonlinearCostSpec
from beliefpomdp.errors import NegativeEigenvalue, PreconditionFailed
from beliefpomdp.grid import build_grid
from beliefpomdp.grid import SimplexGrid
from beliefpomdp.model import Belief, PomdpModel, fixture_path, load_model, unit_belief
from beliefpomdp.reports import make_report
from beliefpomdp.solver import (
    Policy,
    RelaxedValueFunction,
    SolveResult,
    ValueFunction,
    solve_discounted,
    solve_relaxed,
    solve_stopping,
)
from beliefpomdp.structure import (
    _mlr_direction,
    blackwell_factorize,
    conjecture_probe,
    fosd_decreasing_cost,
    is_tp2,
    is_ultrametric,
    matrix_root,
    random_a1a2_non_tp2_model,
    verify_concavity,
    verify_homogeneity,
    verify_mlr_monotone_value,
    verify_myopic_bound,
    verify_stopping_set_convex,
)
from conftest import qd_model, random_model, three_state_general, two_state_general
from oracles import fosd_geq, one_shot_concavity_pairs, one_shot_mlr_pairs


def mlr_direction(rows_a, rows_b):
    """``_mlr_direction`` of row pairs (rows_a[k], rows_b[k]): +1 where the
    first dominates, -1 where only the second does, 0 where incomparable."""
    rows_a, rows_b = np.atleast_2d(rows_a), np.atleast_2d(rows_b)
    k = np.arange(len(rows_a))
    return _mlr_direction(np.concatenate([rows_a, rows_b]), k, k + len(rows_a))


@functools.cache
def chain_x3_solution():
    """``ultrametric_chain_x3`` solved at grid 150, as certify's verify does."""
    model = load_model(fixture_path("ultrametric_chain_x3.json"))
    return solve_discounted(model, build_grid(3, 150), tol=solver.DEFAULT_TOL)


def ties(gap):
    """Which gaps tie with the largest for a grid-pair witness."""
    worst = gap.max()
    return gap >= worst - structure.MLR_TIE_RTOL * max(1.0, abs(worst))


def witness_indices(grid, report, names):
    """The grid indices of the witness points named ``names``."""
    return tuple(
        grid.index_of(np.rint(np.array([report.witness[name]]) * grid.resolution))[0]
        for name in names
    )


def probe_one_at_a_time(model_generator, num_models, resolution):
    """Reference probe: solve and check each model on its own, in order."""
    for index in range(num_models):
        model = model_generator(index)
        grid = build_grid(model.num_states, resolution)
        result = solve_discounted(
            model, grid, tol=structure.PROBE_SOLVER_TOL, max_iters=solver.DEFAULT_MAX_ITERS
        )
        tolerance = structure.PROBE_TOLERANCE_SCALE * max(1.0, result.value.scale())
        report = verify_mlr_monotone_value(result.value, tolerance)
        if not report.holds:
            return {
                "num_models": num_models,
                "counterexample_found": True,
                "model_index": index,
                "model": model.to_dict(),
                "report": report,
            }
    return {"num_models": num_models, "counterexample_found": False}


class TestTp2:
    def test_identity_is_tp2(self):
        assert is_tp2(np.eye(3)).holds

    def test_informative_two_by_two(self):
        assert is_tp2([[0.9, 0.1], [0.2, 0.8]]).holds

    def test_reversed_matrix_fails_with_witness(self):
        report = is_tp2([[0.1, 0.9], [0.8, 0.2]])
        assert not report.holds
        assert report.worst_violation == pytest.approx(0.72 - 0.02)
        assert report.witness == {"rows": [1, 2], "cols": [1, 2]}

    def test_nonadjacent_minors_checked(self):
        # a zero column makes every adjacent minor vanish while the
        # columns (1, 3) minor is negative
        m = np.array([[0.2, 0.0, 0.8], [0.5, 0.0, 0.5]])
        assert is_tp2(m[:, :2]).holds
        assert is_tp2(m[:, 1:]).holds
        report = is_tp2(m)
        assert not report.holds
        assert report.witness["cols"] == [1, 3]

    @pytest.mark.parametrize("matrix", [[[1.0], [1.0], [1.0]], [[0.2, 0.8]]])
    def test_no_minor_reports_zero_over_zero_samples(self, matrix):
        report = is_tp2(matrix)
        assert (report.worst_violation, report.samples, report.holds) == (0.0, 0, True)
        assert report.witness is None

    def test_column_permutation_search_for_two_rows(self, rng):
        # two rows become TP2 once the columns are sorted by likelihood ratio
        for _ in range(25):
            b = rng.dirichlet(np.ones(3), size=2)
            reordered = b[:, np.argsort(b[1] / b[0])]
            assert is_tp2(reordered).holds


class TestMlrOrder:
    """The MLR order as ``verify`` and the conjecture probe decide it."""

    def test_top_vertex_dominates_everything(self, rng):
        e_top = np.tile(unit_belief(3, 3).probs, (50, 1))
        pis = rng.dirichlet(np.ones(3), size=50)
        assert np.all(mlr_direction(e_top, pis) == 1)
        # pi dominates e_top back only where it is e_top
        assert np.all((mlr_direction(pis, e_top) != 1) | (pis[:, 2] == 1.0))

    def test_bottom_vertex_is_dominated(self, rng):
        e_bot = np.tile(unit_belief(1, 3).probs, (50, 1))
        assert np.all(mlr_direction(rng.dirichlet(np.ones(3), size=50), e_bot) == 1)

    def test_two_state_example(self):
        assert mlr_direction([0.5, 0.5], [0.8, 0.2]).tolist() == [1]
        assert mlr_direction([0.8, 0.2], [0.5, 0.5]).tolist() == [-1]

    def test_three_state_incomparable_pair(self):
        a, b = [0.6, 0.1, 0.3], [0.3, 0.5, 0.2]
        assert mlr_direction(a, b).tolist() == [0]
        assert mlr_direction(b, a).tolist() == [0]

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_reflexive_and_implies_fosd(self, seed):
        rng = np.random.default_rng(seed)
        x = int(rng.integers(2, 5))
        a = Belief(rng.dirichlet(np.ones(x)))
        b = Belief(rng.dirichlet(np.ones(x)))
        assert mlr_direction(a.probs, a.probs).tolist() == [1]
        if mlr_direction(a.probs, b.probs)[0] == 1:
            assert fosd_geq(a, b)

    def test_transitive_on_positive_beliefs(self, rng):
        found = 0
        while found < 20:
            a, b, c = rng.dirichlet(np.ones(3), size=3)
            if mlr_direction([a, b], [b, c]).tolist() == [1, 1]:
                assert mlr_direction(a, c).tolist() == [1]
                found += 1


class TestFosdDecreasingCost:
    def test_decreasing_linear_cost_holds(self):
        model = two_state_general(linear=[[3.0, 1.0], [2.0, 0.5]])
        for u in (1, 2):
            assert fosd_decreasing_cost(model, u).holds

    def test_increasing_cost_fails_with_witness(self):
        model = two_state_general(linear=[[1.0, 3.0], [0.5, 2.0]])
        report = fosd_decreasing_cost(model, 1)
        assert not report.holds
        assert report.witness is not None
        hi = np.array(report.witness["pi_high"])
        lo = np.array(report.witness["pi_low"])
        assert fosd_geq(hi, lo)

    def test_entropy_term_reported_not_assumed(self, monkeypatch):
        spec = NonlinearCostSpec("entropy", alpha=[1.0, 1.0], beta=[0.0, 0.0])
        model = two_state_general(
            nonlinear=spec, linear=[[3.0, 1.0], [2.0, 0.5]]
        )
        monkeypatch.setattr(structure, "FOSD_SAMPLES", 2000)
        report = fosd_decreasing_cost(model, 1)
        assert report.samples == 2000  # outcome recorded per fixture


class TestVerifyConcavity:
    def test_myopic_entropy_value_is_concave(self):
        spec = NonlinearCostSpec("entropy", alpha=[1.0, 1.0], beta=[0.0, 0.0])
        model = two_state_general(
            nonlinear=spec, linear=[[0.0, 0.0], [0.0, 0.0]], discount=0.0
        )
        sol = solve_discounted(model, build_grid(2, 100), tol=1e-12)
        assert verify_concavity(sol.value, tolerance=1e-9).holds

    @staticmethod
    def negated_entropy_value(resolution):
        """The convex control: the negated entropy, solved myopically."""
        spec = NonlinearCostSpec(
            "entropy", alpha=[-1.0, -1.0], beta=[0.0, 0.0], validate=False
        )
        model = two_state_general(
            nonlinear=spec, linear=[[0.0, 0.0], [0.0, 0.0]], discount=0.0
        )
        return solve_discounted(model, build_grid(2, resolution), tol=1e-12).value

    def test_negated_entropy_control_fails(self):
        report = verify_concavity(self.negated_entropy_value(100), tolerance=1e-9)
        assert not report.holds
        assert report.worst_violation > 1e-3

    def test_odd_resolution(self):
        """The parity rule finds on-grid midpoints at any resolution."""
        sol = solve_discounted(two_state_general(), build_grid(2, 25))
        report = verify_concavity(sol.value, 1e-9)
        assert report.holds and report.samples == structure.CONCAVITY_PAIRS
        report = verify_concavity(self.negated_entropy_value(25), 1e-9)
        assert not report.holds and report.worst_violation > 0.5

    def test_grid_without_on_grid_midpoints_checks_nothing(self):
        grid = build_grid(2, 1)
        report = verify_concavity(ValueFunction(grid, np.array([0.0, 1.0])), 1e-9)
        assert report.holds and report.samples == 0 and report.witness is None

    @pytest.mark.parametrize("x", [2, 3, 4])
    def test_grid_one_reports_before_any_draw(self, monkeypatch, x):
        """Grid 1 is the vertices, and no two share every coordinate parity."""

        def no_draws(n, seed):
            raise AssertionError("grid 1 drew pairs")

        monkeypatch.setattr(structure, "_sampled_pairs", no_draws)
        grid = build_grid(x, 1)
        report = verify_concavity(ValueFunction(grid, np.arange(float(x))), 1e-9)
        assert report.holds
        assert (report.worst_violation, report.samples, report.witness) == (0.0, 0, None)

    @pytest.mark.parametrize("seed", range(10))
    def test_no_point_is_paired_with_itself(self, seed):
        """A pair (a, a) has gap 0 exactly, which would floor the worst at 0."""
        sol = chain_x3_solution()
        report = verify_concavity(sol.value, 1e-6 * sol.value.scale(), seed=seed)
        assert report.witness["pi1"] != report.witness["pi2"]
        assert report.worst_violation < 0.0

    @pytest.mark.parametrize("block", [5, 1000, 8192])
    def test_report_matches_the_one_shot_pairs(self, monkeypatch, block):
        sol = chain_x3_solution()
        v = sol.value.values
        a, b, mid = one_shot_concavity_pairs(sol.value.grid, seed=4)
        monkeypatch.setattr(structure, "PAIR_BLOCK", block)
        report = verify_concavity(sol.value, 1e-9, seed=4)
        assert report.samples == a.size == structure.CONCAVITY_PAIRS
        assert report.worst_violation == float(np.max(0.5 * v[a] + 0.5 * v[b] - v[mid]))

    @pytest.mark.parametrize("block", [structure.PAIR_BLOCK, 7])
    @pytest.mark.parametrize(
        "slope,rtol",
        [((0.9, 0.5, 0.2), structure.MLR_TIE_RTOL), ((0, 0, 0), 0.0)],
        ids=["roundoff-ties", "exact-ties"],
    )
    def test_witness_is_the_smallest_tied_pair(self, monkeypatch, block, slope, rtol):
        """A linear value ties every pair up to roundoff and a zero value
        exactly; at a tie tolerance of 0 the floor is the worst itself,
        which still ties."""
        grid = build_grid(3, 12)
        value = ValueFunction(grid, grid.points @ np.array(slope, dtype=float))
        monkeypatch.setattr(structure, "MLR_TIE_RTOL", rtol)
        a, b, mid = one_shot_concavity_pairs(grid, seed=0)
        tied = ties(0.5 * value.values[a] + 0.5 * value.values[b] - value.values[mid])
        assert tied.sum() > 1
        smallest = min(zip(a[tied].tolist(), b[tied].tolist()))
        monkeypatch.setattr(structure, "PAIR_BLOCK", block)
        report = verify_concavity(value, 1e-9)
        assert witness_indices(grid, report, ("pi1", "pi2")) == smallest


class TestStoppingSetConvex:
    def make_policy(self, actions):
        grid = build_grid(2, len(actions) - 1)
        return Policy(grid, np.array(actions, dtype=np.int32))

    @pytest.mark.parametrize("actions", [[2, 2, 2, 2], [1, 2, 2, 2], [1, 1, 2, 2]])
    def test_requires_even_resolution(self, actions):
        """An odd grid raises before the stop points are counted, so a
        policy with fewer than two of them raises too."""
        with pytest.raises(PreconditionFailed, match="even grid resolution"):
            verify_stopping_set_convex(self.make_policy(actions))

    def test_interval_policy_is_convex(self):
        report = verify_stopping_set_convex(self.make_policy([1, 1, 2, 2, 2]))
        assert report.holds

    def test_split_stop_region_fails(self):
        report = verify_stopping_set_convex(self.make_policy([1, 2, 1]))
        assert not report.holds
        assert report.witness == {"pi1": [1.0, 0.0], "pi2": [0.0, 1.0]}

    @pytest.mark.parametrize("actions", [[2, 2, 2], [2, 1, 2], [1, 2, 2]])
    def test_fewer_than_two_stop_points_check_nothing(self, actions):
        report = verify_stopping_set_convex(self.make_policy(actions))
        assert report.holds
        assert (report.worst_violation, report.samples, report.witness) == (0.0, 0, None)
        assert report.details["stop_points"] == sum(a == 1 for a in actions)

    def test_holding_report_names_the_smallest_pair(self):
        # of the three stop points only the two vertices share every parity
        report = verify_stopping_set_convex(self.make_policy([1, 1, 1, 2, 2]))
        assert report.holds
        assert report.samples == 1
        assert report.witness == {"pi1": [1.0, 0.0], "pi2": [0.5, 0.5]}

    def test_three_state_quickest_detection(self):
        model = PomdpModel(
            num_states=3,
            num_actions=2,
            num_observations=(3, 3),
            transition=([[1.0, 0.0, 0.0], [0.15, 0.8, 0.05], [0.05, 0.15, 0.8]],) * 2,
            observation=([[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.2, 0.7]],) * 2,
            linear_cost=([0.0, 1.0, 1.0], [0.05, 0.0, 0.0]),
            discount=1.0,
            model_kind="stopping_time",
        )
        sol = solve_stopping(model, build_grid(3, 60), tol=1e-9)
        assert sol.log.converged
        report = verify_stopping_set_convex(sol.policy)
        assert report.holds
        assert report.details["stop_points"] > 0

    def test_all_stop_policy_checks_every_even_pair(self):
        grid = build_grid(3, 60)  # 1,891 stop points, 1,786,995 pairs: 219 blocks
        policy = Policy(grid, np.ones(grid.num_points, dtype=np.int32))
        tracemalloc.start()
        try:
            report = verify_stopping_set_convex(policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.holds
        # a pair has an on-grid midpoint iff both points share every coordinate parity
        _, class_sizes = np.unique(grid.coords % 2, axis=0, return_counts=True)
        assert report.samples == int((class_sizes * (class_sizes - 1) // 2).sum())
        # every gap ties at 0, and keeping each tied pair's gap and key
        # would take 16 bytes a pair
        assert peak < 8 * report.samples

    def test_blocks_match_materialized_pair_scan(self, monkeypatch):
        grid = build_grid(3, 8)
        convex = grid.coords[:, 0] >= 4  # 15 points
        # plus the last grid point: the smallest violating pair, coordinates
        # (6, 2, 0) and (0, 0, 8), is pair 41 of the pair order, many blocks
        # in at 5 and at 7
        split = convex | (grid.coords[:, 2] == 8)
        for stop in (convex, split):
            policy = Policy(grid, np.where(stop, 1, 2).astype(np.int32))
            samples, witness = materialized_convexity_scan(policy)
            for block in (5, 7, 8192):
                monkeypatch.setattr(structure, "PAIR_BLOCK", block)
                report = verify_stopping_set_convex(policy)
                assert report.holds is (stop is convex)
                assert report.worst_violation == (0.0 if stop is convex else 1.0)
                assert (report.samples, report.witness) == (samples, witness)
                assert report.details["stop_points"] == int(stop.sum())


def materialized_convexity_scan(policy):
    """Reference: every stop pair in np.triu_indices order at once.  The
    number with an on-grid midpoint, and the first of those whose midpoint
    continues, else the first of those (None when there are none)."""
    grid = policy.grid
    stop = np.flatnonzero(policy.actions == 1)
    i, j = np.triu_indices(stop.size, k=1)
    a, b = stop[i], stop[j]
    even = ~np.any((grid.coords[a] + grid.coords[b]) % 2, axis=1)
    a, b = a[even], b[even]
    if a.size == 0:
        return 0, None
    mid = grid.index_of((grid.coords[a] + grid.coords[b]) // 2)
    continues = np.flatnonzero(policy.actions[mid] != 1)
    k = continues[0] if continues.size else 0
    return a.size, {"pi1": grid.points[a[k]].tolist(), "pi2": grid.points[b[k]].tolist()}


def homogeneity_one_point_at_a_time(model, value, kappas, num_samples=50, seed=0):
    """The homogeneity report from one lookup per orthant point."""
    w = RelaxedValueFunction(value)
    scale = max(1.0, w.scale())
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.05, 2.0, size=(num_samples, model.num_states))
    worst, witness = -np.inf, None
    for alpha in alphas:
        base = w.at_many(alpha)[0]
        for kappa in kappas:
            rel = abs(w.at_many(kappa * alpha)[0] - kappa * base) / max(1.0, kappa * scale)
            if rel > worst:
                worst, witness = rel, {"alpha": alpha.tolist(), "kappa": float(kappa)}
    return make_report(
        "positive_homogeneity", worst, 1e-10, witness=witness, samples=num_samples * len(kappas)
    )


class TestHomogeneity:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("fixture", ["linear_x3", "monotone_a123"])
    def test_batched_lookups_match_one_point_at_a_time(self, monkeypatch, fixture, seed):
        model = load_model(fixture_path(f"{fixture}.json"))
        value = solve_relaxed(model, build_grid(model.num_states, 30), tol=1e-9).value
        kappas = (0.001, 0.5, 1.0, 2.0, 7.3)
        monkeypatch.setattr(structure, "HOMOGENEITY_SCALES", kappas)
        expected = homogeneity_one_point_at_a_time(model, value, kappas, seed=seed)
        lookups = []
        barycentric = SimplexGrid.barycentric

        def counting(grid, queries):
            lookups.append(len(queries))
            return barycentric(grid, queries)

        monkeypatch.setattr(SimplexGrid, "barycentric", counting)
        report = verify_homogeneity(model, value, seed=seed)
        assert report == expected
        assert lookups == [50] * (1 + len(kappas))  # the alphas, then one per kappa

    def test_relaxed_at_many_matches_at(self, rng):
        model = load_model(fixture_path("linear_x3.json"))
        w = RelaxedValueFunction(solve_relaxed(model, build_grid(3, 20), tol=1e-9).value)
        alphas = rng.uniform(0.0, 3.0, size=(40, 3))
        alphas[7] = 0.0
        # W(alpha) = |alpha|_1 V(alpha / |alpha|_1), one point at a time
        expected = [a.sum() * w.base.at(a / a.sum()) if a.sum() > 0 else 0.0 for a in alphas]
        assert w.at_many(alphas).tolist() == expected
        assert expected[7] == 0.0

    def test_linear_fixture_passes(self, monkeypatch):
        model = two_state_general()
        relaxed = solve_relaxed(model, build_grid(2, 60), tol=1e-9)
        monkeypatch.setattr(structure, "HOMOGENEITY_SCALES", (1.0, 2.0))
        report = verify_homogeneity(model, relaxed.value)
        assert report.holds
        assert report.worst_violation < 1e-12

    def test_kappa_one_is_exact(self, monkeypatch):
        model = two_state_general()
        relaxed = solve_relaxed(model, build_grid(2, 40), tol=1e-9)
        monkeypatch.setattr(structure, "HOMOGENEITY_SCALES", (1.0,))
        report = verify_homogeneity(model, relaxed.value)
        assert report.worst_violation == 0.0

    def test_rejects_nonlinear_cost(self):
        """Extending a nonlinear-cost value is homogeneous by construction, so
        the report would pass vacuously; the verifier refuses the model."""
        model = two_state_general(
            nonlinear=NonlinearCostSpec("entropy", alpha=[1.0, 1.0], beta=[0.0, 0.0])
        )
        value = solve_discounted(model, build_grid(2, 20), tol=1e-9).value
        with pytest.raises(PreconditionFailed, match="linear costs"):
            verify_homogeneity(model, value)

    def test_rejects_stopping_model(self):
        model = qd_model()
        value = solve_stopping(model, build_grid(2, 20), tol=1e-9).value
        with pytest.raises(PreconditionFailed, match="discounted"):
            verify_homogeneity(model, value)


class TestMlrMonotoneValue:
    def test_a1_a2_a3_fixture_is_monotone(self):
        model = two_state_general()  # TP2 P and B, decreasing costs
        sol = solve_discounted(model, build_grid(2, 200), tol=1e-10)
        tolerance = 1e-6 * sol.value.scale()
        report = verify_mlr_monotone_value(sol.value, tolerance)
        assert report.holds

    def test_constant_cost_trivially_monotone(self):
        model = two_state_general(linear=[[0.7, 0.7], [0.7, 0.7]])
        sol = solve_discounted(model, build_grid(2, 100), tol=1e-10)
        report = verify_mlr_monotone_value(sol.value, 1e-9)
        assert report.holds

    def test_increasing_cost_control_fails_with_witness(self):
        model = two_state_general(linear=[[0.2, 1.0], [0.1, 0.8]])
        sol = solve_discounted(model, build_grid(2, 200), tol=1e-10)
        report = verify_mlr_monotone_value(sol.value, 1e-6 * sol.value.scale())
        assert not report.holds
        hi = np.array(report.witness["pi_high"])
        lo = np.array(report.witness["pi_low"])
        assert mlr_direction(hi, lo).tolist() == [1]

    @pytest.mark.parametrize("max_pairs", [structure.PAIR_CAP, 5_000])
    @pytest.mark.parametrize("tied", [False, True])
    def test_blocked_pairs_match_one_block(self, monkeypatch, max_pairs, tied):
        monkeypatch.setattr(structure, "PAIR_CAP", max_pairs)
        grid = build_grid(3, 20)
        if tied:  # every comparable pair has gap 0: the smallest (hi, lo) is the witness
            value = ValueFunction(grid, np.zeros(grid.num_points))
        else:
            value = solve_discounted(three_state_general(), grid, tol=1e-10).value
        whole = verify_mlr_monotone_value(value, 1e-9, seed=3)
        monkeypatch.setattr(structure, "PAIR_BLOCK", 7)
        blocked = verify_mlr_monotone_value(value, 1e-9, seed=3)
        assert whole.samples > 7
        assert blocked == whole

    @staticmethod
    def tied_pairs(value, pairs):
        """(gap, hi, lo) over all pairs; which tie with the worst; argmax's pick."""
        hi = np.concatenate([h for h, _ in pairs])
        lo = np.concatenate([l for _, l in pairs])
        gap = value.values[hi] - value.values[lo]
        first = int(np.argmax(gap))
        return hi, lo, ties(gap), (int(hi[first]), int(lo[first]))

    @pytest.mark.parametrize("block", [structure.PAIR_BLOCK, 7])
    def test_witness_is_the_smallest_tied_pair(self, monkeypatch, block):
        # a linear value ties every adjacent pair up to roundoff
        grid = build_grid(3, 12)
        value = ValueFunction(grid, grid.points @ np.array([0.9, 0.5, 0.2]))
        pairs = list(structure._mlr_pairs(grid, seed=0))
        hi, lo, tied, _ = self.tied_pairs(value, pairs)
        assert tied.sum() > 1
        smallest = min(zip(hi[tied].tolist(), lo[tied].tolist()))
        monkeypatch.setattr(structure, "PAIR_BLOCK", block)
        report = verify_mlr_monotone_value(value, 1e-9)
        assert witness_indices(grid, report, ("pi_high", "pi_low")) == smallest
        assert report.worst_violation == pytest.approx(-0.3 / 12, rel=1e-12)

    def test_last_bit_perturbation_keeps_the_witness(self):
        grid = build_grid(2, 40)
        value = ValueFunction(grid, grid.points @ np.array([0.9, 0.2]))
        pairs = list(structure._mlr_pairs(grid, seed=0))
        hi, lo, tied, first = self.tied_pairs(value, pairs)
        before = verify_mlr_monotone_value(value, 1e-9)
        # raise the last tied pair's high value bit by bit until argmax picks it
        last = (int(hi[tied][-1]), int(lo[tied][-1]))
        values = value.values.copy()
        for _ in range(64):
            values[last[0]] = np.nextafter(values[last[0]], np.inf)
            nudged = ValueFunction(grid, values)
            if self.tied_pairs(nudged, pairs)[3] == last:
                break
        assert self.tied_pairs(nudged, pairs)[3] != first  # argmax's witness moved
        after = verify_mlr_monotone_value(nudged, 1e-9)
        assert after.witness == before.witness
        assert after.worst_violation == pytest.approx(before.worst_violation, rel=1e-12)

    def test_pair_sampling_cap(self, monkeypatch):
        model = two_state_general()
        sol = solve_discounted(model, build_grid(2, 200), tol=1e-8)
        monkeypatch.setattr(structure, "PAIR_CAP", 500)
        capped = verify_mlr_monotone_value(sol.value, 1e-6)
        assert 0 < capped.samples <= 500

    @given(
        n=st.integers(2, 2**40),
        cap=st.integers(1, 3_000),
        block=st.integers(1, 700),
        seed=st.integers(0, 2**32),
    )
    @example(n=5_151, cap=1_000, block=7, seed=0)  # the block does not divide the cap
    @example(n=5_151, cap=1_000, block=1 << 16, seed=1)  # the cap is below one block
    @example(n=2**31 + 5, cap=1_000, block=100, seed=2)
    @example(n=2, cap=1, block=7, seed=3)  # a cap of 1
    @example(n=2, cap=1, block=1, seed=3)
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_sampled_pairs_match_the_one_shot_draw(self, n, cap, block, seed):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(structure, "PAIR_CAP", cap)
            patch.setattr(structure, "PAIR_BLOCK", block)
            blocks = list(structure._sampled_pairs(n, seed))
        assert all(a.size == b.size <= block for a, b in blocks)
        a, b = one_shot_mlr_pairs(n, seed, cap)
        assert np.array_equal(np.concatenate([a for a, _ in blocks]), a)
        assert np.array_equal(np.concatenate([b for _, b in blocks]), b)

    @staticmethod
    def pair_stream_peak(grid, cap):
        """tracemalloc peak, in bytes, of streaming ``_mlr_pairs`` at PAIR_CAP = cap."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(structure, "PAIR_CAP", cap)
            tracemalloc.start()
            try:
                for _ in structure._mlr_pairs(grid, seed=0):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_sampled_pair_memory_does_not_grow_with_the_cap(self):
        grid = build_grid(3, 100)  # 13,263,825 pairs: the sampled branch
        assert grid.num_points * (grid.num_points - 1) // 2 > 2_000_000
        peak = self.pair_stream_peak(grid, 1_000_000)
        assert peak < 10e6
        assert self.pair_stream_peak(grid, 2_000_000) <= 1.1 * peak


class TestConjectureProbe:
    def test_zero_models_is_vacuous(self):
        summary = conjecture_probe(lambda i: None, 0)
        assert summary == {"num_models": 0, "counterexample_found": False}

    def test_small_stream_finds_nothing(self):
        streams = np.random.SeedSequence(42).spawn(5)

        def gen(i):
            return random_a1a2_non_tp2_model(np.random.default_rng(streams[i]))

        summary = conjecture_probe(gen, 5, resolution=100)
        assert not summary["counterexample_found"]

    def test_generated_models_satisfy_a1_a2_not_a3(self, rng):
        for _ in range(10):
            model = random_a1a2_non_tp2_model(rng)
            for u in (1, 2):
                assert is_tp2(model.transition[u - 1]).holds
                assert not is_tp2(model.observation[u - 1]).holds
                assert fosd_decreasing_cost(model, u).holds

    def test_first_of_two_counterexamples_is_reported(self):
        tp2 = two_state_general(discount=0.8)
        bad = load_model(fixture_path("increasing_cost.json"))
        assert structure.stack_key(bad) == structure.stack_key(tp2)
        stream = [bad if i in (3, 7) else tp2 for i in range(10)]
        sizes = {}
        summary = conjecture_probe(stream.__getitem__, 10, resolution=100, sizes=sizes)
        assert summary["counterexample_found"] and summary["model_index"] == 3
        grid = build_grid(2, 100)
        alone = solve_discounted(bad, grid, tol=structure.PROBE_SOLVER_TOL)
        tolerance = structure.PROBE_TOLERANCE_SCALE * max(1.0, alone.value.scale())
        assert summary["report"] == verify_mlr_monotone_value(alone.value, tolerance)
        assert summary == probe_one_at_a_time(stream.__getitem__, 10, 100)
        assert sizes["models"] == 10 and sizes["grid_points"] == 101
        assert sizes["unconverged"] == 0 and sizes["sweeps"] > 10

    def test_first_counterexample_in_model_order_across_stacks(self):
        """Stacks group models by key, but reports are read in model order."""
        tp2 = two_state_general(discount=0.8)
        bad2 = load_model(fixture_path("increasing_cost.json"))
        bad3 = PomdpModel(
            num_states=2,
            num_actions=2,
            num_observations=(3, 3),
            transition=bad2.transition,
            observation=([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]],) * 2,
            linear_cost=bad2.linear_cost,
            discount=0.8,
        )
        stream = [tp2, bad3, bad2]  # stacks: [0, 2] of width 4, [1] of width 6
        summary = conjecture_probe(stream.__getitem__, 3, resolution=50)
        assert summary["model_index"] == 1
        assert summary == probe_one_at_a_time(stream.__getitem__, 3, 50)

    def test_stream_that_changes_states_and_discount(self, monkeypatch):
        rng = np.random.default_rng(4)
        stream = (
            [random_a1a2_non_tp2_model(rng) for _ in range(3)]
            + [dataclasses.replace(random_a1a2_non_tp2_model(rng), discount=0.6) for _ in range(3)]
            + [random_model(rng, num_states=3, num_actions=2) for _ in range(3)]
            + [random_a1a2_non_tp2_model(rng) for _ in range(2)]
        )
        stacks = []
        solve_stack = structure.solve_stack

        def recording_solve_stack(models, grid, tol, max_iters):
            stacks.append(len(models))
            return solve_stack(models, grid, tol, max_iters)

        monkeypatch.setattr(structure, "solve_stack", recording_solve_stack)
        # six 21-point grids and one 231-point grid fill the first window
        monkeypatch.setattr(structure, "TABLE_BLOCK", 400)
        sizes = {}
        summary = conjecture_probe(stream.__getitem__, len(stream), resolution=20, sizes=sizes)
        assert summary == probe_one_at_a_time(stream.__getitem__, len(stream), 20)
        # the first three-state model, which has no TP2 structure, is a counterexample
        assert summary["model_index"] == 6
        # keys in the window: Y = 3 at 0.8; Y = 2 at 0.6; Y = 3 at 0.6; three states
        assert stacks == [3, 2, 1, 1]
        assert sizes["models"] == 7 and sizes["grid_points"] == 231

    def test_stopping_model_in_stream_raises(self):
        stream = [two_state_general(discount=0.8), qd_model()]
        with pytest.raises(PreconditionFailed, match="solve_stopping"):
            conjecture_probe(stream.__getitem__, 2, resolution=20)

    def test_injected_tp2_model_never_flagged(self):
        model = two_state_general()  # satisfies A1-A3 outright
        summary = conjecture_probe(lambda i: model, 3, resolution=100)
        assert not summary["counterexample_found"]


class TestBlackwellFactorize:
    def test_equal_matrices_give_zero_residual(self):
        b = np.array([[0.8, 0.2], [0.3, 0.7]])
        fac = blackwell_factorize(b, b)
        assert fac.dominates
        assert fac.residual < 1e-8
        np.testing.assert_allclose(fac.garbling.sum(axis=1), 1.0, atol=1e-10)
        assert fac.garbling.min() >= -1e-12

    def test_filter_dominates_predictor(self):
        informative = np.array([[0.8, 0.2], [0.3, 0.7]])
        uniform = np.full((2, 2), 0.5)
        fac = blackwell_factorize(uniform, informative)
        assert fac.dominates
        assert fac.residual <= 1e-6

    def test_construct_then_factorize_round_trip(self, rng):
        for _ in range(10):
            b2 = rng.dirichlet(np.ones(3), size=3)
            r0 = rng.dirichlet(np.ones(4), size=3)
            b1 = b2 @ r0
            fac = blackwell_factorize(b1, b2)
            assert fac.residual <= 1e-6

    def test_residual_invariant_under_column_permutation(self, rng):
        b2 = rng.dirichlet(np.ones(3), size=3)
        b1 = rng.dirichlet(np.ones(2), size=3)
        fac = blackwell_factorize(b1, b2)
        fac_perm = blackwell_factorize(b1[:, ::-1], b2)
        assert fac.residual == pytest.approx(fac_perm.residual, abs=1e-9)

    def test_non_dominance_gives_positive_residual(self):
        sharp = np.eye(2)
        blurry = np.array([[0.6, 0.4], [0.4, 0.6]])
        fac = blackwell_factorize(sharp, blurry)
        assert not fac.dominates
        assert fac.residual > 1e-2

    def test_dimension_mismatch(self):
        from beliefpomdp.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            blackwell_factorize(np.eye(2), np.eye(3))


class TestMyopicBound:
    def test_filter_vs_predictor_fixture(self):
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
        sol = solve_discounted(model, build_grid(2, 100), tol=1e-9)
        report = verify_myopic_bound(model, sol)
        assert report.holds
        assert report.details["strict_set_size"] > 0
        assert report.details["policy_respects_bound"]

    def test_rejects_action_dependent_transitions(self):
        model = two_state_general()
        sol = solve_discounted(model, build_grid(2, 20), tol=1e-9)
        with pytest.raises(PreconditionFailed, match="transition"):
            verify_myopic_bound(model, sol)

    def test_rejects_non_dominant_sensors(self):
        shared_p = [[0.9, 0.1], [0.2, 0.8]]
        model = PomdpModel(
            num_states=2,
            num_actions=2,
            num_observations=(2, 2),
            transition=(shared_p, shared_p),
            observation=([[1.0, 0.0], [0.0, 1.0]], [[0.6, 0.4], [0.4, 0.6]]),
            linear_cost=([0.0, 0.0], [0.3, 0.3]),
            discount=0.9,
        )
        sol = solve_discounted(model, build_grid(2, 20), tol=1e-9)
        with pytest.raises(PreconditionFailed, match="dominate"):
            verify_myopic_bound(model, sol)

    def test_empty_strict_set_passes_vacuously(self):
        shared_p = [[0.9, 0.1], [0.2, 0.8]]
        model = PomdpModel(
            num_states=2,
            num_actions=2,
            num_observations=(2, 2),
            transition=(shared_p, shared_p),
            observation=([[0.5, 0.5], [0.5, 0.5]], [[0.8, 0.2], [0.3, 0.7]]),
            linear_cost=([0.0, 0.0], [0.5, 0.5]),  # sensor 2 never cheaper
            discount=0.9,
        )
        sol = solve_discounted(model, build_grid(2, 60), tol=1e-9)
        report = verify_myopic_bound(model, sol)
        assert report.holds
        assert report.details["strict_set_size"] == 0

    def test_one_gather_per_action(self, monkeypatch):
        """The Q comparison reuses the Jensen check's continuations."""
        model = load_model(fixture_path("filter_vs_predictor.json"))
        sol = solve_discounted(model, build_grid(2, 200), tol=1e-9)
        calls = []
        gather = solver.continuation_values

        def counting(tables, values, u):
            calls.append(u)
            return gather(tables, values, u)

        monkeypatch.setattr(solver, "continuation_values", counting)
        monkeypatch.setattr(structure, "continuation_values", counting)
        assert verify_myopic_bound(model, sol).holds
        assert sorted(calls) == [1, 2]


class TestUltrametric:
    def test_symmetric_blur_is_ultrametric(self):
        assert is_ultrametric([[0.6, 0.4], [0.4, 0.6]]).holds

    def test_asymmetric_fails_symmetry(self):
        report = is_ultrametric([[0.7, 0.3], [0.4, 0.6]])
        assert not report.holds
        assert report.witness["condition"] == "symmetry"

    def test_flat_matrix_fails_strict_dominance(self):
        report = is_ultrametric([[0.5, 0.5], [0.5, 0.5]])
        assert not report.holds
        assert report.witness["condition"] == "strict_diagonal"

    def test_min_inequality_violation_detected(self):
        m = np.array(
            [[0.50, 0.05, 0.45], [0.05, 0.50, 0.45], [0.45, 0.45, 0.10]]
        )
        report = is_ultrametric(m)
        assert not report.holds


class TestMatrixRoot:
    def test_degree_one_returns_input(self):
        b = np.array([[0.6, 0.4], [0.4, 0.6]])
        np.testing.assert_array_equal(matrix_root(b, 1), b)

    def test_two_by_two_closed_form(self):
        b = np.array([[0.6, 0.4], [0.4, 0.6]])
        root = matrix_root(b, 2)
        s = np.sqrt(0.2)
        expected = 0.5 * np.array([[1 + s, 1 - s], [1 - s, 1 + s]])
        np.testing.assert_allclose(root, expected, atol=1e-12)
        np.testing.assert_allclose(root @ root, b, atol=1e-12)

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_roots_are_stochastic_and_reconstruct(self, degree):
        b = np.array([[0.5, 0.3, 0.2], [0.3, 0.5, 0.2], [0.2, 0.2, 0.6]])
        root = matrix_root(b, degree)
        np.testing.assert_allclose(root.sum(axis=1), 1.0, atol=1e-10)
        assert root.min() >= -1e-10
        np.testing.assert_allclose(
            np.linalg.matrix_power(root, degree), b, atol=1e-8
        )

    def test_blackwell_chain_of_roots(self):
        b = np.array([[0.6, 0.4], [0.4, 0.6]])
        root = matrix_root(b, 4)
        powers = [np.linalg.matrix_power(root, k) for k in range(1, 5)]
        for k in range(3):
            fac = blackwell_factorize(powers[k + 1], powers[k])
            assert fac.residual <= 1e-6, k

    def test_rejects_non_ultrametric(self):
        with pytest.raises(PreconditionFailed):
            matrix_root(np.array([[0.7, 0.3], [0.4, 0.6]]), 2)

    def test_negative_spectrum_rejected(self):
        b = np.array([[0.4, 0.6], [0.6, 0.4]])
        report = is_ultrametric(b)
        assert not report.holds  # eigenvalue -0.2 never reaches the root
        with pytest.raises((PreconditionFailed, NegativeEigenvalue)):
            matrix_root(b, 2)


def test_jensen_check_consistent_with_concavity(rng):
    """Dominance plus a concave solved value implies the continuation
    inequality everywhere; asserted jointly on a two-sensor fixture."""
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
    grid = build_grid(2, 100)
    sol = solve_discounted(model, grid, tol=1e-9)
    assert verify_concavity(sol.value, tolerance=1e-6 * sol.value.scale()).holds
    report = verify_myopic_bound(model, sol)
    assert report.holds


# ---------------------------------------------------------------------------
# garbage in: verify's value predicates must fail on values that are not a
# solution
# ---------------------------------------------------------------------------

#: (predicate, fixture) pairs whose reports fail on N(0, 1) * scale noise
NOISE_FAILS = [
    *[
        ("concavity", name)
        for name in (
            "linear_x3",
            "filter_vs_predictor",
            "ultrametric_chain_x3",
            "monotone_a123",
            "quickest_detection_x2",
        )
    ],
    *[("mlr-monotone", name) for name in ("linear_x3", "filter_vs_predictor", "monotone_a123")],
    *[("myopic-bound", name) for name in ("filter_vs_predictor", "ultrametric_chain_x3")],
]
#: (predicate, fixture) pairs whose reports fail on the negated values
NEGATED_FAILS = [
    *[
        ("concavity", name)
        for name in ("filter_vs_predictor", "ultrametric_chain_x3", "quickest_detection_x2")
    ],
    *[("mlr-monotone", name) for name in ("linear_x3", "monotone_a123")],
    *[("myopic-bound", name) for name in ("filter_vs_predictor", "ultrametric_chain_x3")],
]


@functools.cache
def solved_fixture(name):
    model = load_model(fixture_path(f"{name}.json"))
    grid = build_grid(model.num_states, 40 if model.num_states == 2 else 12)
    solver = solve_stopping if model.is_stopping else solve_discounted
    return model, solver(model, grid, tol=1e-9)


def garbled_reports(predicate, name, garble):
    """verify's ``predicate`` reports on the fixture's solution with its
    values replaced by ``garble(values)``."""
    model, sol = solved_fixture(name)
    value = ValueFunction(sol.value.grid, garble(sol.value.values))
    garbled = SolveResult(value, sol.policy, sol.log)
    return cli.PREDICATES[predicate](model, lambda: garbled, 0)


@pytest.mark.parametrize("predicate,name", NOISE_FAILS)
def test_noise_values_fail(predicate, name):
    rng = np.random.default_rng(0)
    reports = garbled_reports(
        predicate, name, lambda v: rng.normal(size=v.size) * np.abs(v).max()
    )
    assert not all(r.holds for r in reports)


@pytest.mark.parametrize("predicate,name", NEGATED_FAILS)
def test_negated_values_fail(predicate, name):
    assert not all(r.holds for r in garbled_reports(predicate, name, np.negative))
