"""Order predicates, structural verifiers, Blackwell dominance, roots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpomdp import structure
from beliefpomdp.costs import NonlinearCostSpec
from beliefpomdp.errors import NegativeEigenvalue, PreconditionFailed
from beliefpomdp.grid import build_grid
from beliefpomdp.model import Belief, PomdpModel, unit_belief
from beliefpomdp.solver import Policy, ValueFunction, solve_discounted, solve_stopping
from beliefpomdp.structure import (
    blackwell_factorize,
    conjecture_probe,
    fosd_decreasing_cost,
    fosd_geq,
    is_tp2,
    is_ultrametric,
    matrix_root,
    mlr_geq,
    random_a1a2_non_tp2_model,
    tp2_column_permutation,
    verify_concavity,
    verify_homogeneity,
    verify_mlr_monotone_value,
    verify_myopic_bound,
    verify_stopping_set_convex,
)
from conftest import three_state_general, two_state_general


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

    def test_column_permutation_search_for_two_rows(self, rng):
        for _ in range(25):
            b = rng.dirichlet(np.ones(3), size=2)
            perm = tp2_column_permutation(b)
            assert perm is not None
            reordered = b[:, [p - 1 for p in perm]]
            assert is_tp2(reordered).holds


class TestMlrOrder:
    def test_top_vertex_dominates_everything(self, rng):
        e_top = unit_belief(3, 3)
        for _ in range(50):
            pi = Belief(rng.dirichlet(np.ones(3)))
            assert mlr_geq(e_top, pi)
            assert not mlr_geq(pi, e_top) or pi.probs[2] == 1.0

    def test_bottom_vertex_is_dominated(self, rng):
        e_bot = unit_belief(1, 3)
        for _ in range(50):
            assert mlr_geq(Belief(rng.dirichlet(np.ones(3))), e_bot)

    def test_two_state_example(self):
        assert mlr_geq([0.5, 0.5], [0.8, 0.2])
        assert not mlr_geq([0.8, 0.2], [0.5, 0.5])

    def test_three_state_incomparable_pair(self):
        a, b = [0.6, 0.1, 0.3], [0.3, 0.5, 0.2]
        assert not mlr_geq(a, b)
        assert not mlr_geq(b, a)

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_reflexive_and_implies_fosd(self, seed):
        rng = np.random.default_rng(seed)
        x = int(rng.integers(2, 5))
        a = Belief(rng.dirichlet(np.ones(x)))
        b = Belief(rng.dirichlet(np.ones(x)))
        assert mlr_geq(a, a)
        if mlr_geq(a, b):
            assert fosd_geq(a, b)

    def test_transitive_on_positive_beliefs(self, rng):
        found = 0
        while found < 20:
            a, b, c = (Belief(rng.dirichlet(np.ones(3)) + 0.0) for _ in range(3))
            if mlr_geq(a, b) and mlr_geq(b, c):
                assert mlr_geq(a, c)
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

    def test_entropy_term_reported_not_assumed(self):
        spec = NonlinearCostSpec("entropy", alpha=[1.0, 1.0], beta=[0.0, 0.0])
        model = two_state_general(
            nonlinear=spec, linear=[[3.0, 1.0], [2.0, 0.5]]
        )
        report = fosd_decreasing_cost(model, 1, samples=2000)
        assert report.samples == 2000  # outcome recorded per fixture


class TestVerifyConcavity:
    def test_myopic_entropy_value_is_concave(self):
        spec = NonlinearCostSpec("entropy", alpha=[1.0, 1.0], beta=[0.0, 0.0])
        model = two_state_general(
            nonlinear=spec, linear=[[0.0, 0.0], [0.0, 0.0]], discount=0.0
        )
        sol = solve_discounted(model, build_grid(2, 100), tol=1e-12)
        assert verify_concavity(sol.value, tolerance=1e-9).holds

    def test_negated_entropy_control_fails(self):
        spec = NonlinearCostSpec(
            "entropy", alpha=[-1.0, -1.0], beta=[0.0, 0.0], validate=False
        )
        model = two_state_general(
            nonlinear=spec, linear=[[0.0, 0.0], [0.0, 0.0]], discount=0.0
        )
        sol = solve_discounted(model, build_grid(2, 100), tol=1e-12)
        report = verify_concavity(sol.value, tolerance=1e-9)
        assert not report.holds
        assert report.worst_violation > 1e-3

    def test_requires_even_resolution(self):
        model = two_state_general()
        sol = solve_discounted(model, build_grid(2, 25))
        with pytest.raises(PreconditionFailed):
            verify_concavity(sol.value)


class TestStoppingSetConvex:
    def make_policy(self, actions):
        grid = build_grid(2, len(actions) - 1)
        return Policy(grid, np.array(actions, dtype=np.int32))

    def test_interval_policy_is_convex(self):
        report = verify_stopping_set_convex(self.make_policy([1, 1, 2, 2, 2]))
        assert report.holds

    def test_split_stop_region_fails(self):
        report = verify_stopping_set_convex(self.make_policy([1, 2, 1]))
        assert not report.holds
        assert report.witness["midpoint_action"] == 2

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
        grid = build_grid(3, 60)  # 1,891 stop points, 1,786,995 pairs: four blocks
        report = verify_stopping_set_convex(Policy(grid, np.ones(grid.num_points, dtype=np.int32)))
        assert report.holds
        # a pair has an on-grid midpoint iff both points share every coordinate parity
        _, class_sizes = np.unique(grid.coords % 2, axis=0, return_counts=True)
        assert report.samples == int((class_sizes * (class_sizes - 1) // 2).sum())

    def test_blocks_match_materialized_pair_scan(self, monkeypatch):
        grid = build_grid(3, 8)
        # a convex stop region plus the last grid point, which comes last in
        # every row of the pair order
        stop = (grid.coords[:, 0] >= 4) | (grid.coords[:, 2] == 8)
        actions = np.where(stop, 1, 2).astype(np.int32)
        policy = Policy(grid, actions)
        monkeypatch.setattr(structure, "CONVEX_BLOCK", 5)
        report = verify_stopping_set_convex(policy)
        samples, witness = materialized_convexity_scan(policy, block=5)
        assert samples > 5  # the first violation is past the first block
        assert not report.holds
        assert report.samples == samples
        assert report.witness == witness


def materialized_convexity_scan(policy, block):
    """Reference: all stop pairs in np.triu_indices order, scanned in blocks."""
    grid = policy.grid
    stop = np.flatnonzero(policy.actions == 1)
    a_all, b_all = np.triu_indices(stop.size, k=1)
    checked = 0
    for start in range(0, a_all.size, block):
        a, b = stop[a_all[start : start + block]], stop[b_all[start : start + block]]
        even = ~np.any((grid.coords[a] + grid.coords[b]) % 2, axis=1)
        a, b = a[even], b[even]
        checked += a.size
        for pa, pb in zip(a, b):
            mid = grid.index_of((grid.coords[pa] + grid.coords[pb]) // 2)[0]
            if policy.actions[mid] != 1:
                return checked, {
                    "pi1": grid.points[pa].tolist(),
                    "pi2": grid.points[pb].tolist(),
                    "midpoint_action": int(policy.actions[mid]),
                }
    return checked, None


class TestHomogeneity:
    def test_linear_fixture_passes(self):
        model = two_state_general()
        report = verify_homogeneity(model, build_grid(2, 60), kappas=(1.0, 2.0))
        assert report.holds
        assert report.worst_violation < 1e-12

    def test_kappa_one_is_exact(self):
        model = two_state_general()
        report = verify_homogeneity(model, build_grid(2, 40), kappas=(1.0,))
        assert report.worst_violation == 0.0


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
        assert mlr_geq(hi, lo)

    @pytest.mark.parametrize("max_pairs", [structure.PAIR_CAP, 5_000])
    @pytest.mark.parametrize("tied", [False, True])
    def test_blocked_pairs_match_one_block(self, monkeypatch, max_pairs, tied):
        grid = build_grid(3, 20)
        if tied:  # every comparable pair has gap 0, so the first is the witness
            value = ValueFunction(grid, np.zeros(grid.num_points))
        else:
            value = solve_discounted(three_state_general(), grid, tol=1e-10).value
        whole = verify_mlr_monotone_value(value, 1e-9, max_pairs=max_pairs, seed=3)
        monkeypatch.setattr(structure, "PAIR_BLOCK", 7)
        blocked = verify_mlr_monotone_value(value, 1e-9, max_pairs=max_pairs, seed=3)
        assert whole.samples > 7
        assert blocked.to_dict() == whole.to_dict()

    def test_pair_sampling_cap(self):
        model = two_state_general()
        sol = solve_discounted(model, build_grid(2, 200), tol=1e-8)
        capped = verify_mlr_monotone_value(sol.value, 1e-6, max_pairs=500)
        assert 0 < capped.samples <= 500


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
        report = verify_myopic_bound(model, build_grid(2, 100))
        assert report.holds
        assert report.details["strict_set_size"] > 0
        assert report.details["policy_respects_bound"]

    def test_rejects_action_dependent_transitions(self):
        model = two_state_general()
        with pytest.raises(PreconditionFailed, match="transition"):
            verify_myopic_bound(model, build_grid(2, 20))

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
        with pytest.raises(PreconditionFailed, match="dominate"):
            verify_myopic_bound(model, build_grid(2, 20))

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
        report = verify_myopic_bound(model, build_grid(2, 60))
        assert report.holds
        assert report.details["strict_set_size"] == 0


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
    report = verify_myopic_bound(model, grid)
    assert report.holds
