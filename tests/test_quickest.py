"""Quickest-detection model construction, thresholds, and simulation."""

import dataclasses

import numpy as np
import pytest

from beliefpomdp import quickest
from beliefpomdp.costs import NonlinearCostSpec
from beliefpomdp.errors import PreconditionFailed, StructureViolation
from beliefpomdp.grid import build_grid
from beliefpomdp.model import fixture_path, load_model, validate_model
from beliefpomdp.quickest import (
    check_detection_model,
    initial_belief,
    ks_cost_estimate,
    qd_threshold,
)
from beliefpomdp.simulate import simulate_path_costs
from beliefpomdp.solver import solve_stopping
from conftest import qd_model, two_state_general

PERSISTENCE, DELAY = 0.9, 0.05
MODEL = qd_model(PERSISTENCE, DELAY, [[0.8, 0.2], [0.3, 0.7]])


def solve_model(model, resolution):
    return solve_stopping(model, build_grid(2, resolution), tol=1e-9)


class TestSpecAndModel:
    def test_built_model_is_valid_stopping(self):
        model = qd_model(PERSISTENCE, DELAY)
        assert validate_model(model) == []
        assert model.is_stopping and model.discount == 1.0
        np.testing.assert_array_equal(model.linear_cost[0], [0.0, 1.0])
        np.testing.assert_array_equal(model.linear_cost[1], [0.05, 0.0])
        np.testing.assert_allclose(
            model.transition[1], [[1.0, 0.0], [0.1, 0.9]], atol=1e-15
        )
        assert initial_belief().probs.tolist() == [0.0, 1.0]

    def test_nonpositive_delay_rejected(self):
        with pytest.raises(PreconditionFailed, match="d > 0"):
            check_detection_model(qd_model(delay=0.0, b=[[1, 0], [0, 1]]))

    def test_change_must_arrive(self):
        model = qd_model(persistence=1.0, delay=0.1, b=[[1, 0], [0, 1]])
        assert validate_model(model) == []
        with pytest.raises(PreconditionFailed, match="change must arrive"):
            check_detection_model(model)
        with pytest.raises(PreconditionFailed, match="change must arrive"):
            ks_cost_estimate(model, 0.1, num_paths=10)

    def test_detection_model_passes_the_check(self):
        assert check_detection_model(MODEL) is None
        loss = NonlinearCostSpec("entropy", alpha=[0.02, 0.02], beta=[0.0, 0.0])
        assert check_detection_model(qd_model(continue_loss=loss)) is None

    def test_check_rejects_other_shapes(self):
        with pytest.raises(PreconditionFailed):
            check_detection_model(two_state_general())

    def test_mean_change_time(self):
        est = ks_cost_estimate(MODEL, 0.13, num_paths=10)
        assert est.mean_change_time == pytest.approx(1.0 / (1.0 - PERSISTENCE)) == 10.0


class TestThreshold:
    def test_threshold_in_unit_interval(self):
        result = solve_model(MODEL, 400)
        assert 0.0 < qd_threshold(result.policy) < 1.0
        assert result.log.converged
        assert np.count_nonzero(result.policy.actions == 1) > 0

    def test_threshold_monotone_in_delay_weight(self):
        thresholds = [
            qd_threshold(solve_model(qd_model(0.9, d, [[0.8, 0.2], [0.3, 0.7]]), 400).policy)
            for d in (0.01, 0.05, 0.2)
        ]
        assert thresholds[0] < thresholds[1] < thresholds[2]

    def test_noninformative_sensor_still_single_switch(self):
        model = qd_model(0.9, 0.05, [[0.5, 0.5], [0.5, 0.5]])
        assert 0.0 < qd_threshold(solve_model(model, 400).policy) < 1.0

    def test_nonlinear_continue_cost_keeps_threshold(self):
        model = qd_model(
            0.9,
            0.05,
            [[0.8, 0.2], [0.3, 0.7]],
            continue_loss=NonlinearCostSpec(
                "entropy", alpha=[0.02, 0.02], beta=[0.0, 0.0]
            ),
        )
        assert 0.0 < qd_threshold(solve_model(model, 400).policy) < 1.0

    def test_grid_refinement_agreement(self):
        t1 = qd_threshold(solve_model(MODEL, 500).policy)
        t2 = qd_threshold(solve_model(MODEL, 1000).policy)
        assert abs(t1 - t2) <= 2.0 / 500

    def test_policy_stopping_everywhere_has_no_threshold(self):
        loss = NonlinearCostSpec("entropy", alpha=[0.02, 0.02], beta=[2.0, 2.0])
        model = qd_model(0.9, 0.05, [[0.8, 0.2], [0.3, 0.7]], continue_loss=loss)
        result = solve_model(model, 400)
        assert np.all(result.policy.actions == 1)
        with pytest.raises(StructureViolation, match="0 switches"):
            qd_threshold(result.policy)


class TestKsCostEstimate:
    def test_sentinel_threshold_announces_at_step_one(self):
        # pi(2) < 1 after every observation, so announcing at k = 1 prices a
        # false alarm by pi(2), whose mean is the persistence
        est = ks_cost_estimate(MODEL, threshold=1.0, num_paths=40_000, seed=2)
        se = est.ci_halfwidth / 1.96
        assert est.delay_term == 0.0
        assert abs(est.false_alarm - PERSISTENCE) <= 3 * max(se, 1e-4)

    def test_zero_threshold_never_announces(self):
        est = ks_cost_estimate(MODEL, threshold=0.0, num_paths=300, horizon_cap=300, seed=3)
        assert est.false_alarm == 0.0
        assert est.cap_hits == 300
        assert est.delay_term > 0.05 * 200  # delay grows to the cap

    def test_change_times_match_geometric_mean(self):
        # a rule that never stops pays d * pi_t(1) at every step, and
        # E[pi_t(1)] = P(x_t = 1) = 1 - p^t for a geometric change time
        never_stop = lambda points: (np.full(len(points), 2), None)  # noqa: E731
        horizon, p, d = 30, PERSISTENCE, DELAY
        table = simulate_path_costs(MODEL, never_stop, initial_belief(), 20_000, horizon, seed=4)
        expected = d * sum(1.0 - p**t for t in range(horizon))
        se = table[:, 0].std(ddof=1) / np.sqrt(len(table))
        assert abs(table[:, 0].mean() - expected) <= 4 * se
        assert np.all(table[:, 1] == 1.0) and np.all(table[:, 2] == 0.0)

    def test_threshold_locally_optimal(self):
        threshold = qd_threshold(solve_model(MODEL, 1000).policy)
        best = ks_cost_estimate(MODEL, threshold, num_paths=30_000, seed=5)
        for delta in (-0.05, 0.05):
            other = ks_cost_estimate(MODEL, threshold + delta, num_paths=30_000, seed=5)
            assert best.ks_cost <= other.ks_cost + best.ci_halfwidth + other.ci_halfwidth

    def test_solver_value_matches_simulation(self):
        solved = solve_model(MODEL, 1000)
        est = ks_cost_estimate(MODEL, qd_threshold(solved.policy), num_paths=60_000, seed=6)
        grid_error = 2.0 / 1000
        value_at_start = solved.value.at(initial_belief())
        assert abs(est.ks_cost - value_at_start) <= est.ci_halfwidth + grid_error

    def test_deterministic_across_workers(self):
        a = ks_cost_estimate(MODEL, 0.13, num_paths=20_000, seed=9, workers=1)
        b = ks_cost_estimate(MODEL, 0.13, num_paths=20_000, seed=9, workers=8)
        assert a.ks_cost == b.ks_cost
        assert a.delay_term == b.delay_term
        assert a.false_alarm == b.false_alarm

    def test_path_count_validation(self):
        with pytest.raises(ValueError):
            ks_cost_estimate(MODEL, 0.1, num_paths=0)

    def test_rejects_a_model_without_the_detection_structure(self):
        with pytest.raises(PreconditionFailed):
            ks_cost_estimate(two_state_general(), 0.1, num_paths=10)

    def test_terms_add_up_to_the_cost(self):
        est = ks_cost_estimate(MODEL, 0.13, num_paths=20_000, seed=9)
        assert est.delay_term + est.false_alarm == pytest.approx(est.ks_cost, rel=1e-12)


class TestEngineRoute:
    """ks_cost_estimate is the solved threshold rule on simulate's path loop."""

    def recorded_table(self, monkeypatch, model, threshold, num_paths, seed):
        tables = []
        run_chunked = quickest.run_chunked

        def recording(*args, **kwargs):
            tables.append(run_chunked(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(quickest, "run_chunked", recording)
        est = ks_cost_estimate(model, threshold, num_paths=num_paths, seed=seed)
        monkeypatch.undo()
        return est, tables[0]

    @pytest.mark.parametrize("seed", [0, 8])
    @pytest.mark.parametrize("resolution", [200, 301])
    def test_rule_table_is_the_grid_policy_table(self, monkeypatch, resolution, seed):
        model = load_model(fixture_path("quickest_detection_x2.json"))
        policy = solve_stopping(model, build_grid(2, resolution), tol=1e-9).policy
        est, table = self.recorded_table(monkeypatch, model, qd_threshold(policy), 9000, seed)
        grid_table = simulate_path_costs(
            model, policy, initial_belief(), 9000, est.horizon_cap, seed=seed
        )
        assert np.array_equal(table, grid_table)
        assert est.cap_hits == int(table[:, 1].sum())
        assert est.false_alarm == table[:, 2].mean()
        assert np.all(table[:, 2] > 0.0)  # every path announced, at a positive price

    def test_continue_loss_is_not_priced(self):
        loss = NonlinearCostSpec("entropy", alpha=[0.02, 0.02], beta=[0.1, 0.1])
        lossy = dataclasses.replace(MODEL, nonlinear_cost=loss)
        a = ks_cost_estimate(lossy, 0.13, num_paths=9000, seed=12)
        b = ks_cost_estimate(MODEL, 0.13, num_paths=9000, seed=12)
        assert a == b
