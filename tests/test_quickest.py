"""Quickest-detection model construction, thresholds, and simulation."""

import numpy as np
import pytest

from beliefpomdp import quickest
from beliefpomdp.costs import NonlinearCostSpec
from beliefpomdp.errors import PreconditionFailed, StructureViolation
from beliefpomdp.grid import build_grid
from beliefpomdp.model import fixture_path, load_model, validate_model
from beliefpomdp.quickest import (
    QdSpec,
    build_qd_model,
    initial_belief,
    ks_cost_estimate,
    qd_threshold,
    spec_from_model,
)
from beliefpomdp.solver import solve_stopping

from conftest import LargestDraws

SPEC = QdSpec(persistence=0.9, delay_weight=0.05, observation=[[0.8, 0.2], [0.3, 0.7]])


def solve_spec(spec, resolution):
    return solve_stopping(build_qd_model(spec), build_grid(2, resolution), tol=1e-9)


class TestSpecAndModel:
    def test_built_model_is_valid_stopping(self):
        model = build_qd_model(SPEC)
        assert validate_model(model) == []
        assert model.is_stopping and model.discount == 1.0
        np.testing.assert_array_equal(model.linear_cost[0], [0.0, 1.0])
        np.testing.assert_array_equal(model.linear_cost[1], [0.05, 0.0])
        np.testing.assert_allclose(
            model.transition[1], [[1.0, 0.0], [0.1, 0.9]], atol=1e-15
        )
        assert initial_belief().probs.tolist() == [0.0, 1.0]

    def test_nonpositive_delay_rejected(self):
        with pytest.raises(ValueError, match="delay_weight"):
            QdSpec(persistence=0.9, delay_weight=0.0, observation=[[1, 0], [0, 1]])

    def test_change_must_arrive(self):
        with pytest.raises(ValueError, match="persistence"):
            QdSpec(persistence=1.0, delay_weight=0.1, observation=[[1, 0], [0, 1]])

    def test_spec_round_trips_through_model(self):
        model = build_qd_model(SPEC)
        spec = spec_from_model(model)
        assert spec.persistence == SPEC.persistence
        assert spec.delay_weight == SPEC.delay_weight
        np.testing.assert_array_equal(spec.observation, SPEC.observation)

    def test_spec_from_model_rejects_other_shapes(self):
        from conftest import two_state_general

        with pytest.raises(PreconditionFailed):
            spec_from_model(two_state_general())

    def test_mean_change_time(self):
        assert SPEC.mean_change_time == pytest.approx(10.0)


class TestThreshold:
    def test_threshold_in_unit_interval(self):
        result = solve_spec(SPEC, 400)
        assert 0.0 < qd_threshold(result) < 1.0
        assert result.log.converged
        assert np.count_nonzero(result.policy.actions == 1) > 0

    def test_threshold_monotone_in_delay_weight(self):
        thresholds = [
            qd_threshold(solve_spec(QdSpec(0.9, d, [[0.8, 0.2], [0.3, 0.7]]), 400))
            for d in (0.01, 0.05, 0.2)
        ]
        assert thresholds[0] < thresholds[1] < thresholds[2]

    def test_noninformative_sensor_still_single_switch(self):
        spec = QdSpec(0.9, 0.05, [[0.5, 0.5], [0.5, 0.5]])
        assert 0.0 < qd_threshold(solve_spec(spec, 400)) < 1.0

    def test_nonlinear_continue_cost_keeps_threshold(self):
        spec = QdSpec(
            0.9,
            0.05,
            [[0.8, 0.2], [0.3, 0.7]],
            continue_loss=NonlinearCostSpec(
                "entropy", alpha=[0.02, 0.02], beta=[0.0, 0.0]
            ),
        )
        assert 0.0 < qd_threshold(solve_spec(spec, 400)) < 1.0

    def test_grid_refinement_agreement(self):
        t1 = qd_threshold(solve_spec(SPEC, 500))
        t2 = qd_threshold(solve_spec(SPEC, 1000))
        assert abs(t1 - t2) <= 2.0 / 500

    def test_policy_stopping_everywhere_has_no_threshold(self):
        loss = NonlinearCostSpec("entropy", alpha=[0.02, 0.02], beta=[2.0, 2.0])
        spec = QdSpec(0.9, 0.05, [[0.8, 0.2], [0.3, 0.7]], continue_loss=loss)
        result = solve_spec(spec, 400)
        assert np.all(result.policy.actions == 1)
        with pytest.raises(StructureViolation, match="0 switches"):
            qd_threshold(result)


class TestKsCostEstimate:
    def test_sentinel_threshold_announces_at_step_one(self):
        # always announcing at k = 1 gives a false alarm exactly when the
        # change has not arrived yet, so the rate estimates persistence
        est = ks_cost_estimate(SPEC, threshold=1.5, num_paths=40_000, seed=2)
        se = est.ci_halfwidth / 1.96
        assert est.delay_term == 0.0
        assert abs(est.false_alarm - SPEC.persistence) <= 3 * max(se, 1e-4)

    def test_zero_threshold_never_announces(self):
        est = ks_cost_estimate(SPEC, threshold=0.0, num_paths=300, horizon_cap=300, seed=3)
        assert est.false_alarm == 0.0
        assert est.cap_hits == 300
        assert est.delay_term > 0.05 * 200  # delay grows to the cap

    def test_change_times_match_geometric_mean(self):
        est = ks_cost_estimate(SPEC, threshold=-1.0, num_paths=20_000, horizon_cap=400, seed=4)
        se = 10.0 / np.sqrt(20_000)  # geometric sd is close to its mean
        assert abs(est.mean_change_time - 10.0) <= 3 * se * 1.2

    def test_threshold_locally_optimal(self):
        threshold = qd_threshold(solve_spec(SPEC, 1000))
        best = ks_cost_estimate(SPEC, threshold, num_paths=30_000, seed=5)
        for delta in (-0.05, 0.05):
            other = ks_cost_estimate(SPEC, threshold + delta, num_paths=30_000, seed=5)
            assert best.ks_cost <= other.ks_cost + best.ci_halfwidth + other.ci_halfwidth

    def test_solver_value_matches_simulation(self):
        solved = solve_spec(SPEC, 1000)
        est = ks_cost_estimate(SPEC, qd_threshold(solved), num_paths=60_000, seed=6)
        grid_error = 2.0 / 1000
        value_at_start = solved.value.at(initial_belief())
        assert abs(est.ks_cost - value_at_start) <= est.ci_halfwidth + grid_error

    def test_deterministic_across_workers(self):
        a = ks_cost_estimate(SPEC, 0.13, num_paths=20_000, seed=9, workers=1)
        b = ks_cost_estimate(SPEC, 0.13, num_paths=20_000, seed=9, workers=8)
        assert a.ks_cost == b.ks_cost
        assert a.delay_term == b.delay_term
        assert a.false_alarm == b.false_alarm

    def test_path_count_validation(self):
        with pytest.raises(ValueError):
            ks_cost_estimate(SPEC, 0.1, num_paths=0)


def reference_ks_paths(spec, threshold, num_paths, horizon_cap, seed):
    """The row-wise detection loop: observation counts summed along axis 1."""
    persistence = spec.persistence
    b = spec.observation
    cum_b = np.cumsum(b, axis=1)

    def sim(rng, count):
        pre = np.ones(count, dtype=bool)
        belief = np.ones(count)
        announced = np.zeros(count, dtype=bool)
        announce_time = np.full(count, horizon_cap)
        change_time = np.full(count, horizon_cap + 1)
        for k in range(1, horizon_cap + 1):
            if np.all(announced):
                break
            jump = rng.random(count) >= persistence
            change_time[pre & jump] = k
            pre &= ~jump
            state_row = np.where(pre, 1, 0)
            draw = rng.random(count)
            obs = (draw[:, None] > cum_b[state_row]).sum(axis=1)
            z1 = b[0, obs] * (1.0 - persistence * belief)
            z2 = b[1, obs] * persistence * belief
            belief = z2 / (z1 + z2)
            hit = ~announced & (belief < threshold)
            announce_time[hit] = k
            announced |= hit
        delay = np.maximum(announce_time - change_time, 0)
        columns = (delay, announce_time < change_time, ~announced, change_time)
        return np.stack([c.astype(float) for c in columns], axis=1)

    return quickest.run_chunked(sim, seed, num_paths)


def test_rows_summing_below_one_never_sample_past_the_last_observation(monkeypatch):
    monkeypatch.setattr(
        quickest, "run_chunked", lambda sim, seed, num_paths, workers=1: sim(LargestDraws(), num_paths)
    )
    short = QdSpec(0.9, 0.05, [[0.8, 0.2 - 5e-13], [0.3, 0.7 - 5e-13]])
    exact = QdSpec(0.9, 0.05, [[0.8, 0.2], [0.3, 0.7]])
    a = ks_cost_estimate(short, 0.2, num_paths=10, horizon_cap=30)
    b = ks_cost_estimate(exact, 0.2, num_paths=10, horizon_cap=30)
    assert a.to_dict() == b.to_dict()


class TestKsOracle:
    """ks_cost_estimate's per-path table is bit-identical to the row-wise loop."""

    @pytest.mark.parametrize(
        "spec, threshold, workers",
        [
            (spec_from_model(load_model(fixture_path("quickest_detection_x2.json"))), 0.2, 1),
            (QdSpec(0.85, 0.05, [[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]]), 0.3, 1),
            (SPEC, 0.13, 2),
        ],
    )
    def test_paths_match_reference(self, monkeypatch, spec, threshold, workers):
        tables = []
        run_chunked = quickest.run_chunked

        def recording(*args, **kwargs):
            tables.append(run_chunked(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(quickest, "run_chunked", recording)
        est = ks_cost_estimate(
            spec, threshold, num_paths=9000, horizon_cap=150, seed=11, workers=workers
        )
        monkeypatch.undo()
        ref = reference_ks_paths(spec, threshold, 9000, 150, seed=11)
        assert np.array_equal(tables[0], ref)
        assert est.cap_hits == int(ref[:, 2].sum())
