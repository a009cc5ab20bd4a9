"""Nonlinear performance-loss families and the combined cost."""

import numpy as np
import pytest

from beliefpomdp.costs import (
    NonlinearCostSpec,
    instantaneous_cost_batch,
    max_cost_bound,
    performance_loss_batch,
)
from beliefpomdp.model import Belief, unit_belief, uniform_belief
from conftest import cost_family_spec, two_state_general
from oracles import concavity_probe

WEIGHTED = ["mean_square", "l1", "linf", "entropy"]


def l1_loss_oracle(pi):
    """Direct evaluation of sum_i ||e_i - pi||_1 pi(i)."""
    pi = np.asarray(pi, float)
    total = 0.0
    for i in range(pi.size):
        e = np.zeros_like(pi)
        e[i] = 1.0
        total += np.abs(e - pi).sum() * pi[i]
    return total


class TestFamilies:
    def test_entropy_zero_at_vertex(self):
        spec = NonlinearCostSpec("entropy", alpha=[1.0], beta=[0.0])
        assert performance_loss_batch(spec, unit_belief(1, 3).probs, 1)[0] == 0.0

    @pytest.mark.parametrize("x", [2, 3, 4, 9])
    def test_entropy_with_exact_zeros_matches_masked_sum(self, x, rng):
        spec = NonlinearCostSpec("entropy", alpha=[0.7], beta=[0.2])
        p = rng.dirichlet(np.ones(x), size=400)
        p[rng.random(p.shape) < 0.3] = 0.0
        p[:5] = np.eye(x)[np.arange(5) % x]
        plogp = np.zeros_like(p)
        mask = p > 0
        plogp[mask] = p[mask] * np.log2(p[mask])
        expected = -0.7 * plogp.sum(axis=1) + 0.2
        got = performance_loss_batch(spec, p, 1)
        if x < 8:
            np.testing.assert_array_equal(got, expected)
        else:  # numpy unrolls row sums from width 8: roundoff agreement only
            np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0)

    def test_entropy_uses_log2(self):
        spec = NonlinearCostSpec("entropy", alpha=[1.0], beta=[0.0])
        for x, bits in ((2, 1.0), (4, 2.0)):
            loss = performance_loss_batch(spec, uniform_belief(x).probs, 1)[0]
            assert loss == pytest.approx(bits, abs=1e-14)

    def test_mean_square_identity_matrix(self):
        spec = NonlinearCostSpec(
            "mean_square", weight_matrix=np.eye(2), alpha=[1.0], beta=[0.0]
        )
        assert performance_loss_batch(spec, Belief([0.5, 0.5]).probs, 1)[0] == pytest.approx(0.5)

    def test_l1_matches_direct_oracle(self):
        spec = NonlinearCostSpec("l1", alpha=[1.0], beta=[0.0])
        pi = [0.3, 0.7]
        assert l1_loss_oracle(pi) == pytest.approx(0.84, abs=1e-15)
        loss = performance_loss_batch(spec, Belief(pi).probs, 1)[0]
        assert loss == pytest.approx(0.84, abs=1e-12)
        rng = np.random.default_rng(0)
        for p in rng.dirichlet(np.ones(4), size=30):
            assert performance_loss_batch(spec, Belief(p).probs, 1)[0] == pytest.approx(
                l1_loss_oracle(p), abs=1e-12
            )

    def test_linf_is_half_of_l1(self):
        l1 = NonlinearCostSpec("l1", alpha=[0.7], beta=[0.2])
        linf = NonlinearCostSpec("linf", alpha=[0.7], beta=[0.2])
        rng = np.random.default_rng(1)
        pts = rng.dirichlet(np.ones(3), size=50)
        a = performance_loss_batch(l1, pts, 1) - 0.2
        b = performance_loss_batch(linf, pts, 1) - 0.2
        np.testing.assert_allclose(a, 2.0 * b, atol=1e-14)

    @pytest.mark.parametrize("family", WEIGHTED)
    def test_vertex_property(self, family):
        spec = cost_family_spec(family, num_actions=1, num_states=3)
        for i in range(1, 4):
            assert performance_loss_batch(spec, unit_belief(i, 3).probs, 1)[0] == pytest.approx(
                0.0, abs=1e-14
            )

    @pytest.mark.parametrize("family", ["entropy", "mean_square"])
    def test_centroid_maximality(self, family):
        spec = (
            NonlinearCostSpec("entropy", alpha=[1.0], beta=[0.0])
            if family == "entropy"
            else NonlinearCostSpec(
                "mean_square", weight_matrix=np.eye(3), alpha=[1.0], beta=[0.0]
            )
        )
        center = performance_loss_batch(spec, uniform_belief(3).probs, 1)[0]
        rng = np.random.default_rng(2)
        sampled = performance_loss_batch(spec, rng.dirichlet(np.ones(3), size=500), 1)
        assert np.all(sampled <= center + 1e-12)

    def test_per_action_weights(self):
        spec = NonlinearCostSpec("entropy", alpha=[1.0, 2.0], beta=[0.1, 0.3])
        pi = uniform_belief(2)
        assert performance_loss_batch(spec, pi.probs, 1)[0] == pytest.approx(1.1)
        assert performance_loss_batch(spec, pi.probs, 2)[0] == pytest.approx(2.3)


class TestPiecewiseLinear:
    def test_three_levels(self):
        spec = NonlinearCostSpec("piecewise_linear", epsilon=0.2)
        # pi(1) > 1 - eps: every vertex distance small for e_1, far for e_2
        assert performance_loss_batch(spec, Belief([0.9, 0.1]).probs, 1)[0] == pytest.approx(
            0.0 * 0.9 + 1.0 * 0.1
        )
        assert performance_loss_batch(spec, Belief([0.5, 0.5]).probs, 1)[0] == pytest.approx(0.2)

    def test_breakpoint_tie_goes_to_later_branch(self):
        spec = NonlinearCostSpec("piecewise_linear", epsilon=0.25)
        # ||e_1 - pi||_inf = 0.25 exactly: the middle branch wins the tie
        val = performance_loss_batch(spec, Belief([0.75, 0.25]).probs, 1)[0]
        assert val == pytest.approx(0.25 * 0.75 + 1.0 * 0.25)

    def test_concave_on_two_states_only(self):
        spec = NonlinearCostSpec("piecewise_linear", epsilon=0.1234)
        ok = concavity_probe(spec, 1, num_trials=20_000, tolerance=1e-9, num_states=2)
        assert ok.holds
        # the loss is discontinuous across breakpoint hyperplanes once
        # X >= 3, so the midpoint test must find real violations there
        bad = concavity_probe(spec, 1, num_trials=50_000, tolerance=1e-9, num_states=3)
        assert not bad.holds
        assert bad.worst_violation > 0.01

    def test_linear_between_kinks(self):
        spec = NonlinearCostSpec("piecewise_linear", epsilon=0.1234)
        a = np.array([0.6, 0.4])
        b = np.array([0.5, 0.5])
        lams = np.linspace(0.0, 1.0, 11)
        pts = lams[:, None] * a + (1 - lams)[:, None] * b
        vals = performance_loss_batch(spec, pts, 1)
        chord = lams * vals[-1] + (1 - lams) * vals[0]
        np.testing.assert_allclose(vals, chord, atol=1e-12)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            NonlinearCostSpec("piecewise_linear", epsilon=0.6)
        with pytest.raises(ValueError):
            NonlinearCostSpec("piecewise_linear", epsilon=float("nan"))


def test_non_finite_parameters_rejected():
    nan, inf = float("nan"), float("inf")
    for kwargs, message in [
        (dict(family="entropy", alpha=[nan], beta=[0.0]), "alpha must be finite"),
        (dict(family="l1", alpha=[1.0], beta=[inf]), "beta must be finite"),
        (
            dict(
                family="mean_square",
                weight_matrix=[[nan, 0.0], [0.0, 1.0]],
                alpha=[1.0],
                beta=[0.0],
            ),
            "weight_matrix must be finite",
        ),
    ]:
        with pytest.raises(ValueError, match=message):
            NonlinearCostSpec(**kwargs)


class TestInstantaneousCost:
    def test_reduces_to_linear_without_loss(self):
        model = two_state_general()
        pi = Belief([0.25, 0.75])
        assert instantaneous_cost_batch(model, pi.probs, 1)[0] == pytest.approx(
            float(model.linear_cost[0] @ pi.probs), abs=1e-15
        )

    def test_zero_linear_cost_gives_pure_loss(self):
        spec = NonlinearCostSpec("entropy", alpha=[1.0, 1.0], beta=[0.0, 0.0])
        model = two_state_general(nonlinear=spec, linear=[[0.0, 0.0], [0.0, 0.0]])
        pi = Belief([0.3, 0.7])
        assert instantaneous_cost_batch(model, pi.probs, 2)[0] == pytest.approx(
            performance_loss_batch(spec, pi.probs, 2)[0]
        )

    def test_hand_value_linear_plus_entropy(self):
        spec = NonlinearCostSpec("entropy", alpha=[0.5, 0.5], beta=[0.0, 0.0])
        model = two_state_general(nonlinear=spec, linear=[[0.0, 0.0], [1.0, 0.0]])
        cost = instantaneous_cost_batch(model, Belief([0.5, 0.5]).probs, 2)[0]
        assert cost == pytest.approx(1.0)

    def test_max_cost_bound_dominates_samples(self, rng):
        for family in WEIGHTED + ["piecewise_linear", "none"]:
            spec = cost_family_spec(family, num_actions=2, num_states=2)
            model = two_state_general(nonlinear=spec)
            bound = max_cost_bound(model)
            pts = rng.dirichlet(np.ones(2), size=200)
            for u in (1, 2):
                assert np.all(instantaneous_cost_batch(model, pts, u) <= bound + 1e-12)


class TestConcavityProbe:
    def test_weighted_families_concave(self):
        for family in WEIGHTED:
            spec = cost_family_spec(family, num_actions=1, num_states=3)
            report = concavity_probe(
                spec, 1, num_trials=5000, tolerance=1e-9, num_states=3
            )
            assert report.holds, (family, report.worst_violation)

    def test_indefinite_matrix_on_two_states_is_degenerate(self):
        # diag(1, -1) looks indefinite, but its loss vanishes identically on
        # the two-state simplex: (p1 - p2) - (p1^2 - p2^2) = 0 when p1+p2 = 1
        spec = NonlinearCostSpec(
            "mean_square",
            weight_matrix=np.diag([1.0, -1.0]),
            alpha=[1.0],
            beta=[0.0],
            validate=False,
        )
        pts = np.random.default_rng(0).dirichlet(np.ones(2), size=100)
        np.testing.assert_allclose(performance_loss_batch(spec, pts, 1), 0.0, atol=1e-14)

    def test_indefinite_matrix_found_nonconcave(self):
        spec = NonlinearCostSpec(
            "mean_square",
            weight_matrix=np.diag([1.0, -1.0, 0.0]),
            alpha=[1.0],
            beta=[0.0],
            validate=False,
        )
        report = concavity_probe(spec, 1, num_trials=5000, tolerance=1e-9)
        assert not report.holds
        assert report.worst_violation > 1e-3
        assert report.witness is not None

    def test_full_cost_probe_accepts_model(self):
        model = two_state_general(
            nonlinear=NonlinearCostSpec("entropy", alpha=[1.0, 1.0], beta=[0.0, 0.0])
        )
        report = concavity_probe(model, 2, num_trials=3000, tolerance=1e-9)
        assert report.holds

    def test_spec_validation_rejects_indefinite_matrix(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            NonlinearCostSpec(
                "mean_square", weight_matrix=np.diag([1.0, -1.0]), alpha=[1.0], beta=[0.0]
            )

    def test_probe_requires_trials(self):
        spec = cost_family_spec("entropy")
        with pytest.raises(ValueError):
            concavity_probe(spec, 1, num_trials=0, tolerance=1e-9, num_states=2)
