"""Belief updates against hand values and the path-enumeration oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefpomdp.errors import ZeroLikelihood
from beliefpomdp.model import Belief, PomdpModel
from conftest import qd_model, random_model
from oracles import RelaxedBelief, exact_posterior_oracle, filter_update, relaxed_update


def identity_model(b_rows):
    return PomdpModel(
        num_states=2,
        num_actions=1,
        num_observations=(2,),
        transition=[[[1.0, 0.0], [0.0, 1.0]]],
        observation=[b_rows],
        linear_cost=[[0.0, 0.0]],
        discount=0.9,
    )


class TestFilterUpdate:
    def test_perfect_observation_collapses_belief(self):
        model = identity_model([[1.0, 0.0], [0.0, 1.0]])
        step = filter_update(model, Belief([0.5, 0.5]), y=2, u=1)
        assert step.posterior.probs.tolist() == [0.0, 1.0]
        assert step.likelihood == pytest.approx(0.5)

    def test_noninformative_observation_is_identity(self):
        model = identity_model([[0.5, 0.5], [0.5, 0.5]])
        step = filter_update(model, Belief([0.3, 0.7]), y=1, u=1)
        np.testing.assert_allclose(step.posterior.probs, [0.3, 0.7], atol=1e-15)
        assert step.likelihood == pytest.approx(0.5)

    def test_quickest_detection_hand_value(self):
        model = PomdpModel(
            num_states=2,
            num_actions=1,
            num_observations=(2,),
            transition=[[[1.0, 0.0], [0.2, 0.8]]],
            observation=[[[0.8, 0.2], [0.3, 0.7]]],
            linear_cost=[[0.0, 0.0]],
            discount=0.9,
        )
        step = filter_update(model, Belief([0.0, 1.0]), y=1, u=1)
        expected = np.array([0.8 * 0.2, 0.3 * 0.8])
        np.testing.assert_allclose(
            step.posterior.probs, expected / expected.sum(), atol=1e-15
        )
        assert step.likelihood == pytest.approx(expected.sum())
        oracle = exact_posterior_oracle(model, Belief([0.0, 1.0]), [(1, 1)])
        np.testing.assert_allclose(step.posterior.probs, oracle.probs, atol=1e-15)

    def test_impossible_observation_raises(self):
        model = identity_model([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ZeroLikelihood):
            filter_update(model, Belief([0.5, 0.5]), y=2, u=1)

    def test_index_validation(self):
        model = identity_model([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            filter_update(model, Belief([0.5, 0.5]), y=3, u=1)
        with pytest.raises(ValueError):
            filter_update(model, Belief([0.5, 0.5]), y=1, u=2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_normalization_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        pi = Belief(rng.dirichlet(np.ones(model.num_states)))
        for u in range(1, model.num_actions + 1):
            total = sum(
                filter_update(model, pi, y, u).likelihood
                for y in range(1, model.num_observations[u - 1] + 1)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestRelaxedUpdate:
    def test_matches_posterior_times_likelihood(self, rng):
        model = random_model(rng)
        pi = rng.dirichlet(np.ones(model.num_states))
        step = filter_update(model, Belief(pi), y=1, u=1)
        relaxed = relaxed_update(model, RelaxedBelief(pi), y=1, u=1)
        np.testing.assert_allclose(
            relaxed.weights, step.posterior.probs * step.likelihood, atol=1e-14
        )

    def test_linearity_in_scale(self, rng):
        model = random_model(rng)
        alpha = rng.uniform(0.1, 2.0, size=model.num_states)
        base = relaxed_update(model, RelaxedBelief(alpha), y=1, u=1)
        scaled = relaxed_update(model, RelaxedBelief(3.5 * alpha), y=1, u=1)
        np.testing.assert_allclose(scaled.weights, 3.5 * base.weights, atol=1e-13)

    def test_diagonal_selection(self):
        model = identity_model([[1.0, 0.0], [0.0, 1.0]])
        out = relaxed_update(model, RelaxedBelief([1.0, 1.0]), y=1, u=1)
        assert out.weights.tolist() == [1.0, 0.0]

    def test_zero_output_is_legal(self):
        model = identity_model([[1.0, 0.0], [1.0, 0.0]])
        out = relaxed_update(model, RelaxedBelief([0.5, 0.5]), y=2, u=1)
        assert out.total() == 0.0

    def test_normalized_filter_scale_invariance(self, rng):
        model = random_model(rng)
        alpha = rng.uniform(0.1, 2.0, size=model.num_states)
        for kappa in (0.1, 1.0, 7.3):
            a = relaxed_update(model, RelaxedBelief(alpha), y=1, u=1)
            b = relaxed_update(model, RelaxedBelief(kappa * alpha), y=1, u=1)
            np.testing.assert_allclose(
                a.weights / a.total(), b.weights / b.total(), atol=1e-13
            )


class TestOracle:
    def test_empty_sequence_returns_prior(self):
        model = qd_model()
        pi = Belief([0.25, 0.75])
        np.testing.assert_array_equal(
            exact_posterior_oracle(model, pi, []).probs, pi.probs
        )

    def test_length_cap(self):
        model = qd_model()
        with pytest.raises(ValueError, match="capped"):
            exact_posterior_oracle(model, Belief([0.0, 1.0]), [(1, 2)] * 13)

    def test_zero_probability_sequence(self):
        model = identity_model([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ZeroLikelihood):
            exact_posterior_oracle(model, Belief([0.5, 0.5]), [(2, 1)])

    def test_length_five_on_quickest_detection(self, rng):
        model = qd_model(persistence=0.8)
        seq = []
        pi = Belief([0.0, 1.0])
        for _ in range(5):
            y = 1 + int(rng.integers(0, 2))
            seq.append((y, 2))
            pi = filter_update(model, pi, y, 2).posterior
        oracle = exact_posterior_oracle(model, Belief([0.0, 1.0]), seq)
        np.testing.assert_allclose(pi.probs, oracle.probs, atol=1e-10)

    def test_matches_pure_python_enumeration(self):
        """Cross-check the vectorized enumeration against nested loops."""
        import itertools

        rng = np.random.default_rng(3)
        model = random_model(rng, num_states=3, num_actions=2)
        pi0 = rng.dirichlet(np.ones(3))
        seq = [(1, 1), (2, 2), (1, 2), (2, 1)]
        x = model.num_states
        marg = np.zeros(x)
        for path in itertools.product(range(x), repeat=len(seq) + 1):
            p = pi0[path[0]]
            for k, (y, u) in enumerate(seq):
                p *= model.transition[u - 1][path[k], path[k + 1]]
                p *= model.observation[u - 1][path[k + 1], y - 1]
            marg[path[-1]] += p
        expected = marg / marg.sum()
        got = exact_posterior_oracle(model, Belief(pi0), seq)
        np.testing.assert_allclose(got.probs, expected, atol=1e-14)
