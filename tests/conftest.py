"""Shared model builders for the test suite."""

import numpy as np
import pytest

from beliefpomdp.costs import NonlinearCostSpec
from beliefpomdp.model import GENERAL_DISCOUNTED, STOPPING_TIME, PomdpModel


def random_model(rng, num_states=None, num_actions=None, max_obs=3, discount=0.9):
    """Random valid model with dirichlet rows (all entries positive)."""
    x = num_states or int(rng.integers(2, 5))
    u = num_actions or int(rng.integers(1, 3))
    ys = [int(rng.integers(2, max_obs + 1)) for _ in range(u)]
    return PomdpModel(
        num_states=x,
        num_actions=u,
        num_observations=ys,
        transition=[rng.dirichlet(np.ones(x), size=x) for _ in range(u)],
        observation=[rng.dirichlet(np.ones(y), size=x) for y in ys],
        linear_cost=[rng.uniform(0.0, 1.0, size=x) for _ in range(u)],
        discount=discount,
    )


def qd_model(persistence=0.9, delay=0.05, b=None, continue_loss=None):
    """Quickest-detection model: state 1 absorbing post-change, start in
    state 2, stop cost [0, 1], continue cost [delay, 0] plus the optional
    nonlinear ``continue_loss``."""
    b = b if b is not None else [[0.8, 0.2], [0.3, 0.7]]
    p = [[1.0, 0.0], [1.0 - persistence, persistence]]
    return PomdpModel(
        num_states=2,
        num_actions=2,
        num_observations=(len(b[0]),) * 2,
        transition=(p, p),
        observation=(b, b),
        linear_cost=([0.0, 1.0], [delay, 0.0]),
        nonlinear_cost=continue_loss or NonlinearCostSpec(),
        discount=1.0,
        model_kind=STOPPING_TIME,
    )


def two_state_general(
    nonlinear=None, linear=None, discount=0.9, num_actions=2
):
    """Small well-conditioned two-state discounted model."""
    p = [[[0.8, 0.2], [0.3, 0.7]], [[0.9, 0.1], [0.4, 0.6]]][:num_actions]
    b = [[[0.7, 0.3], [0.2, 0.8]], [[0.85, 0.15], [0.35, 0.65]]][:num_actions]
    linear = linear if linear is not None else [[1.0, 0.2], [0.8, 0.1]][:num_actions]
    return PomdpModel(
        num_states=2,
        num_actions=num_actions,
        num_observations=(2,) * num_actions,
        transition=p,
        observation=b,
        linear_cost=linear,
        nonlinear_cost=nonlinear or NonlinearCostSpec(),
        discount=discount,
        model_kind=GENERAL_DISCOUNTED,
    )


def three_state_general(nonlinear=None, discount=0.5):
    return PomdpModel(
        num_states=3,
        num_actions=2,
        num_observations=(2, 3),
        transition=(
            [[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]],
            [[0.6, 0.3, 0.1], [0.15, 0.7, 0.15], [0.05, 0.25, 0.7]],
        ),
        observation=(
            [[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]],
            [[0.7, 0.2, 0.1], [0.25, 0.5, 0.25], [0.1, 0.2, 0.7]],
        ),
        linear_cost=([2.0, 1.0, 0.5], [1.8, 0.9, 0.3]),
        nonlinear_cost=nonlinear or NonlinearCostSpec(),
        discount=discount,
        model_kind=GENERAL_DISCOUNTED,
    )


def cost_family_spec(family, num_actions=2, num_states=2):
    """Concave nonlinear cost spec of the requested family."""
    alpha = [0.5] * num_actions
    beta = [0.0] * num_actions
    if family == "none":
        return NonlinearCostSpec()
    if family == "piecewise_linear":
        return NonlinearCostSpec("piecewise_linear", epsilon=0.1234)
    if family == "mean_square":
        m = np.eye(num_states) + 0.2 * np.ones((num_states, num_states))
        return NonlinearCostSpec("mean_square", weight_matrix=m, alpha=alpha, beta=beta)
    return NonlinearCostSpec(family, alpha=alpha, beta=beta)


class LargestDraws:
    """Generator stand-in: every uniform draw is the largest double below 1."""

    def random(self, count):
        return np.full(count, 1.0 - 2.0**-53)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
