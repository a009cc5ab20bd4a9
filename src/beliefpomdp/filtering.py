"""Bayesian belief updates for hidden Markov models.

``filter_update`` is the normalized one-step recursion: the posterior is
B_y(u) P'(u) pi rescaled to sum to one, and the normalizer is the
predictive probability of the observation.  ``relaxed_update`` is the
same linear map without normalization, defined on the whole positive
orthant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZERO_LIKELIHOOD_THRESHOLD, ZeroLikelihood
from .model import Belief, PomdpModel, RelaxedBelief

#: path enumeration is exponential in sequence length
MAX_ORACLE_STEPS = 12


@dataclass(frozen=True)
class FilterStep:
    """Posterior belief plus the predictive likelihood of the observation."""

    posterior: Belief
    likelihood: float


def _unnormalized(model: PomdpModel, probs: np.ndarray, y: int, u: int) -> np.ndarray:
    if not 1 <= u <= model.num_actions:
        raise ValueError(f"action index {u} out of range 1..{model.num_actions}")
    y_count = model.num_observations[u - 1]
    if not 1 <= y <= y_count:
        raise ValueError(f"observation index {y} out of range 1..{y_count}")
    predicted = probs @ model.transition[u - 1]
    return model.observation[u - 1][:, y - 1] * predicted


def filter_update(model: PomdpModel, belief: Belief, y: int, u: int) -> FilterStep:
    """One Bayes step: posterior and likelihood for observation y under action u.

    Raises ZeroLikelihood when the observation has numerically no
    probability under the model (nothing meaningful to condition on).
    """
    z = _unnormalized(model, belief.probs, y, u)
    sigma = float(z.sum())
    if sigma <= ZERO_LIKELIHOOD_THRESHOLD:
        raise ZeroLikelihood(
            f"observation {y} under action {u} has probability {sigma:.3e}"
        )
    posterior = z / sigma
    posterior /= posterior.sum()
    return FilterStep(posterior=Belief(posterior), likelihood=sigma)


def relaxed_update(model: PomdpModel, alpha: RelaxedBelief, y: int, u: int) -> RelaxedBelief:
    """Unnormalized update B_y(u) P'(u) alpha; the zero vector is legal output."""
    z = _unnormalized(model, alpha.weights, y, u)
    return RelaxedBelief(z, allow_zero=True)


def exact_posterior_oracle(model: PomdpModel, initial: Belief, steps) -> Belief:
    """Posterior after a (y, u) sequence, by explicit path enumeration.

    Maintains one joint probability per hidden state path, so the work is
    X^(len(steps)+1); sequences longer than MAX_ORACLE_STEPS are refused.
    Serves as an independent cross-check of the iterated filter.
    """
    steps = list(steps)
    if len(steps) > MAX_ORACLE_STEPS:
        raise ValueError(
            f"oracle sequences are capped at {MAX_ORACLE_STEPS} steps, got {len(steps)}"
        )
    x = model.num_states
    # path_probs[i0, i1, ..., ik] flattened, last state varying fastest
    path_probs = initial.probs.copy()
    for y, u in steps:
        if not 1 <= u <= model.num_actions:
            raise ValueError(f"action index {u} out of range 1..{model.num_actions}")
        if not 1 <= y <= model.num_observations[u - 1]:
            raise ValueError(
                f"observation index {y} out of range 1..{model.num_observations[u - 1]}"
            )
        step = model.transition[u - 1] * model.observation[u - 1][:, y - 1][None, :]
        last_state = np.arange(path_probs.size) % x
        path_probs = (path_probs[:, None] * step[last_state]).ravel()
    total = float(path_probs.sum())
    if total <= ZERO_LIKELIHOOD_THRESHOLD:
        raise ZeroLikelihood("observation sequence has zero probability")
    marginal = path_probs.reshape(-1, x).sum(axis=0)
    return Belief(marginal / total)
