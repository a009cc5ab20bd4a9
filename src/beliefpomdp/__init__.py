"""Belief-space POMDP solving and structural certification for controlled sensing.

The package builds finite POMDP models with costs that may depend
nonlinearly on the belief, solves them by value iteration on a simplex
grid, and numerically certifies structural properties of the solution:
concavity of the value function, convexity of stopping sets, threshold
policies for quickest change detection, positive homogeneity of the
orthant-relaxed value function, monotonicity in the likelihood-ratio
order, and myopic policy bounds under Blackwell dominance of sensors.

Observation alphabets are finite; continuous observation densities are
out of scope.
"""

from .model import (
    Belief,
    PomdpModel,
    fixture_path,
    load_model,
    save_model,
    unit_belief,
    uniform_belief,
    validate_model,
)

__version__ = "0.1.0"

#: the array library the value-iteration sweep runs on
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "Belief",
    "PomdpModel",
    "__version__",
    "fixture_path",
    "load_model",
    "save_model",
    "unit_belief",
    "uniform_belief",
    "validate_model",
]
