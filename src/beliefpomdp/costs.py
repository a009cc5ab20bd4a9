"""Belief-dependent cost families and the combined instantaneous cost.

A cost has a linear part ``c_u' pi`` (state-occupancy cost of an action)
plus an optional performance-loss term that depends nonlinearly on the
belief.  Losses are designed to vanish at the simplex vertices (perfect
state knowledge) and peak near the centroid.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .columns import row_sum

if TYPE_CHECKING:
    from .model import PomdpModel

SYMMETRY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class NonlinearCostSpec:
    """Performance-loss family and its parameters.

    ``alpha``/``beta`` are per-action scale and offset (length U).
    ``weight_matrix`` is the symmetric PSD matrix of the mean-square
    family.  ``epsilon`` in [0, 0.5] is the piecewise-linear band width.
    ``validate=False`` builds a spec without checking it: the model-file
    loader does, so that ``validate_model`` lists the defects.
    """

    family: str = "none"
    epsilon: float | None = None
    weight_matrix: np.ndarray | None = None
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        if self.weight_matrix is not None:
            m = np.array(self.weight_matrix, dtype=float)
            m.setflags(write=False)
            object.__setattr__(self, "weight_matrix", m)
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if v is not None:
                v = np.atleast_1d(np.array(v, dtype=float))
                v.setflags(write=False)
                object.__setattr__(self, name, v)
        if validate:
            problems = self.check()
            if problems:
                raise ValueError("; ".join(problems))

    def check(self) -> list[str]:
        """Return a list of invariant violations (empty when valid)."""
        out = []
        if self.family not in FAMILIES:
            return [f"unknown cost family {self.family!r}"]
        if self.family == "none":
            for name in ("epsilon", "weight_matrix", "alpha", "beta"):
                if getattr(self, name) is not None:
                    out.append(f"family 'none' takes no parameter {name!r}")
            return out
        if self.family == "piecewise_linear":
            if self.epsilon is None or not 0.0 <= self.epsilon <= 0.5:
                out.append(f"epsilon must lie in [0, 0.5], got {self.epsilon!r}")
            for name in ("weight_matrix", "alpha", "beta"):
                if getattr(self, name) is not None:
                    out.append(f"piecewise_linear takes no parameter {name!r}")
            return out
        # weighted families
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if v is not None and not np.all(np.isfinite(v)):
                out.append(f"{name} must be finite")
        if self.alpha is None or np.any(self.alpha <= 0):
            out.append("alpha must be positive for every action")
        if self.beta is None or np.any(self.beta < 0):
            out.append("beta must be nonnegative for every action")
        if (
            self.alpha is not None
            and self.beta is not None
            and self.alpha.shape != self.beta.shape
        ):
            out.append("alpha and beta must have one entry per action")
        if self.family == "mean_square":
            m = self.weight_matrix
            if m is None or m.ndim != 2 or m.shape[0] != m.shape[1]:
                out.append("mean_square requires a square weight_matrix")
            elif not np.all(np.isfinite(m)):
                out.append("weight_matrix must be finite")
            else:
                asym = float(np.max(np.abs(m - m.T)))
                if asym > SYMMETRY_TOL:
                    out.append(f"weight_matrix asymmetric by {asym:.3e}")
                else:
                    lo = float(np.linalg.eigvalsh(m).min())
                    if lo < EIGENVALUE_FLOOR:
                        out.append(f"weight_matrix has eigenvalue {lo:.3e} < 0")
        elif self.weight_matrix is not None:
            out.append(f"family {self.family!r} takes no weight_matrix")
        return out

    def to_dict(self) -> dict:
        d = {"family": self.family}
        if self.epsilon is not None:
            d["epsilon"] = float(self.epsilon)
        if self.weight_matrix is not None:
            d["weight_matrix"] = self.weight_matrix.tolist()
        if self.alpha is not None:
            d["alpha"] = self.alpha.tolist()
        if self.beta is not None:
            d["beta"] = self.beta.tolist()
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "NonlinearCostSpec":
        allowed = {"family", "epsilon", "weight_matrix", "alpha", "beta"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown nonlinear_cost keys: {sorted(unknown)}")
        return cls(**data, validate=False)


def performance_loss_batch(spec: NonlinearCostSpec, beliefs: np.ndarray, u: int) -> np.ndarray:
    """Vectorized performance loss over a (N, X) array of beliefs.

    ``u`` is the 1-based action index.
    """
    p = np.asarray(beliefs, dtype=float)
    if p.ndim == 1:
        p = p[None, :]
    loss, _, weighted = _family(spec)
    if not weighted:
        return loss(spec, p)
    a, b = _weights(spec, u)
    return a * loss(spec, p) + b


def _family(spec: NonlinearCostSpec) -> tuple:
    """The spec's ``_FAMILY_TABLE`` entry."""
    if spec.family not in _FAMILY_TABLE:
        raise ValueError(f"unknown cost family {spec.family!r}")
    return _FAMILY_TABLE[spec.family]


def _weights(spec: NonlinearCostSpec, u: int) -> tuple:
    """alpha(u) and beta(u) of a weighted family."""
    if not 1 <= u <= spec.alpha.size:
        raise ValueError(f"action index {u} out of range 1..{spec.alpha.size}")
    return float(spec.alpha[u - 1]), float(spec.beta[u - 1])


def _piecewise_linear_loss(spec: NonlinearCostSpec, p: np.ndarray) -> np.ndarray:
    # d(e_i, pi) is a three-level step in ||e_i - pi||_inf; ties at the
    # breakpoints resolve to the later branch (exactly eps -> eps,
    # exactly 1 - eps -> 1).
    eps = spec.epsilon
    n, x = p.shape
    total = np.zeros(n)
    for i in range(x):
        diff = np.abs(-p)
        diff[:, i] = np.abs(1.0 - p[:, i])
        dist = diff.max(axis=1)
        d = np.where(dist >= 1.0 - eps, 1.0, np.where(dist >= eps, eps, 0.0))
        total += d * p[:, i]
    return total


def _mean_square_loss(spec: NonlinearCostSpec, p: np.ndarray) -> np.ndarray:
    m = spec.weight_matrix
    return p @ np.diag(m) - np.einsum("ni,ij,nj->n", p, m, p)


#: family -> (loss, bound, weighted): loss(spec, p) of each belief row of
#: p, and bound(spec, x) an upper bound on it over the x-state simplex; a
#: weighted family's cost is alpha(u) * loss + beta(u), and so its bound
_FAMILY_TABLE = {
    "none": (lambda spec, p: np.zeros(p.shape[0]), lambda spec, x: 0.0, False),
    "piecewise_linear": (_piecewise_linear_loss, lambda spec, x: 1.0, False),
    "mean_square": (
        _mean_square_loss,
        lambda spec, x: 2.0 * float(np.linalg.eigvalsh(spec.weight_matrix).max()),
        True,
    ),
    "l1": (lambda spec, p: 2.0 * (1.0 - np.einsum("ni,ni->n", p, p)), lambda spec, x: 2.0, True),
    "linf": (lambda spec, p: 1.0 - np.einsum("ni,ni->n", p, p), lambda spec, x: 1.0, True),
    "entropy": (
        lambda spec, p: -row_sum(p * np.log2(p, out=np.zeros_like(p), where=p > 0)),
        lambda spec, x: np.log2(x),
        True,
    ),
}

FAMILIES = tuple(_FAMILY_TABLE)


def cost_problems(model: "PomdpModel") -> list[str]:
    """``check()`` of the model's cost spec, then its sizes against the
    model: one alpha per action, and a weight matrix of order X."""
    spec, m = model.nonlinear_cost, model.nonlinear_cost.weight_matrix
    out = spec.check()
    weighted = spec.family in FAMILIES and _family(spec)[2]
    if weighted and spec.alpha is not None and spec.alpha.size != model.num_actions:
        out.append(f"alpha has {spec.alpha.size} entries for {model.num_actions} actions")
    if spec.family == "mean_square" and m is not None and m.ndim == 2:
        if m.shape[0] != model.num_states:
            out.append(f"weight_matrix is {m.shape[0]}x{m.shape[1]} for {model.num_states} states")
    return out


def instantaneous_cost_batch(model: "PomdpModel", beliefs: np.ndarray, u: int) -> np.ndarray:
    """Combined cost ``c_u' pi + D(pi, u)`` over a (N, X) array of beliefs.

    For stopping-time models the stop action (u = 1) carries only its
    linear terminal cost.
    """
    if not 1 <= u <= model.num_actions:
        raise ValueError(f"action index {u} out of range 1..{model.num_actions}")
    p = np.asarray(beliefs, dtype=float)
    if p.ndim == 1:
        p = p[None, :]
    linear = p @ model.linear_cost[u - 1]
    if model.is_stopping and u == 1:
        return linear
    return linear + performance_loss_batch(model.nonlinear_cost, p, u)


def max_cost_bound(model: "PomdpModel") -> float:
    """Upper bound on |C(pi, u)| over the simplex and all actions."""
    spec = model.nonlinear_cost
    _, loss_bound, weighted = _family(spec)
    peak = loss_bound(spec, model.num_states)
    bound = 0.0
    for u in range(1, model.num_actions + 1):
        lin = float(np.max(np.abs(model.linear_cost[u - 1])))
        loss = 0.0
        if not (model.is_stopping and u == 1):
            a, b = _weights(spec, u) if weighted else (1.0, 0.0)
            loss = a * peak + b
        bound = max(bound, lin + loss)
    return bound
