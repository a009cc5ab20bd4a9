"""POMDP model instances, beliefs, validation, and model-file I/O.

States, actions, and observations are 1-indexed everywhere in the public
API.  A model bundles per-action transition matrices P(u), per-action
observation matrices B(u) (whose column counts may differ across
actions), linear cost vectors, an optional nonlinear cost spec, and a
discount factor.  All containers are immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .costs import NonlinearCostSpec, cost_problems, max_cost_bound
from .errors import ModelFormatError

ROW_SUM_TOL = 1e-12

#: largest value bound a model may have: 2^-524 of the float range (2^1024),
#: or 2^-12 of its square root, so a sweep's sums stay finite, and so do the
#: squared deviations behind a Monte Carlo standard error over 2^20 paths
VALUE_BOUND_LIMIT = 2.0**500

GENERAL_DISCOUNTED = "general_discounted"
STOPPING_TIME = "stopping_time"
MODEL_KINDS = (GENERAL_DISCOUNTED, STOPPING_TIME)

#: action indices of a stopping-time model
STOP = 1
CONTINUE = 2


@dataclass(frozen=True)
class Belief:
    """Probability vector over the hidden states."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("belief must be a nonempty 1-D vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("belief has a non-finite entry")
        if np.any(p < 0):
            raise ValueError(f"belief has negative entry {float(p.min()):.3e}")
        total = float(p.sum())
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"belief sums to {total!r}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def num_states(self) -> int:
        return self.probs.size


def unit_belief(i: int, num_states: int) -> Belief:
    """Vertex belief e_i (1-indexed)."""
    if not 1 <= i <= num_states:
        raise ValueError(f"state index {i} out of range 1..{num_states}")
    p = np.zeros(num_states)
    p[i - 1] = 1.0
    return Belief(p)


def uniform_belief(num_states: int) -> Belief:
    """Centroid of the belief simplex."""
    if num_states < 1:
        raise ValueError("num_states must be >= 1")
    return Belief(np.full(num_states, 1.0 / num_states))


@dataclass(frozen=True)
class Violation:
    """One validation defect: where it is and how large."""

    where: str
    message: str
    magnitude: float = 0.0

    def __str__(self):
        return f"{self.where}: {self.message}"


@dataclass(frozen=True)
class PomdpModel:
    """A finite POMDP with optional belief-dependent costs.

    ``transition[u-1]`` is the X by X row-stochastic matrix of action u,
    ``observation[u-1]`` the X by Y(u) row-stochastic observation matrix,
    and ``linear_cost[u-1]`` the length-X cost vector.  Stopping-time
    models have exactly two actions: 1 stops, 2 continues.
    """

    num_states: int
    num_actions: int
    num_observations: tuple
    transition: tuple
    observation: tuple
    linear_cost: tuple
    nonlinear_cost: NonlinearCostSpec = NonlinearCostSpec()
    discount: float = 0.95
    model_kind: str = GENERAL_DISCOUNTED

    def __post_init__(self):
        x, u_count = int(self.num_states), int(self.num_actions)
        if x < 2:
            raise ValueError("num_states must be >= 2")
        if u_count < 1:
            raise ValueError("num_actions must be >= 1")
        ys = tuple(int(y) for y in self.num_observations)
        if len(ys) != u_count or any(y < 1 for y in ys):
            raise ValueError("num_observations needs one positive count per action")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model_kind {self.model_kind!r}")

        def freeze(mats, shapes, label):
            if len(mats) != u_count:
                raise ValueError(f"{label} needs one entry per action")
            out = []
            for a, (mat, shape) in enumerate(zip(mats, shapes), start=1):
                arr = np.array(mat, dtype=float)
                if arr.shape != shape:
                    raise ValueError(
                        f"{label}[{a}] has shape {arr.shape}, expected {shape}"
                    )
                arr.setflags(write=False)
                out.append(arr)
            return tuple(out)

        object.__setattr__(self, "num_states", x)
        object.__setattr__(self, "num_actions", u_count)
        object.__setattr__(self, "num_observations", ys)
        object.__setattr__(
            self, "transition", freeze(self.transition, [(x, x)] * u_count, "transition")
        )
        object.__setattr__(
            self,
            "observation",
            freeze(self.observation, [(x, y) for y in ys], "observation"),
        )
        object.__setattr__(
            self,
            "linear_cost",
            freeze(self.linear_cost, [(x,)] * u_count, "linear_cost"),
        )
        object.__setattr__(self, "discount", float(self.discount))

    @property
    def is_stopping(self) -> bool:
        return self.model_kind == STOPPING_TIME

    def to_dict(self) -> dict:
        return {
            "num_states": self.num_states,
            "num_actions": self.num_actions,
            "num_observations": list(self.num_observations),
            "transition": [m.tolist() for m in self.transition],
            "observation": [m.tolist() for m in self.observation],
            "linear_cost": [v.tolist() for v in self.linear_cost],
            "nonlinear_cost": self.nonlinear_cost.to_dict(),
            "discount": self.discount,
            "model_kind": self.model_kind,
        }


def validate_model(model: PomdpModel) -> list[Violation]:
    """Check every model invariant; return one Violation per defect.

    The last check, made only on a model with no other defect, bounds the
    values a solve reaches by the cost bound B of ``costs.max_cost_bound``:
    B / (1 - rho) for rho < 1, and 2B for an undiscounted stopping model
    with nonnegative costs, whose iterates never exceed the stop cost and
    whose continuation adds one step's cost.  A bound above
    VALUE_BOUND_LIMIT is a defect.
    """
    out = []

    def finite(array, where) -> bool:
        # NaN passes every comparison check below, and infinities make
        # infinite magnitudes, which JSON cannot hold
        bad = array[~np.isfinite(array)]
        if bad.size:
            out.append(Violation(where, f"non-finite entry {float(bad[0])}"))
        return not bad.size

    def check_rows(mats, label):
        for a, mat in enumerate(mats, start=1):
            for r in range(mat.shape[0]):
                row = mat[r]
                if not finite(row, f"{label}[{a}] row {r + 1}"):
                    continue
                neg = float(row.min())
                if neg < 0:
                    out.append(
                        Violation(
                            f"{label}[{a}] row {r + 1}",
                            f"negative entry {neg:.6g}",
                            abs(neg),
                        )
                    )
                total = float(row.sum())
                if abs(total - 1.0) > ROW_SUM_TOL:
                    out.append(
                        Violation(
                            f"{label}[{a}] row {r + 1}",
                            f"row sum {total:.17g} != 1",
                            abs(total - 1.0),
                        )
                    )

    check_rows(model.transition, "transition")
    check_rows(model.observation, "observation")
    for a, cost in enumerate(model.linear_cost, start=1):
        finite(cost, f"linear_cost[{a}]")

    rho = model.discount
    if not np.isfinite(rho):
        out.append(Violation("discount", f"non-finite discount {rho}"))
    elif not 0.0 <= rho <= 1.0:
        out.append(Violation("discount", f"discount {rho} outside [0, 1]", abs(rho)))
    elif rho == 1.0 and not model.is_stopping:
        out.append(
            Violation(
                "discount",
                "discount 1 is only permitted for stopping_time models",
            )
        )
    if model.is_stopping and model.num_actions != 2:
        out.append(
            Violation(
                "num_actions",
                f"stopping_time models need 2 actions (stop=1, continue=2), "
                f"got {model.num_actions}",
            )
        )

    for msg in cost_problems(model):
        out.append(Violation("nonlinear_cost", msg))
    if not out:
        with np.errstate(over="ignore"):
            cost = max_cost_bound(model)
            bound = cost * (1.0 / (1.0 - rho) if rho < 1.0 else 2.0)
        if bound > VALUE_BOUND_LIMIT:
            bounds = f"cost bound {cost:.3e} bounds the values by {bound:.3e}"
            out.append(Violation("costs", f"{bounds}, above {VALUE_BOUND_LIMIT:.3e}"))
    return out


_TOP_LEVEL_KEYS = {
    "num_states",
    "num_actions",
    "num_observations",
    "transition",
    "observation",
    "linear_cost",
    "nonlinear_cost",
    "discount",
    "model_kind",
}


def model_from_dict(data: dict) -> PomdpModel:
    if not isinstance(data, dict):
        raise ModelFormatError("model document must be a JSON object")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ModelFormatError(f"unknown model keys: {sorted(unknown)}")
    missing = _TOP_LEVEL_KEYS - set(data) - {"nonlinear_cost"}
    if missing:
        raise ModelFormatError(f"missing model keys: {sorted(missing)}")
    try:
        spec = NonlinearCostSpec.from_dict(data.get("nonlinear_cost", {"family": "none"}))
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    try:
        return PomdpModel(
            num_states=data["num_states"],
            num_actions=data["num_actions"],
            num_observations=data["num_observations"],
            transition=data["transition"],
            observation=data["observation"],
            linear_cost=data["linear_cost"],
            nonlinear_cost=spec,
            discount=data["discount"],
            model_kind=data["model_kind"],
        )
    except (ValueError, TypeError) as exc:
        raise ModelFormatError(str(exc)) from exc


def load_model(path, require_valid: bool = True) -> PomdpModel:
    """Parse a model file; optionally reject models with invariant defects."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    model = model_from_dict(data)
    if require_valid:
        violations = validate_model(model)
        if violations:
            lines = "; ".join(str(v) for v in violations)
            raise ModelFormatError(f"{path}: {lines}")
    return model


def save_model(model: PomdpModel, path) -> None:
    Path(path).write_text(json.dumps(model.to_dict(), indent=2) + "\n")


def fixture_path(name: str) -> Path:
    """Path of a model fixture shipped with the package."""
    root = resources.files("beliefpomdp") / "fixtures"
    p = Path(str(root / name))
    if not p.exists():
        available = sorted(f.name for f in Path(str(root)).glob("*.json"))
        raise FileNotFoundError(f"no fixture {name!r}; available: {available}")
    return p
