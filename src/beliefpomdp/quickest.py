"""Bayesian quickest change detection as a two-state stopping POMDP.

A state process sits in a pre-change regime, jumps once to an absorbing
post-change state at a geometric time, and emits observations whose
distribution shifts at the jump.  Announcing too early incurs a false
alarm penalty; announcing late pays a per-step delay weight.  The
resulting stopping problem is undiscounted with a single-threshold
optimal policy in the post-change probability.

A detection model has two states and two actions: state 1 is the
absorbing post-change state, and the chain starts in state 2.  Stop
costs [0, 1], a unit false alarm when the change has not happened;
continue costs [d, 0], the delay weight once it has, plus an optional
nonlinear loss.  Both actions share one observation matrix.

The module holds what is specific to detection: the structure check
of a loaded model (``check_detection_model``), the threshold of a solved
detection policy (``qd_threshold``; the solve itself is the ordinary
``solve_stopping``) and the Monte Carlo cost of the threshold rule
(``ks_cost_estimate``).
The rule runs on ``simulate``'s path loop, which draws every random
number; its table's stop-cost column splits the cost into false alarm
and delay.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .costs import NonlinearCostSpec
from .errors import PreconditionFailed, StructureViolation
from .model import CONTINUE, STOP, Belief, PomdpModel, unit_belief
from .simulate import DEFAULT_HORIZON_CAP, path_simulator, run_chunked, standard_error
from .solver import Policy


def initial_belief() -> Belief:
    """The chain starts pre-change with certainty."""
    return unit_belief(2, 2)


def check_detection_model(model: PomdpModel) -> None:
    """Raise PreconditionFailed unless the model has the detection
    structure, with a change that arrives: continuing leaves the
    pre-change state 2 with positive probability, so the change time is
    geometric with mean 1 / (1 - P_continue[2, 2])."""
    if not model.is_stopping or model.num_states != 2 or model.discount != 1.0:
        raise PreconditionFailed(
            "quickest detection needs an undiscounted two-state stopping model"
        )
    p = model.transition[1]
    if not (p[0, 0] == 1.0 and p[0, 1] == 0.0):
        raise PreconditionFailed("state 1 must be absorbing under continue")
    if not p[1, 1] < 1.0:
        raise PreconditionFailed(
            f"the change must arrive: P_continue[2, 2] must be below 1, got {p[1, 1]}"
        )
    c1, c2 = model.linear_cost
    if not (c1[0] == 0.0 and c1[1] == 1.0 and c2[1] == 0.0 and c2[0] > 0.0):
        raise PreconditionFailed(
            "costs must be stop = [0, 1] and continue = [d, 0] with d > 0"
        )
    if not np.array_equal(model.observation[0], model.observation[1]):
        raise PreconditionFailed("both actions must share one observation matrix")


def qd_threshold(policy: Policy) -> float:
    """The announcement threshold of a solved two-state detection policy.

    The policy must stop at pi(2) = 0 and switch exactly once to
    continue; the threshold is the midpoint (k - 1/2) / M between the
    last stop point and the first continue point k.  Anything else
    signals a misconfigured solve and raises StructureViolation with the
    switch count; a grid of more than two states raises
    PreconditionFailed.
    """
    if policy.grid.num_states != 2:
        raise PreconditionFailed("threshold extraction needs a two-state grid")
    actions = policy.actions
    up = int(np.count_nonzero((actions[:-1] == STOP) & (actions[1:] == CONTINUE)))
    down = int(np.count_nonzero((actions[:-1] == CONTINUE) & (actions[1:] == STOP)))
    if up != 1 or down != 0:
        reason = "not a single stop-to-continue switch"
    elif actions[0] != STOP:
        reason = "policy does not stop at pi(2) = 0"
    else:
        first_continue = int(np.argmax(actions == CONTINUE))
        return (first_continue - 0.5) / policy.grid.resolution
    raise StructureViolation(f"solved policy has no threshold: {reason} ({up} switches)")


@dataclass
class KsCostEstimate:
    """Monte Carlo estimate of delay-plus-false-alarm detection cost."""

    delay_term: float
    false_alarm: float
    ks_cost: float
    ci_halfwidth: float
    num_paths: int
    cap_hits: int
    horizon_cap: int
    seed: int
    threshold: float
    mean_change_time: float


def ks_cost_estimate(
    model: PomdpModel,
    threshold: float,
    num_paths: int,
    horizon_cap: int = DEFAULT_HORIZON_CAP,
    seed: int = 0,
    workers: int = 1,
) -> KsCostEstimate:
    """Price the threshold rule on a detection model: announce at the
    first step whose posterior pre-change probability pi(2) is strictly
    below ``threshold``, the start belief included.

    The rule runs on ``simulate``'s path loop from the pre-change vertex,
    on the model without its continue loss, so each path's cost is its
    Kolmogorov-Shiryaev cost: the false alarm priced at announcement by
    pi(2), plus the delay weight times pi(1) at each step before.  Priced
    costs in place of 0/1 indicators make the standard error smaller.
    Returns the delay term, the false alarm probability, their sum and a
    95 percent normal-approximation half width.  Paths still running at
    the horizon cap are counted in ``cap_hits`` and accrue delay up to
    it; ``mean_change_time`` is the exact mean of the geometric change
    time.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    check_detection_model(model)
    rule = lambda points: (np.where(points[:, 1] < threshold, STOP, CONTINUE), None)  # noqa: E731
    priced = replace(model, nonlinear_cost=NonlinearCostSpec())
    sim = path_simulator(priced, rule, initial_belief(), horizon_cap)
    cost, running, stop = run_chunked(sim, seed, num_paths, workers=workers).T
    return KsCostEstimate(
        delay_term=float((cost - stop).mean()),
        false_alarm=float(stop.mean()),
        ks_cost=float(cost.mean()),
        ci_halfwidth=1.96 * standard_error(cost),
        num_paths=num_paths,
        cap_hits=int(running.sum()),
        horizon_cap=horizon_cap,
        seed=seed,
        threshold=float(threshold),
        mean_change_time=1.0 / (1.0 - float(model.transition[1][1, 1])),
    )
