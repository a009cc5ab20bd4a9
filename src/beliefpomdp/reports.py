"""Structured pass/fail reports produced by the numerical verifiers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class OrderCheckReport:
    """Outcome of one verifier predicate.

    ``holds`` is true iff ``worst_violation <= tolerance``.  ``witness``
    identifies where the worst violation occurred (indices, a belief pair,
    or None when nothing was checked).
    """

    predicate: str
    holds: bool
    worst_violation: float
    tolerance: float
    witness: Any = None
    samples: int = 0
    details: dict = field(default_factory=dict)


def make_report(predicate, worst, tolerance, witness=None, samples=0, **details):
    """Build a report, deriving ``holds`` from the violation/tolerance pair."""
    return OrderCheckReport(
        predicate=predicate,
        holds=bool(worst <= tolerance),
        worst_violation=float(worst),
        tolerance=float(tolerance),
        witness=witness,
        samples=samples,
        details=dict(details),
    )
