"""Consistency-violation accounting and budget calibration.

The observational contrast psi and the interventional contrast tau
differ by a population bias K = psi - tau.  Bounds on psi therefore
translate into bounds on tau by subtracting K (or an assumed range for
it).  The per-individual bias splits exactly into two parts: the gap
between an individual's prognosis under their natural treatment and
under assignment to that same treatment, and the cross-arm gap for the
treatment they would not naturally take.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import IdentifiedInterval, MomentBudget, ObservedJoint


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class IndividualProfile:
    """One individual's treatment propensity and outcome probabilities.

    pi is the probability of naturally taking treatment 1.  e_ab is the
    expected outcome when assigned treatment a, conditioned on the
    natural treatment being b.  r_given_1 and r_given_0 are the
    prognoses along the natural arms (no assignment).  Consistency of
    assignment with natural uptake would mean e11 == r_given_1 and
    e00 == r_given_0; the decomposition below measures how far a
    profile is from that.
    """

    pi: float
    e11: float
    e10: float
    e01: float
    e00: float
    r_given_1: float
    r_given_0: float

    def __post_init__(self) -> None:
        for name in ("pi", "e11", "e10", "e01", "e00", "r_given_1", "r_given_0"):
            _check_unit(name, getattr(self, name))

    @property
    def r_assigned_1(self) -> float:
        """Expected outcome under assignment to treatment 1."""
        return self.pi * self.e11 + (1 - self.pi) * self.e10

    @property
    def r_assigned_0(self) -> float:
        """Expected outcome under assignment to treatment 0."""
        return self.pi * self.e01 + (1 - self.pi) * self.e00


@dataclass(frozen=True)
class BiasDecomposition:
    """Split of the individual bias k into own-arm and cross-arm parts."""

    delta1: float
    delta2: float

    @property
    def k(self) -> float:
        return self.delta1 + self.delta2


def k_individual(profile: IndividualProfile) -> float:
    """Individual bias: natural-arm contrast minus assignment contrast."""
    p = profile
    return (p.r_given_1 - p.r_assigned_1) - (p.r_given_0 - p.r_assigned_0)


def decompose(profile: IndividualProfile) -> BiasDecomposition:
    """Exact split k = delta1 + delta2.

    delta1 collects the own-arm gaps (natural prognosis versus assigned
    prognosis on the treatment the individual would take anyway),
    delta2 the cross-arm gaps weighted by how often each arm is not the
    natural one.
    """
    p = profile
    delta1 = p.pi * (p.r_given_1 - p.e11) - (1 - p.pi) * (p.r_given_0 - p.e00)
    delta2 = (1 - p.pi) * (p.r_given_1 - p.e10) - p.pi * (p.r_given_0 - p.e01)
    return BiasDecomposition(delta1=delta1, delta2=delta2)


def population_k(profiles: Iterable[IndividualProfile],
                 weights: Sequence[float] | None = None) -> float:
    """Population bias K as the (weighted) mean of individual biases.

    Weights must be finite and nonnegative, with a positive total."""
    ks = [k_individual(p) for p in profiles]
    if not ks:
        raise ValueError("population_k needs at least one profile")
    if weights is None:
        return sum(ks) / len(ks)
    if len(weights) != len(ks):
        raise ValueError("weights must match the number of profiles")
    if not all(math.isfinite(w) and w >= 0 for w in weights):
        raise ValueError("weights must be finite and nonnegative")
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must have positive total")
    return sum(w * k for w, k in zip(weights, ks)) / total


@dataclass(frozen=True)
class ShiftedRange:
    """Bounds on tau when only a range for K is assumed.

    One-sided knowledge is expressed with infinite endpoints: k_max of
    +inf leaves the lower bound at -inf, and symmetrically for k_min.
    """

    lower: float
    upper: float
    k_min: float
    k_max: float


def shift_interval_range(interval: IdentifiedInterval,
                         k_min: float = -math.inf,
                         k_max: float = math.inf) -> ShiftedRange:
    """Worst-case shift of (L, U) over K in [k_min, k_max]."""
    if k_min > k_max:
        raise ValueError("k_min must not exceed k_max")
    return ShiftedRange(lower=interval.L - k_max, upper=interval.U - k_min,
                        k_min=k_min, k_max=k_max)


def shift_interval(interval: IdentifiedInterval, k: float) -> ShiftedRange:
    """Bounds on tau from bounds on psi under a known bias K = k."""
    return shift_interval_range(interval, k, k)


def calibrate_budget(joint: ObservedJoint, d_x: float, d_y: float) -> MomentBudget:
    """Budgets as fractions of the maximal marginal spread.

    The second moment of pi around Pr(x=1) can be at most
    Pr(x=1)(1 - Pr(x=1)), attained when pi is the indicator of
    treatment; likewise for the prognosis moment around Pr(y=1).  d_x
    and d_y in [0, 1] express the assumed explained-variation fraction
    on each axis, so d = 1 recovers the vacuous budget and d = 0 pins
    the quantity at its marginal mean.
    """
    _check_unit("d_x", d_x)
    _check_unit("d_y", d_y)
    f = d_x * joint.px1 * (1 - joint.px1)
    g = d_y * joint.py1 * (1 - joint.py1)
    return MomentBudget(f=f, g=g)
