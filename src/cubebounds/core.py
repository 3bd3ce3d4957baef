"""Domain types shared across the package: observed 2x2 data, probability
summaries, moment budgets, and identified intervals.

Conventions: x is the binary treatment, y is the binary outcome, and the
joint cell p_ab means Pr(x=a, y=b).  All types are immutable values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


class DegenerateTableError(ValueError):
    """A marginal needed for a conditional risk is zero."""


@dataclass(frozen=True)
class ContingencyTable:
    """Observed 2x2 table of (treatment, outcome) counts.

    Cells may alternatively be relative frequencies summing to 1; both
    forms normalize to the same ObservedJoint.
    """

    n11: float  # x=1, y=1
    n10: float  # x=1, y=0
    n01: float  # x=0, y=1
    n00: float  # x=0, y=0

    def __post_init__(self) -> None:
        cells = (self.n11, self.n10, self.n01, self.n00)
        if not all(math.isfinite(c) for c in cells):
            raise ValueError("table cells must be finite numbers")
        if any(c < 0 for c in cells):
            raise ValueError("table cells must be nonnegative")
        if not math.isfinite(self.total):
            raise ValueError("table total overflows to infinity")
        if self.total <= 0:
            raise ValueError("table total must be positive")

    @property
    def total(self) -> float:
        return self.n11 + self.n10 + self.n01 + self.n00

    @property
    def is_frequencies(self) -> bool:
        """True when the cells already sum to 1 (relative frequencies)."""
        return abs(self.total - 1.0) <= 1e-9


@dataclass(frozen=True)
class ObservedJoint:
    """The four joint probabilities Pr(x, y) plus both marginals."""

    p11: float
    p10: float
    p01: float
    p00: float
    px1: float = field(init=False)
    py1: float = field(init=False)

    def __post_init__(self) -> None:
        cells = (self.p11, self.p10, self.p01, self.p00)
        if not all(math.isfinite(p) for p in cells):
            raise ValueError("joint probabilities must be finite numbers")
        if any(p < 0 or p > 1 for p in cells):
            raise ValueError("joint probabilities must lie in [0, 1]")
        if abs(sum(cells) - 1.0) > 1e-9:
            raise ValueError("joint probabilities must sum to 1")
        object.__setattr__(self, "px1", self.p11 + self.p10)
        object.__setattr__(self, "py1", self.p11 + self.p01)

    @property
    def px0(self) -> float:
        return self.p01 + self.p00


@dataclass(frozen=True)
class MomentBudget:
    """Upper bounds (f, g) on the dispersion of propensity and prognosis.

    f bounds the second moment of pi about Pr(x=1); g bounds the second
    moment of r = pi*r1 + (1-pi)*r0 about Pr(y=1).  Because the equality
    constraints pin both means, neither moment can exceed 0.25, so larger
    requests are clamped to 0.25.
    """

    f: float
    g: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.f) and math.isfinite(self.g)):
            raise ValueError("moment budgets must be finite numbers")
        if self.f < 0 or self.g < 0:
            raise ValueError("moment budgets must be nonnegative")
        object.__setattr__(self, "f", min(self.f, 0.25))
        object.__setattr__(self, "g", min(self.g, 0.25))


@dataclass(frozen=True)
class AtomicMeasure:
    """A finitely supported measure on the closed cube {(pi, r0, r1)}."""

    atoms: tuple[tuple[float, float, float, float], ...]
    # each atom is (pi, r0, r1, weight)

    def __post_init__(self) -> None:
        w = sum(a[3] for a in self.atoms)
        if any(a[3] < -1e-12 for a in self.atoms):
            raise ValueError("atom weights must be nonnegative")
        if abs(w - 1.0) > 1e-9:
            raise ValueError("atom weights must sum to 1")

    def support(self) -> tuple[tuple[float, float, float, float], ...]:
        """The atoms of weight above 1e-9."""
        return tuple(a for a in self.atoms if a[3] > 1e-9)

    def expectation(self, fn) -> float:
        """Integrate fn(pi, r0, r1) against the measure."""
        return sum(w * fn(pi, r0, r1) for pi, r0, r1, w in self.atoms)


@dataclass(frozen=True)
class IdentifiedInterval:
    """Bounds (L, U) on psi with optimal measures attached as certificates."""

    L: float
    U: float
    certificate_min: AtomicMeasure
    certificate_max: AtomicMeasure
    grid_resolution: int
    converged: bool

    def __post_init__(self) -> None:
        if self.L > self.U + 1e-9:
            raise ValueError("interval endpoints out of order")
        if self.L < -1 - 1e-9 or self.U > 1 + 1e-9:
            raise ValueError("interval exceeds [-1, 1]")

    @property
    def width(self) -> float:
        return self.U - self.L


def normalize(table: ContingencyTable) -> ObservedJoint:
    """Convert counts (or frequencies) to an ObservedJoint by dividing by N."""
    n = table.total
    return ObservedJoint(table.n11 / n, table.n10 / n, table.n01 / n, table.n00 / n)


def risk_x1(j: ObservedJoint) -> float:
    """Pr(y=1 | x=1)."""
    if j.px1 <= 0:
        raise DegenerateTableError("Pr(x=1) is zero; conditional risk undefined")
    return j.p11 / j.px1

def risk_x0(j: ObservedJoint) -> float:
    """Pr(y=1 | x=0)."""
    if j.px0 <= 0:
        raise DegenerateTableError("Pr(x=0) is zero; conditional risk undefined")
    return j.p01 / j.px0
