"""Measure optimization on the discretized unit cube.

The identified interval for psi comes from minimizing and maximizing
E[r1 - r0] over probability measures mu on the cube {(pi, r0, r1)},
subject to four equality rows reproducing the observed joint, two
second-moment budget rows, and normalization.  Measures are restricted
to atoms on an interior midpoint grid, so the computed interval is an
inner approximation of the continuum one.  Refinement doubles the grid,
and midpoint grids do not nest under doubling ((k - 1/2)/m is no point
of the 2m grid), so a finer level can narrow the interval as well as
widen it.

Row order is fixed throughout: p01, p11, p00, p10, f, g, normalization.
The normalization row is linearly dependent on the four equality rows
(their coefficients sum to 1 at every grid point) and is kept explicit;
the solver discovers and deletes the redundancy during phase 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .core import (
    AtomicMeasure,
    IdentifiedInterval,
    MomentBudget,
    ObservedJoint,
    risk_x0,
    risk_x1,
)

class InfeasibleBudgetError(RuntimeError):
    """The requested (f, g) admits no measure on any attempted grid."""

    def __init__(self, message: str, grid_m: int,
                 minimal_f: float | None, minimal_g: float | None):
        super().__init__(message)
        self.grid_m = grid_m
        self.minimal_f = minimal_f
        self.minimal_g = minimal_g


class EqualityInfeasibleError(RuntimeError):
    """The observed joint itself is not representable on the grid.

    Happens for boundary-degenerate tables (a cell probability smaller
    than what the coarsest interior grid coordinate can reproduce)."""


class IterationLimitError(RuntimeError):
    """The simplex iteration budget ran out."""


@dataclass(frozen=True)
class GridSpec:
    """Interior midpoint grid: {(k - 0.5)/m : k = 1..m} on each axis."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("grid needs at least 2 points per axis")

    @property
    def axis(self) -> np.ndarray:
        return (np.arange(1, self.m + 1) - 0.5) / self.m

    @property
    def columns(self) -> int:
        return self.m ** 3


@dataclass(frozen=True)
class BoundsRequest:
    joint: ObservedJoint
    budget: MomentBudget
    grid: GridSpec
    refine: bool = True
    refine_tol: float = 1e-3
    max_m: int = 256

    def __post_init__(self) -> None:
        if self.refine_tol <= 0:
            raise ValueError("refine_tol must be positive")
        if self.refine and self.max_m < self.grid.m:
            raise ValueError("max_m must not be below the starting grid")


class GridColumns:
    """Column oracle over the m^3 grid atoms.

    Column j encodes grid indices (j // m^2, (j // m) % m, j % m) for
    (pi, r0, r1).  Rows follow the fixed order above.  The objective is
    selectable so the same machinery serves the psi bounds and the
    minimal-budget diagnostics.
    """

    def __init__(self, joint: ObservedJoint, m: int, objective: str = "psi"):
        if objective not in ("psi", "f", "g"):
            raise ValueError(f"unknown objective {objective!r}")
        self.m = m
        self.joint = joint
        self.objective = objective
        self.axis = GridSpec(m).axis
        self._pi = self.axis[:, None]  # the y-independent planes of the pricing score
        self._mix0 = (1 - self._pi) * self.axis[None, :]  # the r0 term of the outcome mean
        self._vbase = (self._mix0 - joint.py1) * (m / self._pi)

    @property
    def n(self) -> int:
        return self.m ** 3

    # -- coefficient formulas -------------------------------------------------

    def _decode(self, js: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = self.m
        return self.axis[js // (m * m)], self.axis[(js // m) % m], self.axis[js % m]

    def _row_values(self, row: int, pi, r0, r1):
        j = self.joint
        if row == 0:
            return (1 - pi) * r0
        if row == 1:
            return pi * r1
        if row == 2:
            return (1 - pi) * (1 - r0)
        if row == 3:
            return pi * (1 - r1)
        if row == 4:
            return (pi - j.px1) ** 2
        if row == 5:
            r = pi * r1 + (1 - pi) * r0
            return (r - j.py1) ** 2
        return np.ones_like(pi + r0 + r1)

    def _cost_values(self, pi, r0, r1):
        if self.objective == "psi":
            return r1 - r0
        if self.objective == "f":
            return self._row_values(4, pi, r0, r1)
        return self._row_values(5, pi, r0, r1)

    def _coefficients(self, y, rows, cost_sign):
        """(P, L, c5) with score cost_sign * c - y . A = P + L * r1 + c5 * (pi
        * r1 + (1 - pi) * r0 - py1)**2 at fixed (pi, r0): P is the (m, m)
        (pi, r0) plane, L an (m, 1) column and c5 = cost_sign * [objective g]
        - y5 a scalar, so the r1 curvature c5 * pi**2 has the sign of c5."""
        w = np.zeros(7)
        w[rows] = y[rows]
        psi, f, g = (cost_sign * (self.objective == name) for name in ("psi", "f", "g"))
        pi, r0 = self._pi, self.axis[None, :]
        # the r1-free part of the score is affine in r0
        P = (-w[2] * (1 - pi) - w[3] * pi + (f - w[4]) * (pi - self.joint.px1) ** 2 - w[6]
             + ((w[2] - w[0]) * (1 - pi) - psi) * r0)
        return P, (w[3] - w[1]) * pi + psi, g - w[5]

    def _vertex(self, L, c5):
        """(m, m) r1 index nearest the vertex; fmax/fmin drop a NaN vertex
        (c5 = L = 0) to index 0 and an infinite one (c5 = 0 or tiny) to an axis end."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            shift = -L / (2 * c5 * self._pi ** 2) * self.m - 0.5
        return np.rint(np.fmin(np.fmax(shift - self._vbase, 0), self.m - 1))

    def _score(self, P, L, c5, r1):
        """The score at r1, a scalar or an (m, m) plane, on every (pi, r0).

        The g term is the g row's residual squared, summed in the order of
        `_row_values` to match `columns` to the last bit: expanded in r1,
        terms of size |c5| cancel, and a large phase-1 dual near the g
        row's zero set would leave no correct digit."""
        return P + L * r1 + c5 * (self._pi * r1 + self._mix0 - self.joint.py1) ** 2

    def _least(self, planes):
        """Column and value of the least score over (r1 index, scores)
        planes, the index a scalar or an (m, m) plane; the earlier plane
        wins ties.  Flat index i is m * p + r, so the column is m * i + k."""
        best = None
        for k, scores in planes:
            i = int(np.argmin(scores))
            if best is None or scores.flat[i] < best[1]:
                best = self.m * i + int(k.flat[i] if np.ndim(k) else k), float(scores.flat[i])
        return best

    # -- oracle protocol -------------------------------------------------------

    def cost(self, j: int) -> float:
        pi, r0, r1 = self._decode(np.array([j]))
        return float(self._cost_values(pi, r0, r1)[0])

    def columns(self, js, rows):
        js = np.asarray(js)
        pi, r0, r1 = self._decode(js)
        return np.stack([self._row_values(row, pi, r0, r1) for row in rows])

    def price_min(self, y, rows, cost_sign):
        P, L, c5 = self._coefficients(y, rows, cost_sign)
        if c5 > 0:  # convex in r1: the least score is nearest the vertex
            k = self._vertex(L, c5)  # (k + 0.5) / m is axis[k] to the last bit
            return self._least([(k, self._score(P, L, c5, (k + 0.5) / self.m))])
        # concave or linear in r1: the least score is at an axis end
        return self._least([(k, self._score(P, L, c5, self.axis[k])) for k in (0, self.m - 1)])

    def price_max_abs(self, v, rows):
        # the largest |score| is at an axis end or nearest the vertex
        P, L, c5 = self._coefficients(v, rows, 0.0)
        k, m = self._vertex(L, c5), self.m
        scores = np.abs(np.stack([self._score(P, L, c5, r1) for r1 in
                                  (self.axis[0], (k + 0.5) / m, self.axis[m - 1])]))
        c, i = divmod(int(np.argmax(scores)), m * m)
        return m * i + int((0, k.flat[i], m - 1)[c]), float(scores[c].flat[i])

    def atom(self, j: int) -> tuple[float, float, float]:
        pi, r0, r1 = self._decode(np.array([j]))
        return float(pi[0]), float(r0[0]), float(r1[0])


def _constraint_rows(joint: ObservedJoint, f: float | MomentBudget,
                     g: float | None = None):
    """The seven rows, with f and g bounding the two moment rows.

    A MomentBudget passed as f, with g left out, supplies both bounds.
    """
    if g is None:
        f, g = f.f, f.g
    return (
        ("eq", joint.p01),
        ("eq", joint.p11),
        ("eq", joint.p00),
        ("eq", joint.p10),
        ("le", f),
        ("le", g),
        ("eq", 1.0),
    )


def _certificate(oracle: GridColumns, support) -> AtomicMeasure:
    atoms = []
    total = sum(w for _, w in support)
    for j, w in support:
        pi, r0, r1 = oracle.atom(j)
        atoms.append((pi, r0, r1, w / total))
    return AtomicMeasure(tuple(atoms))


def _checked(sol: lp.LpSolution, m: int) -> lp.LpSolution | None:
    """An optimal solution as is, None for an infeasible grid, and an
    error for any other status."""
    if sol.status == lp.INFEASIBLE:
        return None
    if sol.status == lp.ITERATION_LIMIT:
        raise IterationLimitError(f"simplex iteration limit at grid m={m}")
    if sol.status != lp.OPTIMAL:
        # the weights are a probability vector and every objective is
        # bounded, so any other status is a numerical failure
        raise lp.SingularBasisError(
            f"unexpected LP status {sol.status} at grid m={m}")
    return sol


def _solve_level(joint: ObservedJoint, budget: MomentBudget, m: int):
    """One grid level; returns (L, U, cert_min, cert_max) or None if the
    grid admits no feasible measure."""
    oracle = GridColumns(joint, m, objective="psi")
    rows = _constraint_rows(joint, budget.f, budget.g)
    results = []
    for sense in ("min", "max"):
        sol = _checked(lp.solve(lp.LinearProgram(sense, oracle, rows)), m)
        if sol is None:
            return None
        results.append(sol)
    smin, smax = results
    return (smin.objective, smax.objective,
            _certificate(oracle, smin.support),
            _certificate(oracle, smax.support))


def _ladder(start: int, refine: bool, max_m: int) -> list[int]:
    ms = [start]
    if refine:
        m = start
        while 2 * m <= max_m:
            m *= 2
            ms.append(m)
    return ms


def _pinned_interval(joint: ObservedJoint, req: BoundsRequest) -> IdentifiedInterval:
    # A zero f budget pins pi at Pr(x=1) almost surely, and the equality
    # rows then pin the mean conditional prognoses at the observed
    # conditional risks, collapsing the interval to the risk difference.
    # No interior grid can place pi exactly at Pr(x=1), so this case is
    # solved in closed form rather than by the LP.
    r1 = risk_x1(joint)
    r0 = risk_x0(joint)
    tiny = 1e-9
    atom = (
        float(np.clip(joint.px1, tiny, 1 - tiny)),
        float(np.clip(r0, tiny, 1 - tiny)),
        float(np.clip(r1, tiny, 1 - tiny)),
        1.0,
    )
    cert = AtomicMeasure((atom,))
    point = r1 - r0
    return IdentifiedInterval(L=point, U=point, certificate_min=cert,
                              certificate_max=cert,
                              grid_resolution=req.grid.m, converged=True)


def solve_bounds(req: BoundsRequest) -> IdentifiedInterval:
    """Compute the identified interval (L, U) with certificates.

    With refine set, the grid doubles until both endpoints move by less
    than refine_tol between successive feasible grids, or max_m is
    reached; the converged flag records which happened.  A fixed-grid
    request has nothing pending and reports converged.  Grids too coarse
    to carry any feasible measure are skipped; if every grid is
    infeasible the error carries minimal-budget diagnostics.
    """
    if req.budget.f == 0.0:
        return _pinned_interval(req.joint, req)

    prev = None
    prev_m = req.grid.m
    converged = not req.refine
    for m in _ladder(req.grid.m, req.refine, req.max_m):
        out = _solve_level(req.joint, req.budget, m)
        if out is None:
            continue
        if prev is not None:
            delta = max(abs(out[0] - prev[0]), abs(out[1] - prev[1]))
            prev, prev_m = out, m
            if delta < req.refine_tol:
                converged = True
                break
        else:
            prev, prev_m = out, m

    if prev is None:
        fmin = _try_minimal(req.joint, "f", req.budget.g, req)
        gmin = _try_minimal(req.joint, "g", req.budget.f, req)
        raise InfeasibleBudgetError(
            f"no measure matches the table under f={req.budget.f}, "
            f"g={req.budget.g} on grids up to m={req.max_m if req.refine else req.grid.m}",
            grid_m=prev_m, minimal_f=fmin, minimal_g=gmin)

    L, U, cert_min, cert_max = prev
    return IdentifiedInterval(L=L, U=U, certificate_min=cert_min,
                              certificate_max=cert_max,
                              grid_resolution=prev_m, converged=converged)


def _try_minimal(joint, which, other_value, req) -> float | None:
    try:
        return minimal_budget(joint, which, other_value, grid=req.grid,
                              max_m=req.max_m)
    except (EqualityInfeasibleError, IterationLimitError):
        return None


def minimal_budget(joint: ObservedJoint, which: str, other_value: float,
                   grid: GridSpec | None = None, refine_tol: float = 1e-3,
                   max_m: int = 256) -> float:
    """Least attainable value of one moment given the other's budget.

    Minimizes the f (or g) moment over measures that reproduce the
    observed joint and respect the other moment's bound; used to
    diagnose infeasible budget requests.  Grid-refined until the value
    stabilizes below refine_tol or max_m is reached.
    """
    if which not in ("f", "g"):
        raise ValueError("which must be 'f' or 'g'")
    if other_value < 0:
        raise ValueError("other_value must be nonnegative")
    if which == "g" and other_value == 0.0:
        # pi pinned at Pr(x=1) forces the conditional prognosis means to
        # the observed risks; the single atom at those risks has
        # r = Pr(y=1) exactly, so the g moment can reach zero.
        return 0.0

    # the minimized moment's own row gets a vacuous bound: coefficients
    # are < 1 on the interior grid, so a bound of 1.0 never binds
    f_bound = 1.0 if which == "f" else other_value
    g_bound = other_value if which == "f" else 1.0
    rows = _constraint_rows(joint, f_bound, g_bound)
    value = None
    for m in _ladder((grid or GridSpec(16)).m, True, max_m):
        oracle = GridColumns(joint, m, objective=which)
        sol = _checked(lp.solve(lp.LinearProgram("min", oracle, rows)), m)
        if sol is not None:
            if value is not None and abs(sol.objective - value) < refine_tol:
                return sol.objective
            value = sol.objective
    if value is None:
        raise EqualityInfeasibleError(
            f"the observed joint is not representable on interior grids up "
            f"to m={max_m}; a near-boundary cell probability is the usual cause")
    return value
