"""Measure optimization on the discretized unit cube.

The identified interval for psi comes from minimizing and maximizing
E[r1 - r0] over probability measures mu on the cube {(pi, r0, r1)},
subject to four equality rows reproducing the observed joint and two
second-moment budget rows.  Measures are restricted to the atoms of a
grid, so the computed interval is an inner approximation of the
continuum one.  GridColumns alone owns the grid's geometry, and
BoundsRequest alone owns the ladder of grid sizes and its defaults.
Refinement doubles the grid, and the grids do not nest under doubling,
so a finer level can narrow the interval as well as widen it.

Row order is fixed throughout: p01, p11, p00, p10, f, g.  The cell
rows' coefficients sum to 1 at every atom, so the weights do too.
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
    """The requested (f, g) admits no measure on any attempted grid.

    minimal_f and minimal_g are the least feasible budgets, each None
    where none was found; the message ends with one "least feasible"
    line for each that was."""

    def __init__(self, message: str,
                 minimal_f: float | None, minimal_g: float | None):
        for which, other, value in (("f", "g", minimal_f), ("g", "f", minimal_g)):
            if value is not None:
                message += f"\n  least feasible {which} at the given {other}: {value:.6g}"
        super().__init__(message)
        self.minimal_f = minimal_f
        self.minimal_g = minimal_g


DEFAULT_GRID_M = 64
REFINE_TOL = 1e-3


@dataclass(frozen=True)
class BoundsRequest:
    """One interval question and the grid ladder that answers it.

    The request holds every default and check of the ladder; the grid
    of each level is GridColumns(joint, m).  The ladder starts at m grid
    points per axis.  With refine set it doubles m up to max_m, skips
    grids too coarse to carry a feasible measure, and stops at the first
    solved grid that moves every objective by less than REFINE_TOL from
    the solved grid before it.  A refused request's least feasible
    budgets walk the same ladder, always refined.
    """

    joint: ObservedJoint
    budget: MomentBudget
    m: int = DEFAULT_GRID_M
    refine: bool = True
    max_m: int = 256

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.refine and self.max_m < self.m:
            raise ValueError("max_m must not be below the starting grid")


class GridColumns:
    """Column oracle over the m^3 atoms of the interior midpoint grid,
    {(k - 0.5)/m : k = 1..m} on each axis.  No such point lies on the 2m
    grid, so the grids do not nest under doubling.

    Column j encodes grid indices (j // m^2, (j // m) % m, j % m) for
    (pi, r0, r1).  Rows follow the fixed order above.  The objective is
    selectable so the same machinery serves the psi bounds and the
    minimal-budget diagnostics.  Pricing writes into scratch planes the
    instance owns, so one instance serves one pricing call at a time:
    concurrent callers each need their own.
    """

    def __init__(self, joint: ObservedJoint, m: int, objective: str = "psi"):
        if objective not in ("psi", "f", "g"):
            raise ValueError(f"unknown objective {objective!r}")
        self.m = m
        self.joint = joint
        self.objective = objective
        self.axis = (np.arange(1, m + 1) - 0.5) / m
        self._pi = self.axis[:, None]  # the y-independent planes of the pricing score
        self._pi0 = 1 - self._pi
        self._f_row = (self._pi - joint.px1) ** 2  # the f row's coefficient
        self._mix0 = self._pi0 * self.axis[None, :]  # the r0 term of the outcome mean
        self._vbase = (self._mix0 - joint.py1) * (m / self._pi)
        # reused: fresh (m, m) temporaries per call page-fault, doubling refine's wall time
        self._planes = np.empty((4, m, m))  # scratch: r1 index, P, score, temporary
        ends = [0, m - 1]  # the corners of the (r0, r1) square
        self._corner_r0 = self.axis[ends]
        self._corner_r1 = self._corner_r0[:, None, None]
        self._corner_mix0 = self._mix0[:, ends]

    @property
    def n(self) -> int:
        return self.m ** 3

    # -- coefficient formulas -------------------------------------------------

    def _decode(self, js: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = self.m
        return self.axis[js // (m * m)], self.axis[(js // m) % m], self.axis[js % m]

    def _cost_values(self, pi, r0, r1):
        if self.objective == "psi":
            return r1 - r0
        return _row_values(self.joint, pi, r0, r1)[4 if self.objective == "f" else 5]

    def _coefficients(self, y, rows, cost_sign):
        """(a, b, L, c5) with score cost_sign * c - y . A = a + b * r0 + L * r1
        + c5 * (pi * r1 + (1 - pi) * r0 - py1)**2: a, b and L are (m, 1)
        columns over pi and c5 = cost_sign * [objective g] - y5 a scalar, so
        the curvature in (r0, r1) has the sign of c5.  The r1-free part P =
        a + b * r0 is built by the caller: `_plane` on the (m, m) paths, on
        the 4 corners only when price_min's score is concave."""
        w = np.zeros(6)
        w[rows] = y[rows]
        psi, f, g = (cost_sign * (self.objective == name) for name in ("psi", "f", "g"))
        pi, pi0 = self._pi, self._pi0
        a = -w[2] * pi0 - w[3] * pi + (f - w[4]) * self._f_row
        return a, (w[2] - w[0]) * pi0 - psi, (w[3] - w[1]) * pi + psi, g - w[5]

    def _plane(self, a, b):
        """P = a + b * r0 on every (pi, r0), in scratch plane 1."""
        P = np.multiply(b, self.axis, out=self._planes[1])
        return np.add(a, P, out=P)

    def _vertex(self, L, c5):
        """(m, m) r1 index nearest the vertex of price_min's convex score
        (c5 > 0), in scratch plane 0; fmax/fmin drop a NaN vertex (L = 0 with
        2 * c5 * pi**2 underflowing to 0, as for c5 = 1e-320) to index 0 and
        an infinite one (a tiny c5) to an axis end."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            shift = -L / (2 * c5 * self._pi ** 2) * self.m - 0.5
        k = np.subtract(shift, self._vbase, out=self._planes[0])
        np.fmax(k, 0, out=k)
        np.fmin(k, self.m - 1, out=k)
        return np.rint(k, out=k)

    def _axis_at(self, k):
        """axis[k] on an (m, m) index plane, in scratch plane 3: (k + 0.5) / m
        is axis[k] to the last bit."""
        r1 = np.add(k, 0.5, out=self._planes[3])
        return np.divide(r1, self.m, out=r1)

    def _score(self, P, L, c5, r1, mix0, out):
        """The score P + L * r1 + c5 * (pi * r1 + mix0 - py1)**2 into out[0],
        with out[1] as a temporary; r1 is a scalar, an (m, m) plane (it may
        be out[1]) or an array that broadcasts with P and mix0.

        Every step is the ufunc that expression applies, in its order, so
        the scores match `columns` to the last bit.  The g term is the
        g row's residual squared, summed in the order of `_row_values`:
        expanded in r1, terms of size |c5| cancel, and a large phase-1 dual
        near the g row's zero set would leave no correct digit."""
        s, t = out
        np.multiply(L, r1, out=s)
        np.add(P, s, out=s)
        np.multiply(self._pi, r1, out=t)
        np.add(t, mix0, out=t)
        np.subtract(t, self.joint.py1, out=t)
        np.square(t, out=t)
        np.multiply(c5, t, out=t)
        return np.add(s, t, out=s)

    # -- oracle protocol -------------------------------------------------------

    def cost(self, j: int) -> float:
        pi, r0, r1 = self._decode(np.array([j]))
        return float(self._cost_values(pi, r0, r1)[0])

    def columns(self, js, rows):
        values = _row_values(self.joint, *self._decode(np.asarray(js)))
        for row in rows:  # a negative index would wrap around
            if not 0 <= row < len(values):
                raise ValueError(f"no constraint row {row}")
        return np.stack([values[row] for row in rows])

    def price_min(self, y, rows, cost_sign):
        a, b, L, c5 = self._coefficients(y, rows, cost_sign)
        m = self.m
        if c5 > 0:  # convex in r1: the least score is nearest the vertex
            k = self._vertex(L, c5)
            scores = self._score(self._plane(a, b), L, c5, self._axis_at(k), self._mix0,
                                 self._planes[2:])
            i = int(np.argmin(scores))
            return m * i + int(k.flat[i]), float(scores.flat[i])
        # Concave (or linear) in (r0, r1) at each pi: a concave function on
        # the convex hull of the grid square takes its least value at a
        # vertex of that hull, and the 4 vertices are grid points.  Scores
        # are laid out (r1 end, pi, r0 end), so a tie goes to r1 end 0, then
        # to the least pi, then to r0 end 0.
        scores = self._score(a + b * self._corner_r0, L, c5, self._corner_r1,
                             self._corner_mix0, np.empty((2, 2, m, 2)))
        i = int(np.argmin(scores))
        c, p, q = i // (2 * m), i // 2 % m, i % 2  # r1 end, pi, r0 end
        return m * (m * p + (m - 1) * q) + (m - 1) * c, float(scores.flat[i])

    def atom(self, j: int) -> tuple[float, float, float]:
        pi, r0, r1 = self._decode(np.array([j]))
        return float(pi[0]), float(r0[0]), float(r1[0])


def _row_values(joint: ObservedJoint, pi, r0, r1) -> tuple:
    """The six rows' coefficients at atoms (pi, r0, r1), in row order."""
    return (
        (1 - pi) * r0,
        pi * r1,
        (1 - pi) * (1 - r0),
        pi * (1 - r1),
        (pi - joint.px1) ** 2,
        (pi * r1 + (1 - pi) * r0 - joint.py1) ** 2,
    )


def _constraint_rows(joint: ObservedJoint, f: float | MomentBudget,
                     g: float | None = None):
    """The six rows, with f and g bounding the two moment rows.

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
    )


def _certificate(oracle: GridColumns, support) -> AtomicMeasure:
    # the cell rows make the weights sum to 1 only up to round-off
    total = sum(w for _, w in support)
    return AtomicMeasure(tuple((*oracle.atom(j), w / total) for j, w in support))


def _checked(sol: lp.LpSolution, m: int) -> lp.LpSolution | None:
    """An optimal solution as is, None for an infeasible grid, and an
    error for any other status."""
    if sol.status == lp.INFEASIBLE:
        return None
    if sol.status != lp.OPTIMAL:
        # the weights are a probability vector and every objective is
        # bounded, so any other status is a numerical failure
        raise lp.SingularBasisError(
            f"unexpected LP status {sol.status} at grid m={m}")
    return sol


def _ladder(req: BoundsRequest, refine: bool, objective: str, senses,
            f: float, g: float):
    """The request's grid ladder for one objective under moment bounds f, g.

    Each grid gets one oracle, and its senses are solved in order; an
    infeasible sense skips the grid.  Returns (m, oracle, solutions,
    settled) for the last solved grid, or None if no grid was solved.
    """
    ms = [req.m]
    while refine and 2 * ms[-1] <= req.max_m:
        ms.append(2 * ms[-1])
    rows = _constraint_rows(req.joint, f, g)
    last = None
    for m in ms:
        oracle = GridColumns(req.joint, m, objective=objective)
        solutions = []
        for sense in senses:
            sol = _checked(lp.solve(lp.LinearProgram(sense, oracle, rows)), m)
            if sol is None:
                break
            solutions.append(sol)
        else:
            settled = last is not None and all(
                abs(new.objective - old.objective) < REFINE_TOL
                for new, old in zip(solutions, last[2]))
            last = m, oracle, solutions, settled
            if settled:
                break
    return last


def _pinned_interval(req: BoundsRequest) -> IdentifiedInterval:
    # A zero f budget pins pi at Pr(x=1) almost surely, and the equality
    # rows then pin the mean conditional prognoses at the observed
    # conditional risks, collapsing the interval to the risk difference.
    # No interior grid can place pi exactly at Pr(x=1), so this case is
    # solved in closed form rather than by the LP: one atom of the closed
    # cube at (Pr(x=1), Pr(y=1|x=0), Pr(y=1|x=1)) reproduces every cell.
    joint = req.joint
    r1 = risk_x1(joint)
    r0 = risk_x0(joint)
    cert = AtomicMeasure(((joint.px1, r0, r1, 1.0),))
    point = r1 - r0
    return IdentifiedInterval(L=point, U=point, certificate_min=cert,
                              certificate_max=cert,
                              grid_resolution=req.m, converged=True)


def solve_bounds(req: BoundsRequest) -> IdentifiedInterval:
    """Compute the identified interval (L, U) with certificates.

    The converged flag records whether refinement settled before max_m;
    a fixed-grid request has nothing pending and reports converged.  If
    no grid carries a feasible measure it raises InfeasibleBudgetError,
    which carries the least feasible f and g and states them in its
    message, each left out (None) where no grid represents the table or
    its LP fails.  A solver failure on the psi ladder raises
    lp.IterationLimitError or lp.SingularBasisError.  A table with an
    empty treatment arm leaves a conditional risk undefined and raises
    DegenerateTableError under every budget.
    """
    risk_x1(req.joint)
    risk_x0(req.joint)
    if req.budget.f == 0.0:
        return _pinned_interval(req)

    level = _ladder(req, req.refine, "psi", ("min", "max"),
                    req.budget.f, req.budget.g)
    if level is None:
        least = []
        for which in ("f", "g"):
            try:
                least.append(minimal_budget(req, which))
            except (lp.IterationLimitError, lp.SingularBasisError):
                least.append(None)
        raise InfeasibleBudgetError(
            f"no measure matches the table under f={req.budget.f}, "
            f"g={req.budget.g} on grids up to m={req.max_m if req.refine else req.m}",
            *least)

    m, oracle, (smin, smax), settled = level
    return IdentifiedInterval(L=smin.objective, U=smax.objective,
                              certificate_min=_certificate(oracle, smin.support),
                              certificate_max=_certificate(oracle, smax.support),
                              grid_resolution=m, converged=settled or not req.refine)


def minimal_budget(req: BoundsRequest, which: str) -> float | None:
    """Least attainable value of one moment given the request's bound on
    the other, or None when no grid of the ladder carries a measure.

    Minimizes the f (or g) moment over measures that reproduce the
    observed joint and respect the other moment's budget, on the
    request's ladder refined; used to diagnose a refused request.  A
    solver failure raises lp.IterationLimitError or lp.SingularBasisError.
    """
    if which not in ("f", "g"):
        raise ValueError("which must be 'f' or 'g'")
    if which == "g" and req.budget.f == 0.0:
        # pi pinned at Pr(x=1) forces the conditional prognosis means to
        # the observed risks; the single atom at those risks has
        # r = Pr(y=1) exactly, so the g moment can reach zero.
        return 0.0

    # the minimized moment's own row gets a vacuous bound: coefficients
    # are < 1 on the interior grid, so a bound of 1.0 never binds
    f_bound, g_bound = (1.0, req.budget.g) if which == "f" else (req.budget.f, 1.0)
    level = _ladder(req, True, which, ("min",), f_bound, g_bound)
    return None if level is None else level[2][0].objective
