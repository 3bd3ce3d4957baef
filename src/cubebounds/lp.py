"""Self-contained linear programming core.

Solves standard-form LPs with few rows and very many columns by revised
simplex with on-demand column pricing.  Columns are supplied by an oracle
(index -> cost and row coefficients) so the constraint matrix never needs
to be materialized; a dense adapter covers small explicit problems.  The
simplex keeps its basis matrix and basic costs itself, so each pivot asks
the oracle for one column and one cost.  Bases have as many rows as the
LP (six for the bounds LPs), so the basis is inverted afresh after
every pivot and no inverse is ever updated in place.

Conventions: variables are nonnegative weights; rows are "eq" or "le";
"le" rows receive slack variables internally; rows whose slack cannot
start basic receive artificial variables for the two-phase start.
Maximization is handled by pricing with negated costs.  The ratio test
is one lexicographic rule from the first pivot, with its tie window on
the residual basic values, so it cannot cycle and needs no other guard.

Phase 1 never reads the objective, so its feasible basis serves every
objective over the same oracle and rows.  A solved LP reports that basis,
deleted rows included, as `LpSolution.start`; a program given it as
`LinearProgram.start` installs it where phase 1 would start and reports
what a cold solve would, phase-1 pivots included.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Pivot elements smaller than this are treated as zero in ratio tests and
# when driving artificials out of the basis.
PIVOT_TOL = 1e-10
# Primal slack: the largest phase-1 objective still counted as feasible,
# the most a ratio-test tie may overshoot a basic value, and a tenth of
# the most negative basic value accepted at the optimum.
TOL_FEAS = 1e-9
# A column enters only if its reduced cost is below -TOL_OPT.
TOL_OPT = 1e-9
MAX_ITER = 20000


class SingularBasisError(RuntimeError):
    """Basis algebra failed: a singular basis or a vanishing pivot."""


class IterationLimitError(RuntimeError):
    """A run reached MAX_ITER pivots without an optimal basis."""


class ColumnOracle(Protocol):
    """Read-only view of the columns of an LP, indexed 0..n-1.

    Four members: the column count ``n``, ``cost``, ``columns`` and
    ``price_min``.  Costs and columns depend on the index alone, so
    repeated calls agree; an oracle may price in scratch memory it owns,
    so one oracle serves one pricing call at a time.  ``rows`` arguments
    are arrays of original row indices and the dual vector ``y`` stays
    indexed by original row number; the solver may delete redundant rows,
    so oracles must restrict to the subset they are given.
    """

    @property
    def n(self) -> int:
        """Number of structural columns."""
        ...

    def cost(self, j: int) -> float: ...

    def columns(self, js: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Coefficient block A[rows, js], shape (len(rows), len(js))."""
        ...

    def price_min(self, y: np.ndarray, rows: np.ndarray, cost_sign: float) -> tuple[int, float]:
        """Minimize the reduced cost cost_sign*c_j - y . A_j over all j;
        returns (argmin, min value).  cost_sign is 0 during phase 1 and
        +/-1 in phase 2 depending on the objective sense."""
        ...


class DenseColumns:
    """Column oracle over an explicit cost vector and coefficient matrix."""

    def __init__(self, costs, matrix):
        self._costs = np.asarray(costs, dtype=float)
        self._matrix = np.asarray(matrix, dtype=float)
        if self._matrix.shape[1] != self._costs.shape[0]:
            raise ValueError("cost/matrix column count mismatch")

    @property
    def n(self) -> int:
        return self._costs.shape[0]

    def cost(self, j: int) -> float:
        return float(self._costs[j])

    def columns(self, js, rows):
        return self._matrix[np.ix_(np.asarray(rows), np.asarray(js))]

    def price_min(self, y, rows, cost_sign):
        # y is indexed by original row number; rows lists the active ones
        rows = np.asarray(rows)
        rc = -(y[rows] @ self._matrix[rows])
        if cost_sign != 0.0:
            rc = rc + cost_sign * self._costs
        j = int(np.argmin(rc))
        return j, float(rc[j])


@dataclass(frozen=True)
class FeasibleStart:
    """A basis to install: phase 1's at its end, after the purge.

    basis lists the basic column ids by position over the rows left once
    deleted_rows (in row order) are gone.  A program's start holds
    structural ids 0..n-1 and slack ids n.. alone; only the record phase 1
    starts from holds artificials.  iterations counts the pivots made so
    far, the purge's included.  The basis matrix is rebuilt from the ids.
    """

    basis: tuple[int, ...]
    deleted_rows: tuple[int, ...]
    iterations: int


@dataclass(frozen=True)
class LinearProgram:
    """min or max of cost . w  subject to  row_i . w (= or <=) rhs_i, w >= 0.

    start, when given, is the `LpSolution.start` of a solve over the same
    oracle and rows, of either sense; the solve then begins at phase 2.
    A start whose ids or deleted rows cannot be those of such a solve
    is refused.
    """

    sense: str  # "min" | "max"
    oracle: ColumnOracle
    rows: tuple[tuple[str, float], ...]  # (relation "eq"|"le", rhs)
    start: FeasibleStart | None = None

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if not self.rows:
            raise ValueError("at least one constraint row is required")
        for rel, _ in self.rows:
            if rel not in ("eq", "le"):
                raise ValueError(f"unknown row relation {rel!r}")
        if self.start is None:
            return
        n, k0 = self.oracle.n, len(self.rows)
        slack_rows = [i for i, (rel, _) in enumerate(self.rows) if rel == "le"]
        basis, deleted = self.start.basis, self.start.deleted_rows
        if (len(basis) + len(deleted) != k0 or self.start.iterations < 0
                or len(set(basis)) < len(basis) or len(set(deleted)) < len(deleted)
                or not all(0 <= cid < n + len(slack_rows) for cid in basis)
                or not all(0 <= i < k0 for i in deleted)
                or any(slack_rows[cid - n] in deleted for cid in basis if cid >= n)):
            raise ValueError("start does not fit the rows")


@dataclass(frozen=True)
class LpSolution:
    status: str
    objective: float
    support: tuple[tuple[int, float], ...]  # (structural column index, weight)
    dual_values: tuple[float, ...]  # per original row; 0.0 for deleted rows
    iterations: int
    start: FeasibleStart | None = None  # phase 1's feasible basis; None if infeasible

    @property
    def deleted_rows(self) -> tuple[int, ...]:
        """Original row indices phase 1 found redundant, in row order."""
        return () if self.start is None else self.start.deleted_rows


class _Simplex:
    """One revised-simplex run under the lexicographic ratio test.

    Column ids: 0..n-1 structural, then one slack per "le" row in row
    order, then one artificial per row whose slack cannot start basic.
    Their columns form one signed unit block, `block`, built once per run
    over all rows; `units` holds its active rows.

    Every basis enters through `install`: phase 1's slacks and
    artificials, or the program's start.  The run keeps its basis: `B`
    holds the basic columns over the active rows and `cb` the basic costs
    of the current phase.  A pivot writes the entering column into `B`
    and its cost into `cb`, so it asks the oracle for at most one column
    and one cost.  `B` is the only basis state: `refactorize` derives its
    inverse `binv` and the basic values `xb` from it, after the install,
    every pivot and every row deletion.

    The ratio test takes the lexicographically least row of
    [x_B, B^-1 B_ref] / d, B_ref the basis matrix at each phase start
    (after phase 1 deletes redundant rows or pivots artificials out).
    Every row of [x_B, B^-1 B_ref] then stays lexicographically positive
    and the objective falls lexicographically at each pivot, so no basis
    repeats whichever improving column enters.
    """

    def __init__(self, lp: LinearProgram):
        self.oracle = lp.oracle
        self.n = lp.oracle.n
        self.sense = 1.0 if lp.sense == "min" else -1.0
        self.ref: np.ndarray | None = None

        self.rels = [rel for rel, _ in lp.rows]
        self.rhs = np.array([b for _, b in lp.rows], dtype=float)
        self.k0 = len(self.rels)
        self.slack_rows = [i for i, rel in enumerate(self.rels) if rel == "le"]
        self.nslack = len(self.slack_rows)
        # phase 1 starts on the slacks that can be basic and an artificial
        # for every other row, signed like its rhs so that the starting
        # point is nonnegative without flipping rows
        art_rows = [i for i, rel in enumerate(self.rels)
                    if not (rel == "le" and self.rhs[i] >= 0)]
        self.block = np.zeros((self.k0, self.nslack + len(art_rows)))
        self.block[self.slack_rows, np.arange(self.nslack)] = 1.0
        self.block[art_rows, np.arange(self.nslack, self.block.shape[1])] = np.where(
            self.rhs[art_rows] >= 0, 1.0, -1.0)
        ids = [self.n + self.nslack + art_rows.index(i) if i in art_rows
               else self.n + self.slack_rows.index(i) for i in range(self.k0)]
        self.phase1_start = FeasibleStart(tuple(ids), (), 0)
        self.start = lp.start

    def col(self, cid: int) -> np.ndarray:
        if cid < self.n:
            return self.oracle.columns(np.array([cid]), self.active)[:, 0]
        return self.units[:, cid - self.n]

    # -- basis maintenance -----------------------------------------------------

    def install(self, start: FeasibleStart) -> None:
        """Make start the current basis: its rows, ids, pivot count and B."""
        self.active = np.delete(np.arange(self.k0), start.deleted_rows)
        self.units = self.block[self.active]
        self.basis = list(start.basis)
        self.iterations = start.iterations
        basis = np.array(start.basis)
        unit = basis >= self.n
        self.B = np.zeros((len(basis), len(basis)))
        self.B[:, unit] = self.units[:, basis[unit] - self.n]
        if not unit.all():
            self.B[:, ~unit] = self.oracle.columns(basis[~unit], self.active)
        self.refactorize()

    def refactorize(self) -> None:
        try:
            self.binv = np.linalg.inv(self.B)
        except np.linalg.LinAlgError as exc:
            raise SingularBasisError("singular basis at refactorization") from exc
        if not np.all(np.isfinite(self.binv)):
            raise SingularBasisError("non-finite basis inverse")
        self.xb = self.binv @ self.rhs[self.active]

    def pivot(self, enter: int, leave_pos: int, a: np.ndarray, d: np.ndarray) -> None:
        """Swap column `enter`, with coefficients a and d = B^-1 a, into
        the basis at leave_pos, and invert the new basis."""
        if abs(d[leave_pos]) < PIVOT_TOL:
            raise SingularBasisError("vanishing pivot element")
        self.B[:, leave_pos] = a
        self.basis[leave_pos] = enter
        self.iterations += 1
        self.refactorize()

    # -- simplex iterations ------------------------------------------------------

    def least_reduced_cost(self, y: np.ndarray, cost_sign: float) -> tuple[int, float]:
        """Column id and value of the least reduced cost cost_sign*c_j - y . a_j
        over the structural columns and the nonbasic slacks; y is indexed
        by active row.  A structural column wins a tie with a slack."""
        y_full = np.zeros(self.k0)
        y_full[self.active] = y
        best_id, best_rc = self.oracle.price_min(y_full, self.active, cost_sign)
        if self.nslack:  # a slack costs nothing, so its reduced cost is -y_row
            rc = -(y @ self.units[:, :self.nslack])
            # a basic slack cannot enter
            basic = [cid - self.n for cid in self.basis if self.n <= cid < self.n + self.nslack]
            rc[basic] = np.inf
            t = int(np.argmin(rc))
            if rc[t] < best_rc:
                best_id, best_rc = self.n + t, rc[t]
        return best_id, best_rc

    def entering(self, phase: int) -> int | None:
        cost_sign = 0.0 if phase == 1 else self.sense
        best_id, best_rc = self.least_reduced_cost(self.cb @ self.binv, cost_sign)
        return best_id if best_rc < -TOL_OPT else None

    def ratio_test(self, d: np.ndarray) -> int | None:
        """Leaving position, or None when the direction is unbounded.

        Ties start as the rows with d > PIVOT_TOL and narrow over the columns
        of [x_B, B^-1 B_ref] / d, x_B clipped at 0: a row stays if stepping to
        its ratio moves no basic value TOL_FEAS past the least ratio's step."""
        ties = np.nonzero(d > PIVOT_TOL)[0]
        if ties.size == 0:
            return None
        for c in range(-1, self.ref.shape[1]):
            col = np.maximum(self.xb[ties], 0.0) if c < 0 else self.binv[ties] @ self.ref[:, c]
            ratio = col / d[ties]
            ties = ties[(ratio - ratio.min()) * d.max() <= TOL_FEAS]
            if ties.size == 1:
                break
        return int(ties[0])

    def iterate(self, phase: int) -> str:
        self.ref = self.B.copy()
        # phase 1 prices the artificials at 1, phase 2 the structural
        # columns at their signed cost; artificials never enter again
        if phase == 1:
            self.cb = (np.array(self.basis) >= self.n + self.nslack).astype(float)
        else:
            self.cb = np.array([self.sense * self.oracle.cost(cid) if cid < self.n
                                else 0.0 for cid in self.basis])
        while True:
            if self.iterations >= MAX_ITER:
                raise IterationLimitError(
                    f"simplex iteration limit reached (MAX_ITER={MAX_ITER})")
            enter = self.entering(phase)
            if enter is None:
                return OPTIMAL
            a = self.col(enter)
            d = self.binv @ a
            leave = self.ratio_test(d)
            if leave is None:
                if phase == 1:
                    # the phase-1 objective is bounded below by zero, so an
                    # unbounded direction can only be numerical noise
                    raise SingularBasisError("unbounded phase-1 direction")
                return UNBOUNDED
            self.pivot(enter, leave, a, d)
            self.cb[leave] = (self.sense * self.oracle.cost(enter)
                              if phase == 2 and enter < self.n else 0.0)

    # -- phase 1 cleanup ---------------------------------------------------------

    def _drop_row(self, pos: int) -> None:
        self.active = np.delete(self.active, pos)
        self.units = np.delete(self.units, pos, axis=0)
        self.B = np.delete(np.delete(self.B, pos, axis=0), pos, axis=1)
        del self.basis[pos]
        self.refactorize()

    def purge_artificials(self) -> None:
        """Pivot zero-level artificials out; delete rows with no pivot."""
        art_base = self.n + self.nslack
        while True:
            pos = next((p for p, cid in enumerate(self.basis) if cid >= art_base), None)
            if pos is None:
                return
            # max_j |v . a_j| is the larger of max v . a_j and max -v . a_j,
            # and zero-cost pricing with duals v and -v gives their negatives
            v = self.binv[pos, :]
            best_id, best_rc = min(self.least_reduced_cost(v, 0.0),
                                   self.least_reduced_cost(-v, 0.0), key=lambda c: c[1])
            if -best_rc > 1e-7 and best_id not in self.basis:
                a = self.col(best_id)
                self.pivot(best_id, pos, a, self.binv @ a)
            else:
                self._drop_row(pos)

    # -- driver ----------------------------------------------------------------

    def run(self) -> LpSolution:
        if self.start is None:
            self.install(self.phase1_start)
            self.iterate(phase=1)
            if float(self.cb @ self.xb) > TOL_FEAS:
                return self._abort(INFEASIBLE)
            self.purge_artificials()
            deleted = tuple(i for i in range(self.k0) if i not in self.active)
            self.start = FeasibleStart(tuple(self.basis), deleted, self.iterations)
        else:
            self.install(self.start)

        if self.iterate(phase=2) == UNBOUNDED:
            return self._abort(UNBOUNDED, -math.inf if self.sense > 0 else math.inf)

        if np.any(self.xb < -TOL_FEAS * 10):
            raise SingularBasisError("negative basic variable at optimum")
        # round-off weights below zero go, so the objective and the
        # support are computed from the same weights
        xb = np.maximum(self.xb, 0.0)
        internal_obj = float(self.cb @ xb)
        duals = np.zeros(self.k0)
        duals[self.active] = self.sense * (self.cb @ self.binv)
        support = tuple(
            (cid, float(w)) for cid, w in zip(self.basis, xb)
            if cid < self.n and w > 0.0)
        return LpSolution(OPTIMAL, self.sense * internal_obj, support,
                          tuple(duals), self.iterations, self.start)

    def _abort(self, status: str, objective: float = math.nan) -> LpSolution:
        """A non-optimal result: no support and zero duals."""
        return LpSolution(status, objective, (), (0.0,) * self.k0,
                          self.iterations, self.start)


def solve(lp: LinearProgram) -> LpSolution:
    """Solve an LP by two-phase revised simplex.

    Dantzig pricing over the full column oracle, and the lexicographic
    ratio test from the first pivot, which cannot cycle.  The tolerances
    and the iteration limit are the module constants TOL_FEAS, TOL_OPT and
    MAX_ITER.  The status describes the LP: optimal, infeasible or
    unbounded.  A failure of the solver raises instead: reaching MAX_ITER
    pivots raises IterationLimitError, and a numerically singular basis,
    which the deterministic rule would meet again on a retry, raises
    SingularBasisError.

    A program with a start skips phase 1 and returns what a cold solve of
    it returns, field for field; the solution's start is phase 1's basis,
    or None when phase 1 found the rows infeasible.
    """
    return _Simplex(lp).run()
