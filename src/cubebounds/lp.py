"""Self-contained linear programming core.

Solves standard-form LPs with few rows and very many columns by revised
simplex with on-demand column pricing.  Columns are supplied by an oracle
(index -> cost and row coefficients) so the constraint matrix never needs
to be materialized; a dense adapter covers small explicit problems.

Conventions: variables are nonnegative weights; rows are "eq" or "le";
"le" rows receive slack variables internally; rows whose slack cannot
start basic receive artificial variables for the two-phase start.
Maximization is handled by pricing with negated costs.  Ties in the ratio
test are broken lexicographically from the first pivot, which rules out
cycling, so no other anti-cycling guard is needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

# Pivot elements smaller than this are treated as zero in ratio tests and
# when driving artificials out of the basis.
PIVOT_TOL = 1e-10

REFACTOR_EVERY = 64


class SingularBasisError(RuntimeError):
    """Basis algebra failed: a singular basis or a vanishing pivot."""


class ColumnOracle(Protocol):
    """Read-only view of the columns of an LP, indexed 0..n-1.

    Implementations must be pure functions of the index so that pricing
    passes can run concurrently and repeatably.  ``rows`` arguments are
    arrays of original row indices and the dual vectors ``y``/``v`` stay
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

    def price_max_abs(self, v: np.ndarray, rows: np.ndarray) -> tuple[int, float]:
        """Index maximizing |v . A_j| and that absolute value."""
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

    def _reduced(self, y, rows, cost_sign):
        # y is indexed by original row number; rows lists the active ones
        rows = np.asarray(rows)
        rc = -(y[rows] @ self._matrix[rows])
        if cost_sign != 0.0:
            rc = rc + cost_sign * self._costs
        return rc

    def price_min(self, y, rows, cost_sign):
        rc = self._reduced(y, rows, cost_sign)
        j = int(np.argmin(rc))
        return j, float(rc[j])

    def price_max_abs(self, v, rows):
        rows = np.asarray(rows)
        vals = np.abs(v[rows] @ self._matrix[rows])
        j = int(np.argmax(vals))
        return j, float(vals[j])


@dataclass(frozen=True)
class LinearProgram:
    """min or max of cost . w  subject to  row_i . w (= or <=) rhs_i, w >= 0."""

    sense: str  # "min" | "max"
    oracle: ColumnOracle
    rows: tuple[tuple[str, float], ...]  # (relation "eq"|"le", rhs)

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if not self.rows:
            raise ValueError("at least one constraint row is required")
        for rel, _ in self.rows:
            if rel not in ("eq", "le"):
                raise ValueError(f"unknown row relation {rel!r}")


@dataclass(frozen=True)
class LpSolution:
    status: str
    objective: float
    support: tuple[tuple[int, float], ...]  # (structural column index, weight)
    dual_values: tuple[float, ...]  # per original row; 0.0 for deleted rows
    iterations: int
    deleted_rows: tuple[int, ...] = ()  # original row indices found redundant


class _Simplex:
    """One revised-simplex run under the lexicographic ratio test.

    Column ids: 0..n-1 structural, then one slack per "le" row in row
    order, then artificials assigned at the phase-1 start.

    Ratio-test ties are broken on the rows of B^-1 B_ref / d, where B_ref
    is the basis matrix at the start of each phase (after phase 1 deletes
    redundant rows or pivots artificials out).  Every row of
    [x_B, B^-1 B_ref] then stays lexicographically positive and the
    objective falls lexicographically at each pivot, so no basis repeats
    whichever improving column enters.
    """

    def __init__(self, lp: LinearProgram, tol_feas: float, tol_opt: float,
                 max_iter: int):
        self.oracle = lp.oracle
        self.n = lp.oracle.n
        self.sense = 1.0 if lp.sense == "min" else -1.0
        self.tol_feas = tol_feas
        self.tol_opt = tol_opt
        self.max_iter = max_iter
        self.ref: np.ndarray | None = None

        self.rels = [rel for rel, _ in lp.rows]
        self.rhs = np.array([b for _, b in lp.rows], dtype=float)
        self.k0 = len(self.rels)
        self.active = np.arange(self.k0)
        self.slack_rows = [i for i, rel in enumerate(self.rels) if rel == "le"]
        self.nslack = len(self.slack_rows)
        self.art_rows: list[int] = []
        self.art_signs: list[float] = []
        self.iterations = 0
        self.deleted: list[int] = []

    # -- columns and costs ---------------------------------------------------

    def col(self, cid: int) -> np.ndarray:
        if cid < self.n:
            return self.oracle.columns(np.array([cid]), self.active)[:, 0]
        v = np.zeros(len(self.active))
        if cid < self.n + self.nslack:
            row = self.slack_rows[cid - self.n]
            sign = 1.0
        else:
            a = cid - self.n - self.nslack
            row = self.art_rows[a]
            sign = self.art_signs[a]
        pos = np.nonzero(self.active == row)[0]
        if pos.size:
            v[pos[0]] = sign
        return v

    def cost_of(self, cid: int, phase: int) -> float:
        if phase == 1:
            return 1.0 if cid >= self.n + self.nslack else 0.0
        if cid < self.n:
            return self.sense * self.oracle.cost(cid)
        return 0.0

    def _slack_pos(self, cid: int) -> int | None:
        """Active-row position of a slack column's unit entry."""
        row = self.slack_rows[cid - self.n]
        pos = np.nonzero(self.active == row)[0]
        return int(pos[0]) if pos.size else None

    # -- basis maintenance -----------------------------------------------------

    def start_basis(self) -> None:
        basis = []
        signs = np.ones(self.k0)
        art_base = self.n + self.nslack
        for i, rel in enumerate(self.rels):
            if rel == "le" and self.rhs[i] >= 0:
                basis.append(self.n + self.slack_rows.index(i))
            else:
                # artificial with coefficient matching the rhs sign keeps
                # the starting point nonnegative without flipping rows
                self.art_rows.append(i)
                self.art_signs.append(1.0 if self.rhs[i] >= 0 else -1.0)
                signs[i] = self.art_signs[-1]
                basis.append(art_base + len(self.art_rows) - 1)
        self.basis = basis
        # the starting basis is a signed identity
        self.binv = np.diag(signs)
        self.xb = signs * self.rhs

    def basis_matrix(self) -> np.ndarray:
        basis = np.array(self.basis)
        structural = basis < self.n
        B = np.zeros((len(self.active), len(basis)))
        B[:, structural] = self.oracle.columns(basis[structural], self.active)
        for pos in np.nonzero(~structural)[0]:
            B[:, pos] = self.col(int(basis[pos]))
        return B

    def refactorize(self) -> None:
        B = self.basis_matrix()
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SingularBasisError("singular basis at refactorization") from exc
        if not np.all(np.isfinite(self.binv)):
            raise SingularBasisError("non-finite basis inverse")
        self.xb = self.binv @ self.rhs[self.active]
        self.pivots_since_refactor = 0

    def pivot(self, enter: int, leave_pos: int, d: np.ndarray) -> None:
        piv = d[leave_pos]
        if abs(piv) < PIVOT_TOL:
            raise SingularBasisError("vanishing pivot element")
        theta = self.xb[leave_pos] / piv
        self.xb = self.xb - theta * d
        self.xb[leave_pos] = theta
        self.binv[leave_pos, :] /= piv
        # eta update: subtract multiples of the pivot row from the others
        others = np.arange(len(self.xb)) != leave_pos
        self.binv[others, :] -= np.outer(d[others], self.binv[leave_pos, :])
        self.basis[leave_pos] = enter
        self.iterations += 1
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= REFACTOR_EVERY:
            self.refactorize()

    # -- simplex iterations ------------------------------------------------------

    def duals(self, phase: int) -> np.ndarray:
        cb = np.array([self.cost_of(cid, phase) for cid in self.basis])
        return cb @ self.binv

    def entering(self, phase: int) -> int | None:
        y = self.duals(phase)
        y_full = np.zeros(self.k0)
        y_full[self.active] = y
        cost_sign = 0.0 if phase == 1 else self.sense
        best_id, best_rc = self.oracle.price_min(y_full, self.active, cost_sign)
        for t in range(self.nslack):
            pos = self._slack_pos(self.n + t)
            rc = -y[pos] if pos is not None else 0.0
            if rc < best_rc:
                best_id, best_rc = self.n + t, rc
        return best_id if best_rc < -self.tol_opt else None

    def ratio_test(self, d: np.ndarray) -> int | None:
        """Leaving position, or None when the direction is unbounded."""
        cand = np.nonzero(d > PIVOT_TOL)[0]
        if cand.size == 0:
            return None
        ratios = self.xb[cand] / d[cand]
        ties = cand[ratios <= np.min(ratios) + self.tol_feas]
        if ties.size == 1:
            return int(ties[0])
        lex = (self.binv[ties] @ self.ref) / d[ties, None]
        for c in range(lex.shape[1]):
            keep = lex[:, c] <= lex[:, c].min() + self.tol_feas
            ties, lex = ties[keep], lex[keep]
            if ties.size == 1:
                break
        return int(ties[0])

    def iterate(self, phase: int) -> str:
        self.ref = self.basis_matrix()
        while True:
            if self.iterations >= self.max_iter:
                return ITERATION_LIMIT
            enter = self.entering(phase)
            if enter is None:
                return OPTIMAL
            d = self.binv @ self.col(enter)
            leave = self.ratio_test(d)
            if leave is None:
                if phase == 1:
                    # the phase-1 objective is bounded below by zero, so an
                    # unbounded direction can only be numerical noise
                    raise SingularBasisError("unbounded phase-1 direction")
                return UNBOUNDED
            self.pivot(enter, leave, d)

    # -- phase 1 cleanup ---------------------------------------------------------

    def _drop_row(self, pos: int) -> None:
        row = int(self.active[pos])
        self.deleted.append(row)
        self.active = np.delete(self.active, pos)
        del self.basis[pos]
        self.refactorize()

    def purge_artificials(self) -> None:
        """Pivot zero-level artificials out; delete rows with no pivot."""
        art_base = self.n + self.nslack
        while True:
            pos = next((p for p, cid in enumerate(self.basis) if cid >= art_base), None)
            if pos is None:
                return
            v = self.binv[pos, :]
            v_full = np.zeros(self.k0)
            v_full[self.active] = v
            j, val = self.oracle.price_max_abs(v_full, self.active)
            best_id, best_val = j, val
            for t in range(self.nslack):
                p = self._slack_pos(self.n + t)
                if p is not None and abs(v[p]) > best_val and (self.n + t) not in self.basis:
                    best_id, best_val = self.n + t, abs(v[p])
            if best_val > 1e-7 and best_id not in self.basis:
                d = self.binv @ self.col(best_id)
                self.pivot(best_id, pos, d)
            else:
                self._drop_row(pos)

    # -- driver ----------------------------------------------------------------

    def run(self) -> LpSolution:
        self.pivots_since_refactor = 0
        self.start_basis()

        status = self.iterate(phase=1)
        if status == ITERATION_LIMIT:
            return self._abort(status)
        cb1 = np.array([self.cost_of(cid, 1) for cid in self.basis])
        phase1_obj = float(cb1 @ self.xb)
        if phase1_obj > self.tol_feas:
            return LpSolution(INFEASIBLE, math.nan, (), (0.0,) * self.k0,
                              self.iterations, tuple(self.deleted))
        self.purge_artificials()

        status = self.iterate(phase=2)
        if status == ITERATION_LIMIT:
            return self._abort(status)
        if status == UNBOUNDED:
            obj = -math.inf if self.sense > 0 else math.inf
            return LpSolution(UNBOUNDED, obj, (), (0.0,) * self.k0,
                              self.iterations, tuple(self.deleted))

        self.refactorize()  # tighten the final solution
        if np.any(self.xb < -self.tol_feas * 10):
            raise SingularBasisError("negative basic variable at optimum")
        # round-off weights below zero go, so the objective and the
        # support are computed from the same weights
        self.xb = np.maximum(self.xb, 0.0)
        cb = np.array([self.cost_of(cid, 2) for cid in self.basis])
        internal_obj = float(cb @ self.xb)
        y = cb @ self.binv
        duals = np.zeros(self.k0)
        duals[self.active] = self.sense * y
        support = tuple(
            (cid, float(w)) for cid, w in zip(self.basis, self.xb)
            if cid < self.n and w > 0.0)
        return LpSolution(OPTIMAL, self.sense * internal_obj, support,
                          tuple(duals), self.iterations, tuple(self.deleted))

    def _abort(self, status: str) -> LpSolution:
        return LpSolution(status, math.nan, (), (0.0,) * self.k0,
                          self.iterations, tuple(self.deleted))


def solve(lp: LinearProgram, tol_feas: float = 1e-9, tol_opt: float = 1e-9,
          max_iter: int = 20000) -> LpSolution:
    """Solve an LP by two-phase revised simplex.

    Dantzig pricing over the full column oracle, and the lexicographic
    ratio test from the first pivot, which cannot cycle.  The rule is
    deterministic, so a numerically singular basis is not retried: it
    raises SingularBasisError.
    """
    return _Simplex(lp, tol_feas, tol_opt, max_iter).run()
