"""Revised-simplex core against hand cases and basis enumeration."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubebounds import lp
from cubebounds.bounds import GridColumns, _constraint_rows
from cubebounds.core import ObservedJoint

from helpers import (
    bfs_optima,
    grid_matrix,
    random_grid_measure,
    random_lp,
    random_tiny_budget_lp,
)


def _solve(sense, costs, matrix, rows):
    # every pivot of lp.solve runs the lexicographic ratio test
    oracle = lp.DenseColumns(costs, matrix)
    return lp.solve(lp.LinearProgram(sense, oracle, tuple(rows)))


def test_trivial_simplex_vertex():
    sol = _solve("max", [1.0, 1.0], [[1.0, 1.0]], [("eq", 1.0)])
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_min_and_max_differ_on_same_feasible_set():
    costs = [0.0, 1.0, 2.0]
    matrix = [[1.0, 1.0, 1.0]]
    rows = [("eq", 1.0)]
    assert _solve("min", costs, matrix, rows).objective == pytest.approx(0.0)
    assert _solve("max", costs, matrix, rows).objective == pytest.approx(2.0)


def test_infeasible_contradictory_equalities():
    sol = _solve("min", [1.0, 1.0],
                 [[1.0, 1.0], [1.0, 1.0]],
                 [("eq", 1.0), ("eq", 2.0)])
    assert sol.status == lp.INFEASIBLE


def test_unbounded_direction():
    # x1 - x2 <= 1 leaves x1 = x2 + t free to grow
    sol = _solve("max", [1.0, 0.0], [[1.0, -1.0]], [("le", 1.0)])
    assert sol.status == lp.UNBOUNDED


def test_iteration_limit_status(monkeypatch):
    # reaching MAX_ITER is a failure of the solver, so it raises: a status
    # only ever describes the LP
    monkeypatch.setattr(lp, "MAX_ITER", 1)
    rng = np.random.default_rng(3)
    costs = rng.normal(size=6)
    matrix = np.vstack([np.ones(6), rng.normal(size=(2, 6))])
    z0 = rng.dirichlet(np.ones(6))
    rows = [("eq", 1.0), ("eq", float(matrix[1] @ z0)),
            ("le", float(matrix[2] @ z0) + 0.1)]
    with pytest.raises(lp.IterationLimitError, match=r"MAX_ITER=1\)"):
        _solve("min", costs, matrix, rows)


def test_negative_rhs_rows_are_handled():
    # equality with negative rhs exercises the signed artificial start
    sol = _solve("min", [1.0, 2.0],
                 [[-1.0, -1.0], [1.0, 0.0]],
                 [("eq", -1.0), ("le", 1.0)])
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_redundant_equality_row_is_deleted():
    costs = [1.0, 3.0, 2.0]
    matrix = [[1.0, 1.0, 1.0],
              [2.0, 2.0, 2.0],
              [1.0, 0.0, 2.0]]
    rows = [("eq", 1.0), ("eq", 2.0), ("le", 1.5)]
    sol = _solve("min", costs, matrix, rows)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    # exactly one of the two dependent rows gets dropped; its dual is 0
    assert len(sol.deleted_rows) == 1 and sol.deleted_rows[0] in (0, 1)
    assert sol.dual_values[sol.deleted_rows[0]] == 0.0


def test_redundant_inconsistent_row_is_infeasible():
    matrix = [[1.0, 1.0], [2.0, 2.0]]
    sol = _solve("min", [1.0, 1.0], matrix, [("eq", 1.0), ("eq", 3.0)])
    assert sol.status == lp.INFEASIBLE


def test_duplicate_columns_keep_objective():
    rng = np.random.default_rng(11)
    for _ in range(10):
        costs, matrix, rows = random_lp(rng)
        base = _solve("min", costs, matrix, rows)
        doubled = _solve("min", np.concatenate([costs, costs]),
                         np.hstack([matrix, matrix]), rows)
        assert base.status == doubled.status == lp.OPTIMAL
        assert doubled.objective == pytest.approx(base.objective, abs=1e-9)


def test_column_permutation_keeps_objective():
    rng = np.random.default_rng(13)
    for _ in range(10):
        costs, matrix, rows = random_lp(rng)
        perm = rng.permutation(len(costs))
        base = _solve("max", costs, matrix, rows)
        shuffled = _solve("max", np.asarray(costs)[perm], matrix[:, perm], rows)
        assert base.status == shuffled.status == lp.OPTIMAL
        assert shuffled.objective == pytest.approx(base.objective, abs=1e-9)


def test_support_is_basic_and_feasible():
    rng = np.random.default_rng(17)
    for _ in range(20):
        costs, matrix, rows = random_lp(rng)
        sol = _solve("min", costs, matrix, rows)
        assert sol.status == lp.OPTIMAL
        assert len(sol.support) <= len(rows)
        # reconstruct the primal point and check every constraint
        z = np.zeros(len(costs))
        for j, w in sol.support:
            assert w > 0
            z[j] = w
        lhs = matrix @ z
        for i, (rel, rhs) in enumerate(rows):
            if rel == "eq":
                assert lhs[i] == pytest.approx(rhs, abs=1e-7)
            else:
                assert lhs[i] <= rhs + 1e-7
        assert np.asarray(costs) @ z == pytest.approx(sol.objective, abs=1e-7)


def test_weak_duality_at_termination():
    rng = np.random.default_rng(19)
    for _ in range(20):
        costs, matrix, rows = random_lp(rng)
        sol = _solve("min", costs, matrix, rows)
        assert sol.status == lp.OPTIMAL
        b = np.array([rhs for _, rhs in rows])
        dual_obj = float(np.asarray(sol.dual_values) @ b)
        assert dual_obj <= sol.objective + 1e-7
        # at a simplex vertex the dual objective coincides with the primal
        assert dual_obj == pytest.approx(sol.objective, abs=1e-7)
        # duals of le rows are sign-constrained for a min problem
        for i, (rel, _) in enumerate(rows):
            if rel == "le" and i not in sol.deleted_rows:
                assert sol.dual_values[i] <= 1e-9


def test_matches_enumeration_on_seeded_instances():
    # a basic value may end 10 * TOL_FEAS below zero, which on a budget of
    # 1e-9 moves the objective by up to that much times the duals
    rng = np.random.default_rng(23)
    for generate, slack in ((random_lp, 0.0), (random_tiny_budget_lp, 10 * lp.TOL_FEAS)):
        for _ in range(60):
            costs, matrix, rows = generate(rng)
            status, lo, hi = bfs_optima(costs, matrix, rows)
            assert status == "optimal"
            smin = _solve("min", costs, matrix, rows)
            smax = _solve("max", costs, matrix, rows)
            assert smin.status == smax.status == lp.OPTIMAL
            for sol, ref in ((smin, lo), (smax, hi)):
                tol = 1e-9 + slack * np.abs(sol.dual_values).sum()
                assert sol.objective == pytest.approx(ref, abs=tol)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a basic slack may end 10*TOL_FEAS below zero, overspending a budget "
    "near 1e-9 several times over; ROADMAP item 3 (tiny budgets) is open"))
@pytest.mark.parametrize("seed, draw", [(1021, 31), (1058, 15)])
def test_tiny_budget_max_matches_enumeration(seed, draw):
    # the 32nd and 16th draws miss the exact optimum by 6.8e-8 and 4.5e-7
    # against tolerances of 5.5e-8 and 7.4e-8
    rng = np.random.default_rng(seed)
    for _ in range(draw + 1):
        costs, matrix, rows = random_tiny_budget_lp(rng)
    status, _, hi = bfs_optima(costs, matrix, rows)
    assert status == "optimal"
    sol = _solve("max", costs, matrix, rows)
    assert sol.status == lp.OPTIMAL
    tol = 1e-9 + 10 * lp.TOL_FEAS * np.abs(sol.dual_values).sum()
    assert sol.objective == pytest.approx(hi, abs=tol)


def test_degenerate_vertices_do_not_cycle():
    # many tied basic solutions at the same vertex; Dantzig entering with
    # the lexicographic ratio test must still terminate at the optimum
    costs = [1.0, 1.0, 1.0, 1.0, 0.0]
    matrix = [[1.0, 1.0, 1.0, 1.0, 1.0],
              [1.0, -1.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 1.0, -1.0, 0.0]]
    rows = [("eq", 1.0), ("eq", 0.0), ("eq", 0.0)]
    sol = _solve("min", costs, matrix, rows)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_ratio_test_narrows_ties_column_by_column():
    # positions 0..2 tie on x_B / d = 0.1.  The first column of
    # B^-1 B_ref / d keeps positions 0 and 1, and the second column,
    # 1.5 against 2.0 after the division by d, picks position 0.
    program = lp.LinearProgram("min", lp.DenseColumns([0.0], [[1.0]] * 3),
                               (("eq", 1.0),) * 3)
    simplex = lp._Simplex(program)
    simplex.xb = np.array([0.2, 0.1, 0.1])
    simplex.binv = np.eye(3)
    simplex.ref = np.array([[0.0, 3.0, 1.0],
                            [0.0, 2.0, 0.0],
                            [1.0, 0.0, 0.0]])
    assert simplex.ratio_test(np.array([2.0, 1.0, 1.0])) == 0


@pytest.mark.parametrize("xb,d,ref,leaves", [
    # the ratios 1.5e-9 and 1e-9 lie within TOL_FEAS, so a window on the
    # ratios would tie them and B_ref pick position 0; the step to its
    # ratio takes position 1 to 2e-8 - 20 * 1.5e-9 = -1e-8, ten times
    # TOL_FEAS, so on the residual position 1 leaves alone
    ([3e-8, 2e-8], [20.0, 20.0], [[0.0, 1.0], [1.0, 0.0]], 1),
    # position 1's own residual 1.2e-9 - 1.0 * 1e-9 is within TOL_FEAS,
    # but the step to its ratio 1.2 takes position 0 to -0.2
    ([1.0, 1.2e-9], [1.0, 1e-9], np.eye(2), 0),
    # position 0, 5e-10 below zero after an earlier tie, counts as 0 and
    # ties with ratio 4e-10; at its raw ratio -5e-7 it would leave alone
    # and the step would run backwards
    ([-5e-10, 4e-10], [1e-3, 1.0], np.eye(2), 1),
])
def test_ratio_test_window_is_on_the_residual(xb, d, ref, leaves):
    program = lp.LinearProgram("min", lp.DenseColumns([0.0], [[1.0]] * 2),
                               (("eq", 1.0),) * 2)
    simplex = lp._Simplex(program)
    simplex.xb, simplex.binv, simplex.ref = np.array(xb), np.eye(2), np.array(ref)
    assert simplex.ratio_test(np.array(d)) == leaves


def test_solution_reports_iterations():
    costs, matrix, rows = random_lp(np.random.default_rng(29))
    sol = _solve("min", costs, matrix, rows)
    assert sol.iterations >= 1


def test_linear_program_validation():
    oracle = lp.DenseColumns([1.0], [[1.0]])
    with pytest.raises(ValueError):
        lp.LinearProgram("best", oracle, (("eq", 1.0),))
    with pytest.raises(ValueError):
        lp.LinearProgram("min", oracle, (("ge", 1.0),))
    with pytest.raises(ValueError):
        lp.LinearProgram("min", oracle, ())


# -- the kept basis --------------------------------------------------------------

GOLF = ObservedJoint(p11=0.05, p10=0.45, p01=0.005, p00=0.495)


def _kept_basis_programs():
    """Dense and grid LPs; among them they delete redundant rows, pivot
    artificials out after phase 1 and start from negative right-hand
    sides."""
    rng = np.random.default_rng(31)
    programs = []
    for _ in range(8):
        costs, matrix, rows = random_lp(rng)
        for sense in ("min", "max"):
            programs.append(lp.LinearProgram(sense, lp.DenseColumns(costs, matrix), rows))
    programs.append(lp.LinearProgram(
        "min", lp.DenseColumns([1.0, 3.0, 2.0], [[1, 1, 1], [2, 2, 2], [1, 0, 2]]),
        (("eq", 1.0), ("eq", 2.0), ("le", 1.5))))
    programs.append(lp.LinearProgram(
        "min", lp.DenseColumns([1.0, 2.0], [[-1, -1], [1, 0]]),
        (("eq", -1.0), ("le", 1.0))))
    # phase 1 ends with a zero-level artificial that a structural column,
    # and in the second LP a slack, pivots out
    programs.append(lp.LinearProgram(
        "min", lp.DenseColumns([-1.0, 0.0, 1.0, 0.0],
                               [[1, 1, 1, 1], [2, -2, -2, -1], [1, 0, 2, 2]]),
        (("eq", 1.0), ("eq", -2.0), ("eq", 0.0))))
    programs.append(lp.LinearProgram(
        "min", lp.DenseColumns([2.0, -3.0, -3.0], [[1, 1, 1], [2, 2, 2], [-1, -2, 1]]),
        (("eq", 1.0), ("le", 2.0), ("le", 1.0))))
    for objective, f, g in (("psi", 0.125, 0.03), ("f", 1.0, 0.03), ("g", 0.125, 1.0)):
        oracle = GridColumns(GOLF, 50, objective)
        for sense in ("min", "max") if objective == "psi" else ("min",):
            programs.append(lp.LinearProgram(sense, oracle, _constraint_rows(GOLF, f, g)))
    # the grid LP with the normalization row its cell rows imply: phase 1
    # finds the dependent row and deletes it
    for m in (3, 4, 5):
        joint, budget, _ = random_grid_measure(rng, m)
        costs, matrix = grid_matrix(joint, m)
        oracle = lp.DenseColumns(costs, np.vstack([matrix, np.ones(m ** 3)]))
        rows = _constraint_rows(joint, budget) + (("eq", 1.0),)
        for sense in ("min", "max"):
            programs.append(lp.LinearProgram(sense, oracle, rows))
    return programs


def _fresh_basis(simplex, phase):
    """The basis matrix and basic costs rebuilt from simplex.basis alone:
    one oracle.columns fetch for the structural columns and a signed unit
    column for each slack and artificial."""
    n, nslack, active = simplex.n, simplex.nslack, list(simplex.active)
    art_rows = [i for i, (rel, b) in enumerate(zip(simplex.rels, simplex.rhs))
                if not (rel == "le" and b >= 0)]
    basis = np.array(simplex.basis)
    structural = basis < n
    B = np.zeros((len(active), len(basis)))
    B[:, structural] = simplex.oracle.columns(basis[structural], simplex.active)
    for pos in np.nonzero(~structural)[0]:
        cid = int(basis[pos]) - n
        if cid < nslack:  # a slack's coefficient is +1
            row, sign = simplex.slack_rows[cid], 1.0
        else:  # an artificial's has the sign of its row's rhs
            row = art_rows[cid - nslack]
            sign = 1.0 if simplex.rhs[row] >= 0 else -1.0
        if row in active:
            B[active.index(row), pos] = sign
    if phase == 1:
        cb = [1.0 if cid >= n + nslack else 0.0 for cid in simplex.basis]
    else:
        cb = [simplex.sense * simplex.oracle.cost(cid) if cid < n else 0.0
              for cid in simplex.basis]
    return B, np.array(cb)


class _CheckedSimplex(lp._Simplex):
    """Compares the kept basis with a fresh build before every pricing
    pass, checks bit for bit that the inverse and the basic values are
    those of the kept basis, and records the phases it saw."""

    def entering(self, phase):
        B, cb = _fresh_basis(self, phase)
        assert self.B.shape == B.shape and self.B.tobytes() == B.tobytes()
        assert self.cb.tobytes() == cb.tobytes()
        assert self.binv.tobytes() == np.linalg.inv(self.B).tobytes()
        assert self.xb.tobytes() == (self.binv @ self.rhs[self.active]).tobytes()
        self.phases = getattr(self, "phases", set()) | {phase}
        return super().entering(phase)

    def purge_artificials(self):
        before = self.iterations
        super().purge_artificials()
        self.purge_pivots = self.iterations - before


def test_kept_basis_matches_fresh_build():
    deleted = purged = both_phases = 0
    for program in _kept_basis_programs():
        simplex = _CheckedSimplex(program)
        sol = simplex.run()
        assert sol == lp.solve(program)
        assert sol.status == lp.OPTIMAL
        B, cb = _fresh_basis(simplex, 2)
        assert simplex.B.tobytes() == B.tobytes()
        assert simplex.cb.tobytes() == cb.tobytes()
        deleted += bool(sol.deleted_rows)
        purged += simplex.purge_pivots > 0
        both_phases += simplex.phases == {1, 2}
    assert deleted >= 3 and purged >= 2 and both_phases >= 10


class _CountingOracle:
    """Passes every call through to an oracle and counts cost and columns.
    It has the four members of the protocol and nothing more, so a solve
    that asked for any other method would fail."""

    def __init__(self, inner):
        self.inner, self.costs, self.columns_calls = inner, 0, 0
        self.n = inner.n

    def cost(self, j):
        self.costs += 1
        return self.inner.cost(j)

    def columns(self, js, rows):
        self.columns_calls += 1
        return self.inner.columns(js, rows)

    def price_min(self, y, rows, cost_sign):
        return self.inner.price_min(y, rows, cost_sign)


def test_one_cost_and_one_column_per_pivot():
    for program in _kept_basis_programs():
        oracle = _CountingOracle(program.oracle)
        sol = lp.solve(lp.LinearProgram(program.sense, oracle, program.rows))
        assert sol == lp.solve(program)
        assert oracle.costs <= sol.iterations + len(program.rows)
        assert oracle.columns_calls <= sol.iterations


class _PurgeCheckedSimplex(lp._Simplex):
    """Checks every choice of the phase-1 cleanup against a brute-force
    max |v . a| over the structural columns and the nonbasic slacks, v the
    row of B^-1 at the artificial's position."""

    purging, purge_pivots = False, 0

    def purge_artificials(self):
        self.purging, self.priced, self.purge_pivots = True, [], 0
        super().purge_artificials()
        self.purging = False

    def least_reduced_cost(self, y, cost_sign):
        best = super().least_reduced_cost(y, cost_sign)
        if self.purging:
            self.priced.append(best)
        return best

    def _chosen_and_largest(self, pos):
        """The |v . a| the purge chose, from its two pricing calls, and the
        brute-force maximum."""
        assert len(self.priced) == 2
        chosen = -min(rc for _, rc in self.priced)
        self.priced = []
        v = self.binv[pos]
        structural = np.abs(v @ self.oracle.columns(np.arange(self.n), self.active))
        nonbasic = [t for t in range(self.nslack) if self.n + t not in self.basis]
        slacks = np.abs(v @ self.units[:, nonbasic])
        return chosen, max(structural.max(), slacks.max(initial=0.0))

    def pivot(self, enter, leave_pos, a, d):
        if self.purging:
            chosen, largest = self._chosen_and_largest(leave_pos)
            assert largest > 1e-7
            assert chosen == pytest.approx(largest, rel=1e-12, abs=1e-15)
            assert abs(self.binv[leave_pos] @ a) == pytest.approx(largest, rel=1e-12, abs=1e-15)
            self.purge_pivots += 1
        super().pivot(enter, leave_pos, a, d)

    def _drop_row(self, pos):
        if self.purging:
            chosen, largest = self._chosen_and_largest(pos)
            # the basic columns give v . a = 0, so only a row whose other
            # columns all vanish on v is dropped
            assert largest <= 1e-7
            assert chosen == pytest.approx(largest, abs=1e-12)
        super()._drop_row(pos)


def test_purge_pivots_on_the_largest_abs_reduced_cost():
    purge_pivots = 0
    for program in _kept_basis_programs():
        simplex = _PurgeCheckedSimplex(program)
        assert simplex.run() == lp.solve(program)
        purge_pivots += simplex.purge_pivots
    assert purge_pivots >= 2


# -- the phase-1 start -------------------------------------------------------------


def _assert_start_matches_cold(oracle, rows):
    """Each sense started from the other sense's phase-1 basis returns the
    cold solve's solution field for field, to the last bit; returns the
    cold solutions by sense."""
    cold = {sense: lp.solve(lp.LinearProgram(sense, oracle, rows))
            for sense in ("min", "max")}
    for sense, other in (("min", "max"), ("max", "min")):
        start = cold[other].start
        if start is None:  # phase 1 ignores the sense, so both are infeasible
            assert cold[sense].status == cold[other].status == lp.INFEASIBLE
            assert cold[sense].start is None
            continue
        warm = lp.solve(lp.LinearProgram(sense, oracle, rows, start))
        assert warm == cold[sense]
        assert repr(warm) == repr(cold[sense])
    return cold


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1),
       variant=st.sampled_from(["as drawn", "no ones row", "negative total"]))
def test_start_from_the_other_sense_matches_cold_property(seed, variant):
    # random_lp bounds its LPs with an all-ones equality row: without it a
    # sense may be unbounded, and a negative total makes the rows infeasible
    costs, matrix, rows = random_lp(np.random.default_rng(seed))
    if variant == "no ones row" and len(rows) > 1:
        matrix, rows = matrix[1:], rows[1:]
    elif variant == "negative total":
        rows = (("eq", -1.0),) + rows[1:]
    cold = _assert_start_matches_cold(lp.DenseColumns(costs, matrix), rows)
    if variant == "negative total":
        assert cold["min"].status == lp.INFEASIBLE


def test_start_carries_deleted_rows_infeasibility_and_unboundedness():
    # the grid LP with its implied normalization row: phase 1 deletes a row
    joint, budget, _ = random_grid_measure(np.random.default_rng(37), 3)
    costs, matrix = grid_matrix(joint, 3)
    cold = _assert_start_matches_cold(
        lp.DenseColumns(costs, np.vstack([matrix, np.ones(27)])),
        _constraint_rows(joint, budget) + (("eq", 1.0),))
    assert cold["min"].status == cold["max"].status == lp.OPTIMAL
    assert len(cold["min"].start.deleted_rows) == 1
    assert cold["max"].deleted_rows == cold["min"].start.deleted_rows
    # contradictory equalities: both senses infeasible, neither has a start
    cold = _assert_start_matches_cold(lp.DenseColumns([1.0, 1.0], [[1.0, 1.0]] * 2),
                                      (("eq", 1.0), ("eq", 2.0)))
    assert cold["min"].status == lp.INFEASIBLE
    # x1 - x2 <= 1: the min is 0 and the max unbounded
    cold = _assert_start_matches_cold(lp.DenseColumns([1.0, 0.0], [[1.0, -1.0]]),
                                      (("le", 1.0),))
    assert (cold["min"].status, cold["max"].status) == (lp.OPTIMAL, lp.UNBOUNDED)


# three columns over an equality and a slack row: ids 0-2 are structural
# and 3 is the slack of row 1
_FIT_ORACLE = lp.DenseColumns([1, 2, 3], [[1, 1, 1], [0, 0.5, 1]])
_FIT_ROWS = (("eq", 1.0), ("le", 0.7))


@pytest.mark.parametrize("oracle, rows, basis, deleted, iterations", [
    pytest.param(lp.DenseColumns([1.0], [[1.0]] * 2), (("eq", 1.0),) * 2, (0,), (), 1,
                 id="length"),
    pytest.param(_FIT_ORACLE, _FIT_ROWS, (-3, 3), (), 0, id="negative-id"),
    pytest.param(_FIT_ORACLE, _FIT_ROWS, (0, 9), (), 0, id="id-past-the-slacks"),
    pytest.param(_FIT_ORACLE, _FIT_ROWS, (0, 4), (), 0, id="artificial-id"),
    pytest.param(_FIT_ORACLE, _FIT_ROWS, (0, 0), (), 0, id="repeated-id"),
    pytest.param(_FIT_ORACLE, _FIT_ROWS, (3,), (1,), 0, id="slack-of-a-deleted-row"),
    pytest.param(_FIT_ORACLE, _FIT_ROWS + (("eq", 1.0),), (0,), (1, 1), 0,
                 id="repeated-deleted-row"),
    pytest.param(_FIT_ORACLE, _FIT_ROWS, (0,), (2,), 0, id="deleted-row-past-the-rows"),
    pytest.param(_FIT_ORACLE, _FIT_ROWS, (0, 3), (), -1, id="negative-iterations"),
])
def test_start_must_fit_the_rows(oracle, rows, basis, deleted, iterations):
    start = lp.FeasibleStart(basis=basis, deleted_rows=deleted, iterations=iterations)
    with pytest.raises(ValueError, match="start does not fit the rows"):
        lp.LinearProgram("min", oracle, rows, start)
