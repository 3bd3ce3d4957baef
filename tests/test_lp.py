"""Revised-simplex core against hand cases and basis enumeration."""
import numpy as np
import pytest

from cubebounds import lp

from helpers import bfs_optima, random_lp


def _solve(sense, costs, matrix, rows, **kw):
    # every pivot of lp.solve runs the lexicographic ratio test
    oracle = lp.DenseColumns(costs, matrix)
    return lp.solve(lp.LinearProgram(sense, oracle, tuple(rows)), **kw)


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


def test_iteration_limit_status():
    rng = np.random.default_rng(3)
    costs = rng.normal(size=6)
    matrix = np.vstack([np.ones(6), rng.normal(size=(2, 6))])
    z0 = rng.dirichlet(np.ones(6))
    rows = [("eq", 1.0), ("eq", float(matrix[1] @ z0)),
            ("le", float(matrix[2] @ z0) + 0.1)]
    sol = _solve("min", costs, matrix, rows, max_iter=1)
    assert sol.status == lp.ITERATION_LIMIT


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
    rng = np.random.default_rng(23)
    for _ in range(60):
        costs, matrix, rows = random_lp(rng)
        status, lo, hi = bfs_optima(costs, matrix, rows)
        assert status == "optimal"
        smin = _solve("min", costs, matrix, rows)
        smax = _solve("max", costs, matrix, rows)
        assert smin.status == smax.status == lp.OPTIMAL
        assert smin.objective == pytest.approx(lo, abs=1e-9)
        assert smax.objective == pytest.approx(hi, abs=1e-9)


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
    simplex = lp._Simplex(program, 1e-9, 1e-9, 20000)
    simplex.xb = np.array([0.2, 0.1, 0.1])
    simplex.binv = np.eye(3)
    simplex.ref = np.array([[0.0, 3.0, 1.0],
                            [0.0, 2.0, 0.0],
                            [1.0, 0.0, 0.0]])
    assert simplex.ratio_test(np.array([2.0, 1.0, 1.0])) == 0


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
