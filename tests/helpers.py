"""Brute-force oracles and seeded generators shared by the test modules.

The main oracle enumerates every basis of the slack-extended standard
form and takes the best feasible basic solution; it is exponential in
the column count and meant only for tiny instances.
"""
from itertools import chain, combinations
from math import comb

import numpy as np

from cubebounds.core import MomentBudget, ObservedJoint


def standard_form(costs, matrix, rows):
    """Append one slack column per inequality row; returns (c, A, b)."""
    costs = np.asarray(costs, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    n_rows = matrix.shape[0]
    slack_rows = [i for i, (rel, _) in enumerate(rows) if rel == "le"]
    slabs = np.zeros((n_rows, len(slack_rows)))
    for pos, i in enumerate(slack_rows):
        slabs[i, pos] = 1.0
    a_ext = np.hstack([matrix, slabs])
    c_ext = np.concatenate([costs, np.zeros(len(slack_rows))])
    b = np.array([rhs for _, rhs in rows], dtype=float)
    return c_ext, a_ext, b


def independent_rows(matrix, tol=1e-10):
    """Indices of a maximal linearly independent subset, by Gram-Schmidt."""
    keep, basis = [], []
    for i, row in enumerate(np.asarray(matrix, dtype=float)):
        v = row.copy()
        for b in basis:
            v -= (v @ b) * b
        norm = np.linalg.norm(v)
        if norm > tol * max(1.0, np.linalg.norm(row)):
            keep.append(i)
            basis.append(v / norm)
    return keep


def bfs_optima(costs, matrix, rows, chunk=20000):
    """Exhaustive min and max over basic feasible solutions.

    Returns (status, min_obj, max_obj) with status "optimal" or
    "infeasible".  Assumes the feasible region is bounded, so that the
    optima are attained at basic solutions.
    """
    c, a, b = standard_form(costs, matrix, rows)
    keep = independent_rows(a)
    if len(keep) < a.shape[0]:
        drop = [i for i in range(a.shape[0]) if i not in keep]
        # dependent rows must carry the implied right-hand sides
        coeffs, *_ = np.linalg.lstsq(a[keep].T, a[drop].T, rcond=None)
        if np.max(np.abs(coeffs.T @ b[keep] - b[drop])) > 1e-8:
            return "infeasible", np.nan, np.nan
        a, b = a[keep], b[keep]

    r, n = a.shape
    if n < r:
        return "infeasible", np.nan, np.nan
    # fromiter fills the array straight from the iterator: no list of
    # tuples, which at C(29, 6) bases costs about three times as long
    count = comb(n, r)
    combos = np.fromiter(chain.from_iterable(combinations(range(n), r)),
                         dtype=int, count=count * r).reshape(count, r)
    best_min, best_max, found = np.inf, -np.inf, False
    for lo in range(0, len(combos), chunk):
        idx = combos[lo:lo + chunk]
        bases = np.moveaxis(a[:, idx], 0, 1)          # (k, r, r)
        dets = np.abs(np.linalg.det(bases))
        ok = dets > 1e-12
        if not ok.any():
            continue
        try:
            xs = np.linalg.solve(bases[ok], b)
        except np.linalg.LinAlgError:
            xs = np.stack([_solve_or_nan(m, b) for m in bases[ok]])
        resid = np.einsum("kij,kj->ki", bases[ok], xs) - b
        # a slack of -1e-9 would overspend a 1e-9 budget by all of it
        feas = ((xs >= -1e-12).all(axis=1)
                & (np.abs(resid).max(axis=1) < 1e-8)
                & np.isfinite(xs).all(axis=1))
        if not feas.any():
            continue
        found = True
        vals = np.sum(c[idx[ok][feas]] * xs[feas], axis=1)
        best_min = min(best_min, float(vals.min()))
        best_max = max(best_max, float(vals.max()))
    if not found:
        return "infeasible", np.nan, np.nan
    return "optimal", best_min, best_max


def _solve_or_nan(matrix, rhs):
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        return np.full(len(rhs), np.nan)


def random_lp(rng):
    """Small feasible bounded LP: (costs, matrix, rows).

    Boundedness comes from an equality row with all-ones coefficients,
    and feasibility from deriving the right-hand sides at a random
    nonnegative point.
    """
    n_rows = int(rng.integers(1, 5))
    n_cols = int(rng.integers(n_rows + 1, 9))
    matrix = rng.normal(size=(n_rows, n_cols)).round(3)
    matrix[0] = 1.0
    z0 = rng.dirichlet(np.ones(n_cols)) * float(rng.uniform(0.5, 2.0))
    relations = ["eq"] + [str(rng.choice(["eq", "le"]))
                          for _ in range(n_rows - 1)]
    b0 = matrix @ z0
    rows = []
    for i, rel in enumerate(relations):
        slackness = float(rng.uniform(0.0, 0.5)) if rel == "le" and rng.random() < 0.5 else 0.0
        rows.append((rel, float(b0[i] + slackness)))
    costs = rng.normal(size=n_cols).round(3)
    return costs, matrix, tuple(rows)


def random_tiny_budget_lp(rng):
    """Small feasible bounded LP whose "le" rows are budgets like the
    moment rows: nonnegative coefficients and right-hand sides between
    1e-9 and 1e-6, met by a point whose support has coefficients below
    the budget.  The equality coefficients and the point are dyadic, so
    the equality right-hand sides hold at the point exactly.
    """
    n_cols = int(rng.integers(4, 9))
    z0 = np.zeros(n_cols)
    support = rng.choice(n_cols, size=int(rng.integers(1, 4)), replace=False)
    z0[support] = rng.multinomial(64, np.ones(support.size) / support.size) / 64
    budgets = 10.0 ** rng.uniform(-9, -6, size=int(rng.integers(1, 3)))
    le = rng.uniform(0.0, 1.0, size=(budgets.size, n_cols))
    le[:, support] *= 0.9 * budgets[:, None]
    eq = rng.integers(-2048, 2048, size=(int(rng.integers(0, 3)), n_cols)) / 1024
    matrix = np.vstack([np.ones(n_cols), eq, le])
    rows = ([("eq", 1.0)] + [("eq", float(b)) for b in eq @ z0]
            + [("le", float(b)) for b in budgets])
    return rng.normal(size=n_cols).round(3), matrix, tuple(rows)


def random_grid_measure(rng, m):
    """Random measure supported on the m-grid -> (joint, budget, margins).

    The implied table is feasible on that grid by construction; budgets
    are the measure's own moments plus nonnegative margins.
    """
    axis = (np.arange(1, m + 1) - 0.5) / m
    k = int(rng.integers(2, 6))
    pis = axis[rng.integers(0, m, size=k)]
    r0s = axis[rng.integers(0, m, size=k)]
    r1s = axis[rng.integers(0, m, size=k)]
    w = rng.dirichlet(np.ones(k))
    p11 = float(np.sum(w * pis * r1s))
    p10 = float(np.sum(w * pis * (1 - r1s)))
    p01 = float(np.sum(w * (1 - pis) * r0s))
    p00 = float(np.sum(w * (1 - pis) * (1 - r0s)))
    joint = ObservedJoint(p11=p11, p10=p10, p01=p01, p00=p00)
    f_tight = float(np.sum(w * (pis - joint.px1) ** 2))
    r = pis * r1s + (1 - pis) * r0s
    g_tight = float(np.sum(w * (r - joint.py1) ** 2))
    mf = float(rng.uniform(1e-4, 0.05))
    mg = float(rng.uniform(1e-4, 0.05))
    return joint, MomentBudget(f=f_tight + mf, g=g_tight + mg), (f_tight, g_tight)


def grid_matrix(joint, m):
    """Dense (6, m^3) coefficient matrix and cost vector for the psi LP."""
    axis = (np.arange(1, m + 1) - 0.5) / m
    pi, r0, r1 = np.meshgrid(axis, axis, axis, indexing="ij")
    pi, r0, r1 = pi.ravel(), r0.ravel(), r1.ravel()
    r = pi * r1 + (1 - pi) * r0
    matrix = np.stack([
        (1 - pi) * r0,
        pi * r1,
        (1 - pi) * (1 - r0),
        pi * (1 - r1),
        (pi - joint.px1) ** 2,
        (r - joint.py1) ** 2,
    ])
    return r1 - r0, matrix


def measure_moments(measure, joint):
    """Constraint-row values of an AtomicMeasure, in assembly order."""
    e = measure.expectation
    return {
        "p01": e(lambda p, a, b: (1 - p) * a),
        "p11": e(lambda p, a, b: p * b),
        "p00": e(lambda p, a, b: (1 - p) * (1 - a)),
        "p10": e(lambda p, a, b: p * (1 - b)),
        "f": e(lambda p, a, b: (p - joint.px1) ** 2),
        "g": e(lambda p, a, b: (p * b + (1 - p) * a - joint.py1) ** 2),
        "objective": e(lambda p, a, b: b - a),
    }


def assert_certificate(measure, joint, budget, endpoint, tol=1e-6):
    """Certificate must satisfy every constraint and attain the endpoint."""
    vals = measure_moments(measure, joint)
    assert abs(vals["p01"] - joint.p01) <= tol
    assert abs(vals["p11"] - joint.p11) <= tol
    assert abs(vals["p00"] - joint.p00) <= tol
    assert abs(vals["p10"] - joint.p10) <= tol
    assert vals["f"] <= budget.f + tol
    assert vals["g"] <= budget.g + tol
    assert abs(vals["objective"] - endpoint) <= tol
    assert len(measure.support()) <= 7
    assert abs(sum(a[3] for a in measure.atoms) - 1.0) <= 1e-9
    for pi, r0, r1, _ in measure.atoms:
        assert 0 < pi < 1 and 0 < r0 < 1 and 0 < r1 < 1
