"""Grid assembly, the measure LP, refinement, and diagnostics."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubebounds import lp
from cubebounds.bounds import (
    BoundsRequest,
    EqualityInfeasibleError,
    GridColumns,
    GridSpec,
    InfeasibleBudgetError,
    _constraint_rows,
    minimal_budget,
    solve_bounds,
)
from cubebounds.core import (
    ContingencyTable,
    MomentBudget,
    ObservedJoint,
    normalize,
    risk_difference,
)

from helpers import assert_certificate, random_grid_measure

GOLF = ObservedJoint(p11=0.05, p10=0.45, p01=0.005, p00=0.495)
DRUG = normalize(ContingencyTable(978, 1864, 114, 3649))
VACCINE = normalize(ContingencyTable(8, 21720, 162, 21558))


def _fixed(joint, f, g, m):
    return BoundsRequest(joint, MomentBudget(f=f, g=g), GridSpec(m),
                         refine=False)


# -- grid and assembly ---------------------------------------------------------


def test_grid_axis_is_interior_midpoints():
    axis = GridSpec(4).axis
    assert np.allclose(axis, [0.125, 0.375, 0.625, 0.875])
    assert (axis > 0).all() and (axis < 1).all()
    with pytest.raises(ValueError):
        GridSpec(1)


def test_column_decode_and_coefficients():
    oracle = GridColumns(GOLF, 2)
    # column order: pi fastest on the left, r1 fastest overall
    # j = 3 -> indices (0, 1, 1) -> point (0.25, 0.75, 0.75)
    pi, r0, r1 = oracle.atom(3)
    assert (pi, r0, r1) == (0.25, 0.75, 0.75)
    # p11-row coefficient at (0.25, 0.25, 0.75) is pi*r1 = 0.1875
    j = 0 * 4 + 0 * 2 + 1  # (0.25, 0.25, 0.75)
    block = oracle.columns(np.array([j]), np.arange(7))
    assert block[1, 0] == pytest.approx(0.1875)
    # normalization row is all ones
    assert block[6, 0] == 1.0


def test_equality_rows_sum_to_one_at_every_point():
    oracle = GridColumns(DRUG, 5)
    js = np.arange(oracle.n)
    block = oracle.columns(js, [0, 1, 2, 3])
    assert np.allclose(block.sum(axis=0), 1.0, atol=1e-12)


def test_assemble_row_order_and_rhs():
    rows = _constraint_rows(GOLF, 0.125, 0.03)
    relations = [rel for rel, _ in rows]
    rhs = [value for _, value in rows]
    assert relations == ["eq", "eq", "eq", "eq", "le", "le", "eq"]
    assert rhs[:4] == [0.005, 0.05, 0.495, 0.45]
    assert rhs[4:] == [0.125, 0.03, 1.0]
    assert GridColumns(GOLF, 4).n == 64


def test_oracle_cost_is_prognosis_contrast():
    oracle = GridColumns(GOLF, 3)
    for j in (0, 5, 13, 26):
        pi, r0, r1 = oracle.atom(j)
        assert oracle.cost(j) == pytest.approx(r1 - r0)


def test_pricing_matches_dense_columns():
    rng = np.random.default_rng(5)
    for objective in ("psi", "f", "g"):
        for m in (2, 4, 7, 33):
            oracle = GridColumns(DRUG, m, objective=objective)
            costs = np.array([oracle.cost(j) for j in range(oracle.n)])
            matrix = oracle.columns(np.arange(oracle.n), np.arange(7))
            dense = lp.DenseColumns(costs, matrix)
            for trial in range(20):
                y = rng.normal(size=7)
                # y5 > 0 makes the g row concave in r1; cover both signs
                y[5] = abs(y[5]) if trial % 2 else -abs(y[5])
                rows = np.sort(rng.choice(7, size=int(rng.integers(2, 8)),
                                          replace=False))
                for sign in (0.0, 1.0, -1.0):
                    jg, vg = oracle.price_min(y, rows, sign)
                    jd, vd = dense.price_min(y, rows, sign)
                    assert vg == pytest.approx(vd, abs=1e-12)
                    rc = sign * costs[jg] - y[rows] @ matrix[rows, jg]
                    assert rc == pytest.approx(vg, abs=1e-12)
                jg, vg = oracle.price_max_abs(y, rows)
                jd, vd = dense.price_max_abs(y, rows)
                assert vg == pytest.approx(vd, abs=1e-12)
                assert abs(y[rows] @ matrix[rows, jg]) == pytest.approx(vg, abs=1e-12)
            # phase 1 of an infeasible tiny-g request ends with g-row duals
            # of this size; the score near the g row's zero set must keep
            # its digits relative to the terms it sums
            for y5 in (1e6, -1e6, 1e9, -1e9):
                y = rng.normal(size=7)
                y[5] = y5
                rows = np.arange(7)
                for sign in (0.0, 1.0, -1.0):
                    jg, vg = oracle.price_min(y, rows, sign)
                    jd, vd = dense.price_min(y, rows, sign)
                    tol = 1e-12 * max(1.0, np.abs(y[rows] * matrix[rows, jg]).sum())
                    assert vg == pytest.approx(vd, abs=tol)
                    rc = sign * costs[jg] - y[rows] @ matrix[rows, jg]
                    assert rc == pytest.approx(vg, abs=tol)
                jg, vg = oracle.price_max_abs(y, rows)
                jd, vd = dense.price_max_abs(y, rows)
                tol = 1e-12 * max(1.0, np.abs(y[rows] * matrix[rows, jg]).sum())
                assert vg == pytest.approx(vd, abs=tol)
            # no curvature (y5 = 0, and no slope either when y1 = y3) and a
            # curvature too small to give a finite vertex
            for y5 in (0.0, 1e-320, -1e-320):
                y = rng.normal(size=7)
                y[5] = y5
                y[3] = y[1]
                for sign in (0.0, 1.0, -1.0):
                    jg, vg = oracle.price_min(y, np.arange(7), sign)
                    jd, vd = dense.price_min(y, np.arange(7), sign)
                    assert vg == pytest.approx(vd, abs=1e-12)
                    assert 0 <= jg < oracle.n
                jg, vg = oracle.price_max_abs(y, np.arange(7))
                jd, vd = dense.price_max_abs(y, np.arange(7))
                assert vg == pytest.approx(vd, abs=1e-12)
            if objective != "g":
                continue
            # the sign split of price_min at its edge: c5 = cost_sign - y5
            # exactly 0 or one step either side of it (1 - 1e-300 rounds to
            # 1), and c5 = -y5 = +-1e-300 without a cost
            for sign in (1.0, -1.0, 0.0):
                edge = (sign, np.nextafter(sign, -2), np.nextafter(sign, 2)) if sign else (
                    0.0, -1e-300, 1e-300)
                for y5 in edge:
                    y = rng.normal(size=7)
                    y[5] = y5
                    rows = np.arange(7)
                    jg, vg = oracle.price_min(y, rows, sign)
                    jd, vd = dense.price_min(y, rows, sign)
                    assert vg == pytest.approx(vd, abs=1e-12)
                    rc = sign * costs[jg] - y[rows] @ matrix[rows, jg]
                    assert rc == pytest.approx(vg, abs=1e-12)


@settings(deadline=None, max_examples=200)
@given(cells=st.lists(st.integers(1, 10**5), min_size=4, max_size=4),
       m=st.integers(2, 9),
       objective=st.sampled_from(["psi", "f", "g"]),
       rows=st.sets(st.integers(0, 6), min_size=1).map(sorted),
       sign=st.sampled_from([0.0, 1.0, -1.0]),
       y=st.lists(st.floats(-10, 10), min_size=7, max_size=7),
       y5=st.sampled_from([0.0, 1e-320, -1e-320, 1.0, -1.0, 1e9, -1e9]))
def test_pricing_matches_dense_columns_property(cells, m, objective, rows,
                                                sign, y, y5):
    joint = normalize(ContingencyTable(*cells))
    oracle = GridColumns(joint, m, objective=objective)
    costs = np.array([oracle.cost(j) for j in range(oracle.n)])
    matrix = oracle.columns(np.arange(oracle.n), np.arange(7))
    dense = lp.DenseColumns(costs, matrix)
    y = np.array(y)
    y[5] = y5
    rows = np.array(rows)

    def tol(j):
        return 1e-12 * max(1.0, np.abs(y[rows] * matrix[rows, j]).sum())

    jg, vg = oracle.price_min(y, rows, sign)
    jd, vd = dense.price_min(y, rows, sign)
    assert vg == pytest.approx(vd, abs=tol(jg))
    assert sign * costs[jg] - y[rows] @ matrix[rows, jg] == pytest.approx(vg, abs=tol(jg))
    jg, vg = oracle.price_max_abs(y, rows)
    jd, vd = dense.price_max_abs(y, rows)
    assert vg == pytest.approx(vd, abs=tol(jg))
    assert abs(y[rows] @ matrix[rows, jg]) == pytest.approx(vg, abs=tol(jg))


# -- the three study tables ----------------------------------------------------


def test_golf_reference_grid_endpoints():
    iv = solve_bounds(_fixed(GOLF, 0.125, 0.03, 50))
    assert iv.L == pytest.approx(1 / 22, abs=1e-9)
    assert iv.U == pytest.approx(0.43410929951690896, abs=1e-7)
    assert iv.grid_resolution == 50
    assert iv.converged  # fixed-grid request leaves nothing pending


def test_drug_endpoints_stable_across_grids():
    iv32 = solve_bounds(_fixed(DRUG, 0.03, 0.04, 32))
    assert iv32.L == pytest.approx(0.14933125828829905, abs=1e-7)
    assert iv32.U == pytest.approx(0.5121173292265451, abs=1e-7)
    iv64 = solve_bounds(_fixed(DRUG, 0.03, 0.04, 64))
    assert iv64.L == pytest.approx(0.14652270189792044, abs=1e-7)
    assert iv64.U == pytest.approx(0.5180187775768995, abs=1e-7)
    # the interval only widens as the feasible atom set is enriched
    assert iv64.L <= iv32.L + 1e-9
    assert iv64.U >= iv32.U - 1e-9


def test_zero_f_budget_collapses_to_risk_difference():
    for joint in (VACCINE, DRUG):
        iv = solve_bounds(_fixed(joint, 0.0, 0.25, 64))
        rd = risk_difference(joint)
        assert iv.L == pytest.approx(rd, abs=1e-12)
        assert iv.U == pytest.approx(rd, abs=1e-12)
        assert iv.converged
        assert len(iv.certificate_min.support()) == 1
        atom = iv.certificate_min.atoms[0]
        assert atom[0] == pytest.approx(joint.px1, abs=1e-9)


def test_refinement_converges_on_drug():
    # m=16 is infeasible for this table and gets skipped; the ladder
    # then runs 32 -> 64 -> 128 and the deltas fall below 5e-3
    iv = solve_bounds(BoundsRequest(DRUG, MomentBudget(0.03, 0.04),
                                    GridSpec(16), refine=True, max_m=128,
                                    refine_tol=5e-3))
    assert iv.converged
    assert iv.grid_resolution == 128
    assert iv.L == pytest.approx(0.146, abs=5e-3)
    assert iv.U == pytest.approx(0.52, abs=5e-3)


def test_refinement_skips_infeasible_levels():
    # m=25 cannot reproduce the golf table (0.25/m > p01); m=50 can
    iv = solve_bounds(BoundsRequest(GOLF, MomentBudget(0.125, 0.03),
                                    GridSpec(25), refine=True, max_m=50))
    assert iv.grid_resolution == 50
    assert not iv.converged  # only one feasible level, no delta to test


def test_refinement_delta_sequence_shrinks_on_drug():
    values = {}
    for m in (32, 64, 128):
        iv = solve_bounds(_fixed(DRUG, 0.03, 0.04, m))
        values[m] = (iv.L, iv.U)
    d1 = max(abs(values[64][0] - values[32][0]),
             abs(values[64][1] - values[32][1]))
    d2 = max(abs(values[128][0] - values[64][0]),
             abs(values[128][1] - values[64][1]))
    assert d2 < d1


def test_certificates_satisfy_all_constraints():
    cases = [
        (GOLF, MomentBudget(0.125, 0.03), 50),
        (DRUG, MomentBudget(0.03, 0.04), 32),
    ]
    rng = np.random.default_rng(31)
    for _ in range(10):
        joint, budget, _tight = random_grid_measure(rng, 8)
        cases.append((joint, budget, 8))
    for joint, budget, m in cases:
        iv = solve_bounds(BoundsRequest(joint, budget, GridSpec(m),
                                        refine=False))
        assert_certificate(iv.certificate_min, joint, budget, iv.L)
        assert_certificate(iv.certificate_max, joint, budget, iv.U)


def test_nestedness_of_budgets():
    rng = np.random.default_rng(37)
    for _ in range(25):
        joint, budget, _ = random_grid_measure(rng, 8)
        bigger = MomentBudget(f=budget.f + float(rng.uniform(0, 0.05)),
                              g=budget.g + float(rng.uniform(0, 0.05)))
        inner = solve_bounds(BoundsRequest(joint, budget, GridSpec(8),
                                           refine=False))
        outer = solve_bounds(BoundsRequest(joint, bigger, GridSpec(8),
                                           refine=False))
        assert outer.L <= inner.L + 1e-6
        assert outer.U >= inner.U - 1e-6


def test_label_swap_reverses_interval():
    swapped = ObservedJoint(p11=DRUG.p01, p10=DRUG.p00,
                            p01=DRUG.p11, p00=DRUG.p10)
    base = solve_bounds(_fixed(DRUG, 0.03, 0.04, 32))
    mirror = solve_bounds(_fixed(swapped, 0.03, 0.04, 32))
    assert mirror.L == pytest.approx(-base.U, abs=1e-6)
    assert mirror.U == pytest.approx(-base.L, abs=1e-6)


def test_interval_always_within_unit_band():
    rng = np.random.default_rng(41)
    for _ in range(15):
        joint, budget, _ = random_grid_measure(rng, 6)
        iv = solve_bounds(BoundsRequest(joint, budget, GridSpec(6),
                                        refine=False))
        assert -1 - 1e-9 <= iv.L <= iv.U <= 1 + 1e-9


# -- infeasibility and diagnostics ----------------------------------------------


def test_infeasible_budget_raises_with_diagnostics():
    with pytest.raises(InfeasibleBudgetError) as info:
        solve_bounds(_fixed(GOLF, 0.125, 0.03, 32))
    err = info.value
    assert err.grid_m == 32
    # diagnostics explored refined grids, where tiny moments suffice
    assert err.minimal_f is not None and err.minimal_f < 0.125
    assert err.minimal_g is not None and err.minimal_g < 0.03


def test_equality_infeasible_for_boundary_table():
    # p01 below anything an m <= 8 interior grid can produce
    tiny = ObservedJoint(p11=0.3, p10=0.3, p01=1e-6, p00=0.399999)
    with pytest.raises(EqualityInfeasibleError):
        minimal_budget(tiny, "f", 0.25, grid=GridSpec(4), max_m=8)


def test_minimal_budget_f_is_small_with_loose_g():
    value = minimal_budget(DRUG, "f", 0.25, grid=GridSpec(16))
    assert 0.0 <= value < 1e-3


def test_minimal_budget_golf_g_under_study_f():
    value = minimal_budget(GOLF, "g", 0.125, grid=GridSpec(25), max_m=100)
    assert 0.0 <= value <= 0.03


def test_minimal_budget_tiny_g_f(monkeypatch):
    # m=64 is infeasible with phase-1 duals near 1e9 on the g row; pricing
    # that loses digits there wanders to the iteration limit instead
    iterations = []
    solve = lp.solve

    def recording(program, **kw):
        sol = solve(program, **kw)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(lp, "solve", recording)
    value = minimal_budget(DRUG, "f", 1e-9, grid=GridSpec(64), max_m=128)
    assert value == pytest.approx(6.01386904838e-4, abs=1e-9)
    assert len(iterations) == 2
    assert max(iterations) < 200


def test_minimal_budget_refuses_unexpected_lp_status(monkeypatch):
    # a status other than optimal, infeasible or the iteration limit is a
    # numerical failure, not a joint the grids cannot represent
    def unbounded(program, **kw):
        return lp.LpSolution(lp.UNBOUNDED, -np.inf, (), (0.0,) * 7, 1)

    monkeypatch.setattr(lp, "solve", unbounded)
    with pytest.raises(lp.SingularBasisError, match="unexpected LP status unbounded at grid m=16"):
        minimal_budget(DRUG, "f", 0.25, grid=GridSpec(16))


def test_minimal_budget_g_at_zero_f_is_zero():
    assert minimal_budget(VACCINE, "g", 0.0) == 0.0


def test_minimal_budget_validation():
    with pytest.raises(ValueError):
        minimal_budget(GOLF, "h", 0.1)
    with pytest.raises(ValueError):
        minimal_budget(GOLF, "f", -0.1)


def test_request_validation():
    with pytest.raises(ValueError):
        BoundsRequest(GOLF, MomentBudget(0.1, 0.1), GridSpec(8),
                      refine_tol=0.0)
    with pytest.raises(ValueError):
        BoundsRequest(GOLF, MomentBudget(0.1, 0.1), GridSpec(8), max_m=4)
    # max_m bounds refinement only: a fixed grid may lie above it
    req = BoundsRequest(GOLF, MomentBudget(0.1, 0.1), GridSpec(8),
                        refine=False, max_m=4)
    assert req.grid.m == 8
