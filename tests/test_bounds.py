"""Grid assembly, the measure LP, refinement, and diagnostics."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubebounds import bounds, lp
from cubebounds.bounds import (
    BoundsRequest,
    GridColumns,
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
    risk_x0,
    risk_x1,
)

from helpers import assert_certificate, random_grid_measure

GOLF = ObservedJoint(p11=0.05, p10=0.45, p01=0.005, p00=0.495)
DRUG = normalize(ContingencyTable(978, 1864, 114, 3649))
VACCINE = normalize(ContingencyTable(8, 21720, 162, 21558))


def _fixed(joint, f, g, m):
    return BoundsRequest(joint, MomentBudget(f=f, g=g), m, refine=False)


def _given_other(joint, which, other, m, **ladder):
    """A request for minimal_budget(req, which): the moment other than
    `which` is bounded by `other`, and the 0.25 of `which` goes unread."""
    f, g = (0.25, other) if which == "f" else (other, 0.25)
    return BoundsRequest(joint, MomentBudget(f=f, g=g), m, **ladder)


# -- grid and assembly ---------------------------------------------------------


def test_grid_axis_is_interior_midpoints():
    axis = GridColumns(GOLF, 4).axis
    assert np.allclose(axis, [0.125, 0.375, 0.625, 0.875])
    assert (axis > 0).all() and (axis < 1).all()
    with pytest.raises(ValueError, match="grid needs at least 2 points per axis"):
        BoundsRequest(GOLF, MomentBudget(0.1, 0.1), 1)


def test_column_decode_and_coefficients():
    oracle = GridColumns(GOLF, 2)
    # column order: pi fastest on the left, r1 fastest overall
    # j = 3 -> indices (0, 1, 1) -> point (0.25, 0.75, 0.75)
    pi, r0, r1 = oracle.atom(3)
    assert (pi, r0, r1) == (0.25, 0.75, 0.75)
    # p11-row coefficient at (0.25, 0.25, 0.75) is pi*r1 = 0.1875
    j = 0 * 4 + 0 * 2 + 1  # (0.25, 0.25, 0.75)
    block = oracle.columns(np.array([j]), np.arange(6))
    assert block[1, 0] == pytest.approx(0.1875)
    with pytest.raises(ValueError):
        oracle.columns(np.array([j]), [6])


def test_equality_rows_sum_to_one_at_every_point():
    oracle = GridColumns(DRUG, 5)
    js = np.arange(oracle.n)
    block = oracle.columns(js, [0, 1, 2, 3])
    assert np.allclose(block.sum(axis=0), 1.0, atol=1e-12)


def test_assemble_row_order_and_rhs():
    rows = _constraint_rows(GOLF, 0.125, 0.03)
    relations = [rel for rel, _ in rows]
    rhs = [value for _, value in rows]
    assert relations == ["eq", "eq", "eq", "eq", "le", "le"]
    assert rhs[:4] == [0.005, 0.05, 0.495, 0.45]
    assert rhs[4:] == [0.125, 0.03]
    assert _constraint_rows(GOLF, MomentBudget(0.125, 0.03)) == rows
    assert GridColumns(GOLF, 4).n == 64


def test_oracle_cost_is_prognosis_contrast():
    oracle = GridColumns(GOLF, 3)
    for j in (0, 5, 13, 26):
        pi, r0, r1 = oracle.atom(j)
        assert oracle.cost(j) == pytest.approx(r1 - r0)


def _assert_prices_with_both_signs(oracle, dense, matrix, y, rows, scaled=False):
    """Zero-cost pricing with duals y, then -y, on one oracle, as the
    phase-1 cleanup prices; the curvature c5 = -y5 changes sign between
    the two calls.  A scaled tolerance grows with the terms of the score."""
    for duals in (y, -y):
        jg, vg = oracle.price_min(duals, rows, 0.0)
        jd, vd = dense.price_min(duals, rows, 0.0)
        tol = 1e-12 * (max(1.0, np.abs(duals[rows] * matrix[rows, jg]).sum())
                       if scaled else 1.0)
        assert vg == pytest.approx(vd, abs=tol)
        assert -(duals[rows] @ matrix[rows, jg]) == pytest.approx(vg, abs=tol)


def test_pricing_matches_dense_columns():
    rng = np.random.default_rng(5)
    for objective in ("psi", "f", "g"):
        for m in (2, 4, 7, 33, 64):
            oracle = GridColumns(DRUG, m, objective=objective)
            # the cost vector in one pass (262 144 cost() calls at m = 64
            # take seconds), tied to cost() on a sample of columns
            js = np.arange(oracle.n)
            costs = oracle._cost_values(*oracle._decode(js))
            for j in js[::max(1, oracle.n // 50)]:
                assert costs[j] == oracle.cost(j)
            matrix = oracle.columns(js, np.arange(6))
            dense = lp.DenseColumns(costs, matrix)
            for trial in range(20):
                y = rng.normal(size=6)
                # y5 > 0 makes the g row concave in r1; cover both signs
                y[5] = abs(y[5]) if trial % 2 else -abs(y[5])
                rows = np.sort(rng.choice(6, size=int(rng.integers(2, 7)),
                                          replace=False))
                for sign in (0.0, 1.0, -1.0):
                    jg, vg = oracle.price_min(y, rows, sign)
                    jd, vd = dense.price_min(y, rows, sign)
                    assert vg == pytest.approx(vd, abs=1e-12)
                    rc = sign * costs[jg] - y[rows] @ matrix[rows, jg]
                    assert rc == pytest.approx(vg, abs=1e-12)
                _assert_prices_with_both_signs(oracle, dense, matrix, y, rows)
            # phase 1 of an infeasible tiny-g request ends with g-row duals
            # of this size; the score near the g row's zero set must keep
            # its digits relative to the terms it sums
            for y5 in (1e6, -1e6, 1e9, -1e9):
                y = rng.normal(size=6)
                y[5] = y5
                rows = np.arange(6)
                for sign in (0.0, 1.0, -1.0):
                    jg, vg = oracle.price_min(y, rows, sign)
                    jd, vd = dense.price_min(y, rows, sign)
                    tol = 1e-12 * max(1.0, np.abs(y[rows] * matrix[rows, jg]).sum())
                    assert vg == pytest.approx(vd, abs=tol)
                    rc = sign * costs[jg] - y[rows] @ matrix[rows, jg]
                    assert rc == pytest.approx(vg, abs=tol)
                _assert_prices_with_both_signs(oracle, dense, matrix, y, rows, scaled=True)
            # no curvature (y5 = 0, and no slope either when y1 = y3) and a
            # curvature too small to give a finite vertex
            for y5 in (0.0, 1e-320, -1e-320):
                y = rng.normal(size=6)
                y[5] = y5
                y[3] = y[1]
                for sign in (0.0, 1.0, -1.0):
                    jg, vg = oracle.price_min(y, np.arange(6), sign)
                    jd, vd = dense.price_min(y, np.arange(6), sign)
                    assert vg == pytest.approx(vd, abs=1e-12)
                    assert 0 <= jg < oracle.n
                _assert_prices_with_both_signs(oracle, dense, matrix, y, np.arange(6))
            if objective != "g":
                continue
            # the sign split of price_min at its edge: c5 = cost_sign - y5
            # exactly 0 or one step either side of it (1 - 1e-300 rounds to
            # 1), and c5 = -y5 = +-1e-300 without a cost
            for sign in (1.0, -1.0, 0.0):
                edge = (sign, np.nextafter(sign, -2), np.nextafter(sign, 2)) if sign else (
                    0.0, -1e-300, 1e-300)
                for y5 in edge:
                    y = rng.normal(size=6)
                    y[5] = y5
                    rows = np.arange(6)
                    jg, vg = oracle.price_min(y, rows, sign)
                    jd, vd = dense.price_min(y, rows, sign)
                    assert vg == pytest.approx(vd, abs=1e-12)
                    rc = sign * costs[jg] - y[rows] @ matrix[rows, jg]
                    assert rc == pytest.approx(vg, abs=1e-12)


@settings(deadline=None, max_examples=200)
@given(cells=st.lists(st.integers(1, 10**5), min_size=4, max_size=4),
       m=st.integers(2, 9),
       objective=st.sampled_from(["psi", "f", "g"]),
       rows=st.sets(st.integers(0, 5), min_size=1).map(sorted),
       sign=st.sampled_from([0.0, 1.0, -1.0]),
       y=st.lists(st.floats(-10, 10), min_size=6, max_size=6),
       y_again=st.lists(st.floats(-10, 10), min_size=6, max_size=6),
       y5=st.sampled_from([0.0, 1e-320, -1e-320, 1.0, -1.0, 1e9, -1e9]))
def test_pricing_matches_dense_columns_property(cells, m, objective, rows,
                                                sign, y, y_again, y5):
    joint = normalize(ContingencyTable(*cells))
    oracle = GridColumns(joint, m, objective=objective)
    costs = np.array([oracle.cost(j) for j in range(oracle.n)])
    matrix = oracle.columns(np.arange(oracle.n), np.arange(6))
    dense = lp.DenseColumns(costs, matrix)
    rows = np.array(rows)

    def tol(y, j):
        return 1e-12 * max(1.0, np.abs(y[rows] * matrix[rows, j]).sum())

    def check_min(y):
        jg, vg = oracle.price_min(y, rows, sign)
        jd, vd = dense.price_min(y, rows, sign)
        assert vg == pytest.approx(vd, abs=tol(y, jg))
        assert sign * costs[jg] - y[rows] @ matrix[rows, jg] == pytest.approx(vg, abs=tol(y, jg))
        c5 = sign * (objective == "g") - (y[5] if 5 in rows else 0.0)
        if c5 <= 0:  # concave in (r0, r1): a corner of the grid square
            assert {(jg // m) % m, jg % m} <= {0, m - 1}

    # the scratch planes are reused from call to call: price on one oracle
    # with y and -y at zero cost, then with fresh duals and the other
    # curvature sign
    y = np.array(y)
    y[5] = y5
    check_min(y)
    _assert_prices_with_both_signs(oracle, dense, matrix, y, rows, scaled=True)
    y = np.array(y_again)
    y[5] = -y5
    check_min(y)


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
        rd = risk_x1(joint) - risk_x0(joint)
        assert iv.L == pytest.approx(rd, abs=1e-12)
        assert iv.U == pytest.approx(rd, abs=1e-12)
        assert iv.converged
        assert len(iv.certificate_min.support()) == 1
        atom = iv.certificate_min.atoms[0]
        assert atom[0] == pytest.approx(joint.px1, abs=1e-9)


def test_refinement_converges_on_drug(monkeypatch):
    # m=16 is infeasible for this table and gets skipped; the ladder
    # then runs 32 -> 64 -> 128 and the deltas fall below 5e-3
    monkeypatch.setattr(bounds, "REFINE_TOL", 5e-3)
    iv = solve_bounds(BoundsRequest(DRUG, MomentBudget(0.03, 0.04),
                                    16, refine=True, max_m=128))
    assert iv.converged
    assert iv.grid_resolution == 128
    assert iv.L == pytest.approx(0.146, abs=5e-3)
    assert iv.U == pytest.approx(0.52, abs=5e-3)


def _recorded_solves(monkeypatch):
    """Every lp.solve from now on, as (m, objective, sense, status)."""
    calls = []
    solve = lp.solve

    def recording(program):
        sol = solve(program)
        calls.append((program.oracle.m, program.oracle.objective,
                      program.sense, sol.status))
        return sol

    monkeypatch.setattr(lp, "solve", recording)
    return calls


def test_refine_ladder_solves_each_grid_min_then_max(monkeypatch):
    # an infeasible min skips its grid's max; the ladder stops at the
    # first grid that moves neither endpoint by REFINE_TOL
    monkeypatch.setattr(bounds, "REFINE_TOL", 5e-3)
    calls = _recorded_solves(monkeypatch)
    solve_bounds(BoundsRequest(DRUG, MomentBudget(0.03, 0.04), 16,
                               refine=True, max_m=128))
    assert calls == [(16, "psi", "min", lp.INFEASIBLE)] + [
        (m, "psi", sense, lp.OPTIMAL) for m in (32, 64, 128)
        for sense in ("min", "max")]


def test_refusal_diagnostics_ladder_f_then_g(monkeypatch):
    # the fixed m=32 request is refused; each least budget then walks
    # the ladder from the request's grid until its value settles
    calls = _recorded_solves(monkeypatch)
    with pytest.raises(InfeasibleBudgetError):
        solve_bounds(_fixed(GOLF, 0.125, 0.03, 32))
    assert calls == [(32, "psi", "min", lp.INFEASIBLE)] + [
        (m, which, "min", lp.INFEASIBLE if m == 32 else lp.OPTIMAL)
        for which in ("f", "g") for m in (32, 64, 128)]


def test_no_grid_lp_deletes_a_row(monkeypatch):
    # the cell rows sum to 1 at every atom, so no normalization row is
    # built and phase 1 finds no dependent row to delete; with the ones
    # row appended, the dense seven-row LP has the same optimum
    programs = []
    solve = lp.solve

    def recording(program):
        sol = solve(program)
        programs.append((program, sol))
        return sol

    monkeypatch.setattr(lp, "solve", recording)
    rng = np.random.default_rng(43)
    requests = [_fixed(GOLF, 0.125, 0.03, 50), _fixed(DRUG, 0.03, 0.04, 64),
                _fixed(VACCINE, 0.01, 0.01, 64), _fixed(GOLF, 0.125, 0.03, 32)]
    requests += [BoundsRequest(joint, budget, m, refine=False)
                 for m in (3, 4, 5, 8) for joint, budget, _ in
                 (random_grid_measure(rng, m) for _ in range(3))]
    for req in requests:
        try:
            solve_bounds(req)
        except InfeasibleBudgetError:
            pass  # the refusal's diagnostics solve grid LPs too
    assert len(programs) >= 2 * len(requests)
    dense_checked = 0
    for program, sol in programs:
        assert sol.deleted_rows == ()
        assert len(program.rows) == 6
        oracle = program.oracle
        if oracle.m > 5 or sol.status != lp.OPTIMAL:
            continue
        js = np.arange(oracle.n)
        matrix = np.vstack([oracle.columns(js, np.arange(6)), np.ones(oracle.n)])
        dense = solve(lp.LinearProgram(
            program.sense, lp.DenseColumns(oracle._cost_values(*oracle._decode(js)), matrix),
            program.rows + (("eq", 1.0),)))
        assert dense.status == lp.OPTIMAL
        assert dense.objective == pytest.approx(sol.objective, abs=1e-12)
        dense_checked += 1
    assert dense_checked >= 18


def _started_cases():
    cases = [pytest.param(_fixed(GOLF, 0.125, 0.03, 50), id="golf-m50")]
    cases += [pytest.param(_fixed(DRUG, 0.03, 0.04, m), id=f"drug-m{m}")
              for m in (64, 128, 256)]
    # vaccine's config sets f = 0, which is answered without an LP; at
    # f = g = 0.01 its min is infeasible on m=64 and the max is never solved
    cases.append(pytest.param(_fixed(VACCINE, 0.01, 0.01, 64), id="vaccine-m64"))
    rng = np.random.default_rng(53)
    for m in (3, 4, 5, 8):
        joint, budget, _ = random_grid_measure(rng, m)
        cases.append(pytest.param(BoundsRequest(joint, budget, m, refine=False),
                                  id=f"random-m{m}"))
    return cases


@pytest.mark.parametrize("req", _started_cases())
def test_max_from_the_min_start_matches_a_cold_solve(monkeypatch, req):
    # the ladder solves the min cold and starts the max from its phase-1
    # basis; the max must be what a cold solve returns, to the last bit.
    # An infeasible min has no start, and the single-sense diagnosis LPs
    # of the refusal that follows solve cold.
    programs = []
    solve = lp.solve

    def recording(program):
        sol = solve(program)
        programs.append((program, sol))
        return sol

    monkeypatch.setattr(lp, "solve", recording)
    try:
        solve_bounds(req)
    except InfeasibleBudgetError:
        pass
    psi = [(p, sol) for p, sol in programs if p.oracle.objective == "psi"]
    pmin, smin = psi[0]
    assert (pmin.sense, pmin.start) == ("min", None)
    if smin.status == lp.INFEASIBLE:
        assert len(psi) == 1 and smin.start is None
        assert all(p.start is None for p, _ in programs)
        cold = solve(lp.LinearProgram("max", pmin.oracle, pmin.rows))
        assert (cold.status, cold.start) == (lp.INFEASIBLE, None)
        return
    (pmax, smax), = psi[1:]
    assert (pmax.sense, pmax.start) == ("max", smin.start)
    assert pmax.oracle is pmin.oracle and pmax.rows == pmin.rows
    cold = solve(lp.LinearProgram("max", pmax.oracle, pmax.rows))
    assert smax == cold
    assert repr(smax) == repr(cold)


def test_both_senses_make_one_phase_1(monkeypatch):
    # on drug m=64 the ladder prices at zero cost (phase 1 and its purge)
    # exactly as often as one cold solve, and calls lp.solve once a sense
    phase1, phase2 = [], []
    price_min = GridColumns.price_min

    def counting(self, y, rows, cost_sign):
        (phase1 if cost_sign == 0 else phase2).append(cost_sign)
        return price_min(self, y, rows, cost_sign)

    monkeypatch.setattr(GridColumns, "price_min", counting)
    rows = _constraint_rows(DRUG, 0.03, 0.04)
    cold = {}
    for sense in ("min", "max"):
        phase1.clear()
        phase2.clear()
        lp.solve(lp.LinearProgram(sense, GridColumns(DRUG, 64), rows))
        cold[sense] = len(phase1), len(phase2)
    assert cold["min"][0] == cold["max"][0] > 0
    phase1.clear()
    phase2.clear()
    calls = _recorded_solves(monkeypatch)
    solve_bounds(_fixed(DRUG, 0.03, 0.04, 64))
    assert calls == [(64, "psi", sense, lp.OPTIMAL) for sense in ("min", "max")]
    assert len(phase1) == cold["min"][0]
    assert len(phase2) == cold["min"][1] + cold["max"][1]


def test_refinement_skips_infeasible_levels():
    # m=25 cannot reproduce the golf table (0.25/m > p01); m=50 can
    iv = solve_bounds(BoundsRequest(GOLF, MomentBudget(0.125, 0.03),
                                    25, refine=True, max_m=50))
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
        iv = solve_bounds(BoundsRequest(joint, budget, m,
                                        refine=False))
        assert_certificate(iv.certificate_min, joint, budget, iv.L)
        assert_certificate(iv.certificate_max, joint, budget, iv.U)


def test_nestedness_of_budgets():
    rng = np.random.default_rng(37)
    for _ in range(25):
        joint, budget, _ = random_grid_measure(rng, 8)
        bigger = MomentBudget(f=budget.f + float(rng.uniform(0, 0.05)),
                              g=budget.g + float(rng.uniform(0, 0.05)))
        inner = solve_bounds(BoundsRequest(joint, budget, 8,
                                           refine=False))
        outer = solve_bounds(BoundsRequest(joint, bigger, 8,
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


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
def test_label_swaps_reverse_interval_property(seed, m):
    # swapping the treatment labels maps atoms (pi, r0, r1) to
    # (1 - pi, r1, r0), and swapping the outcome labels maps them to
    # (pi, 1 - r0, 1 - r1); both keep the grid and both moments and
    # negate r1 - r0, so [L, U] goes to [-U, -L]
    joint, budget, _ = random_grid_measure(np.random.default_rng(seed), m)
    base = solve_bounds(BoundsRequest(joint, budget, m, refine=False))
    for swapped in (ObservedJoint(p11=joint.p01, p10=joint.p00,
                                  p01=joint.p11, p00=joint.p10),
                    ObservedJoint(p11=joint.p10, p10=joint.p11,
                                  p01=joint.p00, p00=joint.p01)):
        mirror = solve_bounds(BoundsRequest(swapped, budget, m, refine=False))
        assert mirror.L == pytest.approx(-base.U, abs=1e-6)
        assert mirror.U == pytest.approx(-base.L, abs=1e-6)


def test_interval_always_within_unit_band():
    rng = np.random.default_rng(41)
    for _ in range(15):
        joint, budget, _ = random_grid_measure(rng, 6)
        iv = solve_bounds(BoundsRequest(joint, budget, 6,
                                        refine=False))
        assert -1 - 1e-9 <= iv.L <= iv.U <= 1 + 1e-9


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
def test_interval_within_manski_bounds_property(seed, m):
    # with no budget, E[y1] lies in [p11, p11 + px0] and E[y0] in
    # [p01, p01 + px1]; budgets can only narrow that
    joint, budget, _ = random_grid_measure(np.random.default_rng(seed), m)
    iv = solve_bounds(BoundsRequest(joint, budget, m, refine=False))
    assert iv.L <= iv.U + 1e-9
    assert joint.p11 - joint.p01 - joint.px1 - 1e-9 <= iv.L
    assert iv.U <= joint.p11 + joint.px0 - joint.p01 + 1e-9


# -- infeasibility and diagnostics ----------------------------------------------


def test_infeasible_budget_raises_with_diagnostics():
    with pytest.raises(InfeasibleBudgetError) as info:
        solve_bounds(_fixed(GOLF, 0.125, 0.03, 32))
    err = info.value
    # diagnostics explored refined grids, where tiny moments suffice
    assert err.minimal_f is not None and err.minimal_f < 0.125
    assert err.minimal_g is not None and err.minimal_g < 0.03


def test_table_no_grid_represents_is_refused_without_diagnostics():
    # p11 = 0 needs pi = 0 or r1 = 0, which no interior grid point has,
    # so every grid fails the equalities and no least budget exists
    zero = normalize(ContingencyTable(0, 10, 5, 85))
    with pytest.raises(InfeasibleBudgetError) as info:
        solve_bounds(BoundsRequest(zero, MomentBudget(0.05, 0.05), 16,
                                   refine=False, max_m=32))
    assert info.value.minimal_f is None
    assert info.value.minimal_g is None


def test_equality_infeasible_for_boundary_table():
    # p01 below anything an m <= 8 interior grid can produce
    tiny = ObservedJoint(p11=0.3, p10=0.3, p01=1e-6, p00=0.399999)
    assert minimal_budget(_given_other(tiny, "f", 0.25, 4, max_m=8), "f") is None


def test_minimal_budget_f_is_small_with_loose_g():
    value = minimal_budget(_given_other(DRUG, "f", 0.25, 16), "f")
    assert 0.0 <= value < 1e-3


def test_minimal_budget_golf_g_under_study_f():
    value = minimal_budget(_given_other(GOLF, "g", 0.125, 25, max_m=100), "g")
    assert 0.0 <= value <= 0.03


def test_minimal_budget_tiny_g_f(monkeypatch):
    # m=64 is infeasible with phase-1 duals near 1e9 on the g row; pricing
    # that loses digits there wanders to the iteration limit instead
    iterations = []
    solve = lp.solve

    def recording(program):
        sol = solve(program)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(lp, "solve", recording)
    value = minimal_budget(_given_other(DRUG, "f", 1e-9, 64, max_m=128), "f")
    assert value == pytest.approx(6.01386904838e-4, abs=1e-9)
    assert len(iterations) == 2
    assert max(iterations) < 200


def test_minimal_budget_golf_f_at_a_tiny_g():
    # this LP used to end with a basic value below -10 * TOL_FEAS and
    # raise SingularBasisError
    value = minimal_budget(_fixed(GOLF, 0.125, 1e-9, 64), "f")
    assert 0.0 <= value <= 0.25


def test_minimal_budget_refuses_unexpected_lp_status(monkeypatch):
    # a status other than optimal or infeasible is a numerical failure,
    # not a joint the grids cannot represent
    def unbounded(program):
        return lp.LpSolution(lp.UNBOUNDED, -np.inf, (), (0.0,) * 7, 1)

    monkeypatch.setattr(lp, "solve", unbounded)
    with pytest.raises(lp.SingularBasisError, match="unexpected LP status unbounded at grid m=16"):
        minimal_budget(_given_other(DRUG, "f", 0.25, 16), "f")


def test_minimal_budget_g_at_zero_f_is_zero():
    assert minimal_budget(_given_other(VACCINE, "g", 0.0, 16), "g") == 0.0


def test_minimal_budget_validation():
    with pytest.raises(ValueError):
        minimal_budget(_given_other(GOLF, "f", 0.1, 16), "h")
    with pytest.raises(ValueError):  # MomentBudget refuses a negative bound
        minimal_budget(_given_other(GOLF, "f", -0.1, 16), "f")


def test_request_validation():
    with pytest.raises(ValueError):
        BoundsRequest(GOLF, MomentBudget(0.1, 0.1), 8, max_m=4)
    # max_m bounds refinement only: a fixed grid may lie above it
    req = BoundsRequest(GOLF, MomentBudget(0.1, 0.1), 8,
                        refine=False, max_m=4)
    assert req.m == 8
