"""Release gate: one test per shipping criterion, at pinned tolerances.

Covers the three case-study reproductions, the calibration fixture,
oracle equivalence of the solver against exhaustive enumeration,
structural properties of the intervals (nestedness, certificates),
the bias-decomposition identities, simulator coverage, and byte-level
determinism of the simulate report.  Each test prints as a single
pass/fail line under `pytest -v`.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from cubebounds import (
    BoundsRequest,
    ContingencyTable,
    GridSpec,
    IndividualProfile,
    MomentBudget,
    PopulationSpec,
    VersionModel,
    calibrate_budget,
    coverage_experiment,
    decompose,
    k_individual,
    normalize,
    oracle,
    relative_risk,
    risk_difference,
    solve_bounds,
)
from cubebounds import cli
from cubebounds.bounds import _constraint_rows
from helpers import (
    assert_certificate,
    bfs_optima,
    grid_matrix,
    random_grid_measure,
    random_lp,
)
from cubebounds.lp import LinearProgram, DenseColumns, solve as lp_solve, OPTIMAL

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GOLF = normalize(ContingencyTable(n11=0.05, n10=0.45, n01=0.005, n00=0.495))
DRUG = normalize(ContingencyTable(n11=978, n10=1864, n01=114, n00=3649))
VACCINE = normalize(ContingencyTable(n11=8, n10=21720, n01=162, n00=21558))

GOLF_TOY = VersionModel(
    versions=("on-green", "off-green"),
    version_dist=(0.5, 0.5),
    natural_treatment=(1.0, 0.0),
    outcome_prob=((0.03, 0.10), (0.01, 0.02)),
    label="golfer",
)


def test_01_golf_study_interval_reproduced_quickly():
    start = time.perf_counter()
    interval = solve_bounds(BoundsRequest(
        joint=GOLF, budget=MomentBudget(f=0.125, g=0.03),
        grid=GridSpec(m=50), refine=False))
    elapsed = time.perf_counter() - start
    assert abs(interval.L - 0.05) <= 0.02
    assert abs(interval.U - 0.43) <= 0.02
    assert interval.converged
    assert elapsed < 30.0


def test_02_drug_study_interval_and_relative_risk():
    interval = solve_bounds(BoundsRequest(
        joint=DRUG, budget=MomentBudget(f=0.03, g=0.04),
        grid=GridSpec(m=64), refine=False))
    assert abs(interval.L - 0.15) <= 0.02
    assert abs(interval.U - 0.52) <= 0.02
    assert abs(relative_risk(DRUG) - 11.4) <= 0.1


def test_03_vaccine_zero_budget_collapses_to_risk_difference(capsys):
    interval = solve_bounds(BoundsRequest(
        joint=VACCINE, budget=MomentBudget(f=0.0, g=0.25),
        grid=GridSpec(m=64), refine=False))
    rd = risk_difference(VACCINE)
    assert interval.L == pytest.approx(interval.U, abs=1e-12)
    assert abs(interval.L - rd) <= 2.0 / interval.grid_resolution
    # the published figure and the table-derived one disagree; the report
    # must show both rather than silently picking one
    code = cli.main(["bounds", "--config", str(FIXTURES / "vaccine.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "-0.640%" in out
    assert "-0.709%" in out


def test_04_golf_calibration_fixture():
    budget = calibrate_budget(GOLF, d_x=0.5, d_y=0.5)
    assert budget.f == 0.125
    assert abs(budget.g - 0.02599) <= 1e-5


def test_05_simplex_matches_exhaustive_enumeration_on_small_lps():
    rng = np.random.default_rng(1126)
    checked = 0
    while checked < 50:
        costs, matrix, rows = random_lp(rng)
        status, lo, hi = bfs_optima(costs, matrix, rows)
        if status != "optimal":
            continue
        for sense, expect in (("min", lo), ("max", hi)):
            sol = lp_solve(LinearProgram(
                sense=sense, oracle=DenseColumns(costs, matrix), rows=rows))
            assert sol.status == OPTIMAL
            assert abs(sol.objective - expect) <= 1e-9
        checked += 1
    assert checked >= 50


def test_06_bounds_match_basis_enumeration_on_tiny_grids():
    rng = np.random.default_rng(2210)
    cases = [2] * 14 + [3] * 6
    for m in cases:
        joint, budget, _ = random_grid_measure(rng, m)
        costs, matrix = grid_matrix(joint, m)
        status, lo, hi = bfs_optima(costs, matrix, _constraint_rows(joint, budget))
        assert status == "optimal"
        interval = solve_bounds(BoundsRequest(
            joint=joint, budget=budget, grid=GridSpec(m=m), refine=False))
        assert abs(interval.L - lo) <= 1e-9
        assert abs(interval.U - hi) <= 1e-9


def test_07_wider_budgets_give_nested_intervals():
    rng = np.random.default_rng(3311)
    for _ in range(100):
        joint, budget, _ = random_grid_measure(rng, 8)
        wider = MomentBudget(
            f=min(budget.f + float(rng.uniform(0.0, 0.08)), 0.25),
            g=min(budget.g + float(rng.uniform(0.0, 0.08)), 0.25))
        inner = solve_bounds(BoundsRequest(
            joint=joint, budget=budget, grid=GridSpec(m=8), refine=False))
        outer = solve_bounds(BoundsRequest(
            joint=joint, budget=wider, grid=GridSpec(m=8), refine=False))
        assert outer.L <= inner.L + 1e-6
        assert inner.U <= outer.U + 1e-6


def test_08_certificates_are_feasible_attaining_and_sparse():
    battery = [
        (GOLF, MomentBudget(f=0.125, g=0.03), 50),
        (DRUG, MomentBudget(f=0.03, g=0.04), 32),
        (DRUG, MomentBudget(f=0.03, g=0.04), 64),
        (VACCINE, MomentBudget(f=0.0, g=0.25), 64),
    ]
    rng = np.random.default_rng(4407)
    for _ in range(16):
        joint, budget, _ = random_grid_measure(rng, 8)
        battery.append((joint, budget, 8))
    for joint, budget, m in battery:
        interval = solve_bounds(BoundsRequest(
            joint=joint, budget=budget, grid=GridSpec(m=m), refine=False))
        assert_certificate(interval.certificate_min, joint, budget,
                           interval.L, tol=1e-6)
        assert_certificate(interval.certificate_max, joint, budget,
                           interval.U, tol=1e-6)


def test_09_bias_splits_into_two_parts_and_vanishes_under_consistency():
    rng = np.random.default_rng(5513)
    draws = rng.uniform(0.0, 1.0, size=(10_000, 7))
    for row in draws:
        profile = IndividualProfile(
            pi=row[0], e11=row[1], e10=row[2], e01=row[3], e00=row[4],
            r_given_1=row[5], r_given_0=row[6])
        parts = decompose(profile)
        direct = ((profile.r_given_1 - profile.r_assigned_1)
                  - (profile.r_given_0 - profile.r_assigned_0))
        assert abs(k_individual(profile) - (parts.delta1 + parts.delta2)) <= 1e-12
        assert abs(k_individual(profile) - direct) <= 1e-12
    for row in rng.uniform(0.0, 1.0, size=(10_000, 3)):
        pi, a, b = row
        consistent = IndividualProfile(pi=pi, e11=a, e10=a, e01=b, e00=b,
                                       r_given_1=a, r_given_0=b)
        assert abs(k_individual(consistent)) <= 1e-12


def test_10_oracle_identity_and_full_coverage_on_golf_toy():
    rng = np.random.default_rng(6619)
    specs = [PopulationSpec(types=((GOLF_TOY, 1.0),), N=100_000,
                            seed=20260814)]
    for _ in range(20):
        k = int(rng.integers(1, 4))
        models = []
        for _ in range(k):
            v = int(rng.integers(1, 4))
            kwargs = {}
            if rng.random() < 0.5:
                kwargs["dist_under_0"] = tuple(rng.dirichlet(np.ones(v)))
                kwargs["dist_under_1"] = tuple(rng.dirichlet(np.ones(v)))
            models.append(VersionModel(
                versions=tuple(f"v{i}" for i in range(v)),
                version_dist=tuple(rng.dirichlet(np.ones(v))),
                natural_treatment=tuple(rng.uniform(0.05, 0.95, size=v)),
                outcome_prob=tuple((float(a), float(b)) for a, b
                                   in rng.uniform(0, 1, size=(v, 2))),
                **kwargs))
        shares = rng.dirichlet(np.ones(k))
        specs.append(PopulationSpec(
            types=tuple(zip(models, map(float, shares))), N=1000, seed=7))
    for spec in specs:
        summary = oracle(spec)
        assert abs(summary.K - (summary.psi - summary.tau)) <= 1e-12
    report = coverage_experiment(specs[0], runs=100)
    assert report.runs == 100
    assert report.psi_coverage == 1.0
    assert report.tau_coverage == 1.0


def test_11_simulate_report_is_byte_identical_across_runs(capsys):
    argv = ["simulate", str(FIXTURES / "golf_toy.json"), "--runs", "3",
            "--json"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out.encode()
    assert cli.main(argv) == 0
    second = capsys.readouterr().out.encode()
    assert first == second
