"""Simulator oracles, sampling discipline, and coverage checks."""
import numpy as np
import pytest

from cubebounds.core import MomentBudget, normalize
from cubebounds.sensitivity import IndividualProfile, population_k
from cubebounds.sim import (
    PopulationSpec,
    VersionModel,
    coverage_experiment,
    default_budget,
    oracle,
    sample,
    tabulate,
)

GOLF_TYPE = VersionModel(
    versions=("on-green", "off-green"),
    version_dist=(0.5, 0.5),
    natural_treatment=(1.0, 0.0),
    outcome_prob=((0.03, 0.10), (0.01, 0.02)),
    label="golfer",
)


def golf_spec(n=100_000, seed=20260814):
    return PopulationSpec(types=((GOLF_TYPE, 1.0),), N=n, seed=seed)


def _random_model(rng, allow_intervention=False):
    k = int(rng.integers(1, 4))
    dist = tuple(rng.dirichlet(np.ones(k)).tolist())
    rule = tuple(rng.uniform(0.05, 0.95, size=k).tolist())
    outcome = tuple((float(a), float(b))
                    for a, b in rng.uniform(0, 1, size=(k, 2)))
    extra = {}
    if allow_intervention and rng.random() < 0.5:
        extra["dist_under_0"] = tuple(rng.dirichlet(np.ones(k)).tolist())
        extra["dist_under_1"] = tuple(rng.dirichlet(np.ones(k)).tolist())
    return VersionModel(versions=tuple(f"v{i}" for i in range(k)),
                        version_dist=dist, natural_treatment=rule,
                        outcome_prob=outcome, **extra)


def _random_spec(rng, n=100, allow_intervention=False):
    t = int(rng.integers(1, 4))
    shares = rng.dirichlet(np.ones(t))
    types = tuple((_random_model(rng, allow_intervention), float(s))
                  for s in shares)
    return PopulationSpec(types=types, N=n, seed=int(rng.integers(1 << 20)))


# -- model validation -----------------------------------------------------------


def test_version_model_validation():
    with pytest.raises(ValueError):
        VersionModel(("a",), (0.9,), (0.5,), ((0.1, 0.2),))  # dist != 1
    with pytest.raises(ValueError):
        VersionModel(("a", "b"), (0.5, 0.5), (0.5,), ((0.1, 0.2),) * 2)
    with pytest.raises(ValueError):
        VersionModel(("a",), (1.0,), (1.5,), ((0.1, 0.2),))
    with pytest.raises(ValueError):
        VersionModel(("a",), (1.0,), (0.5,), ((0.1, 1.2),))
    with pytest.raises(ValueError):  # interventional dists come in pairs
        VersionModel(("a",), (1.0,), (0.5,), ((0.1, 0.2),),
                     dist_under_0=(1.0,))


def test_population_spec_validation():
    with pytest.raises(ValueError):
        PopulationSpec(types=((GOLF_TYPE, 0.7),), N=10, seed=1)
    with pytest.raises(ValueError):
        PopulationSpec(types=((GOLF_TYPE, 1.0),), N=0, seed=1)
    with pytest.raises(ValueError):
        PopulationSpec(types=(), N=10, seed=1)


def test_invariance_flag():
    # without interventional distributions both arms draw versions from
    # the natural law; with them, each arm draws from its own
    invariant = VersionModel(("a", "b"), (0.5, 0.5), (0.2, 0.8),
                             ((0.1, 0.2), (0.3, 0.4)))
    varied = VersionModel(("a", "b"), (0.5, 0.5), (0.2, 0.8),
                          ((0.1, 0.2), (0.3, 0.4)),
                          dist_under_0=(1.0, 0.0), dist_under_1=(0.0, 1.0))
    (same,), (moved,) = (oracle(PopulationSpec(types=((model, 1.0),), N=10, seed=1)).per_type
                         for model in (invariant, varied))
    assert (same.r_int_0, same.r_int_1) == pytest.approx((0.2, 0.3), abs=1e-12)
    assert (moved.r_int_0, moved.r_int_1) == pytest.approx((0.1, 0.4), abs=1e-12)


# -- oracle ----------------------------------------------------------------------


def test_golf_toy_oracle_values():
    s = oracle(golf_spec())
    t = s.per_type[0]
    assert t.pi == pytest.approx(0.5, abs=1e-15)
    assert t.r_given_1 == pytest.approx(0.10, abs=1e-15)
    assert t.r_given_0 == pytest.approx(0.01, abs=1e-15)
    assert t.r_int_1 == pytest.approx(0.06, abs=1e-15)
    assert t.r_int_0 == pytest.approx(0.02, abs=1e-15)
    assert s.psi == pytest.approx(0.09, abs=1e-15)
    assert s.tau == pytest.approx(0.04, abs=1e-15)
    assert s.K == pytest.approx(0.05, abs=1e-15)
    assert s.f_true == 0.0 and s.g_true == 0.0


def test_golf_toy_implied_joint_is_study_table():
    joint = oracle(golf_spec()).joint
    assert joint.p11 == pytest.approx(0.05, abs=1e-15)
    assert joint.p10 == pytest.approx(0.45, abs=1e-15)
    assert joint.p01 == pytest.approx(0.005, abs=1e-15)
    assert joint.p00 == pytest.approx(0.495, abs=1e-15)


def test_single_version_without_treatment_effect_is_null():
    model = VersionModel(("only",), (1.0,), (0.5,), ((0.3, 0.3),))
    s = oracle(PopulationSpec(types=((model, 1.0),), N=10, seed=1))
    assert s.psi == s.tau == s.K == 0.0
    assert s.f_true == 0.0 and s.g_true == 0.0


def test_label_swapped_types_cancel_psi():
    a = VersionModel(("u", "v"), (0.5, 0.5), (0.9, 0.1),
                     ((0.2, 0.7), (0.4, 0.5)))
    b = VersionModel(("u", "v"), (0.5, 0.5), (0.1, 0.9),
                     ((0.7, 0.2), (0.5, 0.4)))
    s = oracle(PopulationSpec(types=((a, 0.5), (b, 0.5)), N=10, seed=1))
    assert s.psi == pytest.approx(0.0, abs=1e-15)


def test_version_irrelevant_outcomes_kill_bias():
    # outcome depends only on x, version law invariant -> K = 0
    model = VersionModel(("a", "b", "c"), (0.2, 0.5, 0.3),
                         (0.1, 0.6, 0.9),
                         ((0.25, 0.65),) * 3)
    s = oracle(PopulationSpec(types=((model, 1.0),), N=10, seed=1))
    assert abs(s.K) <= 1e-15
    assert s.per_type[0].r_given_1 == pytest.approx(0.65)
    assert s.per_type[0].r_given_0 == pytest.approx(0.25)


def test_constant_rule_kills_bias():
    # treatment independent of version, invariant law -> consistency
    rng = np.random.default_rng(61)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        model = VersionModel(
            versions=tuple(f"v{i}" for i in range(k)),
            version_dist=tuple(rng.dirichlet(np.ones(k)).tolist()),
            natural_treatment=(0.4,) * k,
            outcome_prob=tuple((float(a), float(b))
                               for a, b in rng.uniform(0, 1, size=(k, 2))))
        s = oracle(PopulationSpec(types=((model, 1.0),), N=10, seed=1))
        t = s.per_type[0]
        assert t.r_given_1 == pytest.approx(t.r_int_1, abs=1e-12)
        assert t.r_given_0 == pytest.approx(t.r_int_0, abs=1e-12)
        assert abs(s.K) <= 1e-12


def test_degenerate_rule_names_the_type():
    model = VersionModel(("a",), (1.0,), (1.0,), ((0.1, 0.2),),
                         label="always-treated")
    with pytest.raises(ValueError, match="always-treated"):
        oracle(PopulationSpec(types=((model, 1.0),), N=10, seed=1))


def test_interventional_distributions_redirect_tau():
    model = VersionModel(("a", "b"), (0.5, 0.5), (0.8, 0.2),
                         ((0.1, 0.9), (0.3, 0.5)),
                         dist_under_0=(1.0, 0.0), dist_under_1=(0.0, 1.0))
    t = oracle(PopulationSpec(types=((model, 1.0),), N=10, seed=1)).per_type[0]
    assert t.r_int_1 == pytest.approx(0.5)   # all mass moved to version b
    assert t.r_int_0 == pytest.approx(0.1)   # all mass moved to version a


def test_oracle_identity_k_on_seeded_specs():
    rng = np.random.default_rng(67)
    for _ in range(50):
        s = oracle(_random_spec(rng, allow_intervention=True))
        assert abs(s.K - (s.psi - s.tau)) <= 1e-12


def test_oracle_k_matches_profile_decomposition_under_invariance():
    # conditional assigned-arm prognoses of each type form a profile
    # whose bias split must aggregate to the oracle's K
    rng = np.random.default_rng(71)
    for _ in range(25):
        spec = _random_spec(rng, allow_intervention=False)
        s = oracle(spec)
        profiles, weights = [], []
        for (model, share), t in zip(spec.types, s.per_type):
            dist = np.asarray(model.version_dist)
            rule = np.asarray(model.natural_treatment)
            out = np.asarray(model.outcome_prob)
            profiles.append(IndividualProfile(
                pi=t.pi,
                e11=float(dist @ (rule * out[:, 1])) / t.pi,
                e10=float(dist @ ((1 - rule) * out[:, 1])) / (1 - t.pi),
                e01=float(dist @ (rule * out[:, 0])) / t.pi,
                e00=float(dist @ ((1 - rule) * out[:, 0])) / (1 - t.pi),
                r_given_1=t.r_given_1, r_given_0=t.r_given_0))
            weights.append(share)
        assert population_k(profiles, weights) == pytest.approx(s.K,
                                                                abs=1e-12)


# -- sampling --------------------------------------------------------------------


def test_sample_is_deterministic_per_seed_and_run():
    spec = golf_spec(n=5000)
    a, b = sample(spec), sample(spec)
    assert np.array_equal(a, b)
    assert not np.array_equal(sample(spec, run_key=0), sample(spec, run_key=1))
    other = golf_spec(n=5000, seed=1)
    assert not np.array_equal(sample(spec), sample(other))


def test_sample_shape_and_values():
    xy = sample(golf_spec(n=1000))
    assert xy.shape == (1000, 2)
    assert set(np.unique(xy)) <= {0, 1}


def test_degenerate_outcome_probability_forces_y():
    model = VersionModel(("a",), (1.0,), (0.5,), ((1.0, 1.0),))
    xy = sample(PopulationSpec(types=((model, 1.0),), N=500, seed=3))
    assert (xy[:, 1] == 1).all()


def test_empirical_joint_near_oracle_joint():
    spec = golf_spec(n=1_000_000, seed=99)
    joint = normalize(tabulate(sample(spec)))
    target = oracle(spec).joint
    n = spec.N
    for cell in ("p11", "p10", "p01", "p00"):
        p = getattr(target, cell)
        se = np.sqrt(p * (1 - p) / n)
        assert abs(getattr(joint, cell) - p) < 5 * se


def test_tabulate_counts_cells():
    xy = np.array([[1, 1], [1, 0], [0, 1], [0, 0], [1, 1]], dtype=np.uint8)
    table = tabulate(xy)
    assert (table.n11, table.n10, table.n01, table.n00) == (2, 1, 1, 1)


# -- coverage --------------------------------------------------------------------


def test_default_budget_adds_three_standard_errors():
    s = oracle(golf_spec(n=10_000))
    budget = default_budget(s, 10_000)
    assert budget.f == pytest.approx(3 * np.sqrt(0.5 * 0.5 / 10_000))
    assert budget.g == pytest.approx(3 * np.sqrt(0.055 * 0.945 / 10_000))


def test_coverage_golf_toy_small_battery():
    report = coverage_experiment(golf_spec(), runs=3)
    assert report.runs == 3 and len(report.rows) == 3
    assert report.psi_coverage == 1.0
    assert report.tau_coverage == 1.0
    assert not report.budget_violation


def test_psi_within_two_over_m_of_the_interval_is_a_miss():
    # this seeded spec's psi lies above U by 0.0375 on the m=8 grid, well
    # within 2/m = 0.25; only L <= psi <= U proves coverage
    spec = _random_spec(np.random.default_rng(112), n=5000)
    report = coverage_experiment(spec, runs=1, m=8)
    row, s = report.rows[0], report.oracle
    assert row.U < s.psi <= row.U + 2 / 8
    assert row.U - s.K < s.tau
    assert not row.psi_covered and not row.tau_covered
    assert report.psi_coverage == report.tau_coverage == 0.0


def test_coverage_single_run_report():
    report = coverage_experiment(golf_spec(n=20_000), runs=1,
                                 m=64)
    assert report.runs == 1 and len(report.rows) == 1


def test_coverage_flags_budget_below_oracle_moments():
    rng = np.random.default_rng(73)
    spec = None
    while spec is None:
        candidate = _random_spec(rng, n=50_000)
        if oracle(candidate).f_true > 0.01:
            spec = candidate
    low = MomentBudget(f=oracle(spec).f_true / 2, g=0.2)
    report = coverage_experiment(spec, runs=1, budget=low)
    assert report.budget_violation


def test_coverage_run_count_validation():
    with pytest.raises(ValueError):
        coverage_experiment(golf_spec(), runs=0)
