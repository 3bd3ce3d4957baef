"""Bias decomposition identities, interval shifts, and calibration."""
import math

import numpy as np
import pytest

from cubebounds.core import (
    AtomicMeasure,
    IdentifiedInterval,
    MomentBudget,
    ObservedJoint,
)
from cubebounds.sensitivity import (
    BiasDecomposition,
    IndividualProfile,
    ShiftedRange,
    calibrate_budget,
    decompose,
    k_individual,
    population_k,
    shift_interval,
    shift_interval_range,
)

GOLF = ObservedJoint(p11=0.05, p10=0.45, p01=0.005, p00=0.495)

GOLF_PROFILE = IndividualProfile(pi=0.5, e11=0.10, e10=0.02, e01=0.03,
                                 e00=0.01, r_given_1=0.10, r_given_0=0.01)


def _random_profile(rng):
    v = rng.uniform(0.0, 1.0, size=7)
    return IndividualProfile(pi=v[0], e11=v[1], e10=v[2], e01=v[3],
                             e00=v[4], r_given_1=v[5], r_given_0=v[6])


def _interval(L, U):
    cert = AtomicMeasure(atoms=((0.5, 0.2, 0.4, 1.0),))
    return IdentifiedInterval(L=L, U=U, certificate_min=cert,
                              certificate_max=cert, grid_resolution=8,
                              converged=True)


def test_profile_validates_unit_interval():
    with pytest.raises(ValueError):
        IndividualProfile(pi=1.2, e11=0.1, e10=0.1, e01=0.1, e00=0.1,
                          r_given_1=0.1, r_given_0=0.1)
    with pytest.raises(ValueError):
        IndividualProfile(pi=0.5, e11=0.1, e10=0.1, e01=0.1, e00=-0.1,
                          r_given_1=0.1, r_given_0=0.1)


def test_assigned_prognoses_mix_by_propensity():
    p = GOLF_PROFILE
    assert p.r_assigned_1 == pytest.approx(0.5 * 0.10 + 0.5 * 0.02)
    assert p.r_assigned_0 == pytest.approx(0.5 * 0.03 + 0.5 * 0.01)


def test_golf_profile_decomposition():
    d = decompose(GOLF_PROFILE)
    assert d.delta1 == pytest.approx(0.0, abs=1e-15)
    assert d.delta2 == pytest.approx(0.05, abs=1e-15)
    assert d.k == pytest.approx(0.05, abs=1e-15)
    assert k_individual(GOLF_PROFILE) == pytest.approx(0.05, abs=1e-15)


def test_consistency_profiles_have_zero_bias():
    rng = np.random.default_rng(43)
    for _ in range(200):
        pi, a, b = rng.uniform(0.01, 0.99, size=3)
        profile = IndividualProfile(pi=pi, e11=a, e10=a, e01=b, e00=b,
                                    r_given_1=a, r_given_0=b)
        assert abs(k_individual(profile)) <= 1e-12
        d = decompose(profile)
        assert abs(d.delta1) <= 1e-12 and abs(d.delta2) <= 1e-12


def test_split_identity_on_seeded_profiles():
    rng = np.random.default_rng(47)
    for _ in range(2000):
        profile = _random_profile(rng)
        d = decompose(profile)
        assert abs(d.k - k_individual(profile)) <= 1e-12
        assert abs((d.delta1 + d.delta2) - k_individual(profile)) <= 1e-12


def test_population_k_is_mean_of_individual_biases():
    rng = np.random.default_rng(53)
    profiles = [_random_profile(rng) for _ in range(100)]
    ks = [k_individual(p) for p in profiles]
    assert population_k(profiles) == pytest.approx(np.mean(ks), abs=1e-12)
    weights = rng.uniform(0.1, 2.0, size=100)
    expected = float(np.average(ks, weights=weights))
    assert population_k(profiles, tuple(weights)) == pytest.approx(expected,
                                                                   abs=1e-12)


def test_population_k_validation():
    with pytest.raises(ValueError):
        population_k([])
    with pytest.raises(ValueError):
        population_k([GOLF_PROFILE], weights=[1.0, 2.0])
    with pytest.raises(ValueError):
        population_k([GOLF_PROFILE], weights=[0.0])


@pytest.mark.parametrize("weights", [(3.0, 1.0), (1.5e308, 5e307), (3e-320, 1e-320)],
                         ids=["plain", "total-overflows", "subnormal"])
def test_population_k_weights_scale_freely(weights):
    # k = 0.05 and k = 0 weighted 3:1; a total of inf gave K = 0, and
    # products of subnormal weights lost digits (0.037549)
    neutral = IndividualProfile(0.5, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
    assert population_k([GOLF_PROFILE, neutral], weights) == pytest.approx(0.0375, abs=1e-15)


def test_population_k_refuses_non_finite_and_negative_weights():
    # totals nan, inf and 2: the total alone lets each of them through
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            population_k([GOLF_PROFILE, GOLF_PROFILE], weights=[3.0, bad])


def test_point_shift():
    tau = shift_interval(_interval(0.05, 0.43), 0.05)
    assert tau == shift_interval_range(_interval(0.05, 0.43), 0.05, 0.05)
    assert tau.lower == pytest.approx(0.0)
    assert tau.upper == pytest.approx(0.38)
    assert tau.k_min == tau.k_max == 0.05


def test_range_shift_two_sided():
    sr = shift_interval_range(_interval(0.1, 0.5), k_min=0.0, k_max=0.2)
    assert isinstance(sr, ShiftedRange)
    assert sr.lower == pytest.approx(-0.1)
    assert sr.upper == pytest.approx(0.5)


def test_range_shift_one_sided():
    iv = _interval(0.15, 0.52)
    only_min = shift_interval_range(iv, k_min=0.15)
    assert math.isinf(only_min.lower) and only_min.lower < 0
    assert only_min.upper == pytest.approx(0.37)
    only_max = shift_interval_range(iv, k_max=0.1)
    assert only_max.lower == pytest.approx(0.05)
    assert math.isinf(only_max.upper) and only_max.upper > 0


def test_range_shift_validation():
    with pytest.raises(ValueError):
        shift_interval_range(_interval(0.1, 0.2), k_min=0.5, k_max=0.1)


def test_decomposition_record_sums():
    d = BiasDecomposition(delta1=0.02, delta2=-0.05)
    assert d.k == pytest.approx(-0.03)


def test_calibrate_golf_half_discrimination():
    budget = calibrate_budget(GOLF, 0.5, 0.5)
    assert budget.f == 0.125
    assert budget.g == pytest.approx(0.5 * 0.055 * 0.945, abs=1e-15)


def test_calibrate_zero_discrimination_pins_both():
    budget = calibrate_budget(GOLF, 0.0, 0.0)
    assert budget.f == 0.0 and budget.g == 0.0


def test_calibrate_full_discrimination_is_bernoulli_variance():
    joint = ObservedJoint(p11=0.2, p10=0.1, p01=0.3, p00=0.4)  # px1 = 0.3
    budget = calibrate_budget(joint, 1.0, 0.0)
    assert budget.f == pytest.approx(0.21, abs=1e-15)


def test_calibrate_validation():
    with pytest.raises(ValueError):
        calibrate_budget(GOLF, -0.1, 0.5)
    with pytest.raises(ValueError):
        calibrate_budget(GOLF, 0.5, 1.5)


def test_calibrated_budget_always_feasible_scale():
    # p(1-p) <= 1/4, so calibrated budgets never trip the 0.25 clamp
    rng = np.random.default_rng(59)
    for _ in range(50):
        cells = rng.dirichlet(np.ones(4))
        joint = ObservedJoint(*cells)
        budget = calibrate_budget(joint, float(rng.uniform(0, 1)),
                                  float(rng.uniform(0, 1)))
        assert 0 <= budget.f <= 0.25 and 0 <= budget.g <= 0.25


def test_shift_preserves_width():
    iv = _interval(0.1, 0.5)
    tau = shift_interval(iv, 0.37)
    assert (tau.upper - tau.lower) == pytest.approx(iv.width, abs=1e-12)
