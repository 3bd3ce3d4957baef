"""Domain type construction, validation, and the 2x2 risk summaries."""
import math

import numpy as np
import pytest

from cubebounds.core import (
    AtomicMeasure,
    ContingencyTable,
    DegenerateTableError,
    IdentifiedInterval,
    MomentBudget,
    ObservedJoint,
    normalize,
    relative_risk,
    risk_difference,
    risk_x0,
    risk_x1,
)

GOLF = ObservedJoint(p11=0.05, p10=0.45, p01=0.005, p00=0.495)


def test_table_rejects_negative_cells():
    with pytest.raises(ValueError):
        ContingencyTable(n11=-1, n10=2, n01=3, n00=4)


def test_table_rejects_zero_total():
    with pytest.raises(ValueError):
        ContingencyTable(n11=0, n10=0, n01=0, n00=0)


def test_table_rejects_non_finite_cells():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ContingencyTable(n11=bad, n10=2, n01=3, n00=4)


def test_table_rejects_overflowing_total():
    # each cell is finite, but their sum is not
    with pytest.raises(ValueError, match="total overflows"):
        ContingencyTable(n11=1e308, n10=1e308, n01=1, n00=1)


def test_frequency_detection():
    assert ContingencyTable(0.05, 0.45, 0.005, 0.495).is_frequencies
    assert not ContingencyTable(978, 1864, 114, 3649).is_frequencies


def test_normalize_counts_and_frequencies_agree():
    counts = ContingencyTable(978, 1864, 114, 3649)
    total = counts.total
    freqs = ContingencyTable(978 / total, 1864 / total, 114 / total,
                             3649 / total)
    a, b = normalize(counts), normalize(freqs)
    for cell in ("p11", "p10", "p01", "p00"):
        assert math.isclose(getattr(a, cell), getattr(b, cell),
                            rel_tol=0, abs_tol=1e-12)


def test_joint_validation_and_marginals():
    assert GOLF.px1 == 0.5
    assert GOLF.py1 == pytest.approx(0.055)
    assert GOLF.px0 == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ObservedJoint(p11=0.5, p10=0.5, p01=0.5, p00=0.5)
    with pytest.raises(ValueError):
        ObservedJoint(p11=-0.1, p10=0.6, p01=0.2, p00=0.3)


def test_joint_rejects_non_finite_cells():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ObservedJoint(p11=0.25, p10=0.25, p01=bad, p00=0.5)


def test_budget_validation_and_clamp():
    with pytest.raises(ValueError):
        MomentBudget(f=-0.01, g=0.1)
    with pytest.warns(UserWarning):
        clamped = MomentBudget(f=0.3, g=0.1)
    assert clamped.f == 0.25
    assert clamped.g == 0.1
    assert MomentBudget(f=0.25, g=0.25).f == 0.25


def test_budget_rejects_non_finite_values():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            MomentBudget(f=bad, g=0.1)
        with pytest.raises(ValueError, match="finite"):
            MomentBudget(f=0.1, g=bad)


def test_golf_risk_summaries():
    assert risk_x1(GOLF) == pytest.approx(0.10)
    assert risk_x0(GOLF) == pytest.approx(0.01)
    assert risk_difference(GOLF) == pytest.approx(0.09)
    assert relative_risk(GOLF) == pytest.approx(10.0)


def test_degenerate_marginals_raise():
    no_treated = ObservedJoint(p11=0.0, p10=0.0, p01=0.4, p00=0.6)
    with pytest.raises(DegenerateTableError):
        risk_x1(no_treated)
    no_control = ObservedJoint(p11=0.4, p10=0.6, p01=0.0, p00=0.0)
    with pytest.raises(DegenerateTableError):
        risk_x0(no_control)


def test_relative_risk_undefined_is_nan():
    zero_baseline = ObservedJoint(p11=0.2, p10=0.3, p01=0.0, p00=0.5)
    assert math.isnan(relative_risk(zero_baseline))


def test_atomic_measure_validation_and_expectation():
    measure = AtomicMeasure(atoms=((0.5, 0.1, 0.3, 0.25),
                                   (0.2, 0.4, 0.6, 0.75)))
    assert measure.expectation(lambda p, a, b: 1.0) == pytest.approx(1.0)
    mean_pi = measure.expectation(lambda p, a, b: p)
    assert mean_pi == pytest.approx(0.25 * 0.5 + 0.75 * 0.2)
    with pytest.raises(ValueError):
        AtomicMeasure(atoms=((0.5, 0.5, 0.5, 0.4),))
    with pytest.raises(ValueError):
        AtomicMeasure(atoms=((0.5, 0.5, 0.5, 1.5), (0.5, 0.5, 0.5, -0.5)))


def test_atomic_measure_support_filters_tiny_weights():
    measure = AtomicMeasure(atoms=((0.5, 0.1, 0.3, 1.0 - 1e-12),
                                   (0.2, 0.4, 0.6, 1e-12)))
    assert len(measure.support()) == 1


def test_interval_validation():
    cert = AtomicMeasure(atoms=((0.5, 0.1, 0.3, 1.0),))
    iv = IdentifiedInterval(L=0.1, U=0.4, certificate_min=cert,
                            certificate_max=cert, grid_resolution=8,
                            converged=True)
    assert iv.width == pytest.approx(0.3)
    with pytest.raises(ValueError):
        IdentifiedInterval(L=0.5, U=0.4, certificate_min=cert,
                           certificate_max=cert, grid_resolution=8,
                           converged=True)
    with pytest.raises(ValueError):
        IdentifiedInterval(L=-1.5, U=0.4, certificate_min=cert,
                           certificate_max=cert, grid_resolution=8,
                           converged=True)


def test_normalize_random_tables_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        cells = rng.uniform(0.01, 100.0, size=4)
        joint = normalize(ContingencyTable(*cells))
        assert (joint.p11 + joint.p10 + joint.p01 + joint.p00
                == pytest.approx(1.0, abs=1e-12))
        assert joint.px1 == pytest.approx((cells[0] + cells[1]) / cells.sum())
