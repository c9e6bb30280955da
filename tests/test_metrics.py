"""Spectrum classification, orthogonality, and interference oracles."""

import math

import numpy as np
import pytest

from pasf.errors import InvalidArgumentError
from pasf.lifting import unlift
from pasf.metrics import (
    classify_lifted,
    interference_rms,
    orthogonality_defect,
    synthesize_banded,
)


def test_zero_sequence_is_zero_class():
    c = classify_lifted(np.zeros(64), rho=0.5)
    assert c.in_zero_set and not c.in_periodic_set and not c.in_aperiodic_set


def test_low_band_signal_is_periodic_class():
    x = synthesize_banded(512, bins=[3], coeffs=[1.0 + 0.5j])
    c = classify_lifted(x, rho=0.2 * math.pi, tol=1e-3)
    assert c.in_periodic_set and not c.in_aperiodic_set and not c.in_zero_set


def test_two_band_signal_is_mixed_class():
    x = synthesize_banded(512, bins=[3, 200], coeffs=[1.0, 0.7j])
    rho = 2.0 * math.pi * 100 / 512
    c = classify_lifted(x, rho=rho)
    assert c.in_periodic_set and c.in_aperiodic_set


def test_high_band_signal_is_aperiodic_class():
    x = synthesize_banded(256, bins=[100])
    c = classify_lifted(x, rho=0.5)
    assert c.in_aperiodic_set and not c.in_periodic_set


def test_classification_decision_table():
    rho = math.pi / 2
    zero = classify_lifted(np.zeros(128), rho)
    low = classify_lifted(synthesize_banded(128, [2]), rho)
    high = classify_lifted(synthesize_banded(128, [60]), rho)
    both = classify_lifted(synthesize_banded(128, [2, 60]), rho)
    assert (zero.in_zero_set, zero.in_periodic_set, zero.in_aperiodic_set) == (True, False, False)
    assert (low.in_zero_set, low.in_periodic_set, low.in_aperiodic_set) == (False, True, False)
    assert (high.in_zero_set, high.in_periodic_set, high.in_aperiodic_set) == (False, False, True)
    assert (both.in_zero_set, both.in_periodic_set, both.in_aperiodic_set) == (False, True, True)


def test_classify_validation():
    with pytest.raises(InvalidArgumentError):
        classify_lifted(np.zeros(4), rho=0.5)
    with pytest.raises(InvalidArgumentError):
        classify_lifted(np.zeros(64), rho=4.0)


def test_closure_under_sum_and_scale():
    rng = np.random.default_rng(15)
    rho = math.pi / 2
    low_bins = list(range(1, 30))
    for _ in range(50):
        b1 = rng.choice(low_bins, size=3, replace=False)
        b2 = rng.choice(low_bins, size=3, replace=False)
        c1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = synthesize_banded(128, b1, c1)
        z = synthesize_banded(128, b2, c2)
        alpha = float(rng.uniform(-5, 5))
        for y in (x + z, alpha * x):
            c = classify_lifted(y, rho)
            assert not c.in_aperiodic_set  # stays quasi-periodic or zero


def test_orthogonality_disjoint_support_construction():
    period, lifted_len = 8, 64
    rng = np.random.default_rng(19)
    rho = math.pi / 2
    low = list(range(1, 12))
    high = list(range(20, 32))
    subs_p, subs_a = [], []
    for _ in range(period):
        cp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        ca = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        subs_p.append(synthesize_banded(lifted_len, rng.choice(low, 4, replace=False), cp))
        subs_a.append(synthesize_banded(lifted_len, rng.choice(high, 4, replace=False), ca))
    x_p = unlift(subs_p, period)
    x_a = unlift(subs_a, period)
    assert orthogonality_defect(x_p, x_a) < 1e-10
    # per-channel classification confirms the construction
    for sp, sa in zip(subs_p, subs_a):
        assert not classify_lifted(sp, rho).in_aperiodic_set
        assert not classify_lifted(sa, rho).in_periodic_set


def test_orthogonality_trivial_values():
    x = np.array([1.0, 2.0, -1.0])
    assert orthogonality_defect(x, x) == pytest.approx(1.0)
    assert orthogonality_defect(x, np.zeros(3)) == 0.0


def test_orthogonality_symmetry_and_scale_invariance():
    rng = np.random.default_rng(23)
    x = rng.standard_normal(100)
    z = rng.standard_normal(100)
    d = orthogonality_defect(x, z)
    assert orthogonality_defect(z, x) == pytest.approx(d, rel=1e-12)
    assert orthogonality_defect(2.5 * x, -3.0 * z) == pytest.approx(d, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("x, z, want", [
    ([1.0, 2.0], [1.0, 2.0], 1.0),
    ([1.0, 1.0], [1.0, 1.0], 1.0),
    ([1.0, 2.0], [2.0, -1.0], 0.0),
])
def test_orthogonality_is_scale_invariant_at_the_extremes(scale, x, z, want):
    """A parallel pair reads 1 and an orthogonal pair 0 at any scale: the
    norms' product neither underflows to a defect of 0 at 1e-200 nor
    overflows to NaN (with a warning) at 1e200."""
    x, z = scale * np.array(x), scale * np.array(z)
    assert orthogonality_defect(x, z) == pytest.approx(want, abs=1e-15)
    assert orthogonality_defect(x, np.zeros(2)) == 0.0


def test_orthogonality_validation():
    with pytest.raises(InvalidArgumentError):
        orthogonality_defect(np.zeros(3), np.zeros(4))


def test_interference_rms_trivials():
    x = np.arange(10.0)
    assert interference_rms(x, x, (0, 10)) == 0.0
    assert interference_rms(x + 2.0, x, (3, 9)) == pytest.approx(2.0)


def test_interference_rms_validation():
    x = np.arange(10.0)
    with pytest.raises(InvalidArgumentError):
        interference_rms(x, x, (5, 5))
    with pytest.raises(InvalidArgumentError):
        interference_rms(x, x, (0, 20))
