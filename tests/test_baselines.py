"""Comb baseline designs and their relation to the separation filters."""

import math

import numpy as np
import pytest

from pasf.baselines import CombSpec, comb_pair, design_comb
from pasf.design import SeparationSpec, design_iir
from pasf.errors import InvalidArgumentError
from pasf.response import eval_response


def test_variant1_coefficients():
    comb = design_comb(CombSpec(1, 1000, 0.001))
    assert np.allclose(comb.feedforward, [0.5, -0.5], atol=1e-15)
    assert comb.feedback[0] == 0.0
    assert comb.kind == "aperiodic-pass"


def test_variant2_coefficients():
    comb = design_comb(CombSpec(2, 1000, 0.001, b=0.5, g=0.0))
    # (3/2)(1 - Z)/(2 - Z) normalized by the leading denominator term
    assert np.allclose(comb.feedforward, [0.75, -0.75], atol=1e-15)
    assert comb.feedback[0] == pytest.approx(-0.5, abs=1e-15)


def test_variant3_formula_oracle():
    gain_mag, q = 0.708, 1.717
    comb = design_comb(CombSpec(3, 1000, 0.001, gain_mag=gain_mag, q=q))
    gamma = math.sqrt(1.0 - gain_mag**2) / gain_mag * math.tan(math.pi / (2.0 * q))
    alpha = (1.0 - gamma) / (1.0 + gamma)
    beta = 1.0 / (1.0 + gamma)
    assert comb.feedforward[0] == pytest.approx(beta, abs=1e-15)
    assert comb.feedforward[1] == pytest.approx(-beta, abs=1e-15)
    assert comb.feedback[0] == pytest.approx(-alpha, abs=1e-15)


def test_all_variants_notch_harmonics():
    specs = (
        CombSpec(1, 200, 0.001),
        CombSpec(2, 200, 0.001, b=0.5),
        CombSpec(3, 200, 0.001, gain_mag=0.708, q=1.717),
    )
    for spec in specs:
        comb = design_comb(spec)
        for m in range(4):
            w = 2.0 * math.pi * m / (spec.period * spec.sampling_time)
            assert abs(eval_response(comb, w)) < 1e-12


def test_variant1_equals_first_order_iir_with_r2():
    period, t_samp = 300, 0.002
    comb = design_comb(CombSpec(1, period, t_samp))
    spec = SeparationSpec(2.0 / (period * t_samp), period, t_samp)
    _, aper = design_iir(spec, 1)
    assert np.allclose(comb.feedforward, aper.feedforward, atol=1e-15)
    assert abs(comb.feedback[0] - aper.feedback[0]) < 1e-15


def test_midpoint_gain_is_unity_for_all_variants():
    period, t_samp = 100, 0.01
    mid = math.pi / (period * t_samp)
    for spec in (CombSpec(1, period, t_samp),
                 CombSpec(2, period, t_samp, b=0.5),
                 CombSpec(3, period, t_samp, gain_mag=0.708, q=1.717),
                 CombSpec(3, period, t_samp, gain_mag=0.708, q=1591.0)):
        comb = design_comb(spec)
        assert abs(eval_response(comb, mid)) == pytest.approx(1.0, abs=1e-12)


def test_variant3_quality_factor_narrows_the_notch():
    period, t_samp = 100, 0.01
    # probe between a harmonic and the midpoint: higher Q passes more
    w = 2.0 * math.pi / (period * t_samp) * 1.05
    low_q = design_comb(CombSpec(3, period, t_samp, gain_mag=0.708, q=1.717))
    high_q = design_comb(CombSpec(3, period, t_samp, gain_mag=0.708, q=1591.0))
    g_low = abs(eval_response(low_q, w))
    g_high = abs(eval_response(high_q, w))
    assert g_high > g_low
    assert g_high > 0.9


def test_comb_pair_complement_identity():
    rng = np.random.default_rng(13)
    from pasf.runtime import PasfState

    state = PasfState(*comb_pair(CombSpec(3, 20, 0.01, gain_mag=0.708, q=5.0)))
    x = rng.standard_normal(500)
    xp, xa = state.run(x)
    assert np.max(np.abs(xp + xa - x)) < 1e-12


def test_invalid_specs_rejected():
    with pytest.raises(InvalidArgumentError):
        CombSpec(4, 100, 0.01)
    with pytest.raises(InvalidArgumentError):
        CombSpec(1, 100, 0.01, b=1.0)
    with pytest.raises(InvalidArgumentError):
        CombSpec(3, 100, 0.01, gain_mag=1.2, q=1.0)
    with pytest.raises(InvalidArgumentError):
        CombSpec(3, 100, 0.01, gain_mag=0.5, q=0.0)
    with pytest.raises(InvalidArgumentError, match="period must be an integer"):
        CombSpec(1, 2.5, 0.01)
    with pytest.raises(InvalidArgumentError, match="variant must be an integer"):
        CombSpec(1.0, 10, 0.01)  # its realization would read comb1.0
