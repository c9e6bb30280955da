"""Design-time checks: closed forms, stability, complements, equiripple FIR."""

import math

import numpy as np
import pytest

from pasf.design import (
    FilterCoefficients,
    SeparationSpec,
    check_stability,
    design_fir_equiripple,
    design_iir,
    format_coefficients,
    make_complementary,
    parse_coefficients,
)
from pasf.errors import (
    DegenerateDesignError,
    InvalidArgumentError,
    OutOfBandError,
)


# Independent oracle: the closed-form first/second/third order coefficient
# lists, written out verbatim as functions of r = rho_tilde*period*T.
def closed_form(order: int, r: float):
    if order == 1:
        a = [-(-(r - 2.0) / (r + 2.0))]
        b = [r / (r + 2.0), r / (r + 2.0)]
        d = [2.0 / (r + 2.0), -2.0 / (r + 2.0)]
    elif order == 2:
        a = [-(-2.0 * (r - 2.0) / (r + 2.0)),
             -(-((r - 2.0) ** 2) / ((r + 2.0) ** 2))]
        b = [r**2 / (r + 2.0) ** 2,
             2.0 * r**2 / (r + 2.0) ** 2,
             r**2 / (r + 2.0) ** 2]
        d = [4.0 / (r + 2.0) ** 2,
             -8.0 / (r + 2.0) ** 2,
             4.0 / (r + 2.0) ** 2]
    elif order == 3:
        a = [-(-3.0 * (r - 2.0) / (r + 2.0)),
             -(-3.0 * (r - 2.0) ** 2 / (r + 2.0) ** 2),
             -(-((r - 2.0) ** 3) / ((r + 2.0) ** 3))]
        b = [r**3 / (r + 2.0) ** 3,
             3.0 * r**3 / (r + 2.0) ** 3,
             3.0 * r**3 / (r + 2.0) ** 3,
             r**3 / (r + 2.0) ** 3]
        d = [8.0 / (r + 2.0) ** 3,
             -24.0 / (r + 2.0) ** 3,
             24.0 / (r + 2.0) ** 3,
             -8.0 / (r + 2.0) ** 3]
    else:
        raise ValueError(order)
    return np.array(a), np.array(b), np.array(d)


def test_iir_n1_r2_degenerates_to_half():
    spec = SeparationSpec(rho_tilde=2.0 / (4 * 0.5), period=4, sampling_time=0.5)
    assert spec.rho == pytest.approx(2.0)
    p, a = design_iir(spec, 1)
    assert p.feedback[0] == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(p.feedforward, [0.5, 0.5], atol=1e-15)
    assert np.allclose(a.feedforward, [0.5, -0.5], atol=1e-15)


def test_iir_n1_r1_closed_form():
    spec = SeparationSpec(rho_tilde=1.0, period=1000, sampling_time=0.001)
    p, a = design_iir(spec, 1)
    assert p.feedback[0] == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert np.allclose(p.feedforward, [1.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert a.feedback[0] == pytest.approx(-1.0 / 3.0, abs=1e-15)
    assert np.allclose(a.feedforward, [2.0 / 3.0, -2.0 / 3.0], atol=1e-15)


def test_iir_matches_closed_forms_for_random_specs():
    rng = np.random.default_rng(42)
    for _ in range(20):
        period = int(rng.integers(2, 2000))
        t_samp = float(rng.uniform(1e-4, 0.1))
        r = float(rng.uniform(1e-3, math.pi))
        spec = SeparationSpec(r / (period * t_samp), period, t_samp)
        for order in (1, 2, 3):
            p, a = design_iir(spec, order)
            ea, eb, ed = closed_form(order, spec.rho)
            assert np.allclose(p.feedback, ea, atol=1e-12)
            assert np.allclose(p.feedforward, eb, atol=1e-12)
            assert np.allclose(a.feedback, ea, atol=1e-12)
            assert np.allclose(a.feedforward, ed, atol=1e-12)


def test_iir_pair_shares_feedback():
    spec = SeparationSpec(0.7, 100, 0.01)
    p, a = design_iir(spec, 2)
    assert np.array_equal(p.feedback, a.feedback)


def test_iir_rejects_degenerate_and_out_of_band():
    with pytest.raises(DegenerateDesignError):
        design_iir(SeparationSpec(0.0, 10, 0.1), 1)
    with pytest.raises(OutOfBandError):
        design_iir(SeparationSpec(10.0, 1000, 0.001), 1)
    # the same request succeeds with the explicit opt-out
    p, _ = design_iir(SeparationSpec(10.0, 1000, 0.001), 1, allow_out_of_band=True)
    assert check_stability(p).stable


def test_iir_rejects_high_order():
    with pytest.raises(InvalidArgumentError):
        design_iir(SeparationSpec(0.5, 100, 0.01), 9)


def test_iir_stable_across_band():
    # The analytic pole is (2-r)/(2+r) with multiplicity N. The companion
    # check resolves it only while the root-cluster conditioning eps**(1/N)
    # stays well inside the unit circle, so high orders are probed away from
    # the r -> 0 corner.
    for r in (1e-3, 0.5, 1.0, 2.0, 3.0, math.pi):
        spec = SeparationSpec(r / (50 * 0.01), 50, 0.01)
        for order in (1, 2, 3):
            p, a = design_iir(spec, order)
            assert check_stability(p).stable
            assert check_stability(a).stable
    for r in (0.5, 1.0, 2.0, 3.0):
        spec = SeparationSpec(r / (50 * 0.01), 50, 0.01)
        for order in (5, 8):
            p, a = design_iir(spec, order)
            assert check_stability(p).stable
            assert check_stability(a).stable


def test_stability_fir_trivial():
    fir = FilterCoefficients(
        kind="periodic-pass", realization="fir", order=4, period=10,
        sampling_time=0.1, feedback=np.zeros(4), feedforward=np.ones(5) / 5,
    )
    rep = check_stability(fir)
    assert rep.stable and rep.max_root_magnitude == 0.0


def test_stability_n3_triple_pole():
    spec = SeparationSpec(1.0, 1000, 0.001)  # r = 1, pole at 1/3
    p, _ = design_iir(spec, 3)
    rep = check_stability(p)
    assert rep.stable
    # a triple root is cube-root sensitive to coefficient rounding
    assert rep.max_root_magnitude == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_stability_boundary_pole_flags_unstable():
    coeffs = FilterCoefficients(
        kind="periodic-pass", realization="iir", order=1, period=10,
        sampling_time=0.1, feedback=np.array([-1.0]), feedforward=np.array([1.0, 0.0]),
    )
    rep = check_stability(coeffs)
    assert not rep.stable
    assert rep.max_root_magnitude == pytest.approx(1.0)


def test_make_complementary_matches_first_order_aperiodic():
    spec = SeparationSpec(1.0, 1000, 0.001)
    p, a = design_iir(spec, 1)
    comp = make_complementary(p)
    assert np.allclose(comp.feedforward, a.feedforward, atol=1e-15)
    assert np.array_equal(comp.feedback, p.feedback)
    assert comp.kind == "aperiodic-pass"
    assert comp.realization == "complementary-of-iir"


def test_make_complementary_of_identity_is_zero():
    ident = FilterCoefficients(
        kind="periodic-pass", realization="fir", order=2, period=5,
        sampling_time=0.1, feedback=np.zeros(2),
        feedforward=np.array([1.0, 0.0, 0.0]),
    )
    comp = make_complementary(ident)
    assert np.array_equal(comp.feedforward, np.zeros(3))


def test_complementary_identity_fails_beyond_first_order():
    # b_i + d_i = a_i (a_0 = 1) holds exactly at N = 1 and not in general
    spec = SeparationSpec(0.9, 200, 0.01)
    p1, a1 = design_iir(spec, 1)
    full1 = np.concatenate(([1.0], p1.feedback))
    assert np.allclose(p1.feedforward + a1.feedforward, full1, atol=1e-15)
    p2, a2 = design_iir(spec, 2)
    full2 = np.concatenate(([1.0], p2.feedback))
    diffs = np.abs(p2.feedforward + a2.feedforward - full2)
    assert np.max(diffs) > 1e-6


def test_make_complementary_rejects_aperiodic_input():
    spec = SeparationSpec(1.0, 100, 0.01)
    _, a = design_iir(spec, 1)
    with pytest.raises(InvalidArgumentError):
        make_complementary(a)


def test_fir_small_order_symmetry():
    spec = SeparationSpec(1.0, 100, 0.01)
    p, a = design_fir_equiripple(spec, 4, passband_edge=0.2 * math.pi,
                                 stopband_edge=0.6 * math.pi)
    assert np.array_equal(p.feedforward, p.feedforward[::-1])
    assert np.array_equal(a.feedforward, a.feedforward[::-1])
    assert np.array_equal(p.feedback, np.zeros(4))


def test_fir_dc_gain():
    spec = SeparationSpec(1.0, 628, 0.001)
    p, _ = design_fir_equiripple(spec, 50)
    assert abs(np.sum(p.feedforward) - 1.0) < 1e-6


def _amplitude(taps, omegas):
    half = (len(taps) - 1) // 2
    return np.cos(np.outer(omegas, np.arange(len(taps)) - half)) @ taps


def _band_extrema(taps, lo, hi, desired, npts=2048):
    om = np.linspace(lo, hi, npts)
    err = _amplitude(taps, om) - desired
    d = np.diff(err)
    idx = [0]
    idx += [i for i in range(1, npts - 1)
            if d[i - 1] != 0 and (d[i - 1] > 0) != (d[i] > 0)]
    idx.append(npts - 1)
    return [err[i] for i in idx]


def test_fir_order50_alternation_theorem():
    spec = SeparationSpec(1.0, 628, 0.001)
    p, _ = design_fir_equiripple(spec, 50)
    wp, ws = spec.rho, 3.0 * spec.rho
    errs = (_band_extrema(p.feedforward, 0.0, wp, 1.0)
            + _band_extrema(p.feedforward, ws, math.pi, 0.0))
    mags = np.abs(errs)
    kept = [e for e in errs if abs(e) >= 0.99 * mags.max()]
    signs = np.sign(kept)
    alternations = 1 + int(np.sum(signs[1:] != signs[:-1]))
    assert alternations >= 50 // 2 + 2


def test_fir_weight_ratio_trades_ripples():
    spec = SeparationSpec(1.0, 628, 0.001)
    p, _ = design_fir_equiripple(spec, 30, passband_edge=0.3 * math.pi,
                                 stopband_edge=0.5 * math.pi, weight_ratio=10.0)
    om = np.linspace(0.0, math.pi, 4096)
    amp = _amplitude(p.feedforward, om)
    d_pass = np.max(np.abs(amp[om <= 0.3 * math.pi] - 1.0))
    d_stop = np.max(np.abs(amp[om >= 0.5 * math.pi]))
    # weighted Chebyshev levelling: W_pass*d_pass = W_stop*d_stop
    assert d_stop / d_pass == pytest.approx(10.0, rel=0.2)


def test_fir_rejects_bad_arguments():
    spec = SeparationSpec(1.0, 100, 0.01)
    with pytest.raises(InvalidArgumentError):
        design_fir_equiripple(spec, 5)  # odd order
    with pytest.raises(InvalidArgumentError):
        design_fir_equiripple(spec, 2)  # too small
    with pytest.raises(InvalidArgumentError):
        design_fir_equiripple(spec, 10, passband_edge=2.0, stopband_edge=1.0)


def test_coefficient_text_round_trip():
    spec = SeparationSpec(0.37, 321, 0.002)
    p, a = design_iir(spec, 3)
    for coeffs in (p, a):
        back = parse_coefficients(format_coefficients(coeffs))
        assert back.kind == coeffs.kind
        assert back.realization == coeffs.realization
        assert back.order == coeffs.order
        assert back.period == coeffs.period
        assert back.sampling_time == coeffs.sampling_time
        assert np.array_equal(back.feedback, coeffs.feedback)
        assert np.array_equal(back.feedforward, coeffs.feedforward)


def test_coefficient_invariants_enforced():
    with pytest.raises(InvalidArgumentError):
        FilterCoefficients(kind="periodic-pass", realization="fir", order=2,
                           period=5, sampling_time=0.1,
                           feedback=np.array([0.1, 0.0]),
                           feedforward=np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        FilterCoefficients(kind="periodic-pass", realization="iir", order=2,
                           period=5, sampling_time=0.1,
                           feedback=np.zeros(2), feedforward=np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("taps", ["feedback", "feedforward"])
def test_non_finite_taps_rejected(bad, taps):
    p, _ = design_iir(SeparationSpec(1.0, 5, 0.1), 2)
    values = {"feedback": p.feedback.copy(), "feedforward": p.feedforward.copy()}
    values[taps][1] = bad
    with pytest.raises(InvalidArgumentError, match="finite"):
        FilterCoefficients(kind=p.kind, realization=p.realization, order=2,
                           period=5, sampling_time=0.1, **values)
    # the coefficient-file reader goes through the same check
    text = format_coefficients(p).splitlines()
    line = 1 if taps == "feedback" else 2
    fields = text[line].split()
    fields[1] = str(bad)
    text[line] = " ".join(fields)
    with pytest.raises(InvalidArgumentError, match="finite"):
        parse_coefficients("\n".join(text))
