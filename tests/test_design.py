"""Design-time checks: closed forms, stability, complements, equiripple FIR."""

import hashlib
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pasf import design
from pasf.baselines import CombSpec
from pasf.design import (
    FilterCoefficients,
    SeparationSpec,
    check_stability,
    design_fir_equiripple,
    design_for,
    design_iir,
    forget_designs,
    format_coefficients,
    make_complementary,
    parse_coefficients,
)
from pasf.errors import (
    DegenerateDesignError,
    DesignFailureError,
    InvalidArgumentError,
    OutOfBandError,
    PasfError,
)
from pasf.lifting import lift, unlift


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


@pytest.mark.parametrize("realization, rho_tilde, period, T, order", [
    ("fir", 1e-9, 10, 0.01, 50),  # every passband grid node at cos = 1.0
    ("iir", 1e308, 10, 0.01, 1),  # rho = rho_tilde * period * T is inf
    ("iir", 1e40, 1, 1.0, 8),     # (2 + rho)^8 overflows
])
def test_degenerate_design_raises_before_any_warning(realization, rho_tilde,
                                                     period, T, order):
    """Under the suite's warnings-as-errors rule, a warning from the
    design's arithmetic would fail this test before the typed error."""
    with pytest.raises(DegenerateDesignError):
        design_for(realization, SeparationSpec(rho_tilde, period, T), order,
                   allow_out_of_band=True)


def test_iir_rejects_high_order():
    with pytest.raises(InvalidArgumentError):
        design_iir(SeparationSpec(0.5, 100, 0.01), 9)


@pytest.mark.parametrize("make", [
    lambda: design_iir(SeparationSpec(1.0, 2.5, 0.01), 2),
    lambda: design_iir(SeparationSpec(1.0, 2, 0.01), 2.0),
    lambda: design_fir_equiripple(SeparationSpec(1.0, 20, 0.01), 4.0),
    lambda: design_for("iir", SeparationSpec(1.0, np.float64(2.0), 0.01), 2),
    lambda: design.check_order("fir", 4.0),
    lambda: FilterCoefficients("periodic-pass", "iir", 1.0, 5, 0.1, [0.0], [1.0, 0.0]),
    lambda: FilterCoefficients("periodic-pass", "iir", 1, 5.0, 0.1, [0.0], [1.0, 0.0]),
])
def test_non_integer_period_or_order_is_invalid_argument(make):
    """A period or order that ``operator.index`` refuses is a typed error
    when the value is checked, not NumPy's ``TypeError`` at the first step."""
    with pytest.raises(InvalidArgumentError, match="must be an integer"):
        make()


def test_numpy_integer_period_and_order_design():
    p, _ = design_iir(SeparationSpec(1.0, np.int64(20), 0.01), np.int32(2))
    assert p.order == 2 and p.period == 20


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


@pytest.mark.parametrize("ratio", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_fir_rejects_non_positive_or_non_finite_weight_ratio(ratio):
    """Rejected before the exchange runs: under the suite's
    warnings-as-errors rule, a warning from its arithmetic fails the test."""
    with pytest.raises(InvalidArgumentError, match="weight_ratio"):
        design_fir_equiripple(SeparationSpec(0.5, 1000, 0.001), 50,
                              weight_ratio=ratio)


@pytest.mark.parametrize("ratio", [1e308, 1e304, 1.7976931348623157e308,
                                   1e-320, 5e-324, 5.5e-309])
def test_fir_rejects_finite_weight_ratio_that_overflows(ratio):
    """A reciprocal beyond DBL_MAX is rejected before the exchange; a
    weighted passband error beyond it, when the exchange forms it. Under
    the suite's warnings-as-errors rule an overflow warning fails the test."""
    with pytest.raises(InvalidArgumentError, match="weight_ratio"):
        design_fir_equiripple(SeparationSpec(0.5, 1000, 0.001), 50,
                              weight_ratio=ratio)


@pytest.mark.parametrize("ratio, digest", [(1e-84, "bbe1d745dbaf3952"),
                                           (1e-12, "43f0da06dc1b51cc"),
                                           (10.0, "a6e9abe0930eac1a")])
def test_fir_weight_ratio_designs_keep_their_taps(ratio, digest):
    """The overflow checks leave designs that converge alone: order 4 at
    passband weights down to 1e-84 (reciprocal 1e84), taps digests recorded
    before the checks existed."""
    p, _ = design_fir_equiripple(SeparationSpec(0.5, 1000, 0.001), 4,
                                 weight_ratio=ratio)
    assert hashlib.sha256(p.feedforward.tobytes()).hexdigest()[:16] == digest


# The per-node loops the exchange used before its array forms: oracles that
# the array forms must match bit for bit.
def _barycentric_gamma_loop(x):
    n = len(x)
    gamma = np.empty(n)
    for k in range(n):
        diff = x[k] - np.delete(x, k)
        gamma[k] = 1.0 / np.prod(diff)
    return gamma


def _select_extrema_loop(error, n_pass, count, prev_ref):
    candidates = []
    for lo, hi in ((0, n_pass), (n_pass, len(error))):
        seg = error[lo:hi]
        d = np.diff(seg)
        for i in range(1, len(seg) - 1):
            if d[i - 1] == 0.0:
                continue
            if (d[i - 1] > 0) != (d[i] > 0) or d[i] == 0.0:
                candidates.append(lo + i)
        if len(seg) >= 2:
            if abs(seg[0]) >= abs(seg[1]):
                candidates.append(lo)
            if abs(seg[-1]) >= abs(seg[-2]):
                candidates.append(hi - 1)
    candidates = sorted(set(candidates) | set(int(i) for i in prev_ref))
    merged = []
    for idx in candidates:
        if merged and np.sign(error[idx]) == np.sign(error[merged[-1]]):
            if abs(error[idx]) > abs(error[merged[-1]]):
                merged[-1] = idx
        else:
            merged.append(idx)
    if len(merged) < count:
        raise DesignFailureError(
            f"Remez exchange collapsed: found {len(merged)} alternations, "
            f"need {count}",
            ripple=float(np.max(np.abs(error))),
        )
    while len(merged) > count:
        if abs(error[merged[0]]) <= abs(error[merged[-1]]):
            merged.pop(0)
        else:
            merged.pop()
    return np.asarray(merged, dtype=int)


@pytest.mark.parametrize("scale", [1.0, 1e-120, 1e120])
def test_barycentric_gamma_matches_the_per_node_loop_bitwise(scale):
    """Node sets of 2..130 points; at the extreme scales the products
    overflow to inf (gamma 0) or underflow to 0 (gamma inf)."""
    rng = np.random.default_rng(16)
    for n in range(2, 131):
        x = np.cos(np.sort(rng.uniform(0.0, math.pi, n))) * scale
        with np.errstate(all="ignore"):
            want = _barycentric_gamma_loop(x)
            got = design._barycentric_gamma(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), n


def _error_vectors(rng):
    """Weighted-error vectors with plateaus, exact +-0.0, NaN, band ends of
    equal magnitude and one-sided stretches."""
    alphabet = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    for case in range(400):
        n = int(rng.integers(2, 60))
        kind = case % 4
        if kind == 0:  # a small alphabet: plateaus, ties, signed zeros
            e = rng.choice(alphabet, n)
        elif kind == 1:  # a smooth ripple with flattened runs
            e = np.round(np.sin(rng.uniform(0.3, 3.0) * np.arange(n)), 1)
        elif kind == 2:  # random values, some NaN and some signed zeros
            e = rng.standard_normal(n)
            e[rng.random(n) < 0.1] = np.nan
            e[rng.random(n) < 0.1] = -0.0
        else:  # one-sided: too few alternations unless prev_ref supplies them
            e = np.abs(rng.standard_normal(n)) * rng.choice([-1.0, 1.0])
        n_pass = int(rng.integers(0, n + 1))
        if n_pass >= 2 and rng.random() < 0.5:  # band ends of equal magnitude
            e[n_pass - 1] = -e[n_pass - 2]
        count = int(rng.integers(1, max(2, n // 2 + 2)))
        prev_ref = np.sort(rng.choice(n, size=min(count, n), replace=False))
        yield e, n_pass, count, prev_ref


def test_select_extrema_matches_the_per_node_loop_bitwise():
    rng = np.random.default_rng(16)
    outcomes = set()
    for e, n_pass, count, prev_ref in _error_vectors(rng):
        results = []
        for select in (_select_extrema_loop, design._select_extrema):
            with np.errstate(all="ignore"):
                try:
                    results.append(select(e, n_pass, count, prev_ref))
                except DesignFailureError as exc:
                    results.append((str(exc), np.float64(exc.ripple).tobytes()))
        want, got = results
        if isinstance(want, tuple):
            assert got == want
            outcomes.add("collapsed")
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want)
            outcomes.add("selected")
    assert outcomes == {"collapsed", "selected"}


# The FIR sweep of ROADMAP item 7 plus two specs that fail: orders 4, 12,
# ..., 116 at eight lifted rho values, and FIR50 at lifted rho 0.794 and 1.0.
_SWEEP = ([(SeparationSpec(rho, 1, 1.0), order)
           for order in range(4, 117, 8)
           for rho in (1e-3, 0.01, 0.05, 0.1, 0.37, 0.6, 0.794, 1.0)]
          + [(SeparationSpec(39.719222053050196, 2, 0.01), 50),
             (SeparationSpec(1.0, 1000, 0.001), 50)])
# recorded with the per-node loop forms of the exchange
_SWEEP_DIGEST = "a2bbfa2f6c3ea21de5659167ceb747c4a91447e658c3a3db67df79c7c3d8ad96"


def test_fir_design_sweep_matches_its_recorded_digest():
    """Each design's taps bytes, or its exception's class and message, fold
    into one digest. Warnings are recorded by category only: an array and a
    scalar divide word the same warning differently. None is left: the
    interpolant of rho 1.0 at orders 28 and 84 overflows to inf, and their
    exchanges fail as before without an inf/inf ripple quotient."""
    total = hashlib.sha256()
    failed, warned = 0, []
    for spec, order in _SWEEP:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                p, a = design_fir_equiripple(spec, order)
                record = p.feedforward.tobytes() + a.feedforward.tobytes()
            except PasfError as exc:
                record = f"{type(exc).__name__}: {exc}".encode()
                failed += 1
        if caught:
            warned.append((spec.rho, order,
                           sorted({w.category.__name__ for w in caught})))
        total.update(hashlib.sha256(record).hexdigest().encode())
    assert failed == 35
    assert warned == []
    assert total.hexdigest() == _SWEEP_DIGEST


@pytest.mark.parametrize("ratio", [1e-30, 1e-300])
def test_fir_tiny_weight_ratio_designs_do_not_warn(ratio):
    """The sweep's 120-design grid at a passband weight of 1e-30 or 1e-300
    (where every design fails today): each design succeeds or raises one
    DesignFailureError. Where the interpolant overflows to inf, the ripple
    quotient (0/0 or inf/inf) and the extrema's slopes (inf - inf) must
    not warn first, which is a traceback under warnings-as-errors."""
    for spec, order in _SWEEP[:120]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                design_fir_equiripple(spec, order, weight_ratio=ratio)
            except DesignFailureError:
                pass


def _silent_outcomes(spec, **edges):
    """How orders 4..116 of ``spec`` end under warnings-as-errors: each
    design succeeds or raises one DesignFailureError, with no warning."""
    outcomes = set()
    for order in range(4, 117, 8):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                design_fir_equiripple(spec, order, **edges)
                outcomes.add("designed")
            except DesignFailureError:
                outcomes.add("failed")
    return outcomes


@pytest.mark.parametrize("edge", [1.2e-8, 2e-8, 3e-8, 4.6e-8])
@pytest.mark.parametrize("stop", [None, 0.5])
def test_fir_designs_at_tiny_passband_edges_do_not_warn(edge, stop):
    """The passband edge at ``edge``, where grid nodes crowd at cos = 1,
    and the stopband edge at 3 * ``edge`` or at 0.5. A rank-deficient
    Chebyshev fit succeeded with a RankWarning, and coincident reference
    nodes divided by zero before the taps came out non-finite."""
    outcomes = _silent_outcomes(SeparationSpec(edge, 1, 1.0), stopband_edge=stop)
    assert "failed" in outcomes


@pytest.mark.parametrize("gap", [1e-6, 1e-8])
def test_fir_designs_at_stopband_edges_near_pi_do_not_warn(gap):
    """The stopband edge ``gap`` below pi, where grid nodes crowd at
    cos = -1: at 1e-6, order 108, distinct reference nodes whose
    differences multiply to 0 divided by zero; at 1e-8 nodes coincide from
    order 60. Both came out as non-finite taps after the warnings."""
    outcomes = _silent_outcomes(SeparationSpec(0.5, 1, 1.0),
                                stopband_edge=math.pi - gap)
    assert outcomes == {"designed", "failed"}


def test_fir_rank_deficient_fit_is_design_failure():
    """Order 36 at a passband weight of 1e-16 used to return taps fitted
    at rank 18 of 19, with a RankWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DesignFailureError, match="rank 18, need 19"):
            design_fir_equiripple(SeparationSpec(0.6, 1, 1.0), 36,
                                  weight_ratio=1e-16)


def test_barycentric_gamma_refuses_coincident_nodes():
    x = np.array([1.0, 0.5, 1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DesignFailureError, match="nodes coincide"):
            design._barycentric_gamma(x)


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


def test_coefficient_repr_leaves_out_the_taps():
    p, _ = design_iir(SeparationSpec(1.0, 20, 0.01), 1)
    assert repr(p) == ("FilterCoefficients(kind='periodic-pass', realization='iir', "
                       "order=1, period=20, sampling_time=0.01)")


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.0, -1.0, 1e-320,
                                 5e-324, 1.7e-308])
def test_sampling_time_must_be_positive_finite_with_finite_nyquist(bad):
    """T must be finite and positive, and pi/T must not overflow: a
    subnormal T would give a Bode grid of NaN. The coefficient-file reader
    goes through the same check."""
    p, _ = design_iir(SeparationSpec(1.0, 5, 0.1), 2)
    with pytest.raises(InvalidArgumentError, match="sampling_time"):
        FilterCoefficients(p.kind, p.realization, 2, 5, bad,
                           feedback=p.feedback, feedforward=p.feedforward)
    head, *taps = format_coefficients(p).splitlines()
    with pytest.raises(InvalidArgumentError, match="sampling_time"):
        parse_coefficients("\n".join([head.rsplit(" ", 1)[0] + f" {bad!r}", *taps]))
    # the smallest T whose pi/T is finite loads
    smallest = math.pi / sys.float_info.max
    if math.isinf(math.pi / smallest):
        smallest = math.nextafter(smallest, 1.0)
    assert FilterCoefficients(p.kind, p.realization, 2, 5, smallest,
                              feedback=p.feedback,
                              feedforward=p.feedforward).sampling_time == smallest


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


@pytest.mark.parametrize("realization, order", [
    ("iir", 2), ("fir", 4), ("complementary-of-iir", 2), ("complementary-of-fir", 4),
])
def test_design_for_memoizes_equal_specs_as_one_read_only_pair(realization, order):
    forget_designs()
    first = design_for(realization, SeparationSpec(1.0, 8, 0.01), order)
    again = design_for(realization, SeparationSpec(1.0, 8, 0.01), order)
    assert again is first
    # a different spec, order or band flag is a different design
    assert design_for(realization, SeparationSpec(2.0, 8, 0.01), order) is not first
    assert design_for(realization, SeparationSpec(1.0, 8, 0.01), order,
                      allow_out_of_band=True) is not first
    for coeffs in first:
        for taps in (coeffs.feedback, coeffs.feedforward):
            assert not taps.flags.writeable
            with pytest.raises(ValueError):
                taps[0] = 1.0


def test_coefficients_freeze_copies_not_the_callers_arrays():
    """A FilterCoefficients holds read-only copies: the arrays a caller
    hands over stay writeable and unshared, also when both filters of a
    pair are given the same array."""
    taps = {"feedback": np.array([-0.5, 0.25]),
            "feedforward": np.array([0.25, 0.5, 0.25])}
    pair = [FilterCoefficients(kind, "iir", 2, 8, 0.01, **taps)
            for kind in ("periodic-pass", "aperiodic-pass")]
    for coeffs in pair:
        for name, mine in taps.items():
            held = getattr(coeffs, name)
            assert mine.flags.writeable and not held.flags.writeable
            assert not np.shares_memory(mine, held)
            assert np.array_equal(mine, held)
    assert not np.shares_memory(pair[0].feedback, pair[1].feedback)


def test_design_for_keeps_no_failed_design(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return design_iir(*args)

    monkeypatch.setattr(design, "design_iir", counted)
    forget_designs()
    degenerate = SeparationSpec(0.0, 8, 0.01)
    for _ in range(3):
        with pytest.raises(DegenerateDesignError):
            design_for("iir", degenerate, 2)
    assert len(calls) == 3


def test_design_for_memo_is_bounded():
    forget_designs()
    first = design_for("iir", SeparationSpec(1.0, 8, 0.01), 1)
    for k in range(design._MAX_DESIGNS):
        design_for("iir", SeparationSpec(1.0 + k + 1, 8, 0.01), 1)
    assert design._design.cache_info().currsize == design._MAX_DESIGNS
    # the least recently used design was dropped: an equal spec designs anew
    assert design_for("iir", SeparationSpec(1.0, 8, 0.01), 1) is not first


def test_design_for_evicts_the_least_recently_used_design():
    """A pair used again after it was designed outlives the designs made
    between: it is evicted last, not first."""
    forget_designs()
    first = design_for("iir", SeparationSpec(1.0, 8, 0.01), 1)
    for k in range(design._MAX_DESIGNS - 1):
        design_for("iir", SeparationSpec(2.0 + k, 8, 0.01), 1)
    assert design_for("iir", SeparationSpec(1.0, 8, 0.01), 1) is first
    design_for("iir", SeparationSpec(2.0 + design._MAX_DESIGNS, 8, 0.01), 1)
    assert design_for("iir", SeparationSpec(1.0, 8, 0.01), 1) is first
    # equal values of different types never share a pair
    assert design_for("iir", SeparationSpec(1.0, np.int64(8), 0.01), 1) is not first
    assert design_for("iir", SeparationSpec(1, 8, 0.01), 1) is not first


_PERIOD_USERS = {
    "SeparationSpec": lambda period: SeparationSpec(1.0, period, 0.01).validate(),
    "FilterCoefficients": lambda period: FilterCoefficients(
        "periodic-pass", "iir", 1, period, 0.01, [-0.5], [0.25, 0.25]),
    "CombSpec": lambda period: CombSpec(1, period),
    "lift": lambda period: lift([1.0, 2.0, 3.0], period),
    "unlift": lambda period: unlift([[1.0], [2.0], [3.0]], period),
}


@pytest.mark.parametrize("period, message", [
    (2.5, "period must be an integer, got 2.5"),
    (2.0, "period must be an integer, got 2.0"),
    (0, "period must be >= 1, got 0"),
])
def test_every_period_follows_one_rule(period, message):
    for name, make in _PERIOD_USERS.items():
        with pytest.raises(InvalidArgumentError) as info:
            make(period)
        assert str(info.value) == message, name
    for make in _PERIOD_USERS.values():
        make(np.int64(3))
    assert [len(s) for s in lift([1.0, 2.0, 3.0, 4.0], np.int64(3))] == [2, 1, 1]


def _schur_cohn_stable(feedback) -> bool:
    """Exact Schur-Cohn step-down of z^N + a_1 z^(N-1) + ... + a_N over the
    stored float taps: every root lies strictly inside the unit circle iff
    every reflection coefficient has magnitude below 1."""
    a = [Fraction(1)] + [Fraction(float(v)) for v in feedback]
    while len(a) > 1:
        k = a[-1]
        if abs(k) >= 1:
            return False
        n = len(a) - 1
        a = [(a[i] - k * a[n - i]) / (1 - k * k) for i in range(n)]
    return True


@settings(max_examples=200, deadline=None, database=None)
@given(order=st.integers(1, 8), log_rho=st.floats(math.log(1e-7), math.log(math.pi)))
@example(order=5, log_rho=math.log(1e-3))  # sec53's 4 s piece: DC gain -1.797
@example(order=6, log_rho=math.log(1e-4))  # the stored denominator is 0 at z = 1
@example(order=8, log_rho=math.log(0.01))  # DC gain 0.0064
@example(order=3, log_rho=math.log(1e-3))  # the worst design in use, kept
def test_iir_design_keeps_its_dc_gain_and_stability_or_is_refused(order, log_rho):
    """Rounding the expanded taps scatters the N-fold pole next to 1 at
    small lifted rho. A stored pair whose DC gain misses 1 is refused; every
    pair that is kept passes DC within 1e-6, exactly on its stored taps, and
    has every pole strictly inside the unit circle."""
    spec = SeparationSpec(math.exp(log_rho), 1, 1.0)
    try:
        p, a = design_iir(spec, order, allow_out_of_band=True)
    except DegenerateDesignError as exc:
        assert "DC gain" in str(exc)
        return
    dc = (sum(map(Fraction, p.feedforward.tolist()))
          / (1 + sum(map(Fraction, p.feedback.tolist()))))
    assert abs(dc - 1) <= 1e-6
    assert np.array_equal(p.feedback, a.feedback)
    assert _schur_cohn_stable(p.feedback)


def test_schur_cohn_step_down_is_exact_at_the_unit_circle():
    assert _schur_cohn_stable([-0.5])
    assert not _schur_cohn_stable([-1.0])  # a root at z = 1
    assert _schur_cohn_stable([-1.5, 0.5625])  # (z - 0.75)^2
    assert not _schur_cohn_stable([-2.0, 1.0])  # (z - 1)^2
    assert not _schur_cohn_stable([0.0, 1.0])  # z = +-j
