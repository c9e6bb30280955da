"""Properties the paper's separation filters have by construction, checked
under hypothesis on the one-channel (Python-float) path of ``PasfState.run``:
each pass function is linear, and a complementary pair splits its input
into two parts that sum back to it. Coefficient text and files round-trip
every finite filter bitwise. A periodic and an aperiodic part whose lifted
channels occupy disjoint bands are orthogonal.

Both hold exactly in exact arithmetic. In binary64 each output carries the
rounding of its own products and sums, fed back through the filter's poles,
so each test states its tolerance relative to the magnitudes involved."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pasf.design import (
    APERIODIC_PASS,
    PERIODIC_PASS,
    FilterCoefficients,
    SeparationSpec,
    design_for,
    format_coefficients,
    load_coefficients,
    parse_coefficients,
    save_coefficients,
)
from pasf.lifting import unlift
from pasf.metrics import classify_lifted, orthogonality_defect, synthesize_banded
from pasf.runtime import PasfState

# Lifted-domain rho ranges where every design of these orders converges
# (FIR50 fails to converge near rho = 0.79, a known Remez gap).
_IIR_RHO = (0.05, 3.0)
_FIR_RHO = (0.05, 0.6)

# Tolerance relative to the scale of the terms (see each test). Over 3,000
# random pairs of this domain the worst relative error was 5.9e-13 for
# linearity and 2.5e-13 for the complement, both IIR3 at rho = 0.05, whose
# triple pole near 1 amplifies rounding by up to about (2 / rho)^3.
_REL_TOL = 1e-10
# Below the smallest normal magnitude the spacing of binary64 stops
# shrinking (2**-1074 throughout), so rounding errors there are absolute
# and a bound relative to a subnormal scale falls below one spacing: an
# IIR1 run of beta = 5e-324 times one sample is off by one spacing against
# a relative bound of 1.1e-332. The linearity bound adds the relative bound
# at the smallest normal magnitude, 2.2e-318 (about 450,000 spacings);
# over 3,000 random pairs at subnormal scales the worst error was 2,185
# spacings beyond the relative bound (IIR3 at rho = 0.05). At scales above
# 1e-300 the term adds less than 3e-8 of the relative bound.
_ABS_TOL = _REL_TOL * np.finfo(float).smallest_normal


@st.composite
def designed_pairs(draw, complementary_only=False):
    """A designed (periodic, aperiodic) pair at a drawn period and rho."""
    fir = draw(st.booleans())
    if fir:
        order = draw(st.sampled_from([4, 10, 20, 50]))
        rho = draw(st.floats(*_FIR_RHO))
    else:
        order = draw(st.integers(1, 3))
        rho = draw(st.floats(*_IIR_RHO))
    base = "fir" if fir else "iir"
    # of the pairs as designed, only the first-order IIR pair sums to 1; the
    # FIR pair's aperiodic filter is its center-tap complement, so the FIR
    # pair sums to a delay of order/2 lifted steps
    if complementary_only and (fir or order > 1):
        complement = True
    else:
        complement = draw(st.booleans())
    realization = f"complementary-of-{base}" if complement else base
    period = draw(st.integers(1, 12))
    T = 0.01
    return design_for(realization, SeparationSpec(rho / (period * T), period, T), order)


def _signal(seed, length):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(length) * 10.0 ** rng.uniform(-3, 3)
    x[rng.random(length) < 0.1] = -0.0
    return x


def _max(*arrays):
    return max(float(np.max(np.abs(a), initial=0.0)) for a in arrays)


@settings(max_examples=60, deadline=None, database=None)
@given(pair=designed_pairs(), seeds=st.tuples(st.integers(0, 2 ** 32 - 1),
                                              st.integers(0, 2 ** 32 - 1)),
       length=st.integers(1, 400), alpha=st.floats(-1e3, 1e3),
       beta=st.floats(-1e3, 1e3))
@example(pair=design_for("iir", SeparationSpec(0.1 / 0.01, 1, 0.01), 1),
         seeds=(0, 157), length=1, alpha=0.0, beta=5e-324)
def test_each_pass_function_is_linear(pair, seeds, length, alpha, beta):
    """run(alpha x + beta z) = alpha run(x) + beta run(z) for both outputs,
    within _REL_TOL of the largest magnitude among the three runs' scaled
    outputs plus _ABS_TOL for subnormal scales."""
    x, z = (_signal(s, length) for s in seeds)
    mixed = PasfState(*pair).run(alpha * x + beta * z)
    runs_x = PasfState(*pair).run(x)
    runs_z = PasfState(*pair).run(z)
    for out, ox, oz in zip(mixed, runs_x, runs_z):
        ax, bz = alpha * ox, beta * oz
        scale = _max(out, ax, bz)
        assert _max(out - (ax + bz)) <= _REL_TOL * scale + _ABS_TOL


@settings(max_examples=60, deadline=None, database=None)
@given(pair=designed_pairs(complementary_only=True),
       seed=st.integers(0, 2 ** 32 - 1), length=st.integers(1, 400))
def test_complementary_outputs_sum_to_the_input(pair, seed, length):
    """xp + xa = x for a complementary pair (F_p + F_a = 1), within
    _REL_TOL of the largest magnitude of x, xp and xa."""
    x = _signal(seed, length)
    xp, xa = PasfState(*pair).run(x)
    assert _max(xp + xa - x) <= _REL_TOL * _max(x, xp, xa)


# signed zeros, subnormals and magnitudes near the top of the range, which
# plain float draws reach only rarely
_EDGE_TAPS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300,
              np.finfo(float).max, -np.finfo(float).max]


def _taps(size):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return st.lists(st.one_of(finite, st.sampled_from(_EDGE_TAPS)),
                    min_size=size, max_size=size)


@st.composite
def coefficient_sets(draw):
    """A valid FilterCoefficients of either kind, FIR or IIR, orders 1-50,
    with any sampling time whose pi/T is finite."""
    order = draw(st.integers(1, 50))
    fir = draw(st.booleans())
    feedback = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=order,
                             max_size=order) if fir else _taps(order))
    return FilterCoefficients(
        kind=draw(st.sampled_from([PERIODIC_PASS, APERIODIC_PASS])),
        realization="fir" if fir else "iir", order=order,
        period=draw(st.integers(1, 10 ** 6)),
        sampling_time=draw(st.floats(min_value=0.0, exclude_min=True,
                                     allow_infinity=False).filter(
            lambda t: math.isfinite(math.pi / t))),
        feedback=feedback, feedforward=draw(_taps(order + 1)))


@settings(max_examples=200, deadline=None, database=None)
@given(coeffs=coefficient_sets())
def test_coefficient_text_and_file_round_trip_bitwise(coeffs, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    save_coefficients(coeffs, path)
    for back in (parse_coefficients(format_coefficients(coeffs)),
                 load_coefficients(path)):
        assert (back.kind, back.realization, back.order, back.period) == (
            coeffs.kind, coeffs.realization, coeffs.order, coeffs.period)
        assert back.sampling_time.hex() == coeffs.sampling_time.hex()
        assert back.feedback.tobytes() == coeffs.feedback.tobytes()
        assert back.feedforward.tobytes() == coeffs.feedforward.tobytes()


@st.composite
def banded_channels(draw):
    """A period, a lifted length, a cut bin and per-channel bin sets: low
    bins in 0..cut, high bins in cut+1..length//2."""
    period = draw(st.integers(1, 12))
    length = draw(st.integers(8, 128))
    cut = draw(st.integers(0, length // 2 - 1))
    low = st.lists(st.integers(0, cut), min_size=1, max_size=4, unique=True)
    high = st.lists(st.integers(cut + 1, length // 2), min_size=1, max_size=4,
                    unique=True)
    bins = [(draw(low), draw(high)) for _ in range(period)]
    return period, length, cut, bins, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100, deadline=None, database=None)
@given(case=banded_channels())
def test_disjoint_lifted_bands_are_orthogonal(case):
    """The paper's orthogonality: when every lifted channel of x_p lies in
    the band |omega| <= rho and every channel of x_a above it, the unlifted
    x_p and x_a are orthogonal (Parseval, channel by channel)."""
    period, length, cut, bins, seed = case
    rng = np.random.default_rng(seed)
    rho = 2.0 * math.pi * cut / length

    def channel(bin_set):
        coeffs = rng.standard_normal(len(bin_set)) + 1j * rng.standard_normal(len(bin_set))
        return synthesize_banded(length, bin_set, coeffs)

    subs_p, subs_a = zip(*((channel(lo), channel(hi)) for lo, hi in bins))
    assert orthogonality_defect(unlift(subs_p, period), unlift(subs_a, period)) < 1e-10
    for sp, sa in zip(subs_p, subs_a):
        assert not classify_lifted(sp, rho).in_aperiodic_set
        assert not classify_lifted(sa, rho).in_periodic_set
