"""Filter design: bilinear IIR pairs, equiripple FIR pairs, complements.

All filters live in the lifted delay variable: a tap of order i delays by
i*period fast-time samples. ``feedback`` holds a_1..a_N (a_0 = 1 implicit),
``feedforward`` holds the N+1 numerator taps.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .csvio import read_text
from .errors import (
    DegenerateDesignError,
    DesignFailureError,
    InvalidArgumentError,
    OutOfBandError,
    UnsupportedReconfigurationError,
)
from .values import value

PERIODIC_PASS = "periodic-pass"
APERIODIC_PASS = "aperiodic-pass"

_MAX_IIR_ORDER = 8  # repeated convolution is ill-conditioned beyond this


@value
class SeparationSpec:
    """Separation frequency rho_tilde (rad/s) with period and sampling time.

    The lifted-domain boundary is rho = rho_tilde * period * sampling_time
    (rad/sample at the lifted rate); in-band designs require 0 < rho <= pi.
    """

    rho_tilde: float
    period: int
    sampling_time: float

    @property
    def rho(self) -> float:
        return self.rho_tilde * self.period * self.sampling_time

    def validate(self, allow_out_of_band: bool = False) -> None:
        if not math.isfinite(self.rho_tilde):
            raise InvalidArgumentError(f"rho_tilde must be finite, got {self.rho_tilde}")
        check_sampling_time(self.sampling_time)
        check_period(self.period)
        if self.rho_tilde <= 0:
            raise DegenerateDesignError(
                "rho_tilde <= 0 has no stable realization (the exact limit is "
                "the zero filter)"
            )
        if self.rho > math.pi and not allow_out_of_band:
            raise OutOfBandError(
                f"rho = rho_tilde*period*T = {self.rho:.6g} exceeds pi; the "
                "separation boundary lies beyond the lifted Nyquist band"
            )
        if not math.isfinite(self.rho):
            raise DegenerateDesignError(
                f"rho = rho_tilde*period*T overflows to {self.rho}")


@value
class FilterCoefficients:
    """One rational filter in the lifted delay variable.

    It holds read-only float copies of the taps it is given, so the
    caller's arrays stay writeable and no two values share taps. The
    sampling time must be finite and positive, and large enough that the
    Nyquist rate pi/T does not overflow.
    """

    kind: str
    realization: str
    order: int
    period: int
    sampling_time: float
    feedback: np.ndarray
    feedforward: np.ndarray

    def __post_init__(self):
        fb = np.array(self.feedback, dtype=float, ndmin=1)
        ff = np.array(self.feedforward, dtype=float, ndmin=1)
        fb.flags.writeable = ff.flags.writeable = False
        object.__setattr__(self, "feedback", fb)
        object.__setattr__(self, "feedforward", ff)
        if self.kind not in (PERIODIC_PASS, APERIODIC_PASS):
            raise InvalidArgumentError(f"unknown filter kind {self.kind!r}")
        check_integer("order", self.order)
        if self.order < 1:
            raise InvalidArgumentError("order must be >= 1")
        check_period(self.period)
        check_sampling_time(self.sampling_time)
        if len(fb) != self.order:
            raise InvalidArgumentError(
                f"feedback must have exactly {self.order} entries, got {len(fb)}"
            )
        if len(ff) != self.order + 1:
            raise InvalidArgumentError(
                f"feedforward must have exactly {self.order + 1} entries, "
                f"got {len(ff)}"
            )
        if not (np.isfinite(fb).all() and np.isfinite(ff).all()):
            raise InvalidArgumentError("filter taps must be finite")
        if self.realization == "fir" and np.any(fb != 0.0):
            raise InvalidArgumentError("FIR realization requires zero feedback")

    def __repr__(self):  # the taps stay out of it
        return (f"FilterCoefficients(kind={self.kind!r}, "
                f"realization={self.realization!r}, order={self.order!r}, "
                f"period={self.period!r}, sampling_time={self.sampling_time!r})")

    @property
    def dc_gain(self) -> float:
        """Gain at lifted DC: sum(feedforward) / (1 + sum(feedback))."""
        return float(np.sum(self.feedforward) / (1.0 + np.sum(self.feedback)))


@value
class StabilityReport:
    stable: bool
    max_root_magnitude: float


def check_integer(name: str, number) -> None:
    """Raise ``InvalidArgumentError`` unless ``number`` is an integer by
    the ``operator.index`` rule: Python and NumPy ints pass, ``3.0`` does
    not."""
    try:
        operator.index(number)
    except TypeError:
        raise InvalidArgumentError(
            f"{name} must be an integer, got {number!r}") from None


def check_period(period) -> None:
    """Raise ``InvalidArgumentError`` unless ``period`` is an integer by
    the ``operator.index`` rule and at least 1."""
    check_integer("period", period)
    if period < 1:
        raise InvalidArgumentError(f"period must be >= 1, got {period}")


def check_sampling_time(sampling_time) -> None:
    """Raise ``InvalidArgumentError`` unless the sampling time T is positive
    and finite, and large enough that the Nyquist rate pi/T is finite."""
    T = float(sampling_time)
    if not 0.0 < T < math.inf or math.isinf(math.pi / T):
        raise InvalidArgumentError(
            f"sampling_time must be positive and finite, with pi/T finite, got {T!r}")


def check_order(realization: str, order: int) -> None:
    """Raise ``InvalidArgumentError`` unless ``order`` is one the
    realization (``iir`` or ``fir``) is designed at: an integer, IIR 1 to
    ``_MAX_IIR_ORDER``, FIR even and >= 4."""
    check_integer("order", order)
    if realization == "fir":
        if order < 4 or order % 2 != 0:
            raise InvalidArgumentError(
                f"FIR order must be even and >= 4 (type-I linear phase), got {order}"
            )
    elif order < 1:
        raise InvalidArgumentError(f"order must be >= 1, got {order}")
    elif order > _MAX_IIR_ORDER:
        raise InvalidArgumentError(
            f"IIR order {order} > {_MAX_IIR_ORDER}: repeated-convolution "
            "expansion is ill-conditioned at high order"
        )


def design_iir(
    spec: SeparationSpec, order: int, allow_out_of_band: bool = False
) -> tuple[FilterCoefficients, FilterCoefficients]:
    """Design the Nth-order bilinear IIR periodic-pass/aperiodic-pass pair.

    The pair is the Nth power of the first-order sections

        low  = r*(1 + Z) / ((2 + r) + (r - 2)*Z)
        high = 2*(1 - Z) / ((2 + r) + (r - 2)*Z)

    with r = rho_tilde*period*T and Z the unit lifted delay. No frequency
    prewarping is applied; the plain bilinear substitution is intentional so
    designed responses match their closed-form low-order expansions. Powers
    are expanded by repeated polynomial convolution, which stays well
    conditioned only for small orders; N > 8 is rejected. At small r the
    rounded taps scatter the N-fold pole (2 - r)/(2 + r) next to 1: a pair
    whose stored DC gain, sum(b) / (1 + sum(a)), misses 1 by more than 1e-6
    raises ``DegenerateDesignError`` (see ``iir_taps``).
    """
    check_order("iir", order)
    spec.validate(allow_out_of_band=allow_out_of_band)
    return _pair(spec, "iir", order, *iir_taps(spec.rho, order))


def iir_taps(r: float, order: int):
    """The shared feedback a_1..a_N and the periodic-pass and
    aperiodic-pass feedforward taps of ``design_iir``'s pair at the lifted
    boundary ``r``. Raises ``DegenerateDesignError`` where the expanded
    taps overflow or store a DC gain more than 1e-6 from 1."""
    den1 = np.array([2.0 + r, r - 2.0])
    nump1 = np.array([r, r])
    numa1 = np.array([2.0, -2.0])

    den = _poly_power(den1, order)
    nump = _poly_power(nump1, order)
    numa = _poly_power(numa1, order)
    if not (np.isfinite(den).all() and np.isfinite(nump).all()):
        raise DegenerateDesignError(
            f"rho = {r:.6g} is too large for order {order}: the expanded "
            "numerator and denominator overflow")

    a = den[1:] / den[0]
    b = nump / den[0]
    # exact sums: 1 + sum(a) is itself a rounding residue at small r
    den_sum = math.fsum([1.0, *a])
    dc = math.fsum(b) / den_sum if den_sum else math.inf
    if not abs(dc - 1.0) <= 1e-6:
        raise DegenerateDesignError(
            f"IIR order {order} at rho = {r:.6g} stores a DC gain of {dc:.6g}, "
            "not 1: its expanded taps lose the clustered pole")
    return a, b, numa / den[0]


def _pair(spec, realization, order, feedback, periodic, aperiodic):
    """The (periodic-pass, aperiodic-pass) pair of one realization at
    ``spec``, sharing ``feedback`` and taking the two feedforward taps."""
    shared = (order, spec.period, spec.sampling_time, feedback)
    return (FilterCoefficients(PERIODIC_PASS, realization, *shared, periodic),
            FilterCoefficients(APERIODIC_PASS, realization, *shared, aperiodic))


def _poly_power(p: np.ndarray, n: int) -> np.ndarray:
    out = np.array([1.0])
    for _ in range(n):
        out = np.convolve(out, p)
    return out


def make_complementary(periodic_pass: FilterCoefficients) -> FilterCoefficients:
    """Complement of a periodic-pass filter over the common denominator.

    Returns the aperiodic-pass filter whose response is exactly one minus the
    input's: same feedback, feedforward d_i = a_i - b_i with a_0 = 1.
    """
    if periodic_pass.kind != PERIODIC_PASS:
        raise InvalidArgumentError(
            f"make_complementary expects a periodic-pass input, got "
            f"{periodic_pass.kind!r}"
        )
    return _complement(periodic_pass, APERIODIC_PASS)


def _complement(coeffs: FilterCoefficients, out_kind: str) -> FilterCoefficients:
    a_full = np.concatenate(([1.0], coeffs.feedback))
    ff = a_full - coeffs.feedforward
    return FilterCoefficients(
        kind=out_kind,
        realization=f"complementary-of-{coeffs.realization}",
        order=coeffs.order,
        period=coeffs.period,
        sampling_time=coeffs.sampling_time,
        feedback=coeffs.feedback,
        feedforward=ff,
    )


_MAX_DESIGNS = 32


def design_for(
    realization: str, spec: SeparationSpec, order: int,
    allow_out_of_band: bool = False,
) -> tuple[FilterCoefficients, FilterCoefficients]:
    """Design the periodic-pass/aperiodic-pass pair of a coefficient
    realization at ``spec``: the one rule behind every design and redesign.

    ``iir`` and ``fir`` go to ``design_iir`` and ``design_fir_equiripple``
    (which ignores ``allow_out_of_band``); ``complementary-of-iir`` and
    ``complementary-of-fir`` pair the designed periodic-pass filter with its
    ``make_complementary``. Any other realization, such as a comb or its
    complement, has no design from a separation spec.

    Designs are memoized by the value and type of each argument and spec
    field, so equal values of different types (``8`` and ``np.int64(8)``)
    never share a pair: equal arguments return the identical pair, kept
    exactly as designed. Its taps are read-only from construction (see
    ``FilterCoefficients``), so no caller can change the pair another
    caller is given. Since a schedule may name any number of separation
    frequencies, the memo holds the ``_MAX_DESIGNS`` most recently used
    designs and evicts the least recently used. A design that raises is not
    kept, so it raises on every call. ``forget_designs`` empties the memo.
    """
    return _design(realization, spec.rho_tilde, spec.period, spec.sampling_time,
                   order, allow_out_of_band)


@functools.lru_cache(maxsize=_MAX_DESIGNS, typed=True)
def _design(realization, rho_tilde, period, sampling_time, order, allow_out_of_band):
    spec = SeparationSpec(rho_tilde, period, sampling_time)
    base = realization.removeprefix("complementary-of-")
    if base == "iir":
        p, a = design_iir(spec, order, allow_out_of_band)
    elif base == "fir":
        p, a = design_fir_equiripple(spec, order)
    else:
        raise UnsupportedReconfigurationError(
            f"realization {realization!r} has no design from a separation spec"
        )
    if base != realization:
        a = make_complementary(p)
    return p, a


forget_designs = _design.cache_clear  # the next call of each spec designs


def check_stability(coeffs: FilterCoefficients) -> StabilityReport:
    """Whether the lifted-domain poles, the roots of z^N + a_1 z^(N-1) +
    ... + a_N, all lie strictly inside the unit circle.

    ``stable`` is decided exactly on the stored taps by ``_schur_cohn_stable``.
    ``max_root_magnitude`` is the companion-matrix estimate of ``np.roots``,
    which can put an N-fold pole next to 1 on either side of the circle.
    """
    poly = np.concatenate(([1.0], coeffs.feedback))
    roots = np.roots(poly)
    max_mag = float(np.max(np.abs(roots))) if roots.size else 0.0
    return StabilityReport(stable=_schur_cohn_stable(coeffs.feedback),
                           max_root_magnitude=max_mag)


def _schur_cohn_stable(feedback) -> bool:
    """Exact Schur-Cohn step-down of z^N + a_1 z^(N-1) + ... + a_N over the
    float taps ``feedback``, in rational arithmetic: every root lies
    strictly inside the unit circle iff every reflection coefficient has
    magnitude below 1."""
    # imported when first used: fractions imports decimal, about 1 ms
    from fractions import Fraction
    a = [Fraction(1)] + [Fraction(float(v)) for v in feedback]
    while len(a) > 1:
        k = a[-1]
        if abs(k) >= 1:
            return False
        n = len(a) - 1
        a = [(a[i] - k * a[n - i]) / (1 - k * k) for i in range(n)]
    return True


# ---------------------------------------------------------------------------
# Equiripple FIR design (Remez exchange on the lifted frequency axis)
# ---------------------------------------------------------------------------

_REMEZ_GRID_MULT = 16
_REMEZ_MAX_ITER = 25
_REMEZ_TOL = 1e-7


def design_fir_equiripple(
    spec: SeparationSpec,
    order: int,
    passband_edge: float | None = None,
    stopband_edge: float | None = None,
    weight_ratio: float = 1.0,
) -> tuple[FilterCoefficients, FilterCoefficients]:
    """Design a linear-phase equiripple FIR periodic-pass/aperiodic-pass pair.

    The periodic-pass filter is a type-I low-pass (even order, symmetric taps)
    obtained by Remez exchange minimizing the weighted Chebyshev error over
    [0, passband_edge] U [stopband_edge, pi] on the lifted frequency axis.
    The aperiodic-pass filter is its center-tap complement on the same grid,
    which is the corresponding equiripple high-pass and keeps linear phase.

    Band edges default to rho and min(pi, 3*rho) (``fir_band_edges``
    checks them). ``weight_ratio`` is the
    passband weight relative to a unit stopband weight. A ratio whose
    reciprocal overflows (below 1/DBL_MAX, about 5.6e-309), or one that
    overflows the weighted passband error during the exchange, is an
    ``InvalidArgumentError``; an exchange whose levelled system overflows
    raises ``DesignFailureError``, as does one whose interpolant overflows
    to inf, one whose reference holds two nodes of equal cosine, and one
    whose final Chebyshev fit is rank-deficient, with no warning before it.
    """
    check_order("fir", order)
    spec.validate()
    passband_edge, stopband_edge = fir_band_edges(spec.rho, passband_edge,
                                                  stopband_edge)
    if not (math.isfinite(weight_ratio) and weight_ratio > 0):
        raise InvalidArgumentError(
            f"weight_ratio must be positive and finite, got {weight_ratio}")
    # the levelled system divides by the weights: every design overflows
    if math.isinf(1.0 / weight_ratio):
        raise InvalidArgumentError(
            f"weight_ratio {weight_ratio:.6g} is below 1/DBL_MAX: "
            "its reciprocal overflows")
    h = _remez_lowpass(order, passband_edge, stopband_edge, weight_ratio)
    h_hp = -h
    h_hp[order // 2] += 1.0
    return _pair(spec, "fir", order, np.zeros(order), h, h_hp)


def fir_band_edges(rho: float, passband_edge: float | None = None,
                   stopband_edge: float | None = None) -> tuple[float, float]:
    """The (passband, stopband) edges an equiripple FIR design at lifted
    ``rho`` runs with: rho and min(pi, 3*rho) where not given. So with
    default edges it designs only at 0 < rho and 3*rho < pi.

    Raises ``InvalidArgumentError`` unless 0 < passband < stopband < pi,
    and ``DegenerateDesignError`` when the passband edge is so close to 0
    that its cosine rounds to 1."""
    if passband_edge is None:
        passband_edge = rho
    if stopband_edge is None:
        stopband_edge = min(math.pi, 3.0 * rho)
    if not (0.0 < passband_edge < stopband_edge < math.pi):
        raise InvalidArgumentError(
            f"band edges must satisfy 0 < passband ({passband_edge:.6g}) < "
            f"stopband ({stopband_edge:.6g}) < pi"
        )
    # the exchange needs distinct cosines of its reference nodes; this close
    # to 0 every passband node has cos = 1.0
    if math.cos(passband_edge) == 1.0:
        raise DegenerateDesignError(
            f"passband edge {passband_edge:.6g} puts every passband grid node "
            "at cos = 1: no equiripple design resolves the band")
    return passband_edge, stopband_edge


def _remez_grid(order, omega_pass, omega_stop):
    total = _REMEZ_GRID_MULT * order
    w1 = omega_pass
    w2 = math.pi - omega_stop
    n1 = max(order // 2 + 3, int(round(total * w1 / (w1 + w2))))
    n2 = max(order // 2 + 3, total - n1)
    g1 = np.linspace(0.0, omega_pass, n1)
    g2 = np.linspace(omega_stop, math.pi, n2)
    grid = np.concatenate([g1, g2])
    desired = np.concatenate([np.ones(n1), np.zeros(n2)])
    return grid, desired, n1


def _remez_lowpass(order, omega_pass, omega_stop, weight_pass):
    """Type-I low-pass Remez exchange under a unit stopband weight; returns
    the order+1 symmetric taps."""
    m = order // 2  # cosine-polynomial degree
    grid, desired, n_pass = _remez_grid(order, omega_pass, omega_stop)
    weight = np.where(np.arange(len(grid)) < n_pass, weight_pass, 1.0)
    x_grid = np.cos(grid)

    # initial reference: m+2 points spread uniformly in grid index
    ref = np.round(np.linspace(0, len(grid) - 1, m + 2)).astype(int)
    delta = 0.0

    for _ in range(_REMEZ_MAX_ITER):
        delta, amp = _chebyshev_solution(
            x_grid[ref], desired[ref], weight[ref], x_grid
        )
        try:
            with np.errstate(over="raise"):
                error = weight * (amp - desired)
        except FloatingPointError:
            # under a unit stopband weight only a passband weight above 1
            # can turn a finite error into an overflow
            raise InvalidArgumentError(
                f"weight_ratio {weight_pass:.6g} overflows the weighted "
                "passband error") from None
        new_ref = _select_extrema(error, n_pass, m + 2, ref)
        ref_err = np.abs(error[new_ref])
        stationary = np.array_equal(new_ref, ref)
        ref = new_ref
        top = ref_err.max()  # 0 or inf when the interpolant is exact or overflows
        q = (top - ref_err.min()) / top if 0.0 < top < math.inf else math.inf
        # a stationary reference is the exchange's fixed point on this grid
        if q < _REMEZ_TOL or stationary:
            return _taps_from_reference(
                m, x_grid[ref], desired[ref], weight[ref]
            )
    raise DesignFailureError(
        f"Remez exchange did not converge within {_REMEZ_MAX_ITER} iterations "
        f"(final ripple {abs(delta):.3e})",
        ripple=abs(delta),
    )


def _barycentric_gamma(x):
    """gamma_k = 1 / prod_{j != k} (x_k - x_j). Each row of differences
    keeps j in order and multiply.reduce runs left to right along it, so
    the products are those of the per-node loop, bit for bit. Two equal
    nodes are a ``DesignFailureError``, raised before the division."""
    n = len(x)
    diff = (x[:, None] - x[None, :])[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    # nodes whose cosines are equal in floating point have no weight
    if not diff.all():
        raise DesignFailureError("Remez exchange reference nodes coincide")
    return 1.0 / np.multiply.reduce(diff, axis=1)


def _levelled_values(x_ref, d_ref, w_ref):
    """The ripple delta making the weighted error alternate exactly on the
    m+2 reference nodes, and the amplitude values ys at the first m+1 nodes
    xs that this levelled error gives."""
    signs = (-1.0) ** np.arange(len(x_ref))
    try:
        # huge barycentric weights (at a tiny passband edge, or distinct
        # nodes whose difference product underflows to 0 at a stopband
        # edge near pi) or a tiny passband weight can overflow here
        with np.errstate(over="raise", divide="raise"):
            gamma = _barycentric_gamma(x_ref)
            delta = float(np.dot(gamma, d_ref) / np.dot(gamma, signs / w_ref))
            ys = d_ref[:-1] - signs[:-1] * delta / w_ref[:-1]
    except FloatingPointError:
        raise DesignFailureError("Remez exchange overflowed its levelled system") from None
    return delta, x_ref[:-1], ys


def _chebyshev_solution(x_ref, d_ref, w_ref, x_eval):
    """Levelled-error interpolation on a reference set, evaluated on a grid:
    the levelled values barycentric-interpolated through the first m+1
    nodes."""
    delta, xs, ys = _levelled_values(x_ref, d_ref, w_ref)
    wts = _barycentric_gamma(xs)

    diff = x_eval[:, None] - xs[None, :]
    exact = np.abs(diff) <= 1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = wts[None, :] / diff
        amp = (ratio @ ys) / ratio.sum(axis=1)
    hit_rows, hit_cols = np.nonzero(exact)
    amp[hit_rows] = ys[hit_cols]
    return delta, amp


def _select_extrema(error, n_pass, count, prev_ref):
    """Pick ``count`` alternating extrema of the weighted error.

    The previous reference points are always candidates: the levelled error
    alternates exactly there, which guarantees at least ``count`` alternating
    candidates even when the interim error is one-sided across the band gap.
    """
    candidates = [prev_ref]
    for lo, hi in ((0, n_pass), (n_pass, len(error))):
        seg = error[lo:hi]
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN slope, not flat
            d = np.diff(seg)
        left, right = d[:-1], d[1:]
        # a slope that changes sign or flattens, after a slope that is not flat
        turn = (left != 0.0) & (((left > 0) != (right > 0)) | (right == 0.0))
        candidates.append(lo + 1 + np.flatnonzero(turn))
        # band endpoints act as boundary extrema
        if len(seg) >= 2:
            if abs(seg[0]) >= abs(seg[1]):
                candidates.append([lo])
            if abs(seg[-1]) >= abs(seg[-2]):
                candidates.append([hi - 1])
    candidates = np.array(sorted(set(np.concatenate(candidates).tolist())),
                          dtype=int)
    values = error[candidates]
    signs = np.sign(values).tolist()
    mags = np.abs(values).tolist()

    # enforce strict sign alternation: keep the largest within same-sign runs
    # (a NaN sign equals nothing, so NaN starts a run of its own)
    merged = []
    for pos, sign in enumerate(signs):
        if merged and sign == signs[merged[-1]]:
            if mags[pos] > mags[merged[-1]]:
                merged[-1] = pos
        else:
            merged.append(pos)

    if len(merged) < count:
        raise DesignFailureError(
            f"Remez exchange collapsed: found {len(merged)} alternations, "
            f"need {count}",
            ripple=float(np.max(np.abs(error))),
        )
    while len(merged) > count:
        if mags[merged[0]] <= mags[merged[-1]]:
            merged.pop(0)
        else:
            merged.pop()
    return candidates[merged]


def _taps_from_reference(m, x_ref, d_ref, w_ref):
    """Convert the converged reference set into symmetric impulse taps.

    The amplitude is A(omega) = sum_k a_k cos(k*omega) = sum_k a_k T_k(x) with
    x = cos(omega), so the cosine coefficients are the Chebyshev coefficients
    of the interpolant through the levelled node values. Fitting in the
    Chebyshev basis at the nodes avoids evaluating the interpolant inside the
    transition band, where interpolation from band-clustered nodes is badly
    conditioned.
    """
    _, xs, ys = _levelled_values(x_ref, d_ref, w_ref)
    # full=True returns the same coefficients with the rank, in place of
    # a RankWarning
    coef, (_, rank, _, _) = np.polynomial.chebyshev.chebfit(xs, ys, deg=m,
                                                             full=True)
    if rank < m + 1:
        raise DesignFailureError(
            f"Remez exchange reference is rank-deficient: Chebyshev fit "
            f"of rank {rank}, need {m + 1}")
    taps = np.empty(2 * m + 1)
    taps[m] = coef[0]
    taps[m + 1:] = 0.5 * coef[1:]
    taps[:m] = taps[m + 1:][::-1]
    return taps


# ---------------------------------------------------------------------------
# Coefficient text format
# ---------------------------------------------------------------------------


def format_coefficients(coeffs: FilterCoefficients) -> str:
    """Three-line text form: header, feedback taps, feedforward taps."""
    head = (
        f"{coeffs.kind} {coeffs.realization} {coeffs.order} "
        f"{coeffs.period} {coeffs.sampling_time!r}"
    )
    fb = " ".join(f"{v:.17g}" for v in coeffs.feedback)
    ff = " ".join(f"{v:.17g}" for v in coeffs.feedforward)
    return f"{head}\n{fb}\n{ff}\n"


def parse_coefficients(text: str) -> FilterCoefficients:
    lines = [ln for ln in text.strip().splitlines()]
    if len(lines) != 3:
        raise InvalidArgumentError(
            f"coefficient text must have 3 lines, got {len(lines)}"
        )
    head = lines[0].split()
    if len(head) != 5:
        raise InvalidArgumentError(f"malformed coefficient header: {lines[0]!r}")
    kind, realization, order, period, t = head
    try:
        order, period, t = int(order), int(period), float(t)
    except ValueError:
        raise InvalidArgumentError(
            f"coefficient header needs an integer order and period and a "
            f"numeric sampling time: {lines[0]!r}") from None
    taps = []
    for name, line in (("feedback", lines[1]), ("feedforward", lines[2])):
        try:
            taps.append(np.array([float(v) for v in line.split()]))
        except ValueError:
            raise InvalidArgumentError(
                f"non-numeric {name} tap: {line!r}") from None
    return FilterCoefficients(
        kind=kind,
        realization=realization,
        order=order,
        period=period,
        sampling_time=t,
        feedback=taps[0],
        feedforward=taps[1],
    )


def save_coefficients(coeffs: FilterCoefficients, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_coefficients(coeffs))


def load_coefficients(path) -> FilterCoefficients:
    return parse_coefficients(read_text(path))
