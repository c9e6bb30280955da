"""Streaming separator behavior: steady states, linearity, reconfiguration."""

import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasf.baselines import CombSpec, comb_pair
from pasf.design import (
    APERIODIC_PASS,
    PERIODIC_PASS,
    FilterCoefficients,
    SeparationSpec,
    design_for,
    design_iir,
)
from pasf.errors import (
    InvalidArgumentError,
    PoisonedStateError,
    UnsupportedReconfigurationError,
)
from pasf import runtime
from pasf.response import eval_response
from pasf.runtime import (
    PasfState,
    SeparatorBank,
    SeparatorCore,
)
from pasf.values import replace


def _pair(rho_tilde=0.5 / (20 * 0.01), period=20, t_samp=0.01, order=1):
    spec = SeparationSpec(rho_tilde, period, t_samp)
    return design_iir(spec, order), spec


def test_constant_input_splits_to_periodic_channel():
    (p, a), spec = _pair()
    state = PasfState(p, a)
    # 20/rho_tilde seconds of samples
    steps = int(20.0 / spec.rho_tilde / spec.sampling_time)
    xp = xa = None
    for _ in range(steps):
        xp, xa = state.step(3.0)
    assert abs(xp - 3.0) < 0.03
    assert abs(xa) < 0.03


def test_zero_input_zero_output():
    (p, a), _ = _pair()
    state = PasfState(p, a)
    for _ in range(200):
        xp, xa = state.step(0.0)
        assert xp == 0.0 and xa == 0.0


def test_first_harmonic_sinusoid_routed_to_periodic():
    period, t_samp = 20, 0.01
    (p, a), spec = _pair(rho_tilde=0.5 / (period * t_samp), period=period,
                         t_samp=t_samp)
    w1 = 2.0 * math.pi / (period * t_samp)
    # analytic gains at the first harmonic are exactly 1 and 0
    assert abs(eval_response(p, w1)) == pytest.approx(1.0, abs=1e-12)
    assert abs(eval_response(a, w1)) == pytest.approx(0.0, abs=1e-12)

    state = PasfState(p, a)
    n_periods = 50
    t = np.arange(n_periods * period)
    x = np.sin(w1 * t_samp * t)
    out_p, out_a = state.run(x)
    tail = slice(-5 * period, None)
    amp_a = np.max(np.abs(out_a[tail]))
    amp_p = np.max(np.abs(out_p[tail]))
    assert amp_a < 1e-6
    assert abs(amp_p - 1.0) < 1e-6


def test_linearity_superposition_and_homogeneity():
    rng = np.random.default_rng(11)
    (p, a), _ = _pair(order=2)
    for _ in range(10):
        x = rng.standard_normal(300)
        z = rng.standard_normal(300)
        alpha = float(rng.uniform(-3, 3))
        sx = PasfState(p, a).run(x)
        sz = PasfState(p, a).run(z)
        sxz = PasfState(p, a).run(x + z)
        sax = PasfState(p, a).run(alpha * x)
        for ch in (0, 1):
            lhs = sxz[ch]
            rhs = sx[ch] + sz[ch]
            denom = np.linalg.norm(lhs) + 1e-30
            assert np.linalg.norm(lhs - rhs) / denom < 1e-12
            lhs2 = sax[ch]
            rhs2 = alpha * sx[ch]
            denom2 = np.linalg.norm(lhs2) + 1e-30
            assert np.linalg.norm(lhs2 - rhs2) / denom2 < 1e-12


def test_shift_by_one_period_shifts_outputs_exactly():
    rng = np.random.default_rng(5)
    (p, a), spec = _pair()
    x = rng.standard_normal(400)
    base_p, base_a = PasfState(p, a).run(x)
    shifted = np.concatenate([np.zeros(spec.period), x])
    shift_p, shift_a = PasfState(p, a).run(shifted)
    assert np.array_equal(shift_p[spec.period:], base_p)
    assert np.array_equal(shift_a[spec.period:], base_a)


def test_cascade_annihilation_on_periodic_signal():
    period = 8
    (p, a), spec = _pair(rho_tilde=0.5 / (period * 0.01), period=period,
                         t_samp=0.01)
    rng = np.random.default_rng(2)
    pattern = rng.standard_normal(period)
    x = np.tile(pattern, 80)
    xp, _ = PasfState(p, a).run(x)
    _, leak = PasfState(p, a).run(xp)
    tail = slice(-10 * period, None)
    rms_in = np.sqrt(np.mean(x[tail] ** 2))
    rms_leak = np.sqrt(np.mean(leak[tail] ** 2))
    assert rms_leak < 1e-4 * rms_in


def test_comb1_equivalence():
    period, t_samp = 50, 0.01
    spec = SeparationSpec(2.0 / (period * t_samp), period, t_samp)  # r = 2
    p, a = design_iir(spec, 1)
    rng = np.random.default_rng(17)
    x = rng.standard_normal(10_000)
    _, xa_iir = PasfState(p, a).run(x)
    _, xa_comb = PasfState(*comb_pair(CombSpec(1, period, t_samp))).run(x)
    assert np.max(np.abs(xa_iir - xa_comb)) < 1e-12


def test_vector_form_matches_scalar_channels():
    (p, a), _ = _pair(order=2)
    rng = np.random.default_rng(23)
    x = rng.standard_normal((100, 3))
    vec = PasfState(p, a, dims=3)
    scalars = [PasfState(p, a) for _ in range(3)]
    for i in range(len(x)):
        vp, va = vec.step(x[i])
        for d in range(3):
            sp, sa = scalars[d].step(x[i, d])
            assert vp[d] == sp and va[d] == sa


def test_reconfigure_identity_is_noop():
    (p, a), spec = _pair()
    rng = np.random.default_rng(29)
    x = rng.standard_normal(300)
    s1 = PasfState(p, a)
    s2 = PasfState(p, a)
    out1p = np.empty_like(x)
    out2p = np.empty_like(x)
    for i in range(len(x)):
        out1p[i], _ = s1.step(x[i])
        if i == 150:
            s2.reconfigure(spec)
        out2p[i], _ = s2.step(x[i])
    assert np.array_equal(out1p, out2p)


def test_reconfigure_preserves_history_observably():
    (p, a), spec = _pair()
    other = SeparationSpec(spec.rho_tilde * 3.0, spec.period, spec.sampling_time)
    rng = np.random.default_rng(31)
    x = rng.standard_normal(400)
    plain = PasfState(p, a)
    switched = PasfState(p, a)
    out_plain = np.empty_like(x)
    out_switched = np.empty_like(x)
    for i in range(len(x)):
        out_plain[i], _ = plain.step(x[i])
        if i == 100:
            switched.reconfigure(other)
        if i == 200:
            switched.reconfigure(spec)
        out_switched[i], _ = switched.step(x[i])
    # identical coefficients after step 200, but preserved history differs
    assert not np.allclose(out_plain[250:], out_switched[250:], atol=1e-12)
    assert np.all(np.isfinite(out_switched))


def test_reconfigure_rejects_period_change():
    (p, a), spec = _pair()
    state = PasfState(p, a)
    bad = SeparationSpec(spec.rho_tilde, spec.period + 1, spec.sampling_time)
    with pytest.raises(UnsupportedReconfigurationError):
        state.reconfigure(bad)


@pytest.mark.parametrize("period, order", [(21, 1), (20, 2)])
def test_swap_coefficients_rejects_other_period_or_order_and_keeps_bank(
        period, order):
    (p, a), _ = _pair()
    state = PasfState(p, a)
    state.step(1.0)
    bank = state.bank
    ref = PasfState(p, a)
    ref.step(1.0)
    with pytest.raises(UnsupportedReconfigurationError):
        state.swap_coefficients(*_pair(period=period, order=order)[0])
    assert state.bank is bank
    assert state.step(0.5) == ref.step(0.5)


@pytest.mark.parametrize("field", ["rho_tilde", "sampling_time"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_reconfigure_rejects_non_finite_spec_and_keeps_bank(field, value):
    (p, a), spec = _pair()
    state = PasfState(p, a)
    state.step(1.0)
    bank = state.bank
    with pytest.raises(InvalidArgumentError):
        state.reconfigure(replace(spec, **{field: value}),
                          allow_out_of_band=True)
    assert state.bank is bank
    xp, xa = state.step(1.0)
    assert math.isfinite(xp) and math.isfinite(xa)


def _random_filter(rng, kind, order, period, realization="iir"):
    # small feedback taps keep the recursion bounded
    return FilterCoefficients(kind, realization, order, period, 0.01,
                              feedback=(np.zeros(order) if realization == "fir"
                                        else rng.standard_normal(order) * 0.3 / order),
                              feedforward=rng.standard_normal(order + 1))


def _random_pair(rng, order, period, realization="iir"):
    return tuple(_random_filter(rng, kind, order, period, realization)
                 for kind in (PERIODIC_PASS, APERIODIC_PASS))


def _random_bank(rng, order, period, realization="iir"):
    return SeparatorBank(*_random_pair(rng, order, period, realization))


def _any_realization(rng):
    """A feed-forward ("fir") or feedback ("iir") realization, at random."""
    return ("iir", "fir")[rng.integers(2)]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _assert_theta_equals_sum(core, rng, events, steps):
    """Step ``core`` by writing random rows (signed zeros among them) into
    its rings and advancing t, applying each (step, "swap" | "inject" |
    "reset") event before its step, and hold every theta row to the
    per-step np.sum over the order axis, raw bits included (so the sign of
    zero counts). The sum keeps the feedback terms, all-zero ones of an FIR
    bank included; a swap draws an FIR or an IIR bank at random."""
    cap, dims, order, period = (core.capacity, core.n, core.bank.order,
                                core.bank.period)
    for step in range(steps):
        for event in [e for at, e in events if at == step]:
            if event == "swap":
                core.swap_bank(_random_bank(rng, order, period, _any_realization(rng)))
            elif event == "inject":
                core.inject(*rng.standard_normal((3, cap, dims)))
            else:
                core.reset()
        G, H = core.bank.G[..., None], core.bank.H[..., None]
        lags = (core.t - core._strides) % cap
        hin = core.in_buf[lags]
        tp, ta = core.theta()
        if dims == 1:
            assert type(tp) is float and type(ta) is float
        else:
            assert tp.shape == ta.shape == (dims,)
        assert np.array_equal(_bits(np.atleast_1d(tp)), _bits(
            np.sum(G[0] * core.p_buf[lags] + H[0] * hin, axis=0)))
        assert np.array_equal(_bits(np.atleast_1d(ta)), _bits(
            np.sum(G[1] * core.a_buf[lags] + H[1] * hin, axis=0)))
        scales = 10.0 ** rng.uniform(-6, 6, (3, dims))
        values = rng.standard_normal((3, dims)) * scales
        values[rng.random((3, dims)) < 0.2] = -0.0
        slot = core.t % cap
        core.in_buf[slot], core.p_buf[slot], core.a_buf[slot] = values
        core.t += 1


@pytest.mark.parametrize("realization", ["iir", "fir"])
@pytest.mark.parametrize("order", [1, 2, 3, 50])
@pytest.mark.parametrize("dims", [1, 3])
def test_theta_bitwise_equals_sum_formulation(order, dims, realization):
    """Each theta row equals the per-step np.sum over the order axis, raw
    bits included (so the sign of zero counts), at periods 1 to 12 and
    across a coefficient swap, an inject and a reset in the middle of a
    period. One channel reads the row as two Python floats, more than one
    as two n-vectors. An FIR bank's rows, built from the input ring alone,
    equal the sum with its zero feedback terms."""
    rng = np.random.default_rng(100 * order + dims)
    for period in range(1, 13):
        core = SeparatorCore(_random_bank(rng, order, period, realization), dims)
        cap = core.capacity
        mid = period // 2
        # A reset inside the first period returns t into the warm table's
        # window. After it t = step - r; a swap or an inject restarts the
        # table at its own t, so each falls mid-table at a multiple of mid.
        r = max(mid, 1)
        events = [(0, "inject"), (r, "reset"), (r + cap + mid, "swap"),
                  (r + 2 * cap + 2 * mid, "inject"), (r + 3 * cap + 3 * mid, "reset")]
        # wraps the ring three times
        _assert_theta_equals_sum(core, rng, events, 4 * cap + 2 * period)


@pytest.mark.parametrize("realization", ["iir", "fir"])
@pytest.mark.parametrize("dims", [1, 3])
def test_theta_bitwise_equals_sum_formulation_across_build_slices(dims, realization):
    """A period of more than three ``_width`` row slices, the last one
    partial: every row of every slice equals the per-step np.sum, across a
    swap and an inject in the middle of a period, which start the slices
    off the period's grid."""
    rng = np.random.default_rng(7 + dims)
    order = 50
    period = 3 * (runtime._BUILD_PRODUCTS // (order * dims)) + 7
    core = SeparatorCore(_random_bank(rng, order, period, realization), dims)
    assert period >= 3 * core._width
    swap_at = period // 2 + 1
    inject_at = swap_at + period + period // 3
    events = [(0, "inject"), (swap_at, "swap"), (inject_at, "inject")]
    _assert_theta_equals_sum(core, rng, events, inject_at + period + 5)


@pytest.mark.parametrize("realization", ["iir", "fir"])
@pytest.mark.parametrize("order", [1, 3, 50])
@pytest.mark.parametrize("dims", [1, 3])
def test_theta_bitwise_equals_sum_formulation_after_many_wraps(order, dims, realization):
    """t * n passes the ring's span dozens of times before a swap and an
    inject in the middle of a period. A build reduces its slice's offset
    into the ring before adding the lag grid, so every gathered index wraps
    at most once at any t: each row still equals the per-step np.sum."""
    rng = np.random.default_rng(31 * order + dims)
    for period in (1, 2, 7):
        core = SeparatorCore(_random_bank(rng, order, period, realization), dims)
        cap = core.capacity
        swap_at = 30 * cap + period // 2
        inject_at = 45 * cap + period // 2 + 1
        events = [(0, "inject"), (swap_at, "swap"), (inject_at, "inject")]
        _assert_theta_equals_sum(core, rng, events, inject_at + 2 * period + 3)
        assert core.t * dims > 45 * cap * dims


@pytest.mark.parametrize("order", [1, 2, 7, 8, 9, 50, 200])
def test_sums_of_negative_zeros_are_positive_zero(order):
    """The condition a feed-forward build rests on (see the runtime module
    docstring): in each reduction layout of a build and of the per-step
    sum, a float64 sum whose terms are all -0.0 is +0.0. Without it,
    dropping an FIR bank's zero feedback terms could flip the sign of a
    zero theta."""
    rows = 5
    layouts = [((2, rows, order), -1)]
    for n in (1, 3):
        layouts += [((2, order, rows, n), 1), ((order, n), 0)]
    for shape, axis in layouts:
        zeros = np.full(shape, -0.0)
        for total in (np.add.reduce(zeros, axis=axis), np.sum(zeros, axis=axis)):
            assert not np.signbit(total).any(), (np.__version__, shape, axis)


class _PerStepOracle:
    """The per-step separator formula, summed at every step."""

    def __init__(self, bank, dims):
        self.bank = bank
        self.cap = bank.order * bank.period
        self.bufs = np.zeros((3, self.cap, dims))
        self.strides = bank.period * np.arange(1, bank.order + 1)
        self.t = 0

    def step(self, x):
        b = self.bank
        G, H = b.G[..., None], b.H[..., None]
        lags = (self.t - self.strides) % self.cap
        hin, hp, ha = self.bufs[:, lags]
        xp = np.sum(G[0] * hp + H[0] * hin, axis=0) + b.sp * x
        xa = np.sum(G[1] * ha + H[1] * hin, axis=0) + b.sa * x
        self.bufs[:, self.t % self.cap] = x, xp, xa
        self.t += 1
        return xp, xa


# The input forms a scalar separator accepts, each from one float value.
_SCALAR_FORMS = (
    float,
    np.float64,
    lambda v: int(round(v)),
    np.array,
    lambda v: np.array([v]),
    lambda v: [v],
)


@settings(max_examples=40, deadline=None, database=None)
@given(order=st.integers(1, 50), dims=st.integers(1, 3),
       period=st.integers(1, 12), fir=st.booleans(),
       swaps=st.lists(st.integers(0, 2000), max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pasf_step_bitwise_equals_per_step_oracle(order, dims, period, fir,
                                                  swaps, seed):
    """More than one channel takes the vector step. One channel takes the
    Python-float step, fed every accepted input form, and must return
    Python floats. A swap draws an FIR or an IIR pair at random, so it may
    cross between a feed-forward and a feedback bank."""
    rng = np.random.default_rng(seed)
    state = PasfState(*_random_pair(rng, order, period, "fir" if fir else "iir"),
                      dims=dims)
    oracle = _PerStepOracle(state.bank, dims)
    steps = 2 * order * period + period + 1
    swap_at = {s % steps for s in swaps}
    for t in range(steps):
        if t in swap_at:
            state.swap_coefficients(*_random_pair(rng, order, period,
                                                  _any_realization(rng)))
            oracle.bank = state.bank
        x = rng.standard_normal(dims) * 10.0 ** rng.uniform(-3, 3)
        x[rng.random(dims) < 0.1] = -0.0
        fed = x
        if dims == 1:
            fed = _SCALAR_FORMS[t % len(_SCALAR_FORMS)](float(x[0]))
            x = np.array([float(np.asarray(fed).reshape(-1)[0])])
        xp, xa = state.step(fed)
        op, oa = oracle.step(x)
        if dims == 1:
            assert type(xp) is float and type(xa) is float
        assert np.array_equal(_bits(np.atleast_1d(xp)), _bits(op))
        assert np.array_equal(_bits(np.atleast_1d(xa)), _bits(oa))


@pytest.mark.parametrize("order", [1, 2, 3, 50])
def test_scalar_step_bitwise_equals_oracle_across_swap_inject_reset(order):
    """The one-channel step reads its theta row as floats. Its outputs equal
    the per-step oracle's bit for bit, at periods 1 to 12, with -0.0 inputs
    and with a coefficient swap, an inject and a reset each falling in the
    middle of a period."""
    rng = np.random.default_rng(order)
    for period in range(1, 13):
        state = PasfState(*_random_pair(rng, order, period))
        oracle = _PerStepOracle(state.bank, 1)
        cap = state.core.capacity
        mid = max(period // 2, 1)
        events = {cap + mid: "swap", 2 * cap + mid: "inject", 3 * cap + mid: "reset"}
        for t in range(4 * cap + 2 * period):
            event = events.get(t)
            if event == "swap":
                state.swap_coefficients(*_random_pair(rng, order, period))
                oracle.bank = state.bank
            elif event == "inject":
                hists = rng.standard_normal((3, cap))
                hists[rng.random((3, cap)) < 0.2] = -0.0
                state.core.inject(*hists)
                oracle.bufs[:] = hists[..., None]
            elif event == "reset":
                state.reset()
                oracle.bufs[:] = 0.0
                oracle.t = 0
            x = rng.standard_normal() * 10.0 ** rng.uniform(-3, 3)
            if rng.random() < 0.2:
                x = -0.0
            xp, xa = state.step(x)
            op, oa = oracle.step(np.array([x]))
            assert type(xp) is float and type(xa) is float
            assert np.array_equal(_bits([xp, xa]), _bits([op[0], oa[0]]))


def test_separator_runs_one_coefficient_pair():
    """A bank is one (periodic, aperiodic) pair of one period and order, run
    on at least one channel; anything else is refused, and a refused swap
    keeps the bank."""
    (p, a), _ = _pair(order=2)
    (p1, a1), _ = _pair(order=1)
    (p7, a7), _ = _pair(period=7)
    state = PasfState(p, a)
    bank = state.bank
    for pair in (([p], [a]), ((p,), (a,)), ([p, p], [a, a]), (p, (a,)),
                 (p, a1), (p1, a), (p1, a7), (p7, a1)):
        with pytest.raises(InvalidArgumentError):
            SeparatorBank(*pair)
        with pytest.raises(InvalidArgumentError):
            PasfState(*pair)
        with pytest.raises(InvalidArgumentError):
            state.swap_coefficients(*pair)
        assert state.bank is bank
    for dims in (0, -1):
        with pytest.raises(InvalidArgumentError):
            PasfState(p, a, dims=dims)
        with pytest.raises(InvalidArgumentError):
            SeparatorCore(bank, dims)


def test_scalar_step_rejects_wrong_shapes_and_poisons_on_non_finite():
    (p, a), _ = _pair()
    state = PasfState(p, a)
    for bad in (np.zeros(2), [1.0, 2.0], np.zeros((1, 1, 2))):
        with pytest.raises(InvalidArgumentError):
            state.step(bad)
    for bad in (math.inf, np.float64("nan"), np.array([math.nan])):
        state.reset()
        with pytest.raises(PoisonedStateError):
            state.step(bad)
        with pytest.raises(PoisonedStateError):
            state.step(1.0)


def _hand_loop(state, xs, switches, allow_out_of_band=False):
    """What run(xs, switches) must equal: step, reconfigure and
    swap_coefficients called one by one."""
    changes = {}
    for index, change in switches:
        changes.setdefault(index, []).append(change)
    out = []
    for i in range(len(xs) + 1):
        for change in changes.get(i, ()):
            if isinstance(change, SeparationSpec):
                state.reconfigure(change, allow_out_of_band)
            else:
                state.swap_coefficients(*change)
        if i < len(xs):
            out.append(state.step(xs[i]))
    return np.array([p for p, _ in out]), np.array([a for _, a in out])


@pytest.mark.parametrize("dims", [None, 2])
def test_run_with_switches_equals_hand_loop(dims):
    """Switches at sample 0, in the middle of a period, at a period boundary,
    two at one sample and one after the last sample, by spec and by
    coefficient pair."""
    period = 7
    (p, a), spec = _pair(rho_tilde=0.5 / (period * 0.01), period=period,
                         t_samp=0.01, order=2)
    rng = np.random.default_rng(41)
    xs = rng.standard_normal((60, 2) if dims else 60)
    xs[::9] = -0.0
    wide = replace(spec, rho_tilde=spec.rho_tilde * 3.0)
    out_of_band = replace(spec, rho_tilde=spec.rho_tilde * 40.0)
    switches = [(0, wide), (10, spec), (14, design_iir(wide, 2)),
                (14, out_of_band), (35, (p, a)), (60, wide)]
    run_state = PasfState(p, a, dims=dims)
    hand_state = PasfState(p, a, dims=dims)
    got = run_state.run(xs, switches, allow_out_of_band=True)
    want = _hand_loop(hand_state, xs, switches, allow_out_of_band=True)
    assert np.array_equal(_bits(got), _bits(want))
    # the change at len(xs) is applied: both continue alike
    assert np.array_equal(_bits(run_state.step(xs[0])), _bits(hand_state.step(xs[0])))


@pytest.mark.parametrize("shape", [(), (1,)])
def test_scalar_run_over_each_input_shape_equals_per_step_oracle(shape):
    """A scalar separator's run stores its float outputs through views of
    the output arrays: over (N,) and (N, 1) inputs the outputs keep the
    input's shape and equal the per-step oracle bit for bit, with -0.0,
    the smallest subnormal and +-1e308 among the inputs, across a
    coefficient swap in the middle of a period."""
    period = 7
    # taps of at most 0.8: no output overflows, as +-1e308 are not a period apart
    pair, spec = _pair(rho_tilde=0.5 / (period * 0.01), period=period)
    xs = np.random.default_rng(29).standard_normal(6 * period)
    xs[[3, 11, 19, 30, 33]] = [-0.0, 5e-324, 1e308, -1e308, -5e-324]
    swap = (3 * period + 2, design_iir(replace(spec, rho_tilde=spec.rho_tilde * 3.0), 1))
    state = PasfState(*pair)
    oracle = _PerStepOracle(state.bank, 1)
    got_p, got_a = state.run(xs.reshape(len(xs), *shape), [swap])
    assert got_p.shape == got_a.shape == (len(xs), *shape)
    want = []
    for t, x in enumerate(xs):
        if t == swap[0]:
            oracle.bank = SeparatorBank(*swap[1])
        want.append(oracle.step(np.array([x])))
    want_p, want_a = (np.array([w[k][0] for w in want]) for k in (0, 1))
    assert np.isfinite(want_p).all() and np.isfinite(want_a).all()
    assert np.array_equal(_bits(got_p.reshape(-1)), _bits(want_p))
    assert np.array_equal(_bits(got_a.reshape(-1)), _bits(want_a))


def test_feed_forward_outputs_recover_after_overflow():
    """Outputs that overflow leave a feed-forward separator once the large
    inputs have left its order*period window: from there on its outputs
    are finite and equal, bit for bit, those of a fresh separator injected
    with the last ``capacity`` inputs. A comb1 pair's taps sum to 1 in
    magnitude, so no finite input overflows it; it takes over from an IIR1
    pair that overflowed, whose non-finite outputs stay in the rings. An
    IIR pair carries them on through its feedback."""
    period = 7
    spec = SeparationSpec(0.05, period, 1.0)
    large = 9 * period
    xs = np.ones(40 * period)
    xs[:large] = 1.7e308 * (-1.0) ** np.arange(large)
    fir, iir, comb = (design_for("fir", spec, 8), design_iir(spec, 1),
                      comb_pair(CombSpec(1, period)))
    # (first pair, switches, pair at the end)
    for first, switches, last in [(fir, [], fir), (iir, [(large, comb)], comb)]:
        state = PasfState(*first)
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.stack(state.run(xs, switches))
        cap = state.core.capacity
        done = large + cap
        assert not np.isfinite(out[:, :done]).all()
        assert np.isfinite(out[:, done:]).all()
        fresh = PasfState(*last, history=(xs[done - cap:done], np.zeros(cap), np.zeros(cap)))
        assert np.array_equal(_bits(out[:, done:]), _bits(fresh.run(xs[done:])))
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.stack(PasfState(*iir).run(xs))
    assert not np.isfinite(out[:, -1]).all()


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
@pytest.mark.parametrize("dims", [None, 3])
def test_copied_separator_steps_like_the_original(dims, how):
    """A separator copied in the middle of a period, deeply or through a
    pickle, owns its own buffers and steps bit for bit like the original
    for three more periods, across period boundaries and a swap."""
    rng = np.random.default_rng(3)
    period, order = 5, 2
    state = PasfState(*_random_pair(rng, order, period), dims=dims)
    shape = (dims,) if dims else ()
    for _ in range(2 * order * period + 2):
        state.step(rng.standard_normal(shape))
    twin = (copy.deepcopy(state) if how == "deepcopy"
            else pickle.loads(pickle.dumps(state)))
    assert not np.shares_memory(twin.core._hist, state.core._hist)
    swap = _random_pair(rng, order, period)
    for t in range(3 * period):
        if t == period:
            state.swap_coefficients(*swap)
            twin.swap_coefficients(*swap)
        x = rng.standard_normal(shape)
        assert np.array_equal(_bits(state.step(x)), _bits(twin.step(x)))


@pytest.mark.parametrize("dims", [None, 3])
@pytest.mark.parametrize("realization, order", [
    ("iir", 1), ("iir", 2), ("iir", 3), ("fir", 4),
    ("complementary-of-iir", 2), ("complementary-of-fir", 4)])
def test_injected_number_is_that_multiple_of_the_input_history(realization, order, dims):
    """An output history given as a number fills its ring with that
    multiple of the input history, byte for byte the ring of injecting
    ``tail * number`` (-0.0 entries of the tail and a -0.0 number
    included), and both separators then step alike for three periods."""
    period, T = 5, 0.01
    p, a = design_for(realization, SeparationSpec(0.3 / (period * T), period, T), order)
    rng = np.random.default_rng(order)
    shape = (dims,) if dims else ()
    tail = rng.standard_normal((order * period, *shape))
    tail.reshape(-1)[::4] = -0.0
    for gains in [(p.dc_gain, a.dc_gain), (-0.0, -1.5)]:
        by_number = PasfState(p, a, dims=dims, history=(tail, *gains))
        by_array = PasfState(p, a, dims=dims, history=(tail, *(tail * g for g in gains)))
        assert by_number.core._hist.tobytes() == by_array.core._hist.tobytes()
        for _ in range(3 * period):
            x = rng.standard_normal(shape)
            assert np.array_equal(_bits(by_number.step(x)), _bits(by_array.step(x)))


def test_run_rejects_unsorted_or_out_of_range_switches():
    (p, a), spec = _pair()
    state = PasfState(p, a)
    for switches in ([(5, spec), (2, spec)], [(-1, spec)], [(11, spec)]):
        with pytest.raises(InvalidArgumentError):
            state.run(np.zeros(10), switches)
    assert state.core.t == 0


def test_theta_table_built_once_per_period_and_after_each_swap(monkeypatch):
    builds = []
    build = SeparatorCore._build
    monkeypatch.setattr(SeparatorCore, "_build",
                        lambda core: builds.append(core.t) or build(core))
    thetas = []
    theta = SeparatorCore.theta
    monkeypatch.setattr(SeparatorCore, "theta",
                        lambda core: thetas.append(core.t) or theta(core))
    (p, a), spec = _pair(period=7)
    state = PasfState(p, a)
    for t in range(35):
        if t == 10:  # mid-period
            state.reconfigure(replace(spec, rho_tilde=2.0))
        if t == 24:  # at the start of a table period: no extra build
            state.reconfigure(spec)
        state.step(1.0)
    assert builds == [0, 7, 10, 17, 24, 31]
    assert thetas == list(range(35))  # still one per-step call per sample


def test_theta_table_build_memory_is_bounded():
    """One FIR50, dims-3, period-1000 build stays well under the 1.2 MB of a
    single unsliced (period, order, dims) product array."""
    rng = np.random.default_rng(5)
    order, period, dims = 50, 1000, 3
    core = SeparatorCore(SeparatorBank(*_random_pair(rng, order, period, "fir")),
                         dims)
    core.inject(*rng.standard_normal((3, core.capacity, dims)))
    tracemalloc.start()
    try:
        core.theta()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("dims", [None, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_poisoned_state_refuses_until_reset(dims, bad):
    (p, a), _ = _pair()
    state = PasfState(p, a, dims=dims)

    def sample(value):  # at dims 2, one bad channel poisons the state
        return value if dims is None else [0.0, value]

    state.step(sample(1.0))
    with pytest.raises(PoisonedStateError):
        state.step(sample(bad))
    with pytest.raises(PoisonedStateError):
        state.step(sample(1.0))
    state.reset()
    xp, xa = state.step(sample(0.0))
    assert np.all(np.asarray(xp) == 0.0) and np.all(np.asarray(xa) == 0.0)


def test_dimension_mismatch_rejected():
    (p, a), _ = _pair()
    state = PasfState(p, a, dims=2)
    with pytest.raises(InvalidArgumentError):
        state.step(1.0)
