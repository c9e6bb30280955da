"""Signal descriptors and seeded noise streams."""

import math

import numpy as np
import pytest

from pasf import signals as sig
from pasf.errors import InvalidArgumentError
from pasf.scenario_io import built_in
from pasf.signals import GaussianStream, NoiseSpec, eval_signal, eval_signal_array


T = 0.001


def test_sec51_pulse_window():
    u = built_in("sec51", 0).input_u
    # descriptor is scaled by 2500; probe the pulse leg via differences
    inside = eval_signal(u, int(25.1 / T), T)
    outside = eval_signal(u, int(26.0 / T), T)
    base_inside = eval_signal(u, int(24.9 / T), T)
    # u1 is periodic with 1 s period, so subtracting the same phase one
    # period earlier isolates the pulse contribution
    assert inside - eval_signal(u, int(24.1 / T), T) == pytest.approx(2500.0)
    assert outside - eval_signal(u, int(27.0 / T), T) == pytest.approx(0.0, abs=1e-7)
    assert base_inside == pytest.approx(eval_signal(u, int(23.9 / T), T), abs=1e-7)


def test_sec53_gated_sine():
    scn = built_in("sec53", 0)
    xp = scn.truth_p
    t_on = 500 * 7 + 100
    assert eval_signal(xp, t_on, T) == pytest.approx(
        math.sin(4.0 * math.pi * T * t_on))
    t_off = 500 * 7 + 300
    assert eval_signal(xp, t_off, T) == 0.0


def test_odd_harmonic_sum_vanishes_at_zero():
    terms = tuple((1.0 / (2 * i - 1), float(2 * i - 1)) for i in range(1, 11))
    desc = sig.HarmonicSum(1.0, terms)
    assert eval_signal(desc, 0, T) == 0.0


def test_pulse_boundary_semantics():
    closed = sig.Pulse(1.0, 2.0, 5.0)
    assert eval_signal(closed, 1000, T) == 5.0
    assert eval_signal(closed, 2000, T) == 5.0
    open_start = sig.Pulse(1.0, 2.0, 5.0, include_start=False)
    assert eval_signal(open_start, 1000, T) == 0.0
    assert eval_signal(open_start, 1001, T) == 5.0


def test_schedule_rejects_overlap():
    with pytest.raises(InvalidArgumentError):
        sig.Schedule(((0.0, 2.0, sig.Constant(1.0)),
                      (1.0, 3.0, sig.Constant(2.0))))


def test_schedule_evaluates_piecewise():
    desc = sig.Schedule(((0.0, 1.0, sig.Constant(1.0)),
                         (1.0, None, sig.Constant(2.0))))
    assert eval_signal(desc, 500, T) == 1.0
    assert eval_signal(desc, 1000, T) == 2.0
    assert eval_signal(desc, 50_000, T) == 2.0


def test_derivative_of_harmonics():
    terms = ((2.0, 3.0),)
    desc = sig.HarmonicSum(0.5, terms)  # 2 sin(3 * 2pi * 0.5 * t)
    ddesc = sig.derivative(desc)
    ts = np.arange(0, 2000, 37)
    h = 1e-6
    for t in ts:
        tt = t * T
        analytic = eval_signal_array(ddesc, np.array([t]), T)[0]
        w = 3.0 * 2.0 * math.pi * 0.5
        expected = 2.0 * w * math.cos(w * tt)
        assert analytic == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("desc", [
    sig.Pulse(1.0, 2.0, 5.0),
    sig.Scaled(-2.5, sig.Sinusoid(1.5, 3.0, 0.2)),
    sig.Scaled(4.0, sig.Pulse(0.5, 1.5, 2.0, include_start=False)),
])
def test_derivative_matches_central_difference(desc):
    """Away from a pulse's edges (whose impulses the derivative drops), the
    analytic derivative equals a central difference of the signal."""
    ddesc = sig.derivative(desc)
    t = np.arange(0, 3000, 37).astype(float)
    t = t[np.min(np.abs(t[:, None] - [500.0, 1000.0, 1500.0, 2000.0]), axis=1) > 1]
    h = 1e-3  # samples
    diff = (eval_signal_array(desc, t + h, T)
            - eval_signal_array(desc, t - h, T)) / (2.0 * h * T)
    assert np.allclose(eval_signal_array(ddesc, t, T), diff, rtol=1e-6, atol=1e-6)


def test_noise_zero_variance_is_constant():
    stream = GaussianStream(NoiseSpec(mean=1.5, variance=0.0, seed=3))
    assert np.all(stream.draw(100) == 1.5)


def test_noise_determinism():
    a = GaussianStream(NoiseSpec(0.0, 1.0, seed=99)).draw(1000)
    b = GaussianStream(NoiseSpec(0.0, 1.0, seed=99)).draw(1000)
    assert np.array_equal(a, b)
    c = GaussianStream(NoiseSpec(0.0, 1.0, seed=100)).draw(1000)
    assert not np.array_equal(a, c)


def test_noise_sample_variance_law_of_large_numbers():
    xs = GaussianStream(NoiseSpec(0.0, 0.25, seed=5)).draw(1_000_000)
    assert abs(xs.var() - 0.25) < 0.005
    assert abs(xs.mean()) < 0.002


def test_noise_segment_pure_function_of_index():
    seg = sig.NoiseSegment(NoiseSpec(0.0, 1.0, seed=11), 0.5, 1.5)
    t = np.arange(2000)
    full = eval_signal_array(seg, t, T)
    # re-evaluating any subset reproduces the same values
    again = eval_signal_array(seg, t[700:900], T)
    assert np.array_equal(full[700:900], again)
    assert np.all(full[: 500] == 0.0)
    assert np.any(full[600:1400] != 0.0)
    assert np.all(full[1501:] == 0.0)


def test_noise_segment_rejects_start_before_time_zero():
    with pytest.raises(InvalidArgumentError):
        sig.NoiseSegment(NoiseSpec(0.0, 1.0, seed=11), -1.0, 5.0)


def test_negative_variance_rejected():
    with pytest.raises(InvalidArgumentError):
        NoiseSpec(0.0, -1.0, seed=0)
