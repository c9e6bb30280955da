"""Deterministic and seeded-stochastic signal generators.

Descriptors are declarative values evaluated as pure functions of the sample
index (and, for noise segments, of the embedded seed). All kinds support
vectorized evaluation over an index array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError
from .values import value


@value
class NoiseSpec:
    """Gaussian noise parameters; ``variance`` (not std) parameterizes width."""

    mean: float
    variance: float
    seed: int

    def __post_init__(self):
        if self.variance < 0:
            raise InvalidArgumentError("variance must be >= 0")


class GaussianStream:
    """Reproducible Gaussian sample stream.

    Draws come from the PCG64 generator seeded by the spec, transformed by the
    ziggurat standard-normal sampler, scaled by sqrt(variance) and shifted by
    the mean; the sequence is a pure function of the seed.
    """

    def __init__(self, spec: NoiseSpec):
        self.spec = spec
        self._rng = np.random.Generator(np.random.PCG64(spec.seed))

    def draw(self, count: int) -> np.ndarray:
        z = self._rng.standard_normal(count)
        return self.spec.mean + math.sqrt(self.spec.variance) * z


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


@value
class Constant:
    level: float


@value
class Sinusoid:
    """amplitude * sin(omega * T * t + phase)."""

    amplitude: float
    omega: float  # rad/s
    phase: float = 0.0


@value
class HarmonicSum:
    """Sum of amplitude_i * sin(harmonic_i * 2*pi*base_freq * T * t).

    ``terms`` is a tuple of (amplitude, harmonic) pairs; base_freq is in Hz.
    """

    base_freq: float
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((float(a), float(h)) for a, h in self.terms))


@value
class Pulse:
    """``level`` over [start_s, end_s] in seconds; boundary inclusion is configurable."""

    start_s: float
    end_s: float
    level: float
    include_start: bool = True
    include_end: bool = True


@value
class GatedSine:
    """sin(omega * T * t) while (t mod gate_period) < duty, else zero."""

    omega: float  # rad/s
    gate_period: int  # samples
    duty: int  # samples

    def __post_init__(self):
        if not (0 < self.duty <= self.gate_period):
            raise InvalidArgumentError("need 0 < duty <= gate_period")


@value
class NoiseSegment:
    """Seeded Gaussian noise inside (start_s, end_s], zero outside.

    The t-th sample is the t-th draw of the seeded stream, so evaluation is a
    pure function of (t, seed) regardless of call order: a stream's first k
    draws do not depend on how many are drawn. Sample indices start at 0, so
    the segment cannot start before time 0.
    """

    noise: NoiseSpec
    start_s: float
    end_s: float

    def __post_init__(self):
        if self.start_s < 0:
            raise InvalidArgumentError(
                f"noise segment start must be >= 0, got {self.start_s}")


@value
class Schedule:
    """Piecewise composition: tuple of (start_s, end_s or None, descriptor).

    Segments are half-open [start, end); a ``None`` end extends to infinity.
    Zero outside all segments. Segments must not overlap.
    """

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        spans = sorted((s, math.inf if e is None else e) for s, e, _ in segs)
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            if s2 < e1:
                raise InvalidArgumentError("schedule segments overlap")


@value
class Sum:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@value
class Scaled:
    factor: float
    inner: object


def eval_signal_array(desc, t, sampling_time: float) -> np.ndarray:
    """Vectorized evaluation at integer sample indices ``t``."""
    t = np.asarray(t)
    tt = t * sampling_time
    if isinstance(desc, Constant):
        return np.full(t.shape, float(desc.level))
    if isinstance(desc, Sinusoid):
        return desc.amplitude * np.sin(desc.omega * tt + desc.phase)
    if isinstance(desc, HarmonicSum):
        out = np.zeros(t.shape)
        w0 = 2.0 * math.pi * desc.base_freq
        for amp, harm in desc.terms:
            out += amp * np.sin(harm * w0 * tt)
        return out
    if isinstance(desc, Pulse):
        lo = tt >= desc.start_s if desc.include_start else tt > desc.start_s
        hi = tt <= desc.end_s if desc.include_end else tt < desc.end_s
        return np.where(lo & hi, float(desc.level), 0.0)
    if isinstance(desc, GatedSine):
        gate = np.mod(t, desc.gate_period) < desc.duty
        return np.where(gate, np.sin(desc.omega * tt), 0.0)
    if isinstance(desc, NoiseSegment):
        mask = (tt > desc.start_s) & (tt <= desc.end_s)
        out = np.zeros(t.shape)
        on = t[mask].astype(int)
        if on.size:
            out[mask] = GaussianStream(desc.noise).draw(int(on.max()) + 1)[on]
        return out
    if isinstance(desc, Schedule):
        out = np.zeros(t.shape)
        for start, end, inner in desc.segments:
            mask = tt >= start if end is None else (tt >= start) & (tt < end)
            if np.any(mask):
                out = np.where(mask, eval_signal_array(inner, t, sampling_time), out)
        return out
    if isinstance(desc, Sum):
        out = np.zeros(t.shape)
        for part in desc.parts:
            out = out + eval_signal_array(part, t, sampling_time)
        return out
    if isinstance(desc, Scaled):
        return desc.factor * eval_signal_array(desc.inner, t, sampling_time)
    raise InvalidArgumentError(f"unknown descriptor type {type(desc).__name__}")


def eval_signal(desc, t: int, sampling_time: float) -> float:
    """Scalar evaluation at one sample index."""
    return float(eval_signal_array(desc, np.asarray([t]), sampling_time)[0])


def derivative(desc):
    """Analytic time derivative for the descriptor kinds used as commands.

    Pulses and constants differentiate to zero (the distributional edges are
    deliberately dropped; derivative commands feed rate feedforward only).
    """
    if isinstance(desc, (Constant, Pulse)):
        return Constant(0.0)
    if isinstance(desc, Sinusoid):
        return Sinusoid(desc.amplitude * desc.omega, desc.omega, desc.phase + math.pi / 2.0)
    if isinstance(desc, HarmonicSum):
        w0 = 2.0 * math.pi * desc.base_freq
        parts = tuple(
            Sinusoid(amp * harm * w0, harm * w0, math.pi / 2.0)
            for amp, harm in desc.terms
        )
        return Sum(parts)
    if isinstance(desc, Schedule):
        return Schedule(tuple((s, e, derivative(d)) for s, e, d in desc.segments))
    if isinstance(desc, Sum):
        return Sum(tuple(derivative(p) for p in desc.parts))
    if isinstance(desc, Scaled):
        return Scaled(desc.factor, derivative(desc.inner))
    raise InvalidArgumentError(
        f"no analytic derivative for descriptor {type(desc).__name__}"
    )
