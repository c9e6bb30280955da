"""Streaming separation runtime: difference equations with delays at multiples
of the period.

A separator holds ring buffers of the last N*period inputs and both outputs.
Each step computes

    xp(t) = -sum_i a_i xp(t - i*period) + sum_i b_i x(t - i*period)
    xa(t) = -sum_i c_i xa(t - i*period) + sum_i d_i x(t - i*period)

with the i = 0 input term applied directly. The vector form runs n independent
scalar channels (diagonal coefficient matrices). Instances are single-threaded;
stepping mutates the buffers.
"""

from __future__ import annotations

import numpy as np

from . import design as _design
from .design import FilterCoefficients, SeparationSpec
from .errors import (
    InvalidArgumentError,
    PoisonedStateError,
    UnsupportedReconfigurationError,
)


class SeparatorBank:
    """Diagonal coefficient stacks for an n-channel separator.

    Built from one shared (periodic, aperiodic) pair replicated across
    channels, or from per-channel pairs. Arrays: Gp/Hp/Ga/Ha have shape
    (order, n), Sp/Sa shape (n,).
    """

    def __init__(self, p_coeffs, a_coeffs, dims: int | None = None):
        p_list, a_list = _normalize_pairs(p_coeffs, a_coeffs, dims)
        self.n = len(p_list)
        self.order = p_list[0].order
        self.period = p_list[0].period
        self.sampling_time = p_list[0].sampling_time
        self.p_coeffs = p_list
        self.a_coeffs = a_list

        self.Gp = np.stack([-c.feedback for c in p_list], axis=1)
        self.Hp = np.stack([c.feedforward[1:] for c in p_list], axis=1)
        self.Sp = np.array([c.feedforward[0] for c in p_list])
        self.Ga = np.stack([-c.feedback for c in a_list], axis=1)
        self.Ha = np.stack([c.feedforward[1:] for c in a_list], axis=1)
        self.Sa = np.array([c.feedforward[0] for c in a_list])

    def dc_gains(self) -> tuple[np.ndarray, np.ndarray]:
        gp = np.array([c.dc_gain for c in self.p_coeffs])
        ga = np.array([c.dc_gain for c in self.a_coeffs])
        return gp, ga


def _normalize_pairs(p_coeffs, a_coeffs, dims):
    if isinstance(p_coeffs, FilterCoefficients):
        n = dims if dims is not None else 1
        p_list = [p_coeffs] * n
        a_list = [a_coeffs] * n
    else:
        p_list = list(p_coeffs)
        a_list = list(a_coeffs)
        if dims is not None and dims != len(p_list):
            raise InvalidArgumentError(
                f"dims={dims} does not match {len(p_list)} coefficient pairs"
            )
    if len(p_list) != len(a_list) or not p_list:
        raise InvalidArgumentError("need matching periodic/aperiodic pairs")
    ref = p_list[0]
    for c in (*p_list, *a_list):
        if c.period != ref.period or c.order != ref.order:
            raise InvalidArgumentError(
                "all channel filters must share one period and order"
            )
    return p_list, a_list


class SeparatorCore:
    """Ring buffers plus the delayed-term sums shared by the runtime and the
    estimator integration."""

    def __init__(self, bank: SeparatorBank, t0: int = 0):
        self.bank = bank
        self.capacity = bank.order * bank.period
        self.t = t0
        n = bank.n
        self.in_buf = np.zeros((self.capacity, n))
        self.p_buf = np.zeros((self.capacity, n))
        self.a_buf = np.zeros((self.capacity, n))
        self._strides = bank.period * np.arange(1, bank.order + 1)

    def inject(self, in_hist, p_hist, a_hist, roll: int = 0) -> None:
        """Fill buffers from oldest-first histories covering the capacity."""
        for buf, hist in ((self.in_buf, in_hist), (self.p_buf, p_hist),
                          (self.a_buf, a_hist)):
            h = np.asarray(hist, dtype=float).reshape(self.capacity, self.bank.n)
            buf[:] = np.roll(h, roll, axis=0)

    def theta(self) -> tuple[np.ndarray, np.ndarray]:
        """Delayed-history sums for the current step (call before push)."""
        b = self.bank
        lags = self.t - self._strides
        lags %= self.capacity
        hin = self.in_buf.take(lags, axis=0)
        # np.sum's own reduction, without its Python-level dispatch
        tp = np.add.reduce(b.Gp * self.p_buf.take(lags, axis=0) + b.Hp * hin, axis=0)
        ta = np.add.reduce(b.Ga * self.a_buf.take(lags, axis=0) + b.Ha * hin, axis=0)
        return tp, ta

    def push(self, x, xp, xa) -> None:
        slot = self.t % self.capacity
        self.in_buf[slot] = x
        self.p_buf[slot] = xp
        self.a_buf[slot] = xa
        self.t += 1

    def swap_bank(self, bank: SeparatorBank) -> None:
        old = self.bank
        if bank.period != old.period or bank.order != old.order or bank.n != old.n:
            raise UnsupportedReconfigurationError(
                "reconfiguration cannot change period, order, or channel count"
            )
        self.bank = bank


class PasfState:
    """Runtime separator over a scalar or n-vector stream.

    ``history`` optionally injects warm-start buffers (oldest-first arrays of
    the last N*period inputs, periodic outputs, aperiodic outputs); the
    default zero history matches a cold start.
    """

    def __init__(self, p_coeffs, a_coeffs, dims: int | None = None, history=None):
        bank = SeparatorBank(p_coeffs, a_coeffs, dims)
        self._scalar = bank.n == 1 and not isinstance(p_coeffs, (list, tuple))
        self.core = SeparatorCore(bank, t0=0)
        if history is not None:
            self.core.inject(*history)
        self._poisoned = False

    @property
    def bank(self) -> SeparatorBank:
        return self.core.bank

    @property
    def period(self) -> int:
        return self.bank.period

    @property
    def order(self) -> int:
        return self.bank.order

    def step(self, x):
        """Advance one sample; returns (periodic, aperiodic) outputs."""
        if self._poisoned:
            raise PoisonedStateError("separator is poisoned; call reset() first")
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        if xv.shape != (self.bank.n,):
            raise InvalidArgumentError(
                f"expected input of shape ({self.bank.n},), got {xv.shape}"
            )
        if not np.isfinite(xv).all():
            self._poisoned = True
            raise PoisonedStateError("non-finite input sample")
        tp, ta = self.core.theta()
        xp = tp + self.bank.Sp * xv
        xa = ta + self.bank.Sa * xv
        self.core.push(xv, xp, xa)
        if self._scalar:
            return float(xp[0]), float(xa[0])
        return xp, xa

    def run(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Filter a whole sequence; returns stacked (periodic, aperiodic)."""
        xs = np.asarray(xs, dtype=float)
        out_p = np.empty_like(xs)
        out_a = np.empty_like(xs)
        for i in range(len(xs)):
            p, a = self.step(xs[i])
            out_p[i] = p
            out_a[i] = a
        return out_p, out_a

    def reconfigure(self, new_spec: SeparationSpec, allow_out_of_band: bool = False):
        """Redesign coefficients for a new separation frequency; buffers are
        preserved so the output stays continuous across the switch."""
        if new_spec.period != self.period:
            raise UnsupportedReconfigurationError(
                f"period change {self.period} -> {new_spec.period} requires a "
                "fresh filter"
            )
        realization = self.bank.p_coeffs[0].realization
        base = realization.removeprefix("complementary-of-")
        if base == "iir":
            p, a = _design.design_iir(new_spec, self.order, allow_out_of_band)
        elif base == "fir":
            p, a = _design.design_fir_equiripple(new_spec, self.order)
        else:
            raise UnsupportedReconfigurationError(
                f"cannot redesign realization {realization!r} from a "
                "separation spec; use swap_coefficients"
            )
        if realization.startswith("complementary-of-"):
            a = _design.make_complementary(p)
        self.swap_coefficients(p, a)

    def swap_coefficients(self, p_coeffs, a_coeffs) -> None:
        """Install explicit new coefficients (same period/order), keeping buffers."""
        dims = None if self._scalar else self.bank.n
        self.core.swap_bank(SeparatorBank(p_coeffs, a_coeffs, dims))

    def reset(self) -> None:
        """Zero all buffers and clear the poisoned flag."""
        self.core.in_buf[:] = 0.0
        self.core.p_buf[:] = 0.0
        self.core.a_buf[:] = 0.0
        self.core.t = 0
        self._poisoned = False


def pasf_step(state: PasfState, x):
    return state.step(x)


def pasf_reconfigure(state: PasfState, new_spec: SeparationSpec,
                     allow_out_of_band: bool = False) -> PasfState:
    state.reconfigure(new_spec, allow_out_of_band)
    return state


def periodic_warm_history(bank: SeparatorBank, periodic_tail: np.ndarray):
    """Warm-start buffers for an input that has been at a periodic steady
    state: each output channel sits at its DC-gain multiple of the input.

    ``periodic_tail`` holds the last N*period input samples, oldest first.
    """
    tail = np.asarray(periodic_tail, dtype=float).reshape(-1, bank.n)
    gp, ga = bank.dc_gains()
    return tail, tail * gp, tail * ga
