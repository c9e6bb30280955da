"""Streaming separation runtime: difference equations with delays at multiples
of the period.

A separator holds ring buffers of the last N*period inputs and both outputs.
Each step computes

    xp(t) = -sum_i a_i xp(t - i*period) + sum_i b_i x(t - i*period)
    xa(t) = -sum_i c_i xa(t - i*period) + sum_i d_i x(t - i*period)

with the i = 0 input term applied directly. The vector form runs n independent
scalar channels (diagonal coefficient matrices). Instances are single-threaded;
stepping mutates the buffers.

Every delayed term reads a sample at least one period old, so the sums theta
(everything but the i = 0 term) of the steps t0 .. t0+period-1 depend only on
samples pushed before t0: the whole period is known at its first step.
``SeparatorCore`` computes it there in one vectorized pass into a
(period, n) table per output, and ``theta()`` returns one row per step. The
table is rebuilt when t leaves its period, and from the current t after
``swap_bank``, ``inject`` or ``reset``.

The table is bitwise equal to summing each step on its own because it keeps
that sum's reduction order. NumPy sums a per-step (order, 1) array as one
contiguous row, pairwise; it sums an (order, n) array with n > 1 in sequence
over the outer order axis. So a build gathers (rows, order) blocks and
reduces their contiguous last axis when n == 1, and gathers (order, n, rows)
blocks and reduces their outer order axis when n > 1. It runs in row slices
of at most ``_BUILD_PRODUCTS`` products per output, so its temporaries stay
well under a megabyte at any period (FIR50, n = 3, period 1000 would
otherwise allocate several 1.2 MB arrays per pass).
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
    (order, n), Sp/Sa shape (n,); G/H stack Gp and Ga, Hp and Ha as
    (2, order, n).
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
        # (2, order, n): the periodic and aperiodic stacks side by side
        self.G = np.stack([self.Gp, self.Ga])
        self.H = np.stack([self.Hp, self.Ha])

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


# Products per output in one row slice of a theta-table build: bounds the
# build's temporaries.
_BUILD_PRODUCTS = 8192


class SeparatorCore:
    """Ring buffers plus the per-period table of delayed-history sums shared
    by the runtime and the estimator integration."""

    def __init__(self, bank: SeparatorBank, t0: int = 0):
        self.bank = bank
        self.capacity = bank.order * bank.period
        self.t = t0
        n = bank.n
        # input, periodic and aperiodic histories, (capacity, n) each
        self._hist = np.zeros((3, self.capacity, n))
        self.in_buf, self.p_buf, self.a_buf = self._hist
        self._strides = bank.period * np.arange(1, bank.order + 1)
        self._width = max(1, _BUILD_PRODUCTS // (bank.order * n))
        self._channels = np.arange(n)[:, None]
        self._invalidate()

    def _invalidate(self) -> None:
        """Empty the table window, so the next theta() builds from its t."""
        self._start = self._end = self.t

    def inject(self, in_hist, p_hist, a_hist, roll: int = 0) -> None:
        """Fill buffers from oldest-first histories covering the capacity."""
        for buf, hist in ((self.in_buf, in_hist), (self.p_buf, p_hist),
                          (self.a_buf, a_hist)):
            h = np.asarray(hist, dtype=float).reshape(self.capacity, self.bank.n)
            buf[:] = np.roll(h, roll, axis=0)
        self._invalidate()

    def reset(self) -> None:
        """Zero all buffers and restart at t = 0."""
        self._hist[:] = 0.0
        self.t = 0
        self._invalidate()

    def theta(self) -> tuple[np.ndarray, np.ndarray]:
        """Delayed-history sums for the current step (call before push).

        The arrays are views of the table's rows: read them, do not write them.
        """
        t = self.t
        if not self._start <= t < self._end:
            self._build()
        i = t - self._start
        return self._tp[i], self._ta[i]

    def _build(self) -> None:
        """Tabulate theta for the steps t .. t+period-1 from the buffers."""
        b = self.bank
        n = b.n
        start = self.t
        flat = self._hist.reshape(3, -1)
        table = np.empty((2, b.period, n))
        for r0 in range(0, b.period, self._width):
            r1 = min(r0 + self._width, b.period)
            lags = np.arange(start + r0, start + r1) - self._strides[:, None]
            lags %= self.capacity
            if n == 1:  # (rows, order) blocks, pairwise along the order axis
                idx, G, H, axis = lags.T, b.G[:, None, :, 0], b.H[:, None, :, 0], 2
            else:       # (order, n, rows) blocks, in sequence over the order axis
                idx = lags[:, None, :] * n + self._channels
                G, H, axis = b.G[..., None], b.H[..., None], 1
            hist = flat.take(idx, axis=1)
            prod = G * hist[1:]
            prod += H * hist[0]
            sums = np.add.reduce(prod, axis=axis)
            table[:, r0:r1] = sums.reshape(2, n, -1).transpose(0, 2, 1)
        self._tp, self._ta = table
        self._start, self._end = start, start + b.period

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
        self._invalidate()


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
        self.core.reset()
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
