"""Streaming separation runtime: difference equations with delays at multiples
of the period.

A separator holds ring buffers of the last N*period inputs and both outputs.
Each step computes

    xp(t) = -sum_i a_i xp(t - i*period) + sum_i b_i x(t - i*period)
    xa(t) = -sum_i c_i xa(t - i*period) + sum_i d_i x(t - i*period)

with the i = 0 input term applied directly. As in the paper, an n-channel
separator runs one coefficient pair on each of n independent channels.
Instances are single-threaded; stepping mutates the buffers.

Every delayed term reads a sample at least one period old, so the sums theta
(everything but the i = 0 term) of the steps t0 .. t0+period-1 depend only on
samples pushed before t0: the whole period is known at its first step.
``SeparatorCore`` computes it there in one vectorized pass and keeps the
period's rows, and ``theta()`` returns one (periodic, aperiodic) row pair per
step: Python floats when n == 1, views of the pass's n-vector sums when
n > 1. The rows are rebuilt when t leaves their period, and from the current
t after ``swap_bank``, ``inject`` or ``reset``.

The rows are bitwise equal to summing each step on its own because a build
keeps that sum's reduction order. NumPy sums a per-step (order, 1) array as
one contiguous row, pairwise; it sums an (order, n) array with n > 1 in
sequence over the outer order axis. So a build gathers (rows, order) blocks
and reduces their contiguous last axis when n == 1, and gathers
(order, rows, n) blocks and reduces their outer order axis when n > 1. The
gather indices come from a lag grid computed once per core (one slice's
lags relative to its first row, all in [-span, 0) for a ring of span
values). The slice's first t is reduced into the ring before it is added,
so one ``take`` with ``mode="wrap"`` wraps each index at most once. The
taps' views shaped to broadcast over the blocks are formed once per bank,
when the core is made and at ``swap_bank``. Each slice's rows are taken
straight from its sums, with no period-long table. A build runs in row
slices of at most ``_BUILD_PRODUCTS`` products per output, so its
temporaries stay well under a megabyte at any period (FIR50, n = 3, period
1000 would otherwise allocate several 1.2 MB arrays per pass).

A bank whose feedback taps are all zero (an FIR pair or its complement,
the comb1 baseline, any loaded pair without feedback) is feed-forward. Its
builds gather the input ring alone, with the same grid and offset, and
reduce ``H * x`` along the same axis, in about half the time. For every
finite history that is bitwise equal to the per-step sum, whose ``0 * xp``
terms are zeros: adding a zero of either sign leaves a nonzero value
unchanged, so a nonzero sum does not depend on them, and a sum of zeros is
+0.0 either way because NumPy starts each float64 add reduction of these
layouts from +0.0 (the tests check this condition for each layout). A
non-finite output history differs on purpose: ``0 * inf`` is NaN, so the
full sum would keep an FIR separator NaN for good after one overflowing
output, while the FIR difference equation is finite again once the large
inputs have left the order*period window. Every step still stores x, xp
and xa, which a later swap to a feedback bank reads.

A one-channel separator steps in Python floats: the input is coerced once,
the build converts each slice's theta pairs to floats with one ``tolist()``,
``xp = tp + sp * x`` and ``xa = ta + sa * x`` are computed on floats, and
``PasfState.step`` stores them through memoryviews of the rings'
first-channel columns (a float store into a memoryview costs about half
one into a NumPy array) and advances the core's t itself; ``run`` stores
the returned floats through memoryviews of its outputs. That is bitwise
equal to the NumPy form, because ``tolist()`` keeps every binary64 value
(the sign of zero included) and CPython and NumPy both round each ``*``
and ``+`` on its own, neither fusing them into one multiply-add. n > 1 takes the NumPy form on n-vectors:
``SeparatorCore.split(x)`` is the n-channel step, shared by ``PasfState``
and the KF-PASF estimator (whose core has n = 1 for a one-state model and
then splits (1,) arrays).

``PasfState.run(xs, switches)`` is the one loop over a stream: it applies
each scheduled reconfiguration or coefficient swap before its sample and
calls ``step`` once per sample. Every separation pass of the scenario
runners and the CLI ``separate`` command goes through it.
"""

from __future__ import annotations

import math

import numpy as np

from .design import FilterCoefficients, SeparationSpec, design_for
from .errors import (
    InvalidArgumentError,
    PoisonedStateError,
    UnsupportedReconfigurationError,
)


class SeparatorBank:
    """One (periodic, aperiodic) filter pair, stacked: G holds the negated
    feedback taps and H the delayed feed-forward taps, periodic first, as
    (2, order) arrays; sp and sa are the direct terms as Python floats. The
    realization is the aperiodic filter's, which marks a complement. The
    channel count belongs to the ``SeparatorCore`` running the bank."""

    def __init__(self, p_coeffs, a_coeffs):
        p, a = p_coeffs, a_coeffs
        if not all(isinstance(c, FilterCoefficients) for c in (p, a)):
            raise InvalidArgumentError(
                "a separator takes one FilterCoefficients pair, got "
                f"{type(p).__name__}, {type(a).__name__}")
        if (p.period, p.order) != (a.period, a.order):
            raise InvalidArgumentError(
                "periodic and aperiodic filters must share one period and order")
        self.order, self.period, self.realization = p.order, p.period, a.realization
        self.G = np.stack([-p.feedback, -a.feedback])
        self.H = np.stack([p.feedforward[1:], a.feedforward[1:]])
        self.sp, self.sa = p.feedforward[0].item(), a.feedforward[0].item()


# Products per output in one row slice of a theta build: bounds the
# build's temporaries.
_BUILD_PRODUCTS = 8192


class SeparatorCore:
    """Ring buffers of ``n`` channels plus the per-period rows of
    delayed-history sums shared by the runtime and the estimator
    integration."""

    def __init__(self, bank: SeparatorBank, n: int):
        if n < 1:
            raise InvalidArgumentError(f"channel count must be >= 1, got {n}")
        self.n = n
        self.capacity = bank.order * bank.period
        self.t = 0
        # input, periodic and aperiodic histories, (capacity, n) each
        self._hist = np.zeros((3, self.capacity, n))
        self._views()
        self._strides = bank.period * np.arange(1, bank.order + 1)
        self._width = min(bank.period, max(1, _BUILD_PRODUCTS // (bank.order * n)))
        # a slice's lags before its first row's t is added, as indices into
        # _flat: (rows, order) for one channel, (order, rows, n) for several
        lags = np.arange(self._width) - self._strides[:, None]
        self._grid = lags.T.copy() if n == 1 else lags[..., None] * n + np.arange(n)
        self._taps, self._axis = ((2, 1, -1), 2) if n == 1 else ((2, -1, 1, 1), 1)
        self._use(bank)

    def _views(self) -> None:
        """Make the views of ``_hist``: its three rings, the flat rows a
        build gathers from, and the rings' first-channel columns as the
        memoryviews that ``PasfState.step`` stores its floats through."""
        self.in_buf, self.p_buf, self.a_buf = self._hist
        self._columns = tuple(map(memoryview, self._hist[:, :, 0]))
        self._flat = self._hist.reshape(3, -1)

    def __getstate__(self):
        # a memoryview cannot be pickled, and a copied view would no longer
        # share _hist's memory: the copy makes its views anew
        state = self.__dict__.copy()
        for name in ("in_buf", "p_buf", "a_buf", "_columns", "_flat"):
            del state[name]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._views()

    def _use(self, bank: SeparatorBank) -> None:
        """Run on ``bank``, with its taps as views that broadcast over a
        build's blocks: (2, 1, order) against (rows, order) blocks for one
        channel, (2, order, 1, 1) against (order, rows, n) for several; and
        its direct terms as n-vectors ``_sp`` and ``_sa``, which multiply
        an n-vector by NumPy's faster array-operand loop, with the same bits
        as the float."""
        self.bank = bank
        # a bank with no nonzero feedback tap is feed-forward: its builds
        # read the input ring alone (None marks it)
        self._G = bank.G.reshape(self._taps) if bank.G.any() else None
        self._H = bank.H.reshape(self._taps)
        self._sp, self._sa = np.full(self.n, bank.sp), np.full(self.n, bank.sa)
        self._invalidate()

    def _invalidate(self) -> None:
        """Empty the rows' window, so the next theta() builds from its t."""
        self._start = self._end = self.t

    def inject(self, in_hist, p_hist, a_hist) -> None:
        """Fill the buffers from oldest-first histories of the last
        ``capacity`` samples before t = 0 (n-vectors, or scalars when n = 1);
        any other depth or width is an ``InvalidArgumentError``, as is a
        history holding a NaN or an infinity. An output history may instead
        be a finite number: that multiple of the input history, which is
        multiplied straight into the output's ring, so a warm start holds
        no history-sized copy of its own (bitwise the ring of
        ``in_hist * number``).

        The input history may also be a function that writes it, oldest
        first, into the (capacity, n) input ring it is given, so a warm
        start that computes its history (a plant's pre-run) holds no copy
        of it beside the rings. The ring is checked after the write: a
        non-finite ring is the same ``InvalidArgumentError``, and then, as
        when the function raises, all rings are left zero."""
        shape = (self.capacity, self.n)
        writes = callable(in_hist)  # then only the output histories are arrays
        hists = [np.asarray(h, dtype=float) for h in (in_hist, p_hist, a_hist)[writes:]]
        for name, h in zip(("input", "periodic", "aperiodic")[writes:], hists):
            multiple = h.ndim == 0 and name != "input"
            if not multiple and (h.ndim == 0 or len(h) != shape[0]
                                 or h.size != math.prod(shape)):
                raise InvalidArgumentError(
                    f"{name} history must hold {shape[0]} samples of "
                    f"{shape[1]} channels, got shape {h.shape}")
            if not np.isfinite(h).all():
                raise InvalidArgumentError(f"{name} history must be finite")
        if writes:
            try:
                in_hist(self.in_buf)
                if not np.isfinite(self.in_buf).all():
                    raise InvalidArgumentError("input history must be finite")
            except BaseException:
                self._hist[:] = 0.0
                self._invalidate()
                raise
        else:
            self.in_buf[:] = hists.pop(0).reshape(shape)
        for buf, h in zip((self.p_buf, self.a_buf), hists):
            if h.ndim:
                buf[:] = h.reshape(shape)
            else:
                np.multiply(self.in_buf, h, out=buf)
        self._invalidate()

    def reset(self) -> None:
        """Zero all buffers and restart at t = 0."""
        self._hist[:] = 0.0
        self.t = 0
        self._invalidate()

    def theta(self):
        """Delayed-history sums (periodic, aperiodic) for the current step
        (read before the step stores its outputs): two floats when n == 1,
        else two n-vectors that are views of the build's sums: read them, do
        not write them."""
        t = self.t
        if not self._start <= t < self._end:
            self._build()
        return self._rows[t - self._start]

    def _build(self) -> None:
        """Compute the theta rows of the steps t .. t+period-1 from the
        buffers, one slice of at most ``_width`` rows at a time."""
        n, period, width = self.n, self.bank.period, self._width
        start = self.t
        span = self.capacity * n
        G, H, grid = self._G, self._H, self._grid
        rings = self._flat[:1] if G is None else self._flat
        rows = []
        for r0 in range(0, period, width):
            if period - r0 < width:  # the last slice, partial
                grid = grid[..., :period - r0, :]
            # the offset is reduced first: each index wraps at most once
            hist = rings.take(grid + (start + r0) * n % span, axis=1, mode="wrap")
            if G is None:
                prod = H * hist[0]
            else:
                prod = G * hist[1:]
                prod += H * hist[0]
            sums = np.add.reduce(prod, axis=self._axis)
            # floats when n == 1, else views of the n-vector rows
            rows += zip(*(sums.tolist() if n == 1 else sums))
        self._rows = rows
        self._start, self._end = start, start + period

    def split(self, x: np.ndarray):
        """One step of an n-vector ``x``: returns (xp, xa) = theta + x * s
        for each output and stores x, xp and xa in the rings."""
        tp, ta = self.theta()
        xp = tp + x * self._sp
        xa = ta + x * self._sa
        slot = self.t % self.capacity
        self.in_buf[slot] = x
        self.p_buf[slot] = xp
        self.a_buf[slot] = xa
        self.t += 1
        return xp, xa

    def swap_bank(self, bank: SeparatorBank) -> None:
        old = self.bank
        if bank.period != old.period or bank.order != old.order:
            raise UnsupportedReconfigurationError(
                "reconfiguration cannot change period or order")
        self._use(bank)

    def redesign(self, spec: SeparationSpec, allow_out_of_band: bool = False) -> None:
        """Swap in the pair ``design_for`` gives the bank's realization and
        order at ``spec``, keeping the buffers. A period change is rejected
        before anything is designed."""
        bank = self.bank
        if spec.period != bank.period:
            raise UnsupportedReconfigurationError(
                f"period change {bank.period} -> {spec.period} requires a fresh filter")
        self.swap_bank(SeparatorBank(*design_for(
            bank.realization, spec, bank.order, allow_out_of_band)))


class PasfState:
    """Runtime separator over a scalar stream, or over n-vectors with
    ``dims`` = n; one channel steps in Python floats and returns floats.

    ``history`` optionally injects warm-start buffers (oldest-first arrays of
    the last N*period inputs, periodic outputs, aperiodic outputs; the
    inputs may be a function that writes them into the input ring, and an
    output may be a number, that multiple of the inputs, as
    ``SeparatorCore.inject`` takes them); the default zero history matches
    a cold start.
    """

    def __init__(self, p_coeffs, a_coeffs, dims: int | None = None, history=None):
        self.core = SeparatorCore(SeparatorBank(p_coeffs, a_coeffs),
                                  1 if dims is None else dims)
        self._scalar = self.core.n == 1
        if history is not None:
            self.core.inject(*history)
        self._poisoned = False

    @property
    def bank(self) -> SeparatorBank:
        return self.core.bank

    def step(self, x):
        """Advance one sample; returns (periodic, aperiodic) outputs."""
        if self._poisoned:
            raise PoisonedStateError("separator is poisoned; call reset() first")
        core = self.core
        if self._scalar:
            if type(x) is not float:
                x = self._scalar_input(x)
            if not math.isfinite(x):
                raise self._poison()
            bank = core.bank
            tp, ta = core.theta()
            xp = tp + bank.sp * x
            xa = ta + bank.sa * x
            slot = core.t % core.capacity
            c_in, c_p, c_a = core._columns
            c_in[slot] = x
            c_p[slot] = xp
            c_a[slot] = xa
            core.t += 1
            return xp, xa
        xv = self._input(x)
        if not np.isfinite(xv).all():
            raise self._poison()
        return core.split(xv)

    def _input(self, x) -> np.ndarray:
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        if xv.shape != (self.core.n,):
            raise InvalidArgumentError(
                f"expected input of shape ({self.core.n},), got {xv.shape}"
            )
        return xv

    def _scalar_input(self, x) -> float:
        if isinstance(x, float):  # np.float64
            return float(x)
        return float(self._input(x)[0])

    def _poison(self) -> PoisonedStateError:
        self._poisoned = True
        return PoisonedStateError("non-finite input sample")

    def run(self, xs, switches=(), allow_out_of_band: bool = False):
        """Filter a whole sequence; returns stacked (periodic, aperiodic).

        ``switches`` lists ``(index, change)`` pairs sorted by index; the
        change is applied before sample ``index`` (after the last sample
        when ``index == len(xs)``). A ``SeparationSpec`` goes through
        ``reconfigure`` with ``allow_out_of_band``, a ``(periodic,
        aperiodic)`` coefficient pair through ``swap_coefficients``. Every
        sample is one ``step`` call, so the outputs are those of stepping
        and switching by hand.
        """
        xs = np.asarray(xs, dtype=float)
        at = [index for index, _ in switches]
        if at != sorted(at) or (at and not 0 <= at[0] <= at[-1] <= len(xs)):
            raise InvalidArgumentError(
                f"switch indices must be sorted within 0..{len(xs)}, got {at}")
        out_p = np.empty_like(xs)
        out_a = np.empty_like(xs)
        # a scalar separator's floats go in through memoryviews of the
        # outputs' samples, which take a float faster than a NumPy array
        dst_p, dst_a = ((memoryview(out_p.reshape(-1)), memoryview(out_a.reshape(-1)))
                        if self._scalar else (out_p, out_a))
        samples = xs.tolist()
        step = self.step
        done = 0
        for index, change in (*switches, (len(xs), None)):
            for i in range(done, index):
                dst_p[i], dst_a[i] = step(samples[i])
            done = index
            if isinstance(change, SeparationSpec):
                self.reconfigure(change, allow_out_of_band)
            elif change is not None:
                self.swap_coefficients(*change)
        return out_p, out_a

    def reconfigure(self, new_spec: SeparationSpec, allow_out_of_band: bool = False):
        """Redesign coefficients for a new separation frequency; buffers are
        preserved so the output stays continuous across the switch. Comb
        pairs and period changes raise UnsupportedReconfigurationError."""
        self.core.redesign(new_spec, allow_out_of_band)

    def swap_coefficients(self, p_coeffs, a_coeffs) -> None:
        """Install explicit new coefficients (same period/order), keeping buffers."""
        self.core.swap_bank(SeparatorBank(p_coeffs, a_coeffs))

    def reset(self) -> None:
        """Zero all buffers and clear the poisoned flag."""
        self.core.reset()
        self._poisoned = False


def periodic_warm_history(p_coeffs, a_coeffs, periodic_tail):
    """Warm-start buffers for an input that has been at a periodic steady
    state: each output sits at its filter's DC-gain multiple of the input.

    ``periodic_tail`` holds the last N*period input samples, oldest first
    (n-vectors for an n-channel separator), or is a function that writes
    them into the input ring it is given. Returns ``(periodic_tail, p_gain,
    a_gain)``, the two DC gains as numbers: ``SeparatorCore.inject`` takes
    the tail as either, and multiplies the input ring by each gain into
    its output ring, so no history-sized copy is made beside the rings.
    """
    return periodic_tail, p_coeffs.dc_gain, a_coeffs.dc_gain
