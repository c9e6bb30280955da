"""Kalman filter integrated with the separation filter.

Each step runs the standard predict/update recursion on the periodic/aperiodic
state and splits both the predicted and updated estimates into quasi-periodic
and quasi-aperiodic parts. The split adds the delayed-history terms (read once
per step from the separator core's per-period table over the N*period-deep
buffers of past UPDATED estimates) to the instantaneous diagonal feedthrough of
the current estimate; the same history terms serve the predicted and the
updated split. Buffers then advance with the updated triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import SeparationSpec
from .errors import InvalidArgumentError, PoisonedStateError
from .kalman import KalmanBelief, SystemModel, kf_predict, kf_update
from .runtime import SeparatorBank, SeparatorCore


@dataclass(frozen=True)
class KfPasfStep:
    """Everything produced at one time step t."""

    t: int
    x_pred: np.ndarray
    xp_pred: np.ndarray
    xa_pred: np.ndarray
    x_upd: np.ndarray
    xp_upd: np.ndarray
    xa_upd: np.ndarray
    P: np.ndarray
    gain: np.ndarray


class KfPasfState:
    """Estimator state: Kalman belief plus separator histories of updated
    estimates. Instances are single-threaded."""

    def __init__(self, model: SystemModel, p_coeffs, a_coeffs,
                 initial_expectations, P0):
        self.model = model
        bank = SeparatorBank(p_coeffs, a_coeffs, dims=model.n)
        depth = bank.order * bank.period
        hist_pa, hist_p, hist_a = (
            np.asarray(h, dtype=float) for h in initial_expectations
        )
        for name, h in (("x_pa", hist_pa), ("x_p", hist_p), ("x_a", hist_a)):
            if h.reshape(h.shape[0], -1).shape != (depth, model.n):
                raise InvalidArgumentError(
                    f"initial {name} history must hold {depth} n-vectors, "
                    f"got shape {h.shape}"
                )
        # histories cover times -(depth-1)..0 oldest first; slot = t mod depth
        self.core = SeparatorCore(bank, t0=1)
        self.core.inject(hist_pa, hist_p, hist_a, roll=1)
        self.belief = KalmanBelief(
            x_hat=hist_pa.reshape(depth, model.n)[-1], P=np.asarray(P0, dtype=float),
            t=0, phase="updated",
        )
        self._poisoned = False

    @property
    def bank(self) -> SeparatorBank:
        return self.core.bank

    @property
    def t(self) -> int:
        return self.belief.t

    def step(self, u, y) -> KfPasfStep:
        """Advance from time t-1 to t given the input applied at t-1 and the
        measurement taken at t."""
        if self._poisoned:
            raise PoisonedStateError("estimator is poisoned by non-finite data")
        pred = kf_predict(self.belief, self.model, u)
        theta_p, theta_a = self.core.theta()
        bank = self.bank
        xp_pred = theta_p + bank.Sp * pred.x_hat
        xa_pred = theta_a + bank.Sa * pred.x_hat

        upd, gain = kf_update(pred, self.model, y)
        xp_upd = theta_p + bank.Sp * upd.x_hat
        xa_upd = theta_a + bank.Sa * upd.x_hat

        if not np.isfinite(upd.x_hat).all():
            self._poisoned = True
            raise PoisonedStateError("estimate diverged to non-finite values")

        self.core.push(upd.x_hat, xp_upd, xa_upd)
        self.belief = upd
        # KfPasfStep checks nothing, and its frozen __init__ would cost a
        # setattr call per field
        rec = object.__new__(KfPasfStep)
        rec.__dict__.update(
            t=upd.t,
            x_pred=pred.x_hat, xp_pred=xp_pred, xa_pred=xa_pred,
            x_upd=upd.x_hat, xp_upd=xp_upd, xa_upd=xa_upd,
            P=upd.P, gain=gain,
        )
        return rec

    def reconfigure(self, new_spec: SeparationSpec, allow_out_of_band: bool = False,
                    **fir_kwargs) -> None:
        """Rebuild the coefficient diagonals for a new separation frequency,
        preserving histories (same semantics as the runtime separator)."""
        from . import design as _design

        realization = self.bank.p_coeffs[0].realization
        base = realization.removeprefix("complementary-of-")
        if base == "iir":
            p, a = _design.design_iir(new_spec, self.bank.order, allow_out_of_band)
        elif base == "fir":
            p, a = _design.design_fir_equiripple(new_spec, self.bank.order, **fir_kwargs)
        else:
            raise InvalidArgumentError(
                f"cannot redesign realization {realization!r}"
            )
        if realization.startswith("complementary-of-"):
            a = _design.make_complementary(p)
        self.core.swap_bank(SeparatorBank(p, a, dims=self.model.n))


def kfpasf_init(model: SystemModel, p_coeffs, a_coeffs, initial_expectations,
                P0) -> KfPasfState:
    return KfPasfState(model, p_coeffs, a_coeffs, initial_expectations, P0)


def kfpasf_step(state: KfPasfState, u, y) -> KfPasfStep:
    return state.step(u, y)


def zero_histories(model: SystemModel, order: int, period: int):
    """All-zero initial expectations of the required depth."""
    depth = order * period
    z = np.zeros((depth, model.n))
    return z, z.copy(), z.copy()
