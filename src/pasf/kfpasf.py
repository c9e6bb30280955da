"""Kalman filter integrated with the separation filter.

Each step runs the standard predict/update recursion on the periodic/aperiodic
state and splits both the predicted and updated estimates into quasi-periodic
and quasi-aperiodic parts, one coefficient pair for every state element. The
split adds the delayed-history terms (read once per step from the separator
core's per-period rows over the N*period-deep buffers of past UPDATED
estimates; two floats for a one-state model) to the direct term times the
current estimate; the same history terms serve the predicted and the updated
split. Buffers then advance with the updated triple.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .design import SeparationSpec
from .errors import InvalidArgumentError, PoisonedStateError
from .kalman import (KalmanBelief, SystemModel, check_covariance, kf_predict,
                     kf_update)
from .runtime import SeparatorBank, SeparatorCore


class KfPasfStep(NamedTuple):
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
        P0 = np.asarray(P0, dtype=float)
        if P0.shape != (model.n, model.n):
            raise InvalidArgumentError(
                f"P0 must be {model.n} x {model.n}, got shape {P0.shape}")
        if np.isfinite(P0).all():  # a non-finite P0 poisons the first step
            check_covariance("P0", P0)
        self.model = model
        # the histories cover times -(depth-1)..0 oldest first, so the
        # core's step k is time k + 1
        self.core = SeparatorCore(SeparatorBank(p_coeffs, a_coeffs), model.n)
        self.core.inject(*initial_expectations)
        self.belief = KalmanBelief(
            x_hat=self.core.in_buf[-1].copy(), P=P0, t=0, phase="updated",
        )
        self._poisoned = False

    @property
    def bank(self) -> SeparatorBank:
        return self.core.bank

    @property
    def gain_frozen_at(self) -> int | None:
        """The step whose update froze the covariance and gain at their
        bitwise fixed point (see ``pasf.kalman``); None until then."""
        fixed = self.belief._fixed
        return None if fixed is None else fixed.t

    def step(self, u, y) -> KfPasfStep:
        """Advance from time t-1 to t given the input applied at t-1 and the
        measurement taken at t."""
        if self._poisoned:
            raise PoisonedStateError("estimator is poisoned by non-finite data")
        pred = kf_predict(self.belief, self.model, u)
        theta_p, theta_a = self.core.theta()
        bank = self.core.bank
        xp_pred = theta_p + bank.sp * pred.x_hat
        xa_pred = theta_a + bank.sa * pred.x_hat

        upd, gain = kf_update(pred, self.model, y)
        xp_upd = theta_p + bank.sp * upd.x_hat
        xa_upd = theta_a + bank.sa * upd.x_hat

        if not all(map(math.isfinite, upd.x_hat.tolist())):
            self._poisoned = True
            raise PoisonedStateError("estimate diverged to non-finite values")

        self.core.push(upd.x_hat, xp_upd, xa_upd)
        self.belief = upd
        return KfPasfStep(upd.t, pred.x_hat, xp_pred, xa_pred,
                          upd.x_hat, xp_upd, xa_upd, upd.P, gain)

    def reconfigure(self, new_spec: SeparationSpec,
                    allow_out_of_band: bool = False) -> None:
        """Rebuild the coefficient pair for a new separation frequency,
        preserving histories (same semantics as the runtime separator)."""
        self.core.redesign(new_spec, allow_out_of_band)


def zero_histories(model: SystemModel, order: int, period: int):
    """All-zero initial expectations of the required depth."""
    depth = order * period
    z = np.zeros((depth, model.n))
    return z, z.copy(), z.copy()
