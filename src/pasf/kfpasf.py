"""Kalman filter integrated with the separation filter.

Each step runs the standard predict/update recursion on the periodic/aperiodic
state and splits the updated estimate into quasi-periodic and
quasi-aperiodic parts, one coefficient pair for every state element. The
split is one ``SeparatorCore.split`` step over the N*period-deep buffers of
past UPDATED estimates: the delayed-history terms plus the direct term times
the current estimate, after which the buffers advance with the updated
triple. So the split equals a ``PasfState`` with ``dims`` = n run over the
updated estimates.
"""

from __future__ import annotations

import math

import numpy as np

from .design import SeparationSpec
from .errors import InvalidArgumentError, PoisonedStateError
from .kalman import (KalmanBelief, SystemModel, check_covariance, kf_predict,
                     kf_update)
from .runtime import SeparatorBank, SeparatorCore


class KfPasfStep:
    """Everything produced at one time step t: the predicted and updated
    estimates, the split of the updated estimate, the covariance and the
    gain."""

    __slots__ = ("t", "x_pred", "x_upd", "xp_upd", "xa_upd", "P", "gain")

    def __init__(self, t: int, x_pred: np.ndarray, x_upd: np.ndarray,
                 xp_upd: np.ndarray, xa_upd: np.ndarray, P: np.ndarray,
                 gain: np.ndarray):
        self.t = t
        self.x_pred = x_pred
        self.x_upd = x_upd
        self.xp_upd = xp_upd
        self.xa_upd = xa_upd
        self.P = P
        self.gain = gain


class KfPasfState:
    """Estimator state: Kalman belief plus separator histories of updated
    estimates. Instances are single-threaded. A ``P0`` that is not n x n,
    not symmetric or not positive semidefinite is an
    ``InvalidArgumentError``; a non-finite one poisons the first step."""

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
        bitwise fixed point (see ``pasf.kalman``); None until then. It
        reaches no CSV."""
        fixed = self.belief._fixed
        return None if fixed is None else fixed.t

    def step(self, u, y) -> KfPasfStep:
        """Advance from time t-1 to t given the input applied at t-1 and the
        measurement taken at t."""
        if self._poisoned:
            raise PoisonedStateError("estimator is poisoned by non-finite data")
        pred = kf_predict(self.belief, self.model, u)
        upd, gain = kf_update(pred, self.model, y)
        x_upd = upd.x_hat
        if not all(map(math.isfinite, x_upd.tolist())):
            self._poisoned = True
            raise PoisonedStateError("estimate diverged to non-finite values")

        xp_upd, xa_upd = self.core.split(x_upd)
        self.belief = upd
        return KfPasfStep(upd.t, pred.x_hat, x_upd, xp_upd, xa_upd, upd.P, gain)

    def reconfigure(self, new_spec: SeparationSpec,
                    allow_out_of_band: bool = False) -> None:
        """Rebuild the coefficient pair for a new separation frequency,
        preserving histories (same semantics as the runtime separator)."""
        self.core.redesign(new_spec, allow_out_of_band)


def zero_histories(model: SystemModel, order: int, period: int):
    """All-zero initial expectations of the required depth: a zero input
    history and, as ``SeparatorCore.inject`` takes them, output histories
    that are 0.0 times it."""
    return np.zeros((order * period, model.n)), 0.0, 0.0
