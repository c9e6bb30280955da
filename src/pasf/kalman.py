"""Discrete-time Kalman filter for a dense LTI model.

The covariance update uses the plain (I - gC)P form followed by
re-symmetrization, and the gain is obtained by solving the innovation system
rather than forming an explicit inverse. Beliefs are values; predict/update
return new ones.

With a scalar measurement (m = 1) the innovation covariance is a number s
and its Cholesky factor is d = sqrt(s), so the gain has a closed form that
skips the per-step eigvalsh, Cholesky and two solves. It is rounded the way
the general path's two solves round with NumPy's bundled OpenBLAS: with
several right-hand sides (n > 1) the triangular solve multiplies by the
reciprocal of the diagonal, g' = (CP * r) * r with r = 1/d; with one (n = 1)
it divides, g' = (CP / d) / d. So the closed form is bitwise equal to the
general path, and a property test holds it to that on the installed BLAS.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SingularInnovationError

PREDICTED = "predicted"
UPDATED = "updated"

_PSD_TOL = 1e-12


@dataclass(frozen=True)
class SystemModel:
    """LTI plant x(t+1) = A x + B u + v, y = C x + w with cov(v) = Q, cov(w) = R."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)  # 1-D input reads as a single-input column
        object.__setattr__(self, "B", B)
        for name in ("A", "C", "Q", "R"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise InvalidArgumentError("A must be square")
        if self.B.shape[0] != n:
            raise InvalidArgumentError("B must have n rows")
        if self.C.shape[1] != n:
            raise InvalidArgumentError("C must have n columns")
        if self.Q.shape != (n, n):
            raise InvalidArgumentError("Q must be n x n")
        m = self.C.shape[0]
        if self.R.shape != (m, m):
            raise InvalidArgumentError("R must be m x m")
        for name in ("Q", "R"):
            mat = getattr(self, name)
            if not np.allclose(mat, mat.T, atol=1e-9):
                raise InvalidArgumentError(f"{name} must be symmetric")
            if np.min(np.linalg.eigvalsh(mat)) < -_PSD_TOL:
                raise InvalidArgumentError(f"{name} must be positive semidefinite")
        eye = np.eye(n)
        eye.flags.writeable = False
        object.__setattr__(self, "_eye", eye)  # for the per-step (I - gC)P
        obs = np.vstack([self.C @ np.linalg.matrix_power(self.A, k) for k in range(n)])
        if np.linalg.matrix_rank(obs) < n:
            warnings.warn("model is not observable", stacklevel=2)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def m(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class KalmanBelief:
    x_hat: np.ndarray
    P: np.ndarray
    t: int = 0
    phase: str = UPDATED

    def __post_init__(self):
        object.__setattr__(self, "x_hat", np.asarray(self.x_hat, dtype=float).reshape(-1))
        object.__setattr__(self, "P", _symmetrize(np.asarray(self.P, dtype=float)))


def _belief(x_hat: np.ndarray, P: np.ndarray, t: int, phase: str) -> KalmanBelief:
    """KalmanBelief from a float 1-D x_hat and an already symmetrized P,
    skipping the conversions of the public constructor (re-symmetrizing a
    symmetrized P is the identity)."""
    belief = object.__new__(KalmanBelief)
    belief.__dict__.update(x_hat=x_hat, P=P, t=t, phase=phase)
    return belief


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.T)


def kf_predict(belief: KalmanBelief, model: SystemModel, u=None) -> KalmanBelief:
    """Time update: x <- A x + B u, P <- A P A' + Q."""
    if belief.phase != UPDATED:
        raise InvalidArgumentError("kf_predict expects an updated belief")
    if u is None:
        u = np.zeros(model.p)
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape != (model.p,):
        raise InvalidArgumentError(f"u must have shape ({model.p},)")
    if belief.x_hat.shape != (model.n,):
        raise InvalidArgumentError("belief dimension does not match model")
    x = model.A @ belief.x_hat + model.B @ u
    P = _symmetrize(model.A @ belief.P @ model.A.T + model.Q)
    return _belief(x, P, belief.t + 1, PREDICTED)


def kf_update(belief: KalmanBelief, model: SystemModel, y) -> tuple[KalmanBelief, np.ndarray]:
    """Measurement update; returns the new belief and the gain.

    The gain solves S g' = C P (S = C P C' + R) by Cholesky, falling back to
    LU when S is only semidefinite; a reciprocal condition below 1e-12 raises.
    A scalar S (m = 1) takes the closed form of the module docstring and
    raises when S <= 0.
    """
    if belief.phase != PREDICTED:
        raise InvalidArgumentError("kf_update expects a predicted belief")
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != (model.m,):
        raise InvalidArgumentError(f"y must have shape ({model.m},)")
    P = belief.P
    if model.m == 1:
        g = _scalar_gain(P, model)
    else:
        g = _general_gain(P, model)
    x = belief.x_hat + g @ (y - model.C @ belief.x_hat)
    P_new = _symmetrize((model._eye - g @ model.C) @ P)
    return _belief(x, P_new, belief.t, UPDATED), g


def _scalar_gain(P: np.ndarray, model: SystemModel) -> np.ndarray:
    CP = model.C @ P
    s = float((CP @ model.C.T + model.R)[0, 0])
    s = 0.5 * (s + s)  # the symmetrization of the general path
    # NaN passes on, as in the general path: the estimate turns non-finite
    if s <= 0.0:
        raise SingularInnovationError(
            f"innovation covariance is singular (s = {s:.3e})"
        )
    d = math.sqrt(s)  # the Cholesky factor; rounding as in the module docstring
    if CP.shape[1] == 1:
        return ((CP / d) / d).T
    r = 1.0 / d
    return ((CP * r) * r).T


def _general_gain(P: np.ndarray, model: SystemModel) -> np.ndarray:
    S = _symmetrize(model.C @ P @ model.C.T + model.R)
    eigs = np.linalg.eigvalsh(S)
    if eigs[-1] <= 0.0 or eigs[0] / eigs[-1] < 1e-12:
        raise SingularInnovationError(
            f"innovation covariance is singular (rcond {eigs[0] / max(eigs[-1], 1e-300):.3e})"
        )
    return _solve_spd(S, model.C @ P).T


def _solve_spd(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return np.linalg.solve(S, B)
    z = np.linalg.solve(L, B)
    return np.linalg.solve(L.T, z)
