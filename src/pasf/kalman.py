"""Discrete-time Kalman filter for a dense LTI model.

The covariance update uses the plain (I - gC)P form followed by
re-symmetrization, and the gain is obtained by solving the innovation system
rather than forming an explicit inverse. Models and beliefs are frozen
values (``pasf.values``); predict/update return new beliefs.

With a scalar measurement (m = 1) the innovation covariance is a number s
and its Cholesky factor is d = sqrt(s), so the gain has a closed form that
skips the per-step eigvalsh, Cholesky and two solves. s is CP C' + R added
in Python floats (R's one entry is stored as the float ``_r`` when the
model is built), the same IEEE addition as NumPy's (1, 1) array sum. The
gain is rounded the way the general path's two solves round with NumPy's
bundled OpenBLAS: with several right-hand sides (n > 1) the triangular
solve multiplies by the reciprocal of the diagonal, g' = (CP * r) * r with
r = 1/d; with one (n = 1) it divides, g' = (CP / d) / d. So the closed
form is bitwise equal to the
general path, and a property test holds it to that on the installed BLAS.

The covariance and gain depend only on the model and P0, not on u or y
(Anderson & Moore, *Optimal Filtering*, 1979, ch. 3). So once an update
returns an updated P bitwise equal to the one its predicted belief was
predicted from, with one model object throughout, every later predicted P,
gain and updated P repeats bitwise. The update then freezes the recursion:
it attaches the read-only fixed point (model, predicted P, gain, updated P)
to the belief it returns, and later predicts and updates on that belief
chain with the same model reuse it. They still compute x = A x + B u and
x + g(y - C x) as written here. A model's matrices are read-only copies.
A belief built through the public constructor carries no fixed point and no
record of its source, so a chain rebuilt through ``KalmanBelief`` each step
never freezes: it is the per-step oracle the freeze is tested against.

Every matrix product here, and in the plant loops of ``pasf.scenarios``,
is formed by ``product(k)`` for its contracted dimension k: ``ndarray.dot``
when k is above 1, which reaches the same OpenBLAS gemv/gemm as ``@`` with
about a third of the dispatch cost and gives the bytes of ``@``, signed
zeros, NaN and infinities included (a property test holds it to that);
else ``np.matmul``, the ufunc ``@`` calls, since there ``dot`` scales by
the one-element operand, which turns 0 * NaN and 0 * Inf into 0 (hiding a
poisoned state) and gives other signs of zero. Both take ``out=``. A
``SystemModel`` resolves one product per contracted dimension (n, m and p)
when it is built, so ``kf_predict`` and ``kf_update`` make no per-product
dispatch: the same NumPy operations in the same order, so the same bytes,
with fewer Python calls around them.

Both re-symmetrize a covariance as ``(M + M.T.copy()) * model._half``,
with ``_half`` the model's read-only (n, n) array of 0.5: the additions and
multiplications of ``0.5 * (M + M.T)`` on the same operands, so the same
bits, but NumPy adds a contiguous copy and multiplies by an array operand
faster than it walks a strided transpose or broadcasts a scalar. A belief
they return is built by writing its fields into a fresh instance's dict
(a value's fields live there, as a dataclass's do), with none of the
public constructor's conversions and checks.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import InvalidArgumentError, SingularInnovationError
from .values import value

PREDICTED = "predicted"
UPDATED = "updated"

_PSD_TOL = 1e-12


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def product(k: int):
    """The product (a, b, out=None) of operands whose contracted dimension
    is ``k``, by the rule of the module docstring."""
    return np.ndarray.dot if k > 1 else np.matmul


def check_covariance(name: str, mat: np.ndarray) -> None:
    """Raise unless the square ``mat`` is symmetric positive semidefinite."""
    if not np.allclose(mat, mat.T, atol=1e-9):
        raise InvalidArgumentError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(mat)) < -_PSD_TOL:
        raise InvalidArgumentError(f"{name} must be positive semidefinite")


@value
class SystemModel:
    """LTI plant x(t+1) = A x + B u + v, y = C x + w with cov(v) = Q, cov(w) = R.

    A frozen value whose matrices are read-only copies, so a recursion
    frozen under a model object stays valid for as long as that object
    lives. n, m and p are the state, output and input dimensions;
    ``_by_n``, ``_by_m`` and ``_by_p`` are the recursion's products by
    each, resolved once by ``product``; ``_half`` and ``_r`` = R[0, 0] are
    the constants of the module docstring."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        B = _read_only(np.array(self.B, dtype=float))
        if B.ndim == 1:
            B = B.reshape(-1, 1)  # 1-D input reads as a single-input column
        object.__setattr__(self, "B", B)
        for name in ("A", "C", "Q", "R"):
            mat = _read_only(np.array(getattr(self, name), dtype=float))
            object.__setattr__(self, name, np.atleast_2d(mat))
        n, m, p = self.A.shape[0], self.C.shape[0], self.B.shape[1]
        if self.A.shape != (n, n):
            raise InvalidArgumentError("A must be square")
        if self.B.shape[0] != n:
            raise InvalidArgumentError("B must have n rows")
        if self.C.shape[1] != n:
            raise InvalidArgumentError("C must have n columns")
        if self.Q.shape != (n, n):
            raise InvalidArgumentError("Q must be n x n")
        if self.R.shape != (m, m):
            raise InvalidArgumentError("R must be m x m")
        for name in ("Q", "R"):
            check_covariance(name, getattr(self, name))
        for name, value in (
                ("n", n), ("m", m), ("p", p),
                ("_by_n", product(n)),  # A x, A P, (AP) A', C x, C P, CP C', (I - gC) P
                ("_by_m", product(m)),  # g r and g C
                ("_by_p", product(p)),  # B u
                ("_AT", self.A.T), ("_CT", self.C.T),
                ("_eye", _read_only(np.eye(n))),  # for (I - gC) P
                ("_half", _read_only(np.full((n, n), 0.5))),  # symmetrization
                ("_r", float(self.R[0, 0]))):  # R as a number when m = 1
            object.__setattr__(self, name, value)
        obs = np.vstack([self.C @ np.linalg.matrix_power(self.A, k) for k in range(n)])
        if np.linalg.matrix_rank(obs) < n:
            warnings.warn("model is not observable", stacklevel=2)


@value
class _FixedPoint:
    """The covariance recursion frozen under ``model``: every later
    predicted P, gain and updated P equals these (read-only) arrays."""

    model: SystemModel
    P_pred: np.ndarray
    gain: np.ndarray
    P_upd: np.ndarray
    t: int  # the step whose update froze it


@value
class KalmanBelief:
    """A state estimate x_hat with covariance P at step t, in phase
    ``updated`` or ``predicted``; a frozen value.

    The constructor flattens x_hat to a float vector and stores the
    symmetrized float P. It raises ``InvalidArgumentError`` unless P is
    (len(x_hat), len(x_hat)) and the phase is one of the two; a non-finite
    P is kept (it poisons the next step)."""

    x_hat: np.ndarray
    P: np.ndarray
    t: int = 0
    phase: str = UPDATED

    # set only by kf_predict/kf_update, never by the public constructor: the
    # fixed point this belief's chain froze at, and for a predicted belief
    # the (model, updated P) it was predicted from
    _fixed = None
    _source = None

    def __post_init__(self):
        x_hat = np.asarray(self.x_hat, dtype=float).reshape(-1)
        P = np.asarray(self.P, dtype=float)
        if P.shape != (len(x_hat),) * 2:
            raise InvalidArgumentError(
                f"P must be {len(x_hat)} x {len(x_hat)}, got shape {P.shape}")
        if self.phase not in (UPDATED, PREDICTED):
            raise InvalidArgumentError(
                f"phase must be {UPDATED!r} or {PREDICTED!r}, got {self.phase!r}")
        object.__setattr__(self, "x_hat", x_hat)
        object.__setattr__(self, "P", 0.5 * (P + P.T))


def _belief(x_hat: np.ndarray, P: np.ndarray, t: int, phase: str,
            fixed: _FixedPoint | None = None, source=None) -> KalmanBelief:
    """KalmanBelief from a float 1-D x_hat and an already symmetrized P of
    its dimension, skipping the conversions and checks of the public
    constructor (re-symmetrizing a symmetrized P is the identity)."""
    belief = object.__new__(KalmanBelief)
    fields = belief.__dict__
    fields["x_hat"] = x_hat
    fields["P"] = P
    fields["t"] = t
    fields["phase"] = phase
    fields["_fixed"] = fixed
    fields["_source"] = source
    return belief


def kf_predict(belief: KalmanBelief, model: SystemModel, u) -> KalmanBelief:
    """Time update: x <- A x + B u, P <- A P A' + Q."""
    if belief.phase != UPDATED:
        raise InvalidArgumentError("kf_predict expects an updated belief")
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:  # a 1-D u is used as given
        u = u.reshape(-1)
    if u.shape != (model.p,):
        raise InvalidArgumentError(f"u must have shape ({model.p},)")
    if belief.x_hat.shape != (model.n,):
        raise InvalidArgumentError("belief dimension does not match model")
    by_n, A = model._by_n, model.A
    x = by_n(A, belief.x_hat) + model._by_p(model.B, u)
    fixed = belief._fixed
    if fixed is not None and fixed.model is model:
        return _belief(x, fixed.P_pred, belief.t + 1, PREDICTED, fixed)
    P = by_n(by_n(A, belief.P), model._AT) + model.Q
    P = (P + P.T.copy()) * model._half
    return _belief(x, P, belief.t + 1, PREDICTED, source=(model, belief.P))


def kf_update(belief: KalmanBelief, model: SystemModel, y) -> tuple[KalmanBelief, np.ndarray]:
    """Measurement update; returns the new belief and the gain.

    The gain solves S g' = C P (S = C P C' + R) by Cholesky, falling back to
    LU when S is only semidefinite; a reciprocal condition below 1e-12 raises.
    A scalar S (m = 1) takes the closed form of the module docstring and
    raises when S <= 0. An updated P bitwise equal to the one the belief was
    predicted from (same model) freezes the recursion, as the module
    docstring describes.
    """
    if belief.phase != PREDICTED:
        raise InvalidArgumentError("kf_update expects a predicted belief")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        y = y.reshape(-1)
    if y.shape != (model.m,):
        raise InvalidArgumentError(f"y must have shape ({model.m},)")
    if belief.x_hat.shape != (model.n,):
        raise InvalidArgumentError("belief dimension does not match model")
    fixed = belief._fixed
    if fixed is not None and fixed.model is model:
        g = fixed.gain
        x = belief.x_hat + model._by_m(g, y - model._by_n(model.C, belief.x_hat))
        return _belief(x, fixed.P_upd, belief.t, UPDATED, fixed), g
    P = belief.P
    g = _scalar_gain(P, model) if model.m == 1 else _general_gain(P, model)
    by_n, by_m, C = model._by_n, model._by_m, model.C
    x = belief.x_hat + by_m(g, y - by_n(C, belief.x_hat))
    P_new = by_n(model._eye - by_m(g, C), P)
    P_new = (P_new + P_new.T.copy()) * model._half
    source = belief._source
    if (source is not None and source[0] is model
            and P_new.tobytes() == source[1].tobytes()):
        fixed = _FixedPoint(model, _read_only(P.copy()), _read_only(g),
                            _read_only(P_new), belief.t)
        return _belief(x, P_new, belief.t, UPDATED, fixed), g
    return _belief(x, P_new, belief.t, UPDATED), g


def _scalar_gain(P: np.ndarray, model: SystemModel) -> np.ndarray:
    CP = model._by_n(model.C, P)
    s = float(model._by_n(CP, model._CT)[0, 0]) + model._r
    s = 0.5 * (s + s)  # the symmetrization of the general path
    # NaN passes on, as in the general path: the estimate turns non-finite
    if s <= 0.0:
        raise SingularInnovationError(
            f"innovation covariance is singular (s = {s:.3e})"
        )
    d = math.sqrt(s)  # the Cholesky factor; rounding as in the module docstring
    if model.n == 1:
        return ((CP / d) / d).T
    r = 1.0 / d
    return ((CP * r) * r).T


def _general_gain(P: np.ndarray, model: SystemModel) -> np.ndarray:
    CP = model._by_n(model.C, P)
    S = model._by_n(CP, model._CT) + model.R
    S = 0.5 * (S + S.T)
    eigs = np.linalg.eigvalsh(S)
    if eigs[-1] <= 0.0 or eigs[0] / eigs[-1] < 1e-12:
        raise SingularInnovationError(
            f"innovation covariance is singular (rcond {eigs[0] / max(eigs[-1], 1e-300):.3e})"
        )
    return _solve_spd(S, CP).T


def _solve_spd(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return np.linalg.solve(S, B)
    z = np.linalg.solve(L, B)
    return np.linalg.solve(L.T, z)
