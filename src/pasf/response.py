"""Frequency responses and Bode tables for lifted-delay filters."""

from __future__ import annotations

import math

import numpy as np

from .design import FilterCoefficients
from .errors import InvalidArgumentError, SingularResponseError
from .values import value

_SINGULAR_FLOOR = 1e-300


@value
class BodeTable:
    """Gain (dB) and phase (deg) over omega_tilde (rad/s), strictly increasing."""

    omega: np.ndarray
    gain_db: np.ndarray
    phase_deg: np.ndarray

    def columns(self) -> dict:
        """The CSV table: column name -> values, in file order."""
        return {"omega_rad_s": self.omega, "gain_db": self.gain_db,
                "phase_deg": self.phase_deg}


def eval_response(coeffs: FilterCoefficients, omega_tilde) -> complex | np.ndarray:
    """Evaluate the response at omega_tilde rad/s (scalar or array).

    Substitutes w = exp(-j*omega_tilde*period*T) and computes
    (sum c_i w^i) / (1 + sum a_i w^i) by Horner's scheme. Valid for
    |omega_tilde| <= pi/T; negative frequencies give the conjugate response.
    """
    omega = np.asarray(omega_tilde, dtype=float)
    w = np.exp(-1j * omega * coeffs.period * coeffs.sampling_time)

    num = np.zeros_like(w)
    for c in coeffs.feedforward[::-1]:
        num = num * w + c
    den = np.zeros_like(w)
    for a in coeffs.feedback[::-1]:
        den = den * w + a
    den = den * w + 1.0

    if np.any(np.abs(den) < _SINGULAR_FLOOR):
        raise SingularResponseError(
            "response denominator vanished (unstable or marginal design)"
        )
    out = num / den
    if np.isscalar(omega_tilde) or out.ndim == 0:
        return complex(out)
    return out


def default_grid(coeffs: FilterCoefficients, n_points: int = 2000,
                 omega_min: float = 1e-3, omega_max: float | None = None) -> np.ndarray:
    nyquist = math.pi / coeffs.sampling_time
    if omega_max is None:
        omega_max = nyquist
    if not (0.0 < omega_min < omega_max <= nyquist * (1 + 1e-12)):
        raise InvalidArgumentError(
            f"grid must satisfy 0 < omega_min < omega_max <= pi/T "
            f"({omega_min:.3g}, {omega_max:.3g}, nyquist {nyquist:.6g})"
        )
    if n_points < 2:
        raise InvalidArgumentError("grid needs at least 2 points")
    return np.logspace(math.log10(omega_min), math.log10(omega_max), n_points)


def bode_table(coeffs: FilterCoefficients, grid: np.ndarray | None = None) -> BodeTable:
    """Tabulate gain (dB) and principal-value phase (deg) over a frequency grid.

    Default grid: 2000 log-spaced points over [1e-3, pi/T] rad/s. Phase is the
    principal value in (-180, 180]; no unwrapping across rows.
    """
    if grid is None:
        grid = default_grid(coeffs)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise InvalidArgumentError("grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0):
        raise InvalidArgumentError("grid must be strictly increasing")

    resp = eval_response(coeffs, grid)
    mag = np.abs(resp)
    gain_db = 20.0 * np.log10(np.maximum(mag, _SINGULAR_FLOOR))
    phase_deg = np.degrees(np.angle(resp))
    # np.angle returns (-180, 180]; map the open -180 edge onto +180
    phase_deg = np.where(phase_deg <= -180.0, phase_deg + 360.0, phase_deg)
    return BodeTable(omega=grid, gain_db=gain_db, phase_deg=phase_deg)
