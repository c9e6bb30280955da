"""Verification oracles: lifted-spectrum classification, orthogonality,
and interference measurement.

The classifier stands in for the continuous-frequency set definitions with a
finite DFT; test signals built by inverse DFT of chosen bins have exact finite
support, so set membership is decided without leakage.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError
from .values import value


@value
class SpectrumClassification:
    in_zero_set: bool
    in_periodic_set: bool
    in_aperiodic_set: bool
    max_low_band: float
    max_high_band: float
    tolerance: float


def classify_lifted(x_tau, rho: float, tol: float = 1e-6) -> SpectrumClassification:
    """Classify a lifted sequence by its DFT support relative to rho.

    Bins with |omega| <= rho form the low band; magnitudes below tol times the
    spectral peak count as zero. Membership: the zero set when everything is
    zero, the quasi-periodic set when the low band is occupied, the
    quasi-aperiodic set when the high band is occupied (both may hold).
    """
    x = np.asarray(x_tau, dtype=float)
    if x.ndim != 1 or len(x) < 8:
        raise InvalidArgumentError("classify_lifted needs a 1-D sequence of length >= 8")
    if not (0.0 <= rho <= math.pi):
        raise InvalidArgumentError("rho must lie in [0, pi]")
    spectrum = np.fft.fft(x)
    omegas = 2.0 * math.pi * np.fft.fftfreq(len(x))
    mags = np.abs(spectrum)
    peak = float(mags.max())
    low = np.abs(omegas) <= rho + 1e-12
    max_low = float(mags[low].max()) if np.any(low) else 0.0
    max_high = float(mags[~low].max()) if np.any(~low) else 0.0
    floor = tol * peak
    in_p = max_low > floor
    in_a = max_high > floor
    return SpectrumClassification(
        in_zero_set=not (in_p or in_a),
        in_periodic_set=in_p,
        in_aperiodic_set=in_a,
        max_low_band=max_low,
        max_high_band=max_high,
        tolerance=tol,
    )


def synthesize_banded(length: int, bins, coeffs=None) -> np.ndarray:
    """Real sequence whose DFT support is exactly the given bins (and their
    conjugate mirrors). Leakage-free construction for classifier tests."""
    if length < 2:
        raise InvalidArgumentError("length must be >= 2")
    spectrum = np.zeros(length, dtype=complex)
    bins = list(bins)
    if coeffs is None:
        coeffs = [1.0] * len(bins)
    for b, c in zip(bins, coeffs):
        b = int(b) % length
        if b == 0 or (length % 2 == 0 and b == length // 2):
            spectrum[b] += np.real(c)
        else:
            spectrum[b] += c
            spectrum[(-b) % length] += np.conj(c)
    return np.fft.ifft(spectrum).real


def orthogonality_defect(x_p, x_a) -> float:
    """|<x_p, x_a>| / (||x_p|| ||x_a||), with 0/0 defined as 0."""
    xp = np.asarray(x_p, dtype=float)
    xa = np.asarray(x_a, dtype=float)
    if xp.shape != xa.shape or xp.ndim != 1:
        raise InvalidArgumentError("sequences must be 1-D with equal lengths")
    denom = np.linalg.norm(xp) * np.linalg.norm(xa)
    if denom == 0.0:
        return 0.0
    return float(abs(np.dot(xp, xa)) / denom)


def interference_rms(separated, truth, window: tuple[int, int]) -> float:
    """RMS of (separated - truth) over the half-open sample window."""
    sep = np.asarray(separated, dtype=float)
    tru = np.asarray(truth, dtype=float)
    lo, hi = window
    if not (0 <= lo < hi <= len(sep) and hi <= len(tru)):
        raise InvalidArgumentError(
            f"window {window} must be non-empty and inside both sequences"
        )
    diff = sep[lo:hi] - tru[lo:hi]
    return float(np.sqrt(np.mean(diff * diff)))
