"""Lifting: a fast-time sequence split into its phase sub-sequences and back.

A sequence sampled at period T is split into ``period`` sub-sequences, one per
phase offset tau in [0, period); sub-sequence tau holds the samples at
t = k*period + tau and is itself sampled at period*T.
"""

from __future__ import annotations

import numpy as np

from .design import check_period
from .errors import InvalidArgumentError


def lift(sequence, period: int) -> list[np.ndarray]:
    """Split a finite sequence (indexed from t = 0) into ``period`` strided sub-sequences."""
    check_period(period)
    x = np.asarray(sequence, dtype=float)
    if x.ndim != 1:
        raise InvalidArgumentError("lift expects a 1-D sequence")
    return [x[tau::period] for tau in range(period)]


def unlift(subsequences, period: int) -> np.ndarray:
    """Interleave ``period`` sub-sequences back into a single sequence.

    The lengths must be consistent with a contiguous range starting at t = 0:
    non-increasing with tau and differing by at most one.
    """
    check_period(period)
    subs = [np.asarray(s, dtype=float) for s in subsequences]
    if len(subs) != period:
        raise InvalidArgumentError(
            f"expected {period} sub-sequences, got {len(subs)}"
        )
    lengths = [len(s) for s in subs]
    total = sum(lengths)
    expected = [(total - tau + period - 1) // period for tau in range(period)]
    if lengths != expected:
        raise InvalidArgumentError(
            f"sub-sequence lengths {lengths} are not consistent with a "
            f"contiguous range of {total} samples"
        )
    out = np.empty(total, dtype=float)
    for tau, s in enumerate(subs):
        out[tau::period] = s
    return out
