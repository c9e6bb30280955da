"""Output checks.

Two kinds: reference values recorded from the program at the default seed
(strided rows and per-column sums of every output, compared within
a stated tolerance with a count of bitwise-equal values beside the verdict), and the
paper's oracles, which hold for any seed. Nothing here is timed.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# Relative tolerances for reference values (scaled by the value plus the
# column's mean magnitude). CSV outputs carry 12 significant digits: a change
# of summation order that moves the last bits of a float64 result moves at
# most the 12th digit, 1e-11 relative, while writing 10 digits does not stay
# inside CSV_TOL. Arrays compared in memory keep all their bits; there a
# reordering stays within ARRAY_TOL, and a Kalman gain off by 1e-4 does not
# (one off by 1e-7 does, and shows only in the bitwise count).
CSV_TOL = 2e-11
ARRAY_TOL = 1e-12
ROWS_KEPT = 40
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_table(path) -> np.ndarray:
    """A numeric CSV with a header line, as a 2-D array."""
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def summarize(a) -> dict:
    a = np.asarray(a, dtype=float)
    a = a.reshape(len(a), -1)
    stride = max(1, len(a) // ROWS_KEPT)
    return {
        "shape": list(a.shape),
        "sums": a.sum(axis=0).tolist(),
        "abs_sums": np.abs(a).sum(axis=0).tolist(),
        "stride": stride,
        "rows": a[::stride].tolist(),
    }


class Tally:
    """Outcome of comparing outputs with their reference values."""

    def __init__(self):
        self.compared = 0
        self.bitwise = 0
        self.problems: list[str] = []

    def compare(self, name: str, a, ref: dict, tol: float) -> bool:
        a = np.asarray(a, dtype=float)
        a = a.reshape(len(a), -1)
        if list(a.shape) != ref["shape"]:
            self.problems.append(f"{name}: shape {list(a.shape)} != {ref['shape']}")
            return False
        scale = np.asarray(ref["abs_sums"]) / max(len(a), 1)
        got = a[::ref["stride"]]
        want = np.asarray(ref["rows"], dtype=float).reshape(got.shape)
        sums = a.sum(axis=0)
        want_sums = np.asarray(ref["sums"])
        self.compared += got.size + sums.size
        self.bitwise += int(np.sum(got == want) + np.sum(sums == want_sums))
        bad_rows = np.abs(got - want) > tol * (np.abs(want) + scale)
        bad_sums = np.abs(sums - want_sums) > tol * np.asarray(ref["abs_sums"])
        if bad_rows.any() or bad_sums.any():
            self.problems.append(
                f"{name}: {int(bad_rows.sum())} strided values and "
                f"{int(bad_sums.sum())} column sums outside rel {tol:g}"
            )
            return False
        return True


def load_reference(workload: str, seed: int, sizes_key: str):
    """Reference outputs of ``workload`` or None when none were recorded for
    this seed and size."""
    try:
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        return None
    entry = refs.get(workload)
    if entry is None or entry["seed"] != seed or entry["sizes"] != sizes_key:
        return None
    return entry["outputs"]


def parse_coefficient_file(path):
    """(feedback a_1..a_N, feedforward c_0..c_N, period) of a coefficient file."""
    with open(path, encoding="utf-8") as fh:
        head, fb, ff = fh.read().strip().splitlines()
    period = int(head.split()[3])
    return (np.array([float(v) for v in fb.split()]),
            np.array([float(v) for v in ff.split()]), period)


def lifted_filter(x, feedback, feedforward, period) -> np.ndarray:
    """y(t) = -sum a_i y(t - i P) + sum c_i x(t - i P) from zero history,
    computed a whole period of phases at a time. An implementation of the
    separator's difference equation independent of pasf.runtime."""
    n = len(x)
    blocks = -(-n // period)
    xs = np.zeros(blocks * period)
    xs[:n] = x
    xs = xs.reshape(blocks, period)
    ys = np.zeros_like(xs)
    order = len(feedback)
    for k in range(blocks):
        acc = feedforward[0] * xs[k]
        for i in range(1, order + 1):
            if k - i >= 0:
                acc = acc + feedforward[i] * xs[k - i] - feedback[i - 1] * ys[k - i]
        ys[k] = acc
    return ys.reshape(-1)[:n]


def close(got, want, rel: float = CSV_TOL) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= rel * (np.abs(want) + 1.0)))


def rms(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.sqrt(np.mean(x * x)))
