"""Calibrated timing and machine information.

The shared host this benchmark was defined on alternates between two speeds
about 1.8x apart, in phases of 0.1 s to 15 s, and other tenants preempt the
process, so a raw wall time does not repeat. Every timed piece of work is
therefore measured in CPU time and rescaled to what it would have taken had
a fixed calibration kernel run at its reference speed:

    normalized = raw * CALIB_REF_US / (kernel time around the work)

The kernel imitates the program's instruction mix (small NumPy calls with
fancy indexing, a small Cholesky solve, float formatting), so both phases
slow it about as much as they slow the program. It runs before and after
each piece and, from a timer signal, inside long pieces. Medians are taken
over many pieces. The raw kernel times are kept in the run record.
"""

from __future__ import annotations

import os
import platform
import signal
import statistics
import sys
import time

import numpy as np

# Median calibration time, in microseconds, in the fast phase of the 2-core
# Xeon host (Python 3.11, NumPy 2.4, OpenBLAS) the benchmark was defined on.
# Normalized times are expressed against it; it is a fixed unit, not a tuning
# knob, and changing it rescales every recorded time.
CALIB_REF_US = 600.0

# Interval, in CPU time, of the speed samples taken inside a long piece of
# work.
SAMPLE_INTERVAL_S = 0.025

# All durations are CPU time of this (single-threaded) process, user and
# system: on a shared host the wall clock also counts the time other
# tenants hold the core, which is not the program's.
cpu_time = time.thread_time

_rng = np.random.default_rng(12345)
_BUF = _rng.standard_normal((64, 3))
_COEF = _rng.standard_normal((64, 3))
_LAGS = np.arange(0, 64, 8)
_SPD = np.array([[4.0, 0.5, 0.1], [0.5, 3.0, 0.2], [0.1, 0.2, 2.0]])
_VALUES = _rng.standard_normal(48).tolist()


def calibration_kernel() -> float:
    """One fixed piece of work; its duration tracks the host's speed."""
    acc = np.zeros(3)
    for i in range(40):
        acc = np.sum(_COEF[_LAGS] * _BUF[(_LAGS + i) % 64] + 0.5 * acc, axis=0)
    for _ in range(6):
        low = np.linalg.cholesky(_SPD)
        acc = acc + np.linalg.solve(low.T, np.linalg.solve(low, acc))
    text = ",".join(f"{v:.12g}" for v in _VALUES)
    return float(acc[0]) + len(text)


def calibrate(repeats: int = 3) -> float:
    """Median duration of ``repeats`` kernel runs, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = cpu_time()
        calibration_kernel()
        times.append(cpu_time() - t0)
    return statistics.median(times)


class Bracketed:
    """Times pieces of work back to back, each between two calibrations.

    The calibration after one piece serves as the one before the next. A
    piece that lasts longer than SAMPLE_INTERVAL_S is also sampled inside:
    a timer signal runs the kernel once per interval, and each stretch of
    work between two samples is rescaled by the samples at its ends. The
    samples' own time is taken out of the raw and the normalized time.
    """

    def __init__(self):
        self.last_calib = calibrate()
        self.calib_s: list[float] = [self.last_calib]
        self._marks: list[float] = []
        # Normalized seconds from the start of the last timed piece to each
        # ``mark`` taken inside it.
        self.marked: list[float] = []

    def mark(self) -> None:
        """Note a point inside the piece being timed (see ``marked``)."""
        self._marks.append(cpu_time())

    def time(self, fn, *args, sample: bool = True):
        """Run ``fn(*args)``; returns (result, raw seconds, normalized
        seconds). ``sample=False`` keeps the timer out of ``fn``, for work
        whose own latency is measured inside it."""
        samples: list[tuple[float, float]] = []

        def take_sample(signum, frame):
            start = cpu_time()
            calibration_kernel()
            samples.append((start, cpu_time() - start))

        before = self.last_calib
        self._marks = []
        if sample:
            previous = signal.signal(signal.SIGPROF, take_sample)
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            t0 = cpu_time()
            result = fn(*args)
            t1 = cpu_time()
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_PROF, 0)
                signal.signal(signal.SIGPROF, previous)
        self.last_calib = calibrate()
        self.calib_s.append(self.last_calib)
        inside = [(s, d) for s, d in samples if s < t1]
        stretches = []  # (begin, end, kernel time around the stretch)
        prev_t, prev_d = t0, before
        for start, d in inside:
            stretches.append((prev_t, start, 0.5 * (prev_d + d)))
            prev_t, prev_d = start + d, d
        stretches.append((prev_t, t1, 0.5 * (prev_d + self.last_calib)))
        scale = CALIB_REF_US * 1e-6
        norm = sum((end - begin) / d for begin, end, d in stretches)
        self.marked = [scale * sum((min(end, m) - begin) / d
                                   for begin, end, d in stretches if begin < m)
                       for m in self._marks]
        raw = t1 - t0 - sum(d for _, d in inside)
        return result, raw, norm * scale


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def machine_info(calib_s) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "calib_ref_us": CALIB_REF_US,
        "calib_us": {
            "count": len(calib_s),
            "p50": 1e6 * statistics.median(calib_s),
            "min": 1e6 * min(calib_s),
            "max": 1e6 * max(calib_s),
        },
    }
