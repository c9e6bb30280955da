"""Seeded input generation.

Every workload input is a pure function of the workload seed: scenario files
in the README's text format and, for ``separate-offline-p7``, a ``t,x``
CSV. The program under test receives only these files (plus the coefficient
files its own ``design-iir`` command writes from them).
"""

from __future__ import annotations

import math

import numpy as np

PERIOD = 1000
SAMPLING_TIME = 0.001

SHORT_PERIOD = 7


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _off_grid(rng, lo: float, hi: float) -> float:
    """A switch time in (lo, hi) seconds that is not a period boundary."""
    t = round(float(rng.uniform(lo + 0.05, hi - 0.05)), 3)
    periods = t / (PERIOD * SAMPLING_TIME)
    if abs(periods - round(periods)) < 1e-9:
        t += 0.017
    return t


SEP_FILTERS = ("iir 3 pasf_n3", "fir 50 pasf_fir50")
EST_FILTERS = ("iir 1", "iir 2", "iir 3", "fir 50")


def separation_scenario(seed: int, filt: str, d: float) -> str:
    """sec53-shaped separation: one PASF filter (``filt``) on a gated sine,
    a pulse and a noise burst; the IIR3 file also carries the three combs.

    The file format rejects a repeated ``filter =`` key, so each filter of a
    comparison gets a file of its own; the signals and schedule are shared.
    """
    rng = _rng(seed, 53)
    s1 = _off_grid(rng, d / 6, d / 3)
    s2 = _off_grid(rng, d / 2, 2 * d / 3)
    hz = int(rng.integers(1, 5))
    tp = round(float(rng.uniform(s1 + 0.05 * d, s2 - 0.05 * d)), 3)
    tb = round(float(rng.uniform(s2 + 0.03 * d, 0.8 * d)), 3)
    return f"""\
# generated separation scenario, seed {seed}
[scenario]
name = sep_{filt.split()[0]}{filt.split()[1]}
kind = separation
period = {PERIOD}
sampling_time = {SAMPLING_TIME!r}
duration = {d!r}
filter = {filt}
truth_p = @xp
truth_a = @xa
interference_window = {s1!r} {d!r}

[rho]
0 = 0.5
{s1!r} = 0.001
{s2!r} = 0.002

[signal xp]
expr = gated-sine {2.0 * math.pi * hz!r} 500 250
[signal pulse]
expr = pulse {tp!r} {round(tp + 0.01, 3)!r} 0.5 openstart
[signal burst]
expr = noise 1e-4 {tb!r} {round(tb + d / 6, 3)!r}
[signal xa]
kind = sum
of = @pulse @burst
""" + (_COMBS.format(s1=s1) if filt.startswith("iir") else "")


_COMBS = """
[comb comb1]
variant = 1
b = 0
g = 0
[comb comb2]
variant = 2
b = 0.5
g = 0
[comb comb3]
variant = 3
gain = 0.708
q = 0:1.717 {s1!r}:1591
"""


_STIFF_MODEL = """\
[model]
A = 1 T 0 ; 0 1 T ; {row3}
B = 0 0 1
C = 1 0 0
Q = diag 0 0 1e-8
R = 0.25
P0 = zeros
process_noise_variance = 1e-8
observation_noise_variance = 0.25
"""


def estimation_scenario(seed: int, filt: str, d: float) -> str:
    """sec52-shaped estimation with filter ``filt`` from a periodic warm start
    (one file per filter, as for ``separation_scenario``)."""
    rng = _rng(seed, 52)
    amps = 0.01 * np.arange(1, 11) ** 2 * rng.uniform(0.8, 1.2, 10)
    terms = " ".join(f"{a!r}:{i}" for i, a in enumerate(amps.tolist(), start=1))
    tp = round(float(rng.uniform(0.27 * d, 0.4 * d)), 3)
    return f"""\
# generated estimation scenario, seed {seed}
[scenario]
name = est_{filt.replace(" ", "")}
kind = estimation
period = {PERIOD}
sampling_time = {SAMPLING_TIME!r}
duration = {d!r}
filter = {filt}
warm_start = periodic
input = @u
interference_window = {round(tp + d / 3, 3)!r} {d!r}

{_STIFF_MODEL.format(row3="-2500 -100 0")}
[rho]
0 = 0.01

[signal u0]
expr = constant 1
[signal u1]
expr = harmonic-sum 1 {terms}
[signal u2]
expr = pulse {tp!r} {round(tp + 0.3, 3)!r} 2 openstart
[signal u]
kind = scale
factor = 2500
of = @u0 @u1 @u2
"""


def control_scenario(seed: int, d: float) -> str:
    """sec54-shaped closed loop on a marginally stable double integrator."""
    rng = _rng(seed, 54)
    start = round(float(rng.uniform(0.1, 0.2) * d), 3)
    s1 = _off_grid(rng, 0.6 * d, 0.7 * d)
    ta = round(float(rng.uniform(0.8, 0.85) * d), 3)
    odd = " ".join(f"{1.0 / (2 * i - 1)!r}:{2 * i - 1}" for i in range(1, 11))
    return f"""\
# generated control scenario, seed {seed}
[scenario]
name = ctl
kind = control
period = {PERIOD}
sampling_time = {SAMPLING_TIME!r}
duration = {d!r}
filter = iir 1
input = @zero

{_STIFF_MODEL.format(row3="0 0 0")}
[rho]
0 = 10
{s1!r} = 0.01

[signal zero]
expr = constant 0
[signal c0]
expr = constant 2
[signal c1]
expr = harmonic-sum 1 {odd}
[signal cmd_p]
kind = sum
of = @c0 @c1
[signal cmd_a]
kind = schedule
piece = {ta!r} {round(ta + 1.0, 3)!r} sinusoid 1 {math.pi!r} {-ta * math.pi!r}

[controller]
start = {start!r}
kp_p = 900
kd_p = 60
kp_a = 2500
kd_a = 100
cmd_p = @cmd_p
cmd_a = @cmd_a
"""


def short_period_rho(seed: int) -> float:
    """Separation frequency (rad/s) of the short-period IIR2 pair."""
    return round(float(_rng(seed, 70).uniform(20.0, 60.0)), 3)


def short_period_csv(seed: int, rows: int) -> str:
    """``t,x`` rows: a period-7 pattern plus steps, a burst and noise."""
    rng = _rng(seed, 7)
    pattern = rng.uniform(-1.0, 1.0, SHORT_PERIOD)
    t = np.arange(rows)
    x = pattern[t % SHORT_PERIOD]
    x = x + 0.5 * (t >= rows // 3) - 0.5 * (t >= 2 * rows // 3)
    lo = int(rng.integers(rows // 6, rows // 2))
    burst = rows // 24
    x[lo:lo + burst] += rng.normal(0.0, 0.2, burst)
    x = x + rng.normal(0.0, 0.01, rows)
    lines = ["t,x"] + [f"{i},{v!r}" for i, v in zip(t.tolist(), x.tolist())]
    return "\n".join(lines) + "\n"
