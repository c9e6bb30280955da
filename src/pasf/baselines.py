"""Classical harmonic-eliminating comb filters used as comparison baselines.

All three variants are first-order rationals in the period-length delay, so
they run on the generic separation runtime. Their output is the quasi-aperiodic
channel; the companion quasi-periodic signal is input minus output, which the
runtime realizes as the exact complement filter.
"""

from __future__ import annotations

import math

from .design import (APERIODIC_PASS, PERIODIC_PASS, FilterCoefficients, _complement,
                     check_integer, check_period)
from .errors import InvalidArgumentError
from .values import value


@value
class CombSpec:
    variant: int
    period: int
    sampling_time: float = 1.0
    b: float = 0.0
    g: float = 0.0
    gain_mag: float = 0.0  # |G_cb| for variant 3
    q: float = 0.0

    def __post_init__(self):
        check_integer("variant", self.variant)
        if self.variant not in (1, 2, 3):
            raise InvalidArgumentError(f"comb variant must be 1, 2, or 3, got {self.variant}")
        check_period(self.period)
        if self.variant in (1, 2):
            if not (0.0 <= self.b < 1.0 and 0.0 <= self.g < 1.0):
                raise InvalidArgumentError("variants 1-2 need 0 <= b < 1 and 0 <= g < 1")
        else:
            if not (0.0 < self.gain_mag < 1.0):
                raise InvalidArgumentError("variant 3 needs 0 < |G_cb| < 1")
            if self.q <= 0.0:
                raise InvalidArgumentError("variant 3 needs Q > 0")


def design_comb(spec: CombSpec) -> FilterCoefficients:
    """Comb filter coefficients as a first-order aperiodic-pass rational.

    Variants 1-2 come from 1 - ((1-g)(1-b)/2) * (1+Z)/(1-bZ); variant 3 is
    beta*(1-Z)/(1-alpha*Z) with alpha, beta derived from the quality factor.
    """
    if spec.variant in (1, 2):
        k = 0.5 * (1.0 - spec.g) * (1.0 - spec.b)
        d0 = 1.0 - k
        d1 = -spec.b - k
        c1 = -spec.b
    else:
        gamma = (math.sqrt(1.0 - spec.gain_mag**2) / spec.gain_mag) * math.tan(
            math.pi / (2.0 * spec.q)
        )
        alpha = (1.0 - gamma) / (1.0 + gamma)
        beta = 1.0 / (1.0 + gamma)
        d0 = beta
        d1 = -beta
        c1 = -alpha
    return FilterCoefficients(
        kind=APERIODIC_PASS,
        realization=f"comb{spec.variant}",
        order=1,
        period=spec.period,
        sampling_time=spec.sampling_time,
        feedback=[c1],
        feedforward=[d0, d1],
    )


def comb_pair(spec: CombSpec) -> tuple[FilterCoefficients, FilterCoefficients]:
    """(quasi-periodic companion, comb) pair for the separation runtime.

    The periodic channel is the exact complement, so running the pair yields
    xp = x - xa sample for sample.
    """
    comb = design_comb(spec)
    companion = _complement(comb, PERIODIC_PASS)
    return companion, comb
