"""Separation of sampled states into quasi-periodic and quasi-aperiodic parts.

Filter design (bilinear IIR, equiripple FIR, complements), a streaming
separator runtime with period-strided delays, comb-filter baselines, and a
Kalman estimator that splits its state estimates each step.
"""

from .baselines import CombSpec, comb_pair, design_comb
from .design import (
    APERIODIC_PASS,
    PERIODIC_PASS,
    FilterCoefficients,
    SeparationSpec,
    StabilityReport,
    check_stability,
    design_fir_equiripple,
    design_iir,
    load_coefficients,
    make_complementary,
    save_coefficients,
)
from .kalman import KalmanBelief, SystemModel, kf_predict, kf_update
from .kfpasf import KfPasfState, KfPasfStep, zero_histories
from .lifting import lift, unlift
from .metrics import (
    SpectrumClassification,
    classify_lifted,
    interference_rms,
    orthogonality_defect,
    synthesize_banded,
)
from .response import BodeTable, bode_table, eval_response
from .runtime import PasfState
from .signals import NoiseSpec, eval_signal, eval_signal_array

__version__ = "0.1.0"
