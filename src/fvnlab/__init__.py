"""fvnlab: acoustic measurement with frequency-domain velvet noise.

All-pass unit test signals, orthogonal-code multiplexing, pulse-compression
measurement with nonlinearity separation, fractional-octave smoothing, and
converter clock-drift alignment, plus a simulation harness to exercise the
whole chain.
"""

from . import fileio
from .align import BlockDelays, WarpMap, apply_warp, block_lags, track_block_delays
from .codes import build_code_matrix, verify_orthogonality
from .fvn import (
    SIX_TERM_COEFFS,
    FvnSpec,
    center_pulse,
    fvn_phase,
    phase_unit,
    synthesize_unit_fvn,
)
from .measure import (
    MeasurementResult,
    demultiplex,
    noise_floor,
    pulse_compress,
    separate_nonlinear,
    synchronized_average,
)
from .sequence import (
    ShapingFilter,
    assemble_sequence,
    coded_channels,
    design_slope_filter,
    inverse_shape,
    multiplex,
    shape_spectrum,
)
from .signal import SampledSignal
from .sim import DriftSpec, NoiseSpec, SimTarget, apply_drift, simulate
from .spectrum import (
    PowerSpectrum,
    SmoothedSpectrum,
    power_spectrum,
    third_octave_smooth,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDelays",
    "DriftSpec",
    "FvnSpec",
    "MeasurementResult",
    "NoiseSpec",
    "PowerSpectrum",
    "SIX_TERM_COEFFS",
    "SampledSignal",
    "ShapingFilter",
    "SimTarget",
    "SmoothedSpectrum",
    "WarpMap",
    "apply_drift",
    "apply_warp",
    "assemble_sequence",
    "block_lags",
    "build_code_matrix",
    "center_pulse",
    "coded_channels",
    "demultiplex",
    "design_slope_filter",
    "fvn_phase",
    "inverse_shape",
    "multiplex",
    "noise_floor",
    "phase_unit",
    "power_spectrum",
    "pulse_compress",
    "separate_nonlinear",
    "shape_spectrum",
    "simulate",
    "synchronized_average",
    "synthesize_unit_fvn",
    "third_octave_smooth",
    "track_block_delays",
    "verify_orthogonality",
]
