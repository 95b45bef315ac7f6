"""Tri-hybrid (digital / analog / pinching) beamforming simulator and analysis."""

from .analysis import (
    ApproximationWarning,
    BoundsReport,
    EnvelopeReport,
    asymptotic_envelope,
    gain_approx,
    gain_kernel,
    gain_lower,
    gain_upper,
    snr_bounds,
    snr_linear,
    surrogate_max_spacing,
)
from .baseline import FixedArray, baseline_capacity, fixed_array
from .beamforming import BeamformerSolution, CapacityReport, capacity, multi_rf_solution, single_rf_solution
from .config import ConfigError, ExperimentConfig, load_config, parse_config_text
from .experiments import bounds_table, dump_placement, render_sweep_csv, run_sweep, selftest
from .model import (
    SPEED_OF_LIGHT,
    EffectiveChannel,
    FeasibilityError,
    PinchingConfig,
    SystemParams,
    UserPosition,
    Waveguide,
    WaveguideLayout,
    effective_channel,
    los_coefficient,
    waveguide_vector,
)
from .oracle import direct_phase_chain, grid_search_gain
from .placement import (
    RefinementResult,
    refine_all,
    refine_shift,
    refine_shift_outward,
    refine_waveguide,
)

__version__ = "0.1.0"


__all__ = [
    "ApproximationWarning",
    "BeamformerSolution",
    "BoundsReport",
    "CapacityReport",
    "ConfigError",
    "EffectiveChannel",
    "EnvelopeReport",
    "ExperimentConfig",
    "FeasibilityError",
    "FixedArray",
    "PinchingConfig",
    "RefinementResult",
    "SPEED_OF_LIGHT",
    "SystemParams",
    "UserPosition",
    "Waveguide",
    "WaveguideLayout",
    "asymptotic_envelope",
    "baseline_capacity",
    "bounds_table",
    "capacity",
    "direct_phase_chain",
    "dump_placement",
    "effective_channel",
    "fixed_array",
    "gain_approx",
    "gain_kernel",
    "gain_lower",
    "gain_upper",
    "grid_search_gain",
    "load_config",
    "los_coefficient",
    "multi_rf_solution",
    "parse_config_text",
    "refine_all",
    "refine_shift",
    "refine_shift_outward",
    "refine_waveguide",
    "render_sweep_csv",
    "run_sweep",
    "selftest",
    "single_rf_solution",
    "snr_bounds",
    "snr_linear",
    "surrogate_max_spacing",
    "waveguide_vector",
]
