"""homsim: simulator and analysis toolkit for two-photon interference
between independent pulsed single-photon sources on a beamsplitter.
"""

from .calib import (
    SplitterMeasurement,
    dolp,
    fit_loss,
    fringe_visibility,
    outcoupling_imbalance,
    splitting_ratio,
)
from .config import (
    AnalysisSpec,
    ScenarioConfig,
    config_digest,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)
from .correlate import (
    CorrelationHistogram,
    PeakAnalysis,
    Timetrace,
    cross_correlate,
    estimate_background,
    hom_visibility,
    integrate_peaks,
    timetrace,
)
from .fitting import (
    FitResult,
    ModelDomainError,
    deconvolve_lorentzian,
    exp_conv_gauss,
    fit_biexp_irf,
    fit_g2cw,
    fit_lorentzian,
    nlls_solve,
)
from .formats import read_ptg1, write_ptg1
from .interfere import (
    coherence_kernel,
    envelope_cross_correlation,
    g2_closed_form,
    postselected_visibility,
    predicted_hom_dip,
    visibility_closed_form,
    visibility_numeric,
)
from .model import (
    HBAR_UEV_PS,
    CircuitSpec,
    ConfigurationError,
    DetectorSpec,
    EmitterSpec,
    EstimationError,
    PulseTrainSpec,
    ValidationError,
    detuning_to_angular,
    t2_from_linewidth,
)
from .simulate import (
    SimulationCounters,
    TimeTagStream,
    delayed_reference,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisSpec",
    "CircuitSpec",
    "ConfigurationError",
    "CorrelationHistogram",
    "DetectorSpec",
    "EmitterSpec",
    "EstimationError",
    "FitResult",
    "HBAR_UEV_PS",
    "ModelDomainError",
    "PeakAnalysis",
    "PulseTrainSpec",
    "ScenarioConfig",
    "SimulationCounters",
    "SplitterMeasurement",
    "TimeTagStream",
    "Timetrace",
    "ValidationError",
    "coherence_kernel",
    "config_digest",
    "cross_correlate",
    "deconvolve_lorentzian",
    "delayed_reference",
    "detuning_to_angular",
    "dolp",
    "envelope_cross_correlation",
    "estimate_background",
    "exp_conv_gauss",
    "fit_biexp_irf",
    "fit_g2cw",
    "fit_lorentzian",
    "fit_loss",
    "fringe_visibility",
    "g2_closed_form",
    "hom_visibility",
    "integrate_peaks",
    "load_scenario",
    "nlls_solve",
    "outcoupling_imbalance",
    "parse_scenario",
    "postselected_visibility",
    "predicted_hom_dip",
    "read_ptg1",
    "run_simulation",
    "scenario_to_dict",
    "splitting_ratio",
    "t2_from_linewidth",
    "timetrace",
    "visibility_closed_form",
    "visibility_numeric",
    "write_ptg1",
]
