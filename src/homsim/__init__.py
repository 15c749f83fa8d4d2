"""homsim: simulator and analysis toolkit for two-photon interference
between independent pulsed single-photon sources on a beamsplitter.

homsim.<name> imports on first access (PEP 562) the module that defines an
exported name, or the module of that name, so that `import homsim` loads no
submodule and a command loads only its own.
"""

__version__ = "0.1.0"

# Each exported name by the module that defines it.
_HOMES = {
    "calib": (
        "SplitterMeasurement", "dolp", "fit_loss", "fringe_visibility", "outcoupling_imbalance",
        "splitting_ratio",
    ),
    "config": (
        "AnalysisSpec", "ScenarioConfig", "config_digest", "load_scenario", "parse_scenario",
        "scenario_to_dict",
    ),
    "correlate": (
        "CorrelationHistogram", "PeakAnalysis", "Timetrace", "cross_correlate",
        "estimate_background", "hom_visibility", "integrate_peaks", "timetrace",
    ),
    "fitting": (
        "FitResult", "deconvolve_lorentzian", "exp_conv_gauss", "fit_biexp_irf", "fit_g2cw",
        "fit_lorentzian", "nlls_solve",
    ),
    "formats": ("TimeTagStream", "read_ptg1", "write_ptg1"),
    "interfere": (
        "coherence_kernel", "envelope_cross_correlation", "g2_closed_form",
        "postselected_visibility", "predicted_hom_dip", "visibility_closed_form",
        "visibility_numeric",
    ),
    "model": (
        "HBAR_UEV_PS", "CircuitSpec", "ConfigurationError", "DetectorSpec", "EmitterSpec",
        "EstimationError", "ModelDomainError", "PulseTrainSpec", "ValidationError",
        "detuning_to_angular", "t2_from_linewidth",
    ),
    "simulate": ("SimulationCounters", "delayed_reference", "run_simulation"),
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_EXPORTS)


def _submodule(name):
    # __import__, unlike importlib.import_module, shows in python -X importtime
    return __import__("%s.%s" % (__name__, name), fromlist=[name])


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(_submodule(_EXPORTS[name]), name)
    elif name in _HOMES:
        value = _submodule(name)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value
