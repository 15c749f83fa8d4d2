"""Physical parameter containers, validation, and unit conversions, and the
rules that simulation and analysis share: the correlation grid, the dead
zones and the peak comb, and the HOMSIM_THREADS worker count and its pool.

All times are picoseconds, energies are micro-eV offsets from a common
reference, rates are per second unless a suffix says otherwise.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

# Reduced Planck constant in ueV*ps (CODATA hbar = 6.582119569e-16 eV s).
HBAR_UEV_PS = 658.2119569

# Gaussian FWHM to sigma: 2*sqrt(2*ln 2).
FWHM_TO_SIGMA = 2.3548200450309493


class ValidationError(ValueError):
    """A parameter set violates its declared invariants."""


class ConfigurationError(ValidationError):
    """An analysis was configured inconsistently (grids, windows, combs), or a
    scenario file breaks its schema: a kind of invalid input."""


class EstimationError(RuntimeError):
    """An estimator could not produce a meaningful value from its input."""


class ModelDomainError(ValueError):
    """The model produced non-finite output at a requested parameter point."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _require_finite(spec) -> None:
    """Reject NaN and infinite values in any float field of a spec."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            _require(
                not isinstance(v, float) or math.isfinite(v),
                "%s must be finite, got %r" % (f.name, value),
            )


def t2_from_linewidth(linewidth_uev: float) -> float:
    """Coherence time (ps) of a Lorentzian line of the given FWHM (ueV), or the
    FWHM of a given coherence time: 2*hbar/x is its own inverse."""
    if not linewidth_uev > 0:
        raise ValidationError("linewidth must be positive, got %r" % (linewidth_uev,))
    return 2.0 * HBAR_UEV_PS / linewidth_uev


def detuning_to_angular(delta_uev: float) -> float:
    """Energy detuning (ueV) to angular frequency difference (rad/ps)."""
    return delta_uev / HBAR_UEV_PS


@dataclass(frozen=True)
class EmitterSpec:
    """One solid-state single-photon emitter.

    The decay is a bi-exponential mixture: a fast radiative component
    t1_fast_ps and a slow recapture-fed component t1_slow_ps carrying
    slow_fraction of the emission. t2_ps is the first-order coherence time,
    bounded by the Fourier limit t2 <= 2*t1_fast. double_prob is the
    per-pulse probability of one extra recapture photon drawn from the slow
    decay. Blinking is a two-state telegraph gate with the given switching
    rates (0 disables it).
    """

    energy_uev: float
    t1_fast_ps: float
    t1_slow_ps: float
    slow_fraction: float
    t2_ps: float
    emission_prob: float = 0.5
    double_prob: float = 0.0
    blink_on_rate_per_s: float = 0.0
    blink_off_rate_per_s: float = 0.0
    spectral_diffusion_sigma_uev: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        _require(self.t1_fast_ps > 0, "t1_fast_ps must be strictly positive")
        _require(self.t1_slow_ps > 0, "t1_slow_ps must be strictly positive")
        _require(self.t2_ps > 0, "t2_ps must be strictly positive")
        for name in ("t1_fast_ps", "t2_ps"):
            _require(
                math.isfinite(1.0 / getattr(self, name)),
                "%s is too short: its rate 1/%s overflows" % (name, name),
            )
        _require(
            self.t2_ps <= 2.0 * self.t1_fast_ps + 1e-12 * self.t1_fast_ps,
            "t2_ps must not exceed 2*t1_fast_ps (Fourier limit)",
        )
        _require(0.0 <= self.emission_prob <= 1.0, "emission_prob must be in [0, 1]")
        _require(0.0 <= self.double_prob < 1.0, "double_prob must be in [0, 1)")
        _require(0.0 <= self.slow_fraction < 1.0, "slow_fraction must be in [0, 1)")
        _require(self.blink_on_rate_per_s >= 0, "blink_on_rate_per_s must be >= 0")
        _require(self.blink_off_rate_per_s >= 0, "blink_off_rate_per_s must be >= 0")
        _require(
            math.isfinite(self.blink_on_rate_per_s + self.blink_off_rate_per_s),
            "blink_on_rate_per_s + blink_off_rate_per_s overflows",
        )
        _require(
            self.spectral_diffusion_sigma_uev >= 0,
            "spectral_diffusion_sigma_uev must be >= 0",
        )

    @property
    def pure_dephasing_rate(self) -> float:
        """gamma* = 1/t2 - 1/(2 t1_fast), per ps; >= 0 by the Fourier limit."""
        return max(1.0 / self.t2_ps - 0.5 / self.t1_fast_ps, 0.0)

    @property
    def radiative_rate(self) -> float:
        """1/t1_fast, per ps."""
        return 1.0 / self.t1_fast_ps


@dataclass(frozen=True)
class CircuitSpec:
    """The interference circuit: one 2x2 coupler plus arm transmissions.

    reflectance is the same-side intensity coefficient r; transmittance is
    t = 1 - r. arm_transmission holds (input1, input2, output1, output2)
    intensity transmissions. pol_overlap scales the interference term, and
    classical_visibility optionally caps the achievable contrast further
    (None means no cap).
    """

    reflectance: float = 0.5
    pol_overlap: float = 1.0
    arm_transmission: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    classical_visibility: float | None = None

    def __post_init__(self) -> None:
        _require_finite(self)
        _require(0.0 < self.reflectance < 1.0, "reflectance must be in (0, 1)")
        _require(0.0 <= self.pol_overlap <= 1.0, "pol_overlap must be in [0, 1]")
        _require(len(self.arm_transmission) == 4, "arm_transmission needs 4 values")
        for v in self.arm_transmission:
            _require(0.0 < v <= 1.0, "arm transmissions must be in (0, 1]")
        if self.classical_visibility is not None:
            _require(
                0.0 <= self.classical_visibility <= 1.0,
                "classical_visibility must be in [0, 1]",
            )

    @property
    def transmittance(self) -> float:
        return 1.0 - self.reflectance

    @property
    def overlap(self) -> float:
        """pol_overlap times the classical_visibility cap: the kernel's factor."""
        cap = 1.0 if self.classical_visibility is None else self.classical_visibility
        return self.pol_overlap * cap


@dataclass(frozen=True)
class DetectorSpec:
    """Detection chain: Gaussian timing response, darks, efficiency, dead time."""

    irf_fwhm_ps: float = 0.0
    dark_rate_cps: float = 0.0
    efficiency: float = 1.0
    dead_time_ps: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        _require(self.irf_fwhm_ps >= 0, "irf_fwhm_ps must be >= 0")
        _require(self.dark_rate_cps >= 0, "dark_rate_cps must be >= 0")
        _require(0.0 < self.efficiency <= 1.0, "efficiency must be in (0, 1]")
        _require(self.dead_time_ps >= 0, "dead_time_ps must be >= 0")

    @property
    def irf_sigma_ps(self) -> float:
        return self.irf_fwhm_ps / FWHM_TO_SIGMA


@dataclass(frozen=True)
class PulseTrainSpec:
    """Shared excitation pulse train.

    source_delay_ps is the intentional inter-source excitation delay applied
    to source 2 (0 for synchronized operation).
    """

    rep_rate_mhz: float
    n_pulses: int
    source_delay_ps: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        _require(self.rep_rate_mhz > 0, "rep_rate_mhz must be strictly positive")
        _require(
            isinstance(self.n_pulses, int) and self.n_pulses >= 0,
            "n_pulses must be a non-negative integer",
        )
        _require(self.source_delay_ps >= 0, "source_delay_ps must be >= 0")
        _require(
            self.source_delay_ps < self.period_ps / 2.0,
            "source_delay_ps must be below half the pulse period",
        )

    @property
    def period_ps(self) -> float:
        return 1.0e6 / self.rep_rate_mhz

    @property
    def span_ps(self) -> float:
        return self.n_pulses * self.period_ps


def _grid_bins(bin_width_ps, window_ps, prefix="") -> int:
    """The bin count 2*window/bin_width of a correlation grid: an even count
    >= 2 of bins >= 1 ps wide (tags are integer ps). prefix goes before the
    field an error names."""
    if not 1.0 <= bin_width_ps < np.inf:
        raise ValidationError("%sbin_width_ps must be finite and >= 1 ps" % prefix)
    if not 0.0 < window_ps < np.inf:
        raise ValidationError("%swindow_ps must be positive and finite" % prefix)
    quotient = 2.0 * window_ps / bin_width_ps
    if not (1.0 <= quotient < math.inf and abs(quotient / 2.0 - round(quotient / 2.0)) <= 5e-10):
        raise ConfigurationError(
            "correlation window %g ps over bin width %g ps gives %g bins, not an even "
            "count >= 2: %sbin_width_ps must split twice the window evenly"
            % (window_ps, bin_width_ps, quotient, prefix)
        )
    return 2 * round(quotient / 2.0)


def _dead_zone_edge(period_ps, window_ps, bin_width_ps, delta_t_ps, prefix="") -> float:
    """delta_t/2 plus a bin, how far past a peak centre estimate_background's
    dead zones start. A window of 3 periods holds two whole gaps between peaks,
    each with a bin centre in its dead zone when that is longer than a bin."""
    if window_ps < 1.5 * period_ps:
        raise ConfigurationError("%swindow_ps must cover >= 3 periods for the floor fit" % prefix)
    edge = delta_t_ps / 2.0 + bin_width_ps
    if not period_ps - 2.0 * edge > bin_width_ps:
        msg = "no dead-zone bins between peaks; reduce %sdelta_t_ps or %sbin_width_ps"
        raise ConfigurationError(msg % (prefix, prefix))
    return edge


def _comb_ks(period_ps, window_ps, delta_t_ps, n_side, prefix="", width=None):
    """integrate_peaks's peaks k = -n_side/2 .. n_side/2, whose windows of
    delta_t_ps must keep apart and fit in the histogram window. An error
    names delta_t_ps as width, by default the field prefix + "delta_t_ps"."""
    if not 0 < delta_t_ps <= period_ps:
        msg = "%s %g ps must be positive and at most the period %g ps (peaks overlap)"
        raise ConfigurationError(msg % (width or prefix + "delta_t_ps", delta_t_ps, period_ps))
    if n_side < 2 or n_side % 2:
        raise ConfigurationError("%sn_side must be a positive even count of side peaks" % prefix)
    outermost = n_side // 2 * period_ps + delta_t_ps / 2.0
    if outermost > window_ps:
        msg = "%sn_side peak comb (outermost edge %g ps) does not fit in the +-%g ps %swindow_ps"
        raise ConfigurationError(msg % (prefix, outermost, window_ps, prefix))
    return np.arange(-(n_side // 2), n_side // 2 + 1)


def _worker_count() -> int:
    env = os.environ.get("HOMSIM_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ConfigurationError("HOMSIM_THREADS must be an integer") from exc
        if n < 1:
            raise ConfigurationError("HOMSIM_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def _map_chunks(fn, items):
    """Yields fn(item) for each item in order, from a pool of _worker_count()
    threads that runs at most two items per thread ahead of the consumer."""
    # here, so that the modules that load model but map nothing skip them
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    workers = _worker_count()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = deque()
        for item in items:
            ahead.append(pool.submit(fn, item))
            if len(ahead) > 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
