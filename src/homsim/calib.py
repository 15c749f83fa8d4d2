"""Circuit calibration estimators.

Directional-coupler splitting ratio from two drive experiments, classical
fringe contrast, degree of linear polarization from an analyzer sweep, and
propagation loss from a cut-back intensity series.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import ValidationError


@dataclass(frozen=True)
class SplitterMeasurement:
    """Output intensities of the two drive experiments.

    i11/i12: intensities at outputs 1/2 with input 1 driven;
    i21/i22: intensities at outputs 1/2 with input 2 driven.
    Arbitrary but per-experiment-consistent units; the output-coupling
    imbalance cancels in the ratio estimator.
    """

    i11: float
    i12: float
    i21: float
    i22: float

    def __post_init__(self) -> None:
        for name in ("i11", "i12", "i21", "i22"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValidationError("%s must be strictly positive and finite" % name)

    @classmethod
    def from_drive_pairs(cls, bar1: float, cross1: float, bar2: float, cross2: float):
        """Build from per-drive (same-arm, opposite-arm) intensity pairs.

        Drive 1: bar1 = output 1, cross1 = output 2.
        Drive 2: bar2 = output 2, cross2 = output 1.
        """
        return cls(i11=bar1, i12=cross1, i21=cross2, i22=bar2)


def _finite(name: str, values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValidationError("%s must be finite" % name)
    return v


def splitting_ratio(m: SplitterMeasurement) -> tuple[float, float]:
    """Coupler splitting ratio (r, t), r + t = 1.

    r/t = sqrt[(i11/i12) * (i22/i21)]; the geometric mean over the two
    drives cancels any fixed per-output collection imbalance. r and t are
    1/(1 + t/r) and 1/(1 + r/t), from sums of logs, so that they stay finite
    and in [0, 1] for any positive finite intensities.
    """
    log_ratio = 0.5 * (np.log(m.i11) - np.log(m.i12) + np.log(m.i22) - np.log(m.i21))
    r, t = np.exp(-np.logaddexp(0.0, (-log_ratio, log_ratio)))
    return float(r), float(t)


def outcoupling_imbalance(m: SplitterMeasurement) -> float:
    """Diagnostic ratio of the two output-collection efficiencies.

    x = sqrt[(i11/i12) / (i22/i21)]: the factor by which output 1 is
    collected more efficiently than output 2, from sums of logs. Raises
    ValidationError where x overflows or underflows a float.
    """
    log_x = 0.5 * (np.log(m.i11) - np.log(m.i12) - np.log(m.i22) + np.log(m.i21))
    with np.errstate(over="ignore"):
        x = float(np.exp(log_x))
    if not 0.0 < x < np.inf:
        raise ValidationError("outcoupling imbalance exp(%g) is out of float range" % log_x)
    return x


def fringe_visibility(
    intensity: np.ndarray, mode: str = "raw"
) -> tuple[float, float]:
    """Classical fringe contrast (I_max - I_min)/(I_max + I_min).

    mode "raw" uses the exact extrema (right for noiseless traces); mode
    "clipped" takes 0.5%/99.5% percentiles to resist single-sample
    outliers. The error combines the sample spread of the top and bottom
    1% of the trace. A structureless trace, or a clipped one whose
    extrema are both 0, returns 0 with a warning.
    Returns (V, V_err).
    """
    y = _finite("intensities", intensity)
    if y.size < 2:
        raise ValidationError("need at least two intensity samples")
    if np.any(y < 0):
        raise ValidationError("intensities must be >= 0")
    if np.ptp(y) == 0:
        warnings.warn("flat trace: fringe visibility is 0", RuntimeWarning)
        return 0.0, 0.0
    if mode == "raw":
        i_max = float(np.max(y))
        i_min = float(np.min(y))
    elif mode == "clipped":
        i_max = float(np.percentile(y, 99.5))
        i_min = float(np.percentile(y, 0.5))
    else:
        raise ValidationError("mode must be 'raw' or 'clipped'")
    top = y[y >= np.percentile(y, 99.0)]
    bot = y[y <= np.percentile(y, 1.0)]
    s_max = float(np.std(top, ddof=1)) if top.size > 1 else 0.0
    s_min = float(np.std(bot, ddof=1)) if bot.size > 1 else 0.0
    total = i_max + i_min
    if total == 0.0:
        warnings.warn("clipped extrema are both 0: fringe visibility is 0", RuntimeWarning)
        return 0.0, 0.0
    v = (i_max - i_min) / total
    # dV/dI_max = 2 I_min / total**2 (and alike for I_min); every factor is
    # divided by total on its own, as total**2 underflows below ~1e-154
    v_err = 2.0 * np.hypot(
        i_min / total * (s_max / total), i_max / total * (s_min / total)
    )
    return float(v), float(v_err)


def dolp(angles_deg: np.ndarray, intensity: np.ndarray) -> tuple[float, float]:
    """Degree of linear polarization from an analyzer-angle sweep.

    I0*(1 + rho*cos 2(theta - theta0)) = a + b*cos 2theta + c*sin 2theta is
    linear in (a, b, c), so one least-squares solve fits it. DOLP is
    rho = hypot(b, c)/a = (I_max - I_min)/(I_max + I_min), capped at 1; its
    error is the delta method on cov = (A^T A)^-1 * chi^2/(n - 3), the
    unweighted covariance of fitting.nlls_solve. Returns (dolp, error).
    """
    th = _finite("angles", angles_deg)
    y = _finite("intensities", intensity)
    if th.size != y.size:
        raise ValidationError("angle and intensity arrays must match")
    if th.size < 8:
        raise ValidationError("need >= 8 analyzer angles")
    if np.ptp(th) < 180.0 - 1e-9:
        raise ValidationError("analyzer sweep must span >= 180 degrees")
    two = 2.0 * np.deg2rad(th)
    design = np.column_stack((np.ones_like(two), np.cos(two), np.sin(two)))
    (a, b, c), chisq, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 3:
        raise ValidationError("analyzer angles must take >= 3 values modulo 180 degrees")
    if a <= 0:
        raise ValidationError("mean intensity must be positive")
    cov = np.linalg.inv(design.T @ design) * chisq[0] / (th.size - 3)
    amp, two_theta0 = np.hypot(b, c), np.arctan2(c, b)
    grad = np.array([-amp / a, np.cos(two_theta0), np.sin(two_theta0)]) / a  # d rho/d(a, b, c)
    return float(min(amp / a, 1.0)), float(np.sqrt(grad @ cov @ grad))


def fit_loss(
    distance_mm: np.ndarray, intensity: np.ndarray
) -> tuple[float, float]:
    """Propagation loss in dB/mm from intensities at several distances.

    Ordinary least squares of 10*log10(I) against distance; returns the
    slope magnitude and its standard error.
    """
    x = _finite("distances", distance_mm)
    y = _finite("intensities", intensity)
    if x.size != y.size:
        raise ValidationError("distance and intensity arrays must match")
    if x.size < 3:
        raise ValidationError("need >= 3 distances for a loss fit")
    if np.any(y <= 0):
        raise ValidationError("intensities must be strictly positive")
    if np.ptp(x) == 0:
        raise ValidationError("distances must not all coincide")
    db = 10.0 * np.log10(y)
    xm = x - x.mean()
    sxx = float(xm @ xm)
    slope = float(xm @ (db - db.mean())) / sxx
    resid = db - (db.mean() + slope * xm)
    dof = x.size - 2
    se = float(np.sqrt((resid @ resid) / dof / sxx)) if dof > 0 else 0.0
    return float(abs(slope)), se
