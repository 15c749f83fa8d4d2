"""Nonlinear least-squares solver and the fit models used by the toolkit.

The solver wraps scipy.optimize.least_squares (trust-region reflective, box
bounds) and takes the covariance from the SVD of its Jacobian. It serves the
fit models here and calib.dolp; the background floor of the correlation
analysis is solved in numpy (correlate.estimate_background). Decay and dip
models convolve exponentials with a Gaussian timing response in exact closed
form (exp_conv_gauss).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import FWHM_TO_SIGMA, ValidationError

_SQRT2 = np.sqrt(2.0)


class ModelDomainError(ValueError):
    """The model produced non-finite output at a requested parameter point."""


@dataclass(frozen=True)
class FitResult:
    """Solution of a weighted least-squares fit.

    status is one of "converged", "max_iter", "singular". Uncertainties are
    1-sigma values from the covariance of the solution; when no measurement
    sigma was supplied the covariance is scaled by the reduced chi-square.
    """

    param_names: tuple[str, ...]
    params: np.ndarray
    uncertainties: np.ndarray
    covariance: np.ndarray
    reduced_chisq: float
    status: str
    n_iter: int
    cost: float

    def __getitem__(self, name: str) -> float:
        return float(self.params[self.param_names.index(name)])

    def uncertainty(self, name: str) -> float:
        return float(self.uncertainties[self.param_names.index(name)])

    def as_dict(self) -> dict:
        return {
            "params": {n: float(v) for n, v in zip(self.param_names, self.params)},
            "uncertainties": {
                n: float(v) for n, v in zip(self.param_names, self.uncertainties)
            },
            "reduced_chisq": float(self.reduced_chisq),
            "status": self.status,
            "n_iter": int(self.n_iter),
            "cost": float(self.cost),
        }


def nlls_solve(
    model_fn,
    x: np.ndarray,
    y: np.ndarray,
    p0,
    sigma=None,
    bounds=None,
    param_names: tuple[str, ...] | None = None,
) -> FitResult:
    """Bounded least-squares fit of model_fn(x, p) to y.

    Parameters
    ----------
    model_fn : callable(x, p) -> ndarray
        Vectorized model evaluated on the full abscissa.
    sigma : ndarray or None
        Per-point 1-sigma weights. None means unweighted; in that case the
        covariance is rescaled by the reduced chi-square.
    bounds : sequence of (lo, hi) or None
        Box constraints; p0 must lie inside them.
    Notes
    -----
    The solver is scipy.optimize.least_squares (trust-region reflective,
    forward-difference Jacobian, variables scaled by the Jacobian's column
    norms). status is "converged" when it meets a tolerance, "max_iter" when
    it runs out of evaluations, and "singular" when the Jacobian at the
    solution is rank deficient: its smallest singular value is at most
    eps*max(J.shape) times the largest, the threshold curve_fit uses. The
    covariance is (J^T J)^-1 from the SVD of J. n_iter counts Jacobian
    evaluations.
    """
    from scipy.optimize import least_squares

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.array(p0, dtype=float)
    n_par = p.size
    _require_points(y, n_par)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(p))):
        raise ValidationError("data and initial parameters must be finite")
    if sigma is None:
        w = np.ones_like(y)
    else:
        w = np.asarray(sigma, dtype=float)
        if not np.all(w > 0):
            raise ValidationError("sigma values must be strictly positive")
    lo, hi = -np.inf, np.inf
    if bounds is not None:
        lo = np.array([b[0] for b in bounds], dtype=float)
        hi = np.array([b[1] for b in bounds], dtype=float)
        if np.any(p < lo) or np.any(p > hi):
            raise ValidationError("initial parameters violate the bounds")
    if param_names is None:
        param_names = tuple("p%d" % i for i in range(n_par))

    def resid(pv: np.ndarray) -> np.ndarray:
        m = model_fn(x, pv)
        m = np.asarray(m, dtype=float)
        if not np.all(np.isfinite(m)):
            raise ModelDomainError(
                "model returned non-finite values at p=%s" % np.array_str(pv, precision=6)
            )
        return (m - y) / w

    sol = least_squares(resid, p, bounds=(lo, hi), method="trf", x_scale="jac")
    cost = 2.0 * float(sol.cost)
    red_chisq = cost / max(y.size - n_par, 1)
    status = "converged" if sol.status > 0 else "max_iter"
    _, s, vt = np.linalg.svd(sol.jac, full_matrices=False)
    if s[-1] > np.finfo(float).eps * max(sol.jac.shape) * s[0]:
        cov = (vt.T / s**2) @ vt
        if sigma is None:
            cov = cov * red_chisq
    else:
        cov = np.full((n_par, n_par), np.inf)
        status = "singular"
    return FitResult(
        param_names=tuple(param_names),
        params=sol.x,
        uncertainties=np.sqrt(np.diag(cov)),
        covariance=cov,
        reduced_chisq=red_chisq,
        status=status,
        n_iter=int(sol.njev),
        cost=cost,
    )


def _require_points(y: np.ndarray, n_par: int) -> None:
    """The solver's size rule, also checked before a fit's initial guess."""
    if y.size <= n_par:
        raise ValidationError("need more data points than parameters")


def exp_conv_gauss(u, tau: float, sigma: float):
    """Exact one-sided exponential decay convolved with a unit-area Gaussian.

    Returns exp(-u/tau) * theta(u) convolved with N(0, sigma^2), evaluated
    stably via the scaled complementary error function.
    """
    u = np.asarray(u, dtype=float)
    if tau <= 0:
        raise ValidationError("decay constant must be strictly positive")
    if sigma < 0:
        raise ValidationError("sigma must be >= 0")
    if sigma == 0.0:
        out = np.where(u >= 0.0, np.exp(-np.clip(u, 0.0, None) / tau), 0.0)
        return out if out.ndim else float(out)
    from scipy.special import erfcx

    z = (sigma / tau - u / sigma) / _SQRT2
    out = np.empty_like(u, dtype=float)
    safe = z < 25.0
    # Large positive z underflows anyway; at large negative z erfcx blows up
    # as e^{z^2} and the plain exponential form is exact, so clip the erfcx
    # argument to the band where its branch is actually selected.
    zs = np.clip(z, -25.0, 25.0)
    out_safe = 0.5 * erfcx(zs) * np.exp(-0.5 * (u / sigma) ** 2)
    plain = np.exp(np.clip(0.5 * (sigma / tau) ** 2 - u / tau, None, 700.0))
    out = np.where(z <= -25.0, plain, np.where(safe, out_safe, 0.0))
    return out if out.ndim else float(out)


def _biexp_model(t, p, sigma_irf):
    amp, t0, tau_f, tau_s, f_slow, base = p
    u = np.asarray(t, dtype=float) - t0
    return base + amp * (
        (1.0 - f_slow) * exp_conv_gauss(u, tau_f, sigma_irf)
        + f_slow * exp_conv_gauss(u, tau_s, sigma_irf)
    )


def fit_biexp_irf(
    t_ps: np.ndarray,
    counts: np.ndarray,
    irf_fwhm_ps: float,
    init=None,
) -> FitResult:
    """Fit a bi-exponential decay convolved with the Gaussian timing response.

    Model: baseline + amp * [(1-f_slow) exp(-(t-t0)/tau_fast)
                             + f_slow exp(-(t-t0)/tau_slow)] (x) IRF.
    Each count y is weighted by its Poisson error sqrt(max(y, 1)); an
    empty bin counts as one. init overrides the automatic initial guess.
    The returned parameters satisfy tau_fast < tau_slow (swapped into
    canonical order if the solver exits mirrored).
    """
    t = np.asarray(t_ps, dtype=float)
    y = np.asarray(counts, dtype=float)
    sigma_irf = irf_fwhm_ps / FWHM_TO_SIGMA
    names = ("amp", "t0", "tau_fast", "tau_slow", "frac_slow", "baseline")
    _require_points(y, len(names))
    if init is None:
        base0 = float(max(np.min(y), 0.0))
        i_max = int(np.argmax(y))
        amp0 = float(max(np.max(y) - base0, 1.0))
        t00 = float(t[i_max])
        tail = y[i_max:] - base0
        # first 1/e crossing after the peak; the last-above-threshold bin is
        # unreliable when a folded trace wraps counts to the end of the span
        below = np.flatnonzero(tail < amp0 / np.e)
        tau0 = float(t[i_max + below[0]] - t00) if below.size else (t[-1] - t00) / 3.0
        tau0 = max(tau0, 2.0 * (t[1] - t[0]))
        init = (amp0, t00, tau0, 10.0 * tau0, 0.05, base0)
    bounds = [
        (0.0, np.inf),
        (t[0] - (t[-1] - t[0]), t[-1]),
        (1e-6, np.inf),
        (1e-6, np.inf),
        (0.0, 1.0),
        (0.0, np.inf),
    ]
    res = nlls_solve(
        lambda tt, p: _biexp_model(tt, p, sigma_irf),
        t,
        y,
        init,
        sigma=np.sqrt(np.maximum(y, 1.0)),
        bounds=bounds,
        param_names=names,
    )
    if res.params[2] > res.params[3]:
        order = [0, 1, 3, 2, 4, 5]
        params = res.params[order].copy()
        params[4] = 1.0 - params[4]
        res = replace(
            res,
            params=params,
            uncertainties=res.uncertainties[order],
            covariance=res.covariance[np.ix_(order, order)],
        )
    return res


def _g2cw_model(tau, p, sigma_irf):
    g0, tau_d = p
    tau = np.asarray(tau, dtype=float)
    dip = exp_conv_gauss(tau, tau_d, sigma_irf) + exp_conv_gauss(-tau, tau_d, sigma_irf)
    return 1.0 - (1.0 - g0) * dip


def fit_g2cw(tau_ps: np.ndarray, g2: np.ndarray, irf_fwhm_ps: float) -> FitResult:
    """Fit the continuous-wave antibunching dip.

    Model: g(tau) = 1 - (1 - g0) * exp(-|tau|/tau_d), convolved with the
    Gaussian timing response. Data are assumed normalized to 1 far from
    zero delay. The fit is unweighted.
    """
    tau = np.asarray(tau_ps, dtype=float)
    y = np.asarray(g2, dtype=float)
    sigma_irf = irf_fwhm_ps / FWHM_TO_SIGMA
    g0_0 = float(np.clip(np.min(y), 0.0, 1.0))
    span = float(tau[-1] - tau[0])
    return nlls_solve(
        lambda tt, p: _g2cw_model(tt, p, sigma_irf),
        tau,
        y,
        (g0_0, max(span / 20.0, 1.0)),
        bounds=[(0.0, 2.0), (1e-6, np.inf)],
        param_names=("g0", "tau_d"),
    )


def _lorentzian_model(e, p):
    area, e0, fwhm, base = p
    e = np.asarray(e, dtype=float)
    return base + (2.0 * area / np.pi) * fwhm / (4.0 * (e - e0) ** 2 + fwhm**2)


def fit_lorentzian(energy_uev: np.ndarray, y: np.ndarray) -> FitResult:
    """Unweighted fit of a Lorentzian line: baseline + (2A/pi) * w / (4(E-E0)^2 + w^2)."""
    e = np.asarray(energy_uev, dtype=float)
    yv = np.asarray(y, dtype=float)
    _require_points(yv, 4)
    base0 = float(np.min(yv))
    i_max = int(np.argmax(yv))
    height = float(yv[i_max] - base0)
    half = base0 + height / 2.0
    above = np.flatnonzero(yv >= half)
    fwhm0 = float(e[above[-1]] - e[above[0]]) if above.size > 1 else float(e[1] - e[0])
    fwhm0 = max(fwhm0, float(np.min(np.diff(e))))
    return nlls_solve(
        _lorentzian_model,
        e,
        yv,
        (height * np.pi * fwhm0 / 2.0, float(e[i_max]), fwhm0, base0),
        bounds=[(0.0, np.inf), (e[0], e[-1]), (1e-9, np.inf), (-np.inf, np.inf)],
        param_names=("area", "center", "fwhm", "baseline"),
    )


def deconvolve_lorentzian(measured_fwhm_uev: float, instrument_fwhm_uev: float) -> float:
    """Intrinsic Lorentzian width: widths of Lorentzians add under convolution."""
    if instrument_fwhm_uev < 0:
        raise ValidationError("instrument width must be >= 0")
    if measured_fwhm_uev <= instrument_fwhm_uev:
        raise ValidationError(
            "measured width %.4g must exceed the instrument width %.4g"
            % (measured_fwhm_uev, instrument_fwhm_uev)
        )
    return measured_fwhm_uev - instrument_fwhm_uev
