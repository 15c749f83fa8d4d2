"""Bounded nonlinear least squares and the fit models used by the toolkit.

One numpy solver, _trf_least_squares, serves every fit here and the
background floor of the correlation analysis (correlate.estimate_background).
It is the trust-region reflective method of scipy.optimize.least_squares for
box bounds, in numpy alone, so no homsim module imports scipy. Decay and dip models convolve exponentials
with a Gaussian timing response in exact closed form (exp_conv_gauss).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import FWHM_TO_SIGMA, ModelDomainError, ValidationError

_SQRT2 = np.sqrt(2.0)
_EPS = np.finfo(float).eps


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
    The solver is _trf_least_squares: trust-region reflective,
    forward-difference Jacobian, variables scaled by the Jacobian's column
    norms, the method of scipy.optimize.least_squares(method="trf",
    x_scale="jac"). status is "converged" when it meets a tolerance,
    "max_iter" when it runs out of evaluations, and "singular" when the
    Jacobian at the solution is rank deficient: its smallest singular value
    is at most eps*max(J.shape) times the largest, the threshold curve_fit
    uses. The covariance is (J^T J)^-1 from the SVD of J. n_iter counts
    Jacobian evaluations.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.array(p0, dtype=float)
    n_par = p.size
    _require_points(x, y, n_par)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(p))):
        raise ValidationError("data and initial parameters must be finite")
    if sigma is None:
        w = np.ones_like(y)
    else:
        w = np.asarray(sigma, dtype=float)
        if not np.all(w > 0):
            raise ValidationError("sigma values must be strictly positive")
    lo, hi = np.full(n_par, -np.inf), np.full(n_par, np.inf)
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

    params, r, jac, n_jac, converged = _trf_least_squares(resid, p, lo, hi)
    cost = float(r @ r)
    red_chisq = cost / max(y.size - n_par, 1)
    status = "converged" if converged else "max_iter"
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    if s[-1] > _EPS * max(jac.shape) * s[0]:
        cov = (vt.T / s**2) @ vt
        if sigma is None:
            cov = cov * red_chisq
    else:
        cov = np.full((n_par, n_par), np.inf)
        status = "singular"
    return FitResult(
        param_names=tuple(param_names),
        params=params,
        uncertainties=np.sqrt(np.diag(cov)),
        covariance=cov,
        reduced_chisq=red_chisq,
        status=status,
        n_iter=n_jac,
        cost=cost,
    )


# _trf_least_squares and its helpers port the bounded trust-region
# reflective path of scipy.optimize.least_squares (scipy/optimize/_lsq/
# trf.py and common.py, by Nikolay Mayorov) to numpy, under scipy's licence:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions are met:
# 1. Redistributions of source code must retain the above copyright notice,
#    this list of conditions and the following disclaimer.
# 2. Redistributions in binary form must reproduce the above copyright
#    notice, this list of conditions and the following disclaimer in the
#    documentation and/or other materials provided with the distribution.
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived from
#    this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS"
# AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE
# IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE
# ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT OWNER OR CONTRIBUTORS BE
# LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL, EXEMPLARY, OR
# CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF
# SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS
# INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN
# CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING NEGLIGENCE OR OTHERWISE)
# ARISING IN ANY WAY OUT OF THE USE OF THIS SOFTWARE, EVEN IF ADVISED OF THE
# POSSIBILITY OF SUCH DAMAGE.


def _trf_least_squares(fun, x0, lo, hi):
    """Minimum of |fun(x)|^2 over the box lo <= x <= hi, from x0 in the box.

    Trust-region reflective (Branch, Coleman and Li, SIAM J. Sci. Comput.
    21, 1 (1999)), as scipy.optimize.least_squares(method="trf",
    x_scale="jac") takes it for box bounds. The variables are scaled by the
    Jacobian's column norms and, after Coleman and Li, by their distance to
    the bound that the descent direction points at. Each step solves the
    trust-region problem exactly by the SVD of the scaled Jacobian. A step
    that would leave the box is cut at the first bound it crosses, and the
    better of that cut step and its reflection off the bound is taken.
    Iterates stay strictly inside the box. The Jacobian is a forward
    difference whose steps turn back where they would leave the box.

    Stops when the scaled gradient is below tol = 1e-8, when a
    well-predicted step lowers the cost by less than tol of it, when a step
    is shorter than tol*(tol + |x|), or after 100 evaluations per variable.
    fun must return finite residuals; nlls_solve raises on others. Returns
    (x, fun(x), the Jacobian at x, the number of Jacobians, whether a
    tolerance was met).
    """
    tol = 1e-8
    x = _strictly_inside(np.asarray(x0, dtype=float), lo, hi)
    f = fun(x)
    jac, n_jac, n_fun = _jacobian(fun, x, f, lo, hi), 1, 1
    cost = 0.5 * (f @ f)
    g = jac.T @ f
    scale_inv = np.sqrt(np.sum(jac**2, axis=0))
    scale_inv[scale_inv == 0] = 1.0
    v, dv = _coleman_li(x, g, lo, hi)
    v[dv != 0] *= scale_inv[dv != 0]
    radius = np.linalg.norm(x * scale_inv / np.sqrt(v)) or 1.0
    converged = False
    m = jac.shape[0]
    while True:
        v, dv = _coleman_li(x, g, lo, hi)
        converged = converged or np.linalg.norm(g * v, ord=np.inf) < tol
        if converged or n_fun == 100 * x.size:
            break
        v[dv != 0] *= scale_inv[dv != 0]
        d = np.sqrt(v) * (1.0 / scale_inv)
        diag_h = g * dv * (1.0 / scale_inv)
        jac_h = jac * d
        u, s, vt = np.linalg.svd(np.vstack([jac_h, np.diag(np.sqrt(diag_h))]), full_matrices=False)
        uf = u[:m].T @ f
        reduction = -1.0
        while reduction <= 0 and n_fun < 100 * x.size:
            p_h = _trust_region_step(uf, s, vt.T, radius, m)
            step, step_h, predicted = _select_step(x, jac_h, diag_h, d * g, p_h, d, radius, lo, hi)
            x_new = _strictly_inside(x + step, lo, hi)
            f_new = fun(x_new)
            n_fun += 1
            cost_new = 0.5 * (f_new @ f_new)
            reduction = cost - cost_new
            ratio = reduction / predicted if predicted > 0 else 0.0
            step_h_norm = np.linalg.norm(step_h)
            if ratio < 0.25:
                radius = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * radius:
                radius = 2.0 * radius
            converged = (reduction < tol * cost and ratio > 0.25) or (
                np.linalg.norm(step) < tol * (tol + np.linalg.norm(x))
            )
            if converged:
                break
        if reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            jac = _jacobian(fun, x, f, lo, hi)
            n_jac += 1
            g = jac.T @ f
            scale_inv = np.maximum(np.sqrt(np.sum(jac**2, axis=0)), scale_inv)
    return x, f, jac, n_jac, converged


def _jacobian(fun, x, f, lo, hi):
    """Forward differences with steps sqrt(eps)*max(|x|, 1) away from zero,
    turned back where they would leave the box."""
    h = np.sqrt(_EPS) * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    h[(x + h < lo) | (x + h > hi)] *= -1.0
    jac = np.empty((f.size, x.size))
    for i in range(x.size):
        xi = x.copy()
        xi[i] += h[i]
        jac[:, i] = (fun(xi) - f) / (xi[i] - x[i])
    return jac


def _strictly_inside(x, lo, hi):
    """x with each coordinate on a bound moved one float inside it."""
    x = x.copy()
    at_lo, at_hi = x <= lo, x >= hi
    x[at_lo] = np.nextafter(lo[at_lo], hi[at_lo])
    x[at_hi] = np.nextafter(hi[at_hi], lo[at_hi])
    return x


def _coleman_li(x, g, lo, hi):
    """Distance to the bound the descent direction -g points at (1 where that
    bound is infinite), and the sign of its derivative in x."""
    v, dv = np.ones_like(x), np.zeros_like(x)
    up = (g < 0) & np.isfinite(hi)
    v[up], dv[up] = hi[up] - x[up], -1.0
    down = (g > 0) & np.isfinite(lo)
    v[down], dv[down] = x[down] - lo[down], 1.0
    return v, dv


def _trust_region_step(uf, s, v, radius, m):
    """Minimizer of |J p + f| with |p| <= radius from the SVD J = U diag(s) V^T
    (uf = U^T f): the Gauss-Newton step if it fits, else the damped step
    (J^T J + alpha I)^-1 J^T f whose length is radius, alpha found by
    safeguarded Newton iterations (More, 1978) to 1 % of the radius."""
    suf = s * uf
    full_rank = s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -v @ (uf / s)
        if np.linalg.norm(p) <= radius:
            return p

    def phi(a):
        denom = s**2 + a
        p_norm = np.linalg.norm(suf / denom)
        return p_norm - radius, -np.sum(suf**2 / denom**3) / p_norm

    upper, lower = np.linalg.norm(suf) / radius, 0.0
    if full_rank:
        value, slope = phi(0.0)
        lower = -value / slope
    alpha = max(0.001 * upper, np.sqrt(lower * upper))
    for _ in range(10):
        if alpha < lower or alpha > upper:
            alpha = max(0.001 * upper, np.sqrt(lower * upper))
        value, slope = phi(alpha)
        if value < 0:
            upper = alpha
        lower = max(lower, alpha - value / slope)
        alpha -= (value + radius) * (value / slope) / radius
        if abs(value) < 0.01 * radius:
            break
    p = -v @ (suf / (s**2 + alpha))
    return p * (radius / np.linalg.norm(p))


def _select_step(x, jac_h, diag_h, g_h, p_h, d, radius, lo, hi):
    """The step to take, in x and in scaled variables, and its predicted
    cost reduction: the trust-region step p_h if x + d*p_h stays in the box,
    else the better of p_h cut short of the first bound it crosses and its
    reflection off that bound, each kept strictly inside."""

    def model(s, s0):
        """q(t) = a t^2 + b t + c, the quadratic model of the cost change
        along s0 + t*s."""
        js, j0 = jac_h @ s, jac_h @ s0
        a = 0.5 * (js @ js + s @ (diag_h * s))
        b = g_h @ s + j0 @ js + (s0 * diag_h) @ s
        return a, b, 0.5 * (j0 @ j0) + g_h @ s0 + 0.5 * ((s0 * diag_h) @ s0)

    p = d * p_h
    if np.all((x + p >= lo) & (x + p <= hi)):
        a, b, _ = model(p_h, 0.0 * p_h)
        return p, p_h, -(a + b)
    theta = 0.995  # the share of the way to a bound that a step may go
    p_stride, hits = _to_bound(x, p, lo, hi)
    r_h = np.where(hits != 0, -p_h, p_h)
    p, p_h = p * p_stride, p_h * p_stride
    # the reflected step leaves the box or the trust region first
    aa, bb, cc = r_h @ r_h, p_h @ r_h, p_h @ p_h - radius**2
    q = -(bb + np.copysign(np.sqrt(bb * bb - aa * cc), bb))
    to_tr = max(q / aa, cc / q)
    to_bound = _to_bound(x + p, d * r_h, lo, hi)[0]
    r_stride = min(to_bound, to_tr)
    r_value = np.inf
    if r_stride > 0:
        t_lo = (1.0 - theta) * p_stride / r_stride
        t_hi = theta * to_bound if r_stride == to_bound else to_tr
        if t_lo <= t_hi:
            a, b, c = model(r_h, p_h)
            ts = [t_lo, t_hi] + ([-0.5 * b / a] if a != 0 and t_lo < -0.5 * b / a < t_hi else [])
            ts = np.asarray(ts)
            values = ts * (a * ts + b) + c
            r_value = values.min()
            r_h = r_h * ts[np.argmin(values)] + p_h
    p, p_h = p * theta, p_h * theta
    a, b, _ = model(p_h, 0.0 * p_h)
    if a + b < r_value:
        return p, p_h, -(a + b)
    return r_h * d, r_h, -r_value


def _to_bound(x, s, lo, hi):
    """The largest t with x + t*s in the box, and the sign of s where that
    t is met (0 elsewhere)."""
    steps = np.full_like(x, np.inf)
    move = s != 0
    with np.errstate(over="ignore"):
        steps[move] = np.maximum((lo - x)[move] / s[move], (hi - x)[move] / s[move])
    t = steps.min()
    return t, (steps == t) * np.sign(s)


def _require_points(x: np.ndarray, y: np.ndarray, n_par: int) -> None:
    """The solver's size rules, also checked before a fit's initial guess."""
    if x.shape != y.shape:
        raise ValidationError("x and y arrays must match: shapes %s and %s" % (x.shape, y.shape))
    if y.size <= n_par:
        raise ValidationError("need more data points than parameters")


def exp_conv_gauss(u, tau: float, sigma: float):
    """Exact one-sided exponential decay convolved with a unit-area Gaussian.

    Returns exp(-u/tau) * theta(u) convolved with N(0, sigma^2), evaluated
    stably via the scaled complementary error function. sigma must be finite
    and positive: at sigma = 0 the model is a step that no fit can place.
    """
    u = np.asarray(u, dtype=float)
    if not tau > 0:
        raise ValidationError("decay constant must be strictly positive, got %r" % (tau,))
    if not 0 < sigma < np.inf:
        raise ValidationError("IRF sigma must be finite and > 0, got %r" % (sigma,))
    # Large positive z underflows anyway; at large negative z erfcx blows up
    # as e^{z^2} and the plain exponential form is exact, so clip the erfcx
    # argument to the band where its branch is actually selected. At extreme
    # widths the numpy terms overflow to inf, which each branch maps to its
    # limit.
    with np.errstate(over="ignore"):
        z = (sigma / tau - u / sigma) / _SQRT2
        out_safe = 0.5 * _erfcx(np.clip(z, -25.0, 25.0)) * np.exp(-0.5 * (u / sigma) ** 2)
        plain = np.exp(np.clip(0.5 * np.square(sigma / tau) - u / tau, None, 700.0))
    out = np.where(z <= -25.0, plain, np.where(z < 25.0, out_safe, 0.0))
    return out if out.ndim else float(out)


# Chebyshev coefficients of (1 + 2x) erfcx(x) in y = (x - 3.75)/(x + 3.75)
# on x >= 0 (y in [-1, 1)), from interpolation at 23 Chebyshev nodes in
# 50-digit arithmetic; relative error below 1e-15 on x >= 0.
_ERFCX_CHEB = np.array([
    1.1775789345674017, -0.004590054580646478, -0.08424913336651792,
    0.05920993999819189, -0.026658668435305753, 0.009074997670705265,
    -0.002413163540417608, 0.0004907758365258086, -6.916973302501207e-05,
    4.13902798607301e-06, 7.74038306619849e-07, -2.1886401049234397e-07,
    1.0764999465670917e-08, 4.5219598112182536e-09, -7.754400208833121e-10,
    -6.318088340845342e-11, 2.8687950113596984e-11, 1.945586821362894e-13,
    -9.65469772208958e-13, 3.2525454715159997e-14, 3.3480306825812357e-14,
    -1.862325823759877e-15, -1.3014765421168258e-15,
])


def _erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x) of finite x,
    with erfcx(x) = 2 exp(x^2) - erfcx(-x) for x < 0."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    y = (a - 3.75) / (a + 3.75)
    b1 = b2 = 0.0
    for c in _ERFCX_CHEB[:0:-1]:  # Clenshaw's recurrence
        b1, b2 = 2.0 * y * b1 - b2 + c, b1
    out = (y * b1 - b2 + _ERFCX_CHEB[0]) / (1.0 + 2.0 * a)
    return np.where(x < 0, 2.0 * np.exp(np.minimum(x, 0.0) ** 2) - out, out)


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
) -> FitResult:
    """Fit a bi-exponential decay convolved with the Gaussian timing response.

    Model: baseline + amp * [(1-f_slow) exp(-(t-t0)/tau_fast)
                             + f_slow exp(-(t-t0)/tau_slow)] (x) IRF.
    Each count y is weighted by its Poisson error sqrt(max(y, 1)); an
    empty bin counts as one. The initial guess is read off the trace: the
    peak, its first 1/e fall and a slow component ten times longer. The
    returned parameters satisfy tau_fast < tau_slow (swapped into canonical
    order if the solver exits mirrored).
    """
    t = np.asarray(t_ps, dtype=float)
    y = np.asarray(counts, dtype=float)
    sigma_irf = irf_fwhm_ps / FWHM_TO_SIGMA
    names = ("amp", "t0", "tau_fast", "tau_slow", "frac_slow", "baseline")
    _require_points(t, y, len(names))
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
        (amp0, t00, tau0, 10.0 * tau0, 0.05, base0),
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
    _require_points(tau, y, 2)
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
    _require_points(e, yv, 4)
    order = np.argsort(e, kind="stable")  # energies in either order
    e, yv = e[order], yv[order]
    base0 = float(np.min(yv))
    i_max = int(np.argmax(yv))
    height = float(yv[i_max] - base0)
    half = base0 + height / 2.0
    if not (np.all(np.isfinite(e)) and e[-1] > e[0]):
        raise ValidationError("energies must be finite and take more than one value")
    above = np.flatnonzero(yv >= half)
    fwhm0 = float(e[above[-1]] - e[above[0]]) if above.size > 1 else float(e[1] - e[0])
    fwhm0 = max(fwhm0, float(np.min(np.diff(np.unique(e)))))  # energies may repeat
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
    if not (0 <= instrument_fwhm_uev < np.inf and np.isfinite(measured_fwhm_uev)):
        raise ValidationError("instrument width must be finite and >= 0, measured width finite")
    if measured_fwhm_uev <= instrument_fwhm_uev:
        raise ValidationError(
            "measured width %.4g must exceed the instrument width %.4g"
            % (measured_fwhm_uev, instrument_fwhm_uev)
        )
    return measured_fwhm_uev - instrument_fwhm_uev
