"""Least-squares solver, the closed-form IRF convolution, and the curve models."""

import json
import warnings

import mpmath
import numpy as np
import pytest

import homsim as hs
from homsim import fitting
from homsim.config import parse_scenario
from homsim.fitting import (
    _erfcx,
    exp_conv_gauss,
    fit_biexp_irf,
    fit_g2cw,
    fit_lorentzian,
    nlls_solve,
)
from helpers import poissonize, scenario_dict


def _line(x, p):
    return p[0] + p[1] * x


def _expdecay(x, p):
    return p[0] * np.exp(-x / p[1])


class TestSolver:
    def test_exact_line_recovered_exactly(self):
        x = np.linspace(0.0, 10.0, 12)
        y = 2.5 + 0.75 * x
        res = nlls_solve(_line, x, y, (0.0, 0.0), param_names=("a", "b"))
        assert res.status == "converged"
        assert res["a"] == pytest.approx(2.5, abs=1e-8)
        assert res["b"] == pytest.approx(0.75, abs=1e-9)
        assert res.reduced_chisq == pytest.approx(0.0, abs=1e-12)

    def test_start_at_truth_converges_immediately(self):
        x = np.linspace(0.0, 10.0, 30)
        y = 1.0 * np.exp(-x / 3.0)
        res = nlls_solve(_expdecay, x, y, (1.0, 3.0))
        assert res.status == "converged"
        assert res.n_iter <= 3

    def test_noisy_exponential_rate_coverage(self):
        # 3-sigma coverage of the fitted rate over repeated draws.
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 12.0, 60)
        truth = (10.0, 3.0)
        hits = 0
        for _ in range(100):
            y = _expdecay(x, truth) + rng.normal(0.0, 0.05, x.size)
            sigma = np.full(x.size, 0.05)
            res = nlls_solve(_expdecay, x, y, (8.0, 2.0), sigma=sigma)
            if abs(res["p1"] - truth[1]) <= 3.0 * res.uncertainty("p1"):
                hits += 1
        assert hits >= 95

    def test_line_covariance_is_inverse_normal_matrix(self):
        # a linear model's covariance is (X^T W X)^-1, W = diag(1/sigma^2);
        # the forward-difference Jacobian is exact up to ~sqrt(eps)
        rng = np.random.default_rng(12)
        x = np.linspace(0.0, 10.0, 25)
        sigma = rng.uniform(0.05, 0.5, x.size)
        y = 2.5 + 0.75 * x + rng.normal(0.0, sigma)
        design = np.column_stack([np.ones_like(x), x])
        normal = design.T @ (design / sigma[:, None] ** 2)
        res = nlls_solve(_line, x, y, (0.0, 0.0), sigma=sigma)
        assert res.status == "converged"
        assert np.allclose(res.covariance, np.linalg.inv(normal), rtol=1e-6, atol=0.0)
        assert np.allclose(res.uncertainties, np.sqrt(np.diag(res.covariance)))
        # unweighted: scaled by the reduced chi-square of the fit
        res = nlls_solve(_line, x, y, (0.0, 0.0))
        resid = y - design @ res.params
        red_chisq = (resid @ resid) / (x.size - 2)
        assert res.reduced_chisq == pytest.approx(red_chisq, rel=1e-9)
        expected = np.linalg.inv(design.T @ design) * red_chisq
        assert np.allclose(res.covariance, expected, rtol=1e-6, atol=0.0)

    def test_unidentifiable_parameter_flagged_singular(self):
        def model(x, p):
            return p[0] + 0.0 * p[1] + 0.0 * x

        x = np.linspace(0.0, 1.0, 10)
        y = np.full(10, 4.0)
        res = nlls_solve(model, x, y, (1.0, 1.0))
        assert res.status == "singular"
        assert np.isinf(res.uncertainties[1])

    def test_nan_model_output_raises_domain_error(self):
        def model(x, p):
            return np.full_like(x, np.nan)

        with pytest.raises(hs.ModelDomainError):
            nlls_solve(model, np.arange(4.0), np.arange(4.0), (1.0,))

    def test_bounds_are_respected(self):
        x = np.linspace(0.0, 10.0, 40)
        y = 2.0 * np.exp(-x / 5.0)
        res = nlls_solve(
            _expdecay, x, y, (1.0, 2.0), bounds=[(0.0, 10.0), (0.1, 4.0)]
        )
        assert 0.1 <= res["p1"] <= 4.0

    def test_too_few_points_rejected(self):
        with pytest.raises(hs.ValidationError):
            nlls_solve(_line, np.array([1.0]), np.array([2.0]), (0.0, 0.0))

    @pytest.mark.parametrize("nx,ny", [(12, 10), (10, 12)])
    def test_x_and_y_of_different_lengths_rejected(self, nx, ny):
        with pytest.raises(hs.ValidationError, match="must match"):
            nlls_solve(_line, np.arange(float(nx)), np.arange(float(ny)), (0.0, 0.0))

    def test_model_only_evaluated_inside_the_box(self):
        # the best slope, 2, lies beyond the upper bound of 1 and the offset's
        # beyond its lower bound of -1, so the solve ends on both bounds,
        # where forward steps must turn back into the box
        seen = []

        def model(x, p):
            seen.append(p.copy())
            return _line(x, p)

        x = np.linspace(-1.0, 1.0, 9)
        res = nlls_solve(model, x, -3.0 + 2.0 * x, (0.0, 0.5), bounds=[(-1.0, 1.0), (-1.0, 1.0)])
        assert res["p0"] == pytest.approx(-1.0) and res["p1"] == pytest.approx(1.0)
        seen = np.array(seen)
        assert np.all((seen >= -1.0) & (seen <= 1.0))

    @pytest.mark.parametrize("where", ["y", "p0", "sigma"])
    def test_nan_input_rejected(self, where):
        x = np.linspace(0.0, 10.0, 12)
        y = 2.5 + 0.75 * x
        p0 = np.zeros(2)
        sigma = np.ones_like(x)
        {"y": y, "p0": p0, "sigma": sigma}[where][1] = np.nan
        with pytest.raises(hs.ValidationError):
            nlls_solve(_line, x, y, p0, sigma=sigma)


def _mp_erfcx(z):
    z = mpmath.mpf(float(z))
    return mpmath.exp(z * z) * mpmath.erfc(z)


def _mp_exp_conv_gauss(u, tau, sigma):
    u, tau, sigma = (mpmath.mpf(float(v)) for v in (u, tau, sigma))
    z = (sigma / tau - u / sigma) / mpmath.sqrt(2)
    return mpmath.exp((sigma / tau) ** 2 / 2 - u / tau) * mpmath.erfc(z) / 2


# erfcx's whole band in exp_conv_gauss, [-25, 25], and its far tail
_ERFCX_Z = np.concatenate(
    [
        np.linspace(-25.0, 25.0, 2001),
        np.random.default_rng(2).uniform(-25.0, 25.0, 500),
        np.geomspace(25.0, 1e8, 200),
    ]
)


class TestErfcx:
    """The numpy erfcx to 1e-13 relative. On x >= 0 its Chebyshev series is
    good to about 4e-16; for x < 0 the rounding of x*x in 2 exp(x^2) gives
    up to x^2 * eps, 6e-14 at x = -25, as in scipy's erfcx."""

    def test_matches_mpmath(self):
        with mpmath.workdps(40):
            ref = np.array([float(_mp_erfcx(z)) for z in _ERFCX_Z])
        assert np.max(np.abs(_erfcx(_ERFCX_Z) / ref - 1.0)) <= 1e-13

    def test_matches_scipy(self):
        from scipy.special import erfcx

        assert np.max(np.abs(_erfcx(_ERFCX_Z) / erfcx(_ERFCX_Z) - 1.0)) <= 1e-13

    @pytest.mark.parametrize("tau,sigma", [(720.0, 34.0), (12000.0, 34.0), (100.0, 340.0)])
    def test_exp_conv_gauss_matches_mpmath(self, tau, sigma):
        # the closed form exp(s^2/2tau^2 - u/tau) erfc(z)/2, z = (s/tau - u/s)/sqrt 2,
        # wherever erfcx's branch (|z| < 25) or the plain exponential (z <= -25)
        # is taken; each of the code's two exponentials may carry |arg| * eps,
        # up to 700 * eps, so the bound is 1e-12
        u = np.linspace(-30.0 * sigma, 40.0 * tau, 1501)
        z = (sigma / tau - u / sigma) / np.sqrt(2.0)
        u = u[z < 25.0]
        with mpmath.workdps(40):
            ref = np.array([float(_mp_exp_conv_gauss(v, tau, sigma)) for v in u])
        got = exp_conv_gauss(u, tau, sigma)
        seen = ref > 1e-300
        assert np.max(np.abs(got[seen] / ref[seen] - 1.0)) <= 1e-12

    @pytest.mark.parametrize(
        "tau,sigma",
        [(np.nan, 34.0), (0.0, 34.0), (-1.0, 34.0), (720.0, np.nan), (720.0, np.inf),
         (720.0, -1.0), (720.0, 0.0)],
    )
    def test_exp_conv_gauss_rejects_a_bad_decay_or_width(self, tau, sigma):
        # NaN passes a "tau <= 0" or "sigma < 0" check, a NaN or infinite
        # sigma would make the decay term exactly 0, and at sigma = 0 the
        # model is a step whose position no fit can resolve
        with pytest.raises(hs.ValidationError):
            exp_conv_gauss(np.linspace(-100.0, 100.0, 5), tau, sigma)

    @pytest.mark.parametrize("sigma", [1e-300, 1e-310])
    def test_exp_conv_gauss_tends_to_the_step_at_tiny_widths(self, sigma):
        # u / sigma overflows to inf, which each branch maps to its limit,
        # without a warning; the step's edge takes half its height
        u = np.array([-5000.0, -1.0, 0.0, 1.0, 700.0, 5000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exp_conv_gauss(u, 720.0, sigma)
        want = np.where(u > 0.0, np.exp(-np.abs(u) / 720.0), 0.0)
        want[u == 0.0] = 0.5
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_exp_conv_gauss_at_a_huge_width_is_the_same_for_python_floats(self):
        # (sigma / tau)^2 overflows: to inf in numpy, which each branch maps
        # to its limit, and to an OverflowError in Python float arithmetic
        u = np.array([0.0, 100.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exp_conv_gauss(u, 720.0, 1e200)
            want = exp_conv_gauss(u, np.float64(720.0), np.float64(1e200))
        assert np.array_equal(got, want)


def _scipy_trf(fun, x0, lo, hi):
    from scipy.optimize import least_squares

    sol = least_squares(fun, x0, bounds=(lo, hi), method="trf", x_scale="jac")
    return sol.x, sol.fun, sol.jac, sol.njev, sol.status > 0


def _readme_trace(seed):
    """The README session's folded decay: its scenario at 1M pulses, 20 ps bins."""
    train = dict(scenario_dict()["train"], n_pulses=1_000_000)
    cfg = parse_scenario(json.dumps(scenario_dict(train=train)))
    specs = (cfg.emitter1, cfg.emitter2, cfg.circuit, cfg.detector, cfg.train)
    stream, _ = hs.run_simulation(*specs, seed)
    trace = hs.timetrace(stream, cfg.train, bin_width_ps=20.0)
    return trace.bin_centers_ps, trace.counts.astype(float)


def _dip(tau, g0, tau_d, fwhm):
    sig = fwhm / 2.3548200450309493
    dip = exp_conv_gauss(tau, tau_d, sig) + exp_conv_gauss(-tau, tau_d, sig)
    return 1.0 - (1.0 - g0) * dip


def _lorentz(e, area, center, fwhm, base=0.0):
    return base + (2.0 * area / np.pi) * fwhm / (4.0 * (e - center) ** 2 + fwhm**2)


def _parity_cases():
    rng = np.random.default_rng(41)
    x12, x30 = np.linspace(0.0, 10.0, 12), np.linspace(0.0, 10.0, 30)
    x60 = np.linspace(0.0, 12.0, 60)
    sigma = rng.uniform(0.05, 0.5, x12.size)
    y_line = 2.5 + 0.75 * x12 + rng.normal(0.0, sigma)
    y_exp = _expdecay(x60, (10.0, 3.0)) + rng.normal(0.0, 0.05, x60.size)
    tau = np.linspace(-6000.0, 6000.0, 601)
    y_dip = _dip(tau, 0.15, 500.0, 80.0) + rng.normal(0.0, 0.01, tau.size)
    e = np.linspace(-60.0, 60.0, 241)
    y_line_shape = _lorentz(e, 100.0, 3.0, 16.5, 2.0) + rng.normal(0.0, 0.05, e.size)
    flat = np.linspace(0.0, 1.0, 10)
    cases = {
        "solver-exact-line": lambda: nlls_solve(_line, x12, 2.5 + 0.75 * x12, (0.0, 0.0)),
        "solver-start-at-truth": lambda: nlls_solve(_expdecay, x30, np.exp(-x30 / 3.0), (1.0, 3.0)),
        "solver-noisy-exponential": lambda: nlls_solve(
            _expdecay, x60, y_exp, (8.0, 2.0), sigma=np.full(x60.size, 0.05)
        ),
        "solver-weighted-line": lambda: nlls_solve(_line, x12, y_line, (0.0, 0.0), sigma=sigma),
        "solver-singular": lambda: nlls_solve(
            lambda x, p: p[0] + 0.0 * p[1] + 0.0 * x, flat, np.full(10, 4.0), (1.0, 1.0)
        ),
        "solver-bounds": lambda: nlls_solve(
            _expdecay, x30, 2.0 * np.exp(-x30 / 5.0), (1.0, 2.0), bounds=[(0.0, 10.0), (0.1, 4.0)]
        ),
        "g2cw": lambda: fit_g2cw(tau, y_dip, 80.0),
        "g2cw-wide-irf": lambda: fit_g2cw(tau, _dip(tau, 0.10, 100.0, 800.0), 800.0),
        "g2cw-flat": lambda: fit_g2cw(tau, np.ones_like(tau), 80.0),
        "lorentzian": lambda: fit_lorentzian(e, y_line_shape),
        "lorentzian-exact": lambda: fit_lorentzian(e, _lorentz(e, 100.0, 3.0, 16.5, 2.0)),
    }
    for seed in (20260815, 0, 1):
        cases["decay-%d" % seed] = lambda seed=seed: fit_biexp_irf(*_readme_trace(seed), 80.0)
    return cases


_PARITY = _parity_cases()


class TestScipyParity:
    """The numpy solver against scipy's least_squares(method="trf",
    x_scale="jac") on the same problem: the same status, and a cost no
    higher than TRF's by more than 1e-9 of it. The 1e-20 added to that is
    the round-off of an exact fit (TRF reads 0 on the exact line, this
    solver 3e-30), far below every noisy cost here."""

    @pytest.mark.parametrize("case", sorted(_PARITY))
    def test_same_status_and_no_higher_cost(self, monkeypatch, case):
        runs = []
        for solver in (fitting._trf_least_squares, _scipy_trf):
            calls = []

            def recorded(fun, x0, lo, hi, solver=solver):
                sol = solver(fun, x0, lo, hi)
                calls.append((float(sol[1] @ sol[1]), bool(sol[4])))
                return sol

            with monkeypatch.context() as m:
                m.setattr(fitting, "_trf_least_squares", recorded)
                result = _PARITY[case]()
            assert len(calls) == 1
            runs.append((getattr(result, "status", None),) + calls[0])
        (status, cost, converged), (status_trf, cost_trf, converged_trf) = runs
        assert (status, converged) == (status_trf, converged_trf)
        assert cost <= cost_trf * (1.0 + 1e-9) + 1e-20


class TestBiexpFit:
    def _synthetic(self, rng, n_peak=1e5, f_slow=0.02, t0=800.0, tau_slow=12000.0):
        step = 20.0
        t = np.arange(0.0, 60000.0, step)
        model = hs.fitting._biexp_model(
            t, (n_peak, t0, 720.0, tau_slow, f_slow, 5.0), 80.0 / 2.3548200450309493
        )
        return t, poissonize(rng, model)

    def test_recovers_reference_decay_constants(self):
        rng = np.random.default_rng(3)
        t, y = self._synthetic(rng)
        res = fit_biexp_irf(t, y, irf_fwhm_ps=80.0)
        assert res.status == "converged"
        assert res["tau_fast"] == pytest.approx(720.0, rel=0.05)
        assert res["tau_slow"] == pytest.approx(12000.0, rel=0.15)

    def test_degenerate_mixture_fraction_consistent_with_zero(self):
        rng = np.random.default_rng(4)
        t, y = self._synthetic(rng, f_slow=0.0)
        res = fit_biexp_irf(t, y, irf_fwhm_ps=80.0)
        assert abs(res["frac_slow"]) <= 2.0 * res.uncertainty("frac_slow") + 1e-4

    def test_time_origin_shift_absorbed_by_t0(self):
        rng = np.random.default_rng(5)
        t, y = self._synthetic(rng, t0=1800.0)
        res = fit_biexp_irf(t, y, irf_fwhm_ps=80.0)
        assert res["t0"] == pytest.approx(1800.0, abs=40.0)
        assert res["tau_fast"] == pytest.approx(720.0, rel=0.05)

    def test_canonical_ordering_enforced(self, monkeypatch):
        # a slow component that carries 70 % at only twice the fast lifetime:
        # from the automatic guess the solver ends with the two roles mirrored
        t, y = self._synthetic(np.random.default_rng(0), f_slow=0.7, tau_slow=1500.0)
        swaps = []
        replace = fitting.replace
        monkeypatch.setattr(fitting, "replace", lambda *a, **k: swaps.append(1) or replace(*a, **k))
        res = fit_biexp_irf(t, y, irf_fwhm_ps=80.0)
        assert swaps == [1]
        assert res["tau_fast"] < res["tau_slow"]
        assert res["tau_fast"] == pytest.approx(720.0, rel=0.10)

    @pytest.mark.parametrize("cut", ["t", "counts"])
    def test_times_and_counts_of_different_lengths_rejected(self, cut):
        t, y = self._synthetic(np.random.default_rng(7))
        t, y = (t[:300], y) if cut == "t" else (t, y[:300])
        with pytest.raises(hs.ValidationError, match="must match"):
            fit_biexp_irf(t, y, irf_fwhm_ps=80.0)


class TestG2cwFit:
    def _dip(self, tau, g0, tau_d, fwhm):
        sig = fwhm / 2.3548200450309493
        return 1.0 - (1.0 - g0) * (
            exp_conv_gauss(tau, tau_d, sig) + exp_conv_gauss(-tau, tau_d, sig)
        )

    def test_recovers_synthetic_dip(self):
        rng = np.random.default_rng(8)
        tau = np.linspace(-6000.0, 6000.0, 601)
        y = self._dip(tau, 0.15, 500.0, 80.0) + rng.normal(0, 0.01, tau.size)
        res = fit_g2cw(tau, y, irf_fwhm_ps=80.0)
        assert abs(res["g0"] - 0.15) <= 3.0 * res.uncertainty("g0")
        assert abs(res["tau_d"] - 500.0) <= 3.0 * res.uncertainty("tau_d")

    def test_flat_histogram_leaves_depth_unconstrained(self):
        tau = np.linspace(-5000.0, 5000.0, 401)
        res = fit_g2cw(tau, np.ones_like(tau), irf_fwhm_ps=80.0)
        assert res.status == "singular" or np.isinf(res.uncertainty("tau_d"))

    def test_wide_irf_bias_reproduced_by_forward_model(self):
        # With IRF >> tau_d the recovered depth is biased upward; the same
        # fit on the noiseless forward curve shows the same bias.
        rng = np.random.default_rng(9)
        tau = np.linspace(-4000.0, 4000.0, 801)
        clean = self._dip(tau, 0.10, 100.0, 800.0)
        noisy = clean + rng.normal(0, 0.005, tau.size)
        res_clean = fit_g2cw(tau, clean, irf_fwhm_ps=800.0)
        res_noisy = fit_g2cw(tau, noisy, irf_fwhm_ps=800.0)
        assert abs(res_noisy["g0"] - res_clean["g0"]) <= 2.0 * res_noisy.uncertainty(
            "g0"
        )

    @pytest.mark.parametrize("cut", ["tau", "g2"])
    def test_delays_and_g2_of_different_lengths_rejected(self, cut):
        tau = np.linspace(-5000.0, 5000.0, 401)
        y = self._dip(tau, 0.15, 500.0, 80.0)
        tau, y = (tau[:300], y) if cut == "tau" else (tau, y[:300])
        with pytest.raises(hs.ValidationError, match="must match"):
            fit_g2cw(tau, y, irf_fwhm_ps=80.0)

    def test_empty_histogram_rejected(self):
        with pytest.raises(hs.ValidationError, match="more data points"):
            fit_g2cw(np.empty(0), np.empty(0), irf_fwhm_ps=80.0)


class TestLorentzian:
    def _profile(self, e, area, center, fwhm, base=0.0):
        return base + (2.0 * area / np.pi) * fwhm / (
            4.0 * (e - center) ** 2 + fwhm**2
        )

    def test_exact_samples_recovered_to_machine_level(self):
        e = np.linspace(-60.0, 60.0, 241)
        y = self._profile(e, 100.0, 3.0, 16.5, base=2.0)
        res = fit_lorentzian(e, y)
        assert res["fwhm"] == pytest.approx(16.5, rel=1e-6)
        assert res["center"] == pytest.approx(3.0, abs=1e-5)
        assert res["baseline"] == pytest.approx(2.0, rel=1e-5)

    def test_width_additivity_under_convolution(self):
        # Lorentzian(13.5) convolved with Lorentzian(3.0) is Lorentzian(16.5).
        e = np.linspace(-80.0, 80.0, 321)
        y = self._profile(e, 50.0, 0.0, 13.5 + 3.0)
        res = fit_lorentzian(e, y)
        assert res["fwhm"] == pytest.approx(16.5, abs=0.1)

    def test_flat_spectrum_flagged(self):
        e = np.linspace(-10.0, 10.0, 51)
        res = fit_lorentzian(e, np.full(51, 3.0))
        assert res.status == "singular" or np.isinf(res.uncertainty("fwhm"))

    def test_too_few_points_rejected(self):
        with pytest.raises(hs.ValidationError):
            fit_lorentzian(np.arange(4.0), np.ones(4))

    def test_descending_energy_axis_gives_the_ascending_fit(self):
        # a wavelength scan converted to energy runs from high to low energy
        rng = np.random.default_rng(11)
        e = np.linspace(-50.0, 50.0, 201)
        y = self._profile(e, 100.0, 3.0, 16.5, base=2.0) + rng.normal(0.0, 0.05, e.size)
        up, down = fit_lorentzian(e, y), fit_lorentzian(e[::-1], y[::-1])
        for name in ("area", "center", "fwhm", "baseline"):
            assert down[name] == pytest.approx(up[name], rel=1e-9)

    def test_a_peak_sampled_twice_at_one_energy_is_fitted(self):
        # the samples above half maximum share one energy, so their spread
        # is 0; the initial width is then the smallest positive spacing
        e = np.sort(np.append(np.arange(-4.0, 5.0), 0.0))
        y = np.ones_like(e)
        y[e == 0.0] = (9.0, 9.2)
        res = fit_lorentzian(e, y)
        assert res["fwhm"] > 0.0 and -1.0 < res["center"] < 1.0

    @pytest.mark.parametrize(
        "bad", [np.full(6, 2.0), np.array([0.0, 1, 2, np.nan, 4, 5])], ids=["one-value", "nan"]
    )
    def test_energies_must_be_finite_and_not_all_equal(self, bad):
        with pytest.raises(hs.ValidationError, match="energies must be finite"):
            fit_lorentzian(bad, np.arange(6.0))

    def test_energy_and_count_sizes_must_match(self):
        with pytest.raises(hs.ValidationError, match="must match"):
            fit_lorentzian(np.arange(50.0), np.ones(60))


class TestDeconvolve:
    @pytest.mark.parametrize(
        "measured,instrument,expected",
        [(16.5, 3.0, 13.5), (6.0, 3.0, 3.0), (7.25, 0.0, 7.25)],
    )
    def test_exact_subtraction(self, measured, instrument, expected):
        got = hs.deconvolve_lorentzian(measured, instrument)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_narrower_than_instrument_rejected(self):
        with pytest.raises(hs.ValidationError):
            hs.deconvolve_lorentzian(2.0, 3.0)

    @pytest.mark.parametrize(
        "measured,instrument",
        [(10.0, np.nan), (10.0, np.inf), (np.nan, 3.0), (np.inf, 3.0), (np.nan, np.nan)],
    )
    def test_non_finite_width_rejected(self, measured, instrument):
        with pytest.raises(hs.ValidationError):
            hs.deconvolve_lorentzian(measured, instrument)
