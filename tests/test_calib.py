"""Calibration estimators: splitting ratio, fringe contrast, DOLP, loss."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homsim as hs

positive = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSplittingRatio:
    def test_reference_drive_pairs(self):
        m = hs.SplitterMeasurement.from_drive_pairs(51.0, 49.0, 46.0, 54.0)
        r, t = hs.splitting_ratio(m)
        ratio = np.sqrt((51.0 * 46.0) / (49.0 * 54.0))
        assert r == pytest.approx(ratio / (1.0 + ratio), rel=1e-12)
        assert r + t == pytest.approx(1.0, abs=1e-12)
        assert r == pytest.approx(0.485, abs=5e-4)
        assert "%.0f:%.0f" % (100 * r, 100 * t) == "48:52"

    def test_all_equal_intensities_give_balanced_coupler(self):
        r, t = hs.splitting_ratio(hs.SplitterMeasurement(7.0, 7.0, 7.0, 7.0))
        assert r == pytest.approx(0.5, abs=1e-12)
        assert t == pytest.approx(0.5, abs=1e-12)

    def test_swapping_drive_experiments_swaps_ratio(self):
        m = hs.SplitterMeasurement(i11=624.0, i12=520.0, i21=676.0, i22=480.0)
        swapped = hs.SplitterMeasurement(
            i11=m.i21, i12=m.i22, i21=m.i11, i22=m.i12
        )
        r, t = hs.splitting_ratio(m)
        r2, t2 = hs.splitting_ratio(swapped)
        assert r2 == pytest.approx(t, rel=1e-12)
        assert t2 == pytest.approx(r, rel=1e-12)

    def test_outcoupling_imbalance_cancels_in_ratio(self):
        # r=0.48 coupler viewed through unequal collection efficiencies
        eta1, eta2, r_true = 1.3, 1.0, 0.48
        m = hs.SplitterMeasurement(
            i11=eta1 * r_true * 1000.0,
            i12=eta2 * (1 - r_true) * 1000.0,
            i21=eta1 * (1 - r_true) * 1000.0,
            i22=eta2 * r_true * 1000.0,
        )
        r, t = hs.splitting_ratio(m)
        assert r == pytest.approx(0.48, rel=1e-12)
        assert hs.outcoupling_imbalance(m) == pytest.approx(1.3, rel=1e-12)

    @given(
        i11=positive, i12=positive, i21=positive, i22=positive,
        a=positive, b=positive,
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_per_experiment_rescaling(
        self, i11, i12, i21, i22, a, b
    ):
        base = hs.splitting_ratio(hs.SplitterMeasurement(i11, i12, i21, i22))
        scaled = hs.splitting_ratio(
            hs.SplitterMeasurement(a * i11, a * i12, b * i21, b * i22)
        )
        assert scaled[0] == pytest.approx(base[0], rel=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_intensity_rejected(self, bad):
        with pytest.raises(hs.ValidationError):
            hs.SplitterMeasurement(bad, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "drives,expected",
        [
            ((1e308, 1e-308, 1e308, 1e-308), (1.0, 0.0)),
            ((1e-308, 1e308, 1e-308, 1e308), (0.0, 1.0)),
        ],
    )
    def test_ratios_past_the_float_range_saturate(self, drives, expected):
        m = hs.SplitterMeasurement.from_drive_pairs(*drives)
        assert hs.splitting_ratio(m) == expected
        assert hs.outcoupling_imbalance(m) == 1.0

    @pytest.mark.parametrize("big", [1e308, 1e-308])  # x = sqrt(big^2 / big^-2) = big^2
    def test_imbalance_out_of_float_range_rejected(self, big):
        m = hs.SplitterMeasurement(i11=big, i12=1.0 / big, i21=big, i22=1.0 / big)
        with pytest.raises(hs.ValidationError, match="outcoupling imbalance"):
            hs.outcoupling_imbalance(m)

    @given(*(st.floats(min_value=1e-300, max_value=1e300) for _ in range(4)))
    @settings(max_examples=200, deadline=None)
    def test_ratio_finite_and_summing_to_one_over_the_float_range(self, i11, i12, i21, i22):
        r, t = hs.splitting_ratio(hs.SplitterMeasurement(i11, i12, i21, i22))
        assert 0.0 <= r <= 1.0 and 0.0 <= t <= 1.0
        assert r + t == pytest.approx(1.0, abs=1e-12)


def _fringe_trace(contrast, n=4000, noise_frac=0.0, seed=0):
    t = np.linspace(0.0, 6.0 * np.pi, n)
    y = 1000.0 * (1.0 + contrast * np.cos(t))
    if noise_frac:
        rng = np.random.default_rng(seed)
        y = y * (1.0 + noise_frac * rng.standard_normal(n))
    return np.clip(y, 0.0, None)


class TestFringeVisibility:
    def test_noisy_high_contrast_recovered(self):
        y = _fringe_trace(0.98, noise_frac=0.01, seed=3)
        v, err = hs.fringe_visibility(y, mode="clipped")
        assert v == pytest.approx(0.98, abs=0.01)
        assert 0.0 < err < 0.02

    def test_constant_trace_is_zero_with_warning(self):
        with pytest.warns(RuntimeWarning):
            v, err = hs.fringe_visibility(np.full(100, 5.0))
        assert v == 0.0 and err == 0.0

    def test_full_swing_sinusoid_reaches_unity(self):
        t = np.linspace(0.0, 4.0 * np.pi, 2001)
        v, _ = hs.fringe_visibility(0.5 * (1.0 + np.cos(t)), mode="raw")
        assert v == pytest.approx(1.0, abs=1e-9)

    def test_raw_mode_uses_exact_extrema(self):
        y = np.array([2.0, 10.0, 4.0])
        v, _ = hs.fringe_visibility(y, mode="raw")
        assert v == pytest.approx(8.0 / 12.0, rel=1e-12)

    # Nonzero samples start at the smallest normal float over the smallest
    # scale, so every scaled sample stays normal: a scaled value in the
    # subnormal range loses precision or flushes to 0 (5e-324 * 0.5 is 0),
    # and the scaled trace is then a different trace, not a rescaled one.
    @given(
        data=st.lists(
            st.just(0.0) | st.floats(min_value=np.finfo(float).tiny / 1e-3, max_value=1e6),
            min_size=2, max_size=200,
        ),
        scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        mode=st.sampled_from(["raw", "clipped"]),
    )
    @settings(max_examples=60, deadline=None)
    # a subnormal total once made total**2 underflow to 0, and clipping can
    # leave both extrema at 0: each raised ZeroDivisionError
    @example(data=[0.0, 2.01e-226], scale=1.0, mode="raw")
    @example(data=[0.0, 2.01e-226], scale=1.0, mode="clipped")
    @example(data=[0.0] * 199 + [5e-324], scale=1.0, mode="clipped")
    def test_bounded_and_scale_invariant(self, data, scale, mode):
        y = np.asarray(data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            v, _ = hs.fringe_visibility(y, mode=mode)
            v2, _ = hs.fringe_visibility(scale * y, mode=mode)
        assert 0.0 <= v <= 1.0
        assert v2 == pytest.approx(v, abs=1e-9)

    def test_time_axis_is_irrelevant(self):
        # visibility is a property of the intensity values alone
        y = _fringe_trace(0.7)
        v_dense, _ = hs.fringe_visibility(y, mode="raw")
        v_perm, _ = hs.fringe_visibility(y[::-1], mode="raw")
        assert v_perm == pytest.approx(v_dense, rel=1e-12)

    def test_single_sample_rejected(self):
        with pytest.raises(hs.ValidationError):
            hs.fringe_visibility(np.array([1.0]))

    def test_negative_intensity_rejected(self):
        with pytest.raises(hs.ValidationError):
            hs.fringe_visibility(np.array([1.0, -0.5, 2.0]))

    def test_unknown_mode_rejected(self):
        with pytest.raises(hs.ValidationError):
            hs.fringe_visibility(np.array([1.0, 2.0]), mode="median")


def _malus_sweep(rho, theta0_deg=20.0, n=25, noise_frac=0.0, seed=0):
    ang = np.linspace(0.0, 360.0, n, endpoint=False)
    y = 800.0 * (1.0 + rho * np.cos(2.0 * np.deg2rad(ang - theta0_deg)))
    if noise_frac:
        rng = np.random.default_rng(seed)
        y = y * (1.0 + noise_frac * rng.standard_normal(n))
    return ang, y


class TestDolp:
    def test_exact_malus_curve_recovered(self):
        ang, y = _malus_sweep(0.6)
        rho, err = hs.dolp(ang, y)
        assert rho == pytest.approx(0.6, rel=1e-6)
        assert err < 1e-4

    def test_strong_polarization_with_noise(self):
        ang, y = _malus_sweep(0.95, n=73, noise_frac=0.02, seed=5)
        rho, err = hs.dolp(ang, y)
        assert rho == pytest.approx(0.95, abs=0.01)
        assert err < 0.02

    def test_unpolarized_light_fits_near_zero(self):
        ang, y = _malus_sweep(0.0, n=73, noise_frac=0.005, seed=6)
        rho, _ = hs.dolp(ang, y)
        assert abs(rho) <= 0.02

    def test_sweep_past_360_degrees(self):
        # the brightest sample, at 370 degrees, lies past a 2 pi bound on theta0
        ang = np.arange(0.0, 391.0, 10.0)
        y = 100.0 * (1.0 + 0.5 * np.cos(2.0 * np.deg2rad(ang - 15.0)))
        y[ang == 370.0] += 0.5
        rho, err = hs.dolp(ang, y)
        assert abs(rho - 0.5) <= 1e-3
        assert 0.0 < err < 1e-3

    @pytest.mark.parametrize(
        "ang,y",
        [
            (np.linspace(0.0, 360.0, 73),
             800.0 * (1.0 + 0.005 * np.random.default_rng(16).standard_normal(73))),
            (np.linspace(0.0, 180.0, 19), 100.0 + np.random.default_rng(90).standard_normal(19)),
        ],
        ids=["73-angles-seed-16", "19-angles-seed-90"],
    )
    def test_weak_polarization_at_the_least_squares_minimum(self, ang, y):
        """rho equals the best of scipy's least_squares on the Malus model,
        started at four analyzer angles, and its error is finite."""
        from scipy.optimize import least_squares

        th = np.deg2rad(ang)

        def residuals(p):
            return p[0] * (1.0 + p[1] * np.cos(2.0 * (th - p[2]))) - y

        starts = [(np.mean(y), 0.1, np.deg2rad(deg)) for deg in (0.0, 45.0, 90.0, 135.0)]
        tol = dict(xtol=1e-15, ftol=1e-15, gtol=1e-15)
        best = min((least_squares(residuals, x0, **tol) for x0 in starts), key=lambda s: s.cost)
        rho, err = hs.dolp(ang, y)
        assert rho == pytest.approx(abs(best.x[1]), rel=1e-6)
        assert np.isfinite(err)

    def test_noisy_full_polarization_capped_at_one(self):
        # the linear fit of this sweep gives sqrt(b^2 + c^2)/a = 1.004
        ang, y = _malus_sweep(1.0, n=73, noise_frac=0.02, seed=0)
        rho, err = hs.dolp(ang, y)
        assert rho == 1.0
        assert 0.0 < err < 0.01

    def test_too_few_angles_rejected(self):
        ang, y = _malus_sweep(0.5, n=7)
        ang = np.linspace(0.0, 200.0, 7)
        with pytest.raises(hs.ValidationError):
            hs.dolp(ang, y[:7])

    def test_short_sweep_rejected(self):
        ang = np.linspace(0.0, 90.0, 12)
        y = 1.0 + 0.5 * np.cos(2.0 * np.deg2rad(ang))
        with pytest.raises(hs.ValidationError):
            hs.dolp(ang, y)

    def test_two_angles_modulo_180_degrees_rejected(self):
        # cos 2theta and sin 2theta take two values, too few to fix the curve
        ang = np.array([0.0, 90.0, 180.0, 270.0, 360.0, 90.0, 0.0, 180.0])
        with pytest.raises(hs.ValidationError, match="3 values modulo 180"):
            hs.dolp(ang, np.array([3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 3.0]))

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(hs.ValidationError):
            hs.dolp(np.linspace(0, 360, 12), np.ones(10))


class TestFitLoss:
    def test_exact_exponential_recovered(self):
        d = np.linspace(0.25, 2.25, 9)
        y = 500.0 * 10.0 ** (-6.5 * d / 10.0)
        slope, se = hs.fit_loss(d, y)
        assert slope == pytest.approx(6.5, rel=1e-9)
        assert se <= 1e-9

    def test_scattered_points_recovered_within_error(self):
        d = np.linspace(0.25, 2.25, 9)
        rng = np.random.default_rng(7)
        db = -6.5 * d + 27.0 + 0.5 * rng.standard_normal(d.size)
        slope, se = hs.fit_loss(d, 10.0 ** (db / 10.0))
        assert se > 0.0
        assert abs(slope - 6.5) <= 3.0 * se

    def test_constant_intensity_has_zero_loss(self):
        d = np.array([0.5, 1.0, 1.5, 2.0])
        slope, se = hs.fit_loss(d, np.full(4, 123.0))
        assert slope == 0.0
        assert se == 0.0

    @given(scale=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_global_intensity_scale_only_moves_intercept(self, scale):
        d = np.linspace(0.2, 1.8, 6)
        y = 20.0 * 10.0 ** (-5.0 * d / 10.0)
        base, _ = hs.fit_loss(d, y)
        scaled, _ = hs.fit_loss(d, scale * y)
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_too_few_points_rejected(self):
        with pytest.raises(hs.ValidationError):
            hs.fit_loss(np.array([0.5, 1.0]), np.array([2.0, 1.0]))

    def test_nonpositive_intensity_rejected(self):
        with pytest.raises(hs.ValidationError):
            hs.fit_loss(np.array([0.5, 1.0, 1.5]), np.array([2.0, 0.0, 1.0]))

    def test_coincident_distances_rejected(self):
        with pytest.raises(hs.ValidationError):
            hs.fit_loss(np.full(4, 1.0), np.array([1.0, 2.0, 3.0, 4.0]))
