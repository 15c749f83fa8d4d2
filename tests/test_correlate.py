"""Correlator, peak integration, background floor, visibility estimators."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homsim as hs
from homsim import correlate, fitting, formats
from helpers import (
    brute_force_histogram,
    emitter_long_t2,
    emitter_short_t2,
    make_stream,
    reference_circuit,
    scenario_dict,
    timetrace_reference,
)


def _synthetic_comb(
    period_ps=13000.0,
    bin_width=10.0,
    window=80000.0,
    floor=0.0,
    central_scale=1.0,
    peak_height=400.0,
    peak_half_bins=20,
    rng=None,
):
    """Histogram with rectangular peaks at every multiple of the period."""
    n_bins = int(round(2 * window / bin_width))
    centers = (np.arange(n_bins) + 0.5) * bin_width - window
    counts = np.full(n_bins, float(floor))
    k_max = int(window // period_ps)
    for k in range(-k_max, k_max + 1):
        mask = np.abs(centers - k * period_ps) <= peak_half_bins * bin_width
        counts[mask] += peak_height * (central_scale if k == 0 else 1.0)
    if rng is not None:
        counts = rng.poisson(counts).astype(float)
    return hs.CorrelationHistogram(
        bin_width_ps=bin_width,
        window_ps=window,
        counts=np.asarray(np.rint(counts), dtype=np.int64),
    )


class TestCrossCorrelate:
    def test_single_pair_lands_in_expected_bin(self):
        stream = make_stream([0], [100])
        hist = hs.cross_correlate(stream, 10.0, 1000.0)
        assert hist.counts.sum() == 1
        idx = np.flatnonzero(hist.counts)[0]
        start = hist.bin_edges_ps[idx]
        assert start == pytest.approx(100.0)
        assert hist.counts[idx] == 1

    def test_matches_brute_force_on_fixed_random_streams(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            n0, n1 = rng.integers(50, 2000, size=2)
            t0 = np.sort(rng.integers(0, 500000, size=n0))
            t1 = np.sort(rng.integers(0, 500000, size=n1))
            stream = make_stream(t0, t1)
            hist = hs.cross_correlate(stream, 25.0, 5000.0)
            brute = brute_force_histogram(stream, 25.0, 5000.0)
            assert np.array_equal(hist.counts, brute)

    @given(
        t0=st.lists(st.integers(min_value=0, max_value=20000), min_size=2, max_size=60),
        t1=st.lists(st.integers(min_value=0, max_value=20000), min_size=2, max_size=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_property(self, t0, t1):
        # anchors guarantee the span covers the correlation window
        stream = make_stream(np.sort(t0 + [0, 25000]), np.sort(t1 + [0, 25000]))
        hist = hs.cross_correlate(stream, 10.0, 2000.0)
        assert np.array_equal(hist.counts, brute_force_histogram(stream, 10.0, 2000.0))

    def test_poisson_streams_give_flat_histogram_at_analytic_level(self):
        rng = np.random.default_rng(21)
        span = 1e7
        rate = 1e-3  # per ps per channel
        n = rng.poisson(rate * span)
        m = rng.poisson(rate * span)
        t0 = np.sort(rng.uniform(0, span, n)).astype(np.int64)
        t1 = np.sort(rng.uniform(0, span, m)).astype(np.int64)
        hist = hs.cross_correlate(make_stream(t0, t1), 50.0, 1000.0)
        # condition on the realized tag counts; only pair-level noise remains
        expected = n * m * 50.0 / span
        sigma_mean = np.sqrt(expected * hist.n_bins) / hist.n_bins
        assert abs(hist.counts.mean() - expected) <= 3.0 * sigma_mean

    @given(
        t0=st.lists(st.integers(min_value=0, max_value=30000), min_size=2, max_size=80),
        t1=st.lists(st.integers(min_value=0, max_value=30000), min_size=2, max_size=80),
    )
    @settings(max_examples=40, deadline=None)
    def test_bin_refinement_preserves_counts(self, t0, t1):
        stream = make_stream(np.sort(t0 + [0, 30000]), np.sort(t1 + [0, 30000]))
        fine = hs.cross_correlate(stream, 10.0, 2000.0)
        coarse = hs.cross_correlate(stream, 20.0, 2000.0)
        assert np.array_equal(fine.counts.reshape(-1, 2).sum(axis=1), coarse.counts)
        assert fine.counts.sum() == coarse.counts.sum()

    def test_stream_constructor_rejects_unsorted(self):
        with pytest.raises(hs.ValidationError):
            hs.TimeTagStream(
                times_ps=np.array([100, 50], dtype=np.int64),
                channels=np.array([0, 1], dtype=np.uint8),
            )

    @pytest.mark.parametrize("times", [[2**63 - 10, 2**63 - 5], [-1, 5], [5, 2**62]])
    def test_stream_constructor_rejects_times_off_the_tag_clock(self, times):
        # [2^63 - 10, 2^63 - 5] used to correlate to 0 pairs, with an int64 overflow
        with pytest.raises(hs.ValidationError, match="tag times must lie in"):
            make_stream([times[0]], [times[1]])

    def test_latest_tag_on_the_clock_correlates_exactly(self):
        last = hs.formats.TAG_CLOCK_PS - 1
        assert last == 2**62 - 1
        hist = hs.cross_correlate(make_stream([last - 5], [last]), 10.0, 1000.0)
        assert hist.counts.sum() == 1
        assert hist.bin_centers_ps[np.argmax(hist.counts)] == 5.0

    def test_bin_must_divide_full_window_evenly(self):
        stream = make_stream([0, 10], [5, 20])
        with pytest.raises(hs.ConfigurationError):
            hs.cross_correlate(stream, 30.0, 500.0)  # 2W/bw not integral
        with pytest.raises(hs.ConfigurationError):
            hs.cross_correlate(stream, 200.0, 500.0)  # odd bin count
        with pytest.raises(hs.ValidationError):
            hs.cross_correlate(stream, 0.5, 500.0)  # sub-ps bin

    # (0.5, 10.0): sub-ps bins, which cross_correlate refuses, with their 40 bins
    @pytest.mark.parametrize(
        "bin_width,window",
        [(0.0, 10.0), (-10.0, -20.0), (np.nan, 20.0), (10.0, np.nan), (0.5, 10.0)],
    )
    def test_histogram_needs_a_positive_bin_width_and_a_finite_window(self, bin_width, window):
        with pytest.raises(hs.ValidationError, match="bin_width_ps|window_ps"):
            hs.CorrelationHistogram(bin_width, window, np.zeros(40, dtype=np.int64))

    @pytest.mark.parametrize("n_bins", [2, 3, 6])
    def test_histogram_bin_count_must_match_its_grid(self, n_bins):
        with pytest.raises(hs.ConfigurationError, match="not the 4"):
            hs.CorrelationHistogram(10.0, 20.0, np.zeros(n_bins, dtype=np.int64))

    def test_empty_channel_gives_empty_histogram(self):
        stream = make_stream([], [100, 200])
        hist = hs.cross_correlate(stream, 10.0, 1000.0)
        assert hist.counts.sum() == 0
        assert hist.total_pairs == 0

    def test_total_pairs_is_the_sum_of_the_counts(self, tmp_path):
        counts = np.array([0, 3, 5, 1], dtype=np.int64)
        hist = hs.CorrelationHistogram(bin_width_ps=10.0, window_ps=20.0, counts=counts)
        assert hist.total_pairs == 9
        p = tmp_path / "hist.csv"
        formats.write_histogram_csv(p, hist)
        counts = np.loadtxt(p, delimiter=",", usecols=1, dtype=np.int64)
        assert hist.total_pairs == counts.sum() == 9

    @pytest.mark.parametrize("bin_width,window", [(np.nan, 500.0), (10.0, np.nan), (10.0, np.inf)])
    def test_non_finite_bin_width_or_window_rejected(self, bin_width, window):
        with pytest.raises(hs.ValidationError, match="finite"):
            hs.cross_correlate(make_stream([0, 10], [5, 20]), bin_width, window)

    def test_result_independent_of_worker_count(self, monkeypatch):
        rng = np.random.default_rng(3)
        t0 = np.sort(rng.integers(0, 10_000_000, size=20000))
        t1 = np.sort(rng.integers(0, 10_000_000, size=20000))
        stream = make_stream(t0, t1)
        results = []
        for workers in ("1", "4"):
            monkeypatch.setenv("HOMSIM_THREADS", workers)
            results.append(hs.cross_correlate(stream, 10.0, 80000.0).counts)
        assert np.array_equal(results[0], results[1])


class TestSliceSweep:
    """cross_correlate sweeps slices of 32,768 tags of the merged stream."""

    @staticmethod
    def _stream():
        """About 71,000 tags: the first slice holds no channel-0 tag, and a
        burst of tied tags (300 on channel 0 at X, 100 on channel 1 at X + 3)
        spans the boundary between the second and third slices."""
        rng = np.random.default_rng(44)
        t1 = np.sort(rng.integers(0, 7_000_000, size=70_000))
        t0 = np.sort(rng.integers(6_000_000, 7_000_000, size=1000))
        x = make_stream(t0, t1).times_ps[(2 << 15) - 100]
        return make_stream(np.sort(np.r_[t0, [x] * 300]), np.sort(np.r_[t1, [x + 3] * 100]))

    @pytest.mark.parametrize(
        "bin_width,window", [(10.0, 2000.0), (7.5, 75.0), (2.5, 12.5), (1.25, 7.5)]
    )
    def test_equals_brute_force_at_every_worker_count(self, monkeypatch, bin_width, window):
        stream = self._stream()
        times, channels = stream.times_ps, stream.channels
        assert not np.any(channels[: 1 << 15] == 0)
        second, third = slice(1 << 15, 2 << 15), slice(2 << 15, None)
        straddle = times[third][channels[third] == 1][0] - times[second][channels[second] == 0][-1]
        assert 0 <= straddle < window
        brute = brute_force_histogram(stream, bin_width, window, rows=16)
        for workers in ("1", "2", "5"):
            monkeypatch.setenv("HOMSIM_THREADS", workers)
            hist = hs.cross_correlate(stream, bin_width, window)
            assert np.array_equal(hist.counts, brute)

    def test_delays_exact_beyond_float_precision(self):
        # at 2^60 ps a float64 is 256 ps coarse; delays are integer differences
        base = 2**60
        hist = hs.cross_correlate(make_stream([base], [base + 15]), 10.0, 1000.0)
        assert hist.counts.sum() == 1
        assert hist.bin_centers_ps[np.argmax(hist.counts)] == 15.0
        # a pair at exactly -window is kept in the first bin, one at exactly
        # +window is dropped
        t0 = base + 5000
        hist = hs.cross_correlate(
            make_stream([t0], [t0 - 1000, t0 + 15, t0 + 1000]), 10.0, 1000.0
        )
        expected = np.zeros(200, dtype=np.int64)
        expected[[0, 101]] = 1
        assert np.array_equal(hist.counts, expected)

    @pytest.mark.parametrize(
        "bin_width,window,base",
        [(10.0, 80000.0, 0), (7.5, 75.0, 0), (1.25, 7.5, 0), (1.25, 7.5, 2**60)],
    )
    def test_window_edge_pairs_land_in_the_first_and_last_bins(self, bin_width, window, base):
        # delays -floor(W) and ceil(W) - 1 are the extreme kept pairs: the
        # truncating cast must put them in the first and last bins, and drop
        # the delays one step outside
        lo, hi = -math.floor(window), math.ceil(window) - 1
        t0 = base + 10**6 + 4 * math.ceil(window) * np.arange(50)
        offsets = np.array([lo - 1, lo, lo, hi, hi + 1])
        t1 = np.sort((t0[:, None] + offsets).ravel())
        hist = hs.cross_correlate(make_stream(t0, t1), bin_width, window)
        assert hist.counts[0] == 100 and hist.counts[-1] == 50
        assert hist.total_pairs == 150
        # the reference is float64, exact only below 2^53 ps; delays are shift-free
        shifted = make_stream(t0 - base, t1 - base)
        assert np.array_equal(hist.counts, brute_force_histogram(shifted, bin_width, window))


class TestBackground:
    def test_flat_histogram_recovers_level(self):
        hist = _synthetic_comb(floor=7.0, peak_height=0.0)
        floor = hs.estimate_background(hist, period_ps=13000.0)
        assert floor == pytest.approx(7.0, rel=1e-12)

    def test_peaks_on_floor_recovered_within_two_percent(self):
        rng = np.random.default_rng(17)
        hist = _synthetic_comb(floor=120.0, peak_height=4000.0, rng=rng)
        floor = hs.estimate_background(hist, period_ps=13000.0)
        assert floor == pytest.approx(120.0, rel=0.02)

    def test_floor_recovered_under_exponential_tails(self):
        estimate = hs.estimate_background(_tailed_comb(), 13000.0)
        assert estimate == pytest.approx(40.0, rel=0.02)

    def test_zero_background_recovered_as_zero(self):
        hist = _synthetic_comb(floor=0.0, peak_height=500.0)
        assert hs.estimate_background(hist, period_ps=13000.0) == 0.0

    def test_window_must_cover_three_periods(self):
        hist = _synthetic_comb(window=15000.0, bin_width=10.0)
        with pytest.raises(hs.ConfigurationError):
            hs.estimate_background(hist, period_ps=13000.0)

    def test_no_dead_zone_rejected(self):
        hist = _synthetic_comb()
        with pytest.raises(hs.ConfigurationError):
            hs.estimate_background(hist, period_ps=13000.0, delta_t_ps=13500.0)

    def test_dead_zones_too_short_for_the_tail_fit_rejected(self):
        # two bins per dead zone: two tail amplitudes absorb any floor
        hist = _synthetic_comb(floor=7.0)
        with pytest.raises(hs.EstimationError):
            hs.estimate_background(hist, period_ps=13000.0, delta_t_ps=12960.0)


def _tailed_comb(decay_r=700.0, decay_l=600.0):
    """Two-sided exponential peaks every 13 ns whose tails reach far into the
    dead zones, on a floor of 40; the central peak is suppressed as in a HOM
    run."""
    tau = _synthetic_comb(peak_height=0.0).bin_centers_ps
    counts = np.full(tau.size, 40.0)
    for k in range(-8, 9):
        x = tau - k * 13000.0
        height = 2000.0 * (0.45 if k == 0 else 1.0)
        counts += height * np.where(x >= 0, np.exp(-x / decay_r), np.exp(x / decay_l))
    return hs.CorrelationHistogram(
        bin_width_ps=10.0, window_ps=80000.0, counts=np.random.default_rng(31).poisson(counts)
    )


def _hom_histogram():
    """The README pair at detector efficiency 1, synchronised, 300k pulses."""
    det = hs.DetectorSpec(efficiency=1.0, irf_fwhm_ps=80.0)
    train = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=300000)
    stream, _ = hs.run_simulation(
        emitter_short_t2(), emitter_long_t2(), reference_circuit(), det, train, seed=17
    )
    return hs.cross_correlate(stream, 10.0, 80000.0), train.period_ps


class TestBackgroundSolve:
    """The floor's solve of the two decay times, by the solver of every fit,
    reaches the minimum that scipy's trust-region reflective solver finds
    from the same start and box."""

    @staticmethod
    def _floor_and_cost(monkeypatch, solver, hist, period, **kw):
        costs = []

        def recorded(fun, x0, lo, hi):
            out = solver(fun, x0, lo, hi)
            costs.append(float(fun(out[0]) @ fun(out[0])))
            return out

        with monkeypatch.context() as m:
            m.setattr(fitting, "_trf_least_squares", recorded)
            floor = hs.estimate_background(hist, period, **kw)
        assert len(costs) == 1
        return floor, costs[0]

    @staticmethod
    def _case(case):
        """(hist, period, keyword arguments) of a named case."""
        if case == "hom-300k":
            hist, period = _hom_histogram()
            return hist, period, {"delta_t_ps": 3000.0}
        if case == "slow":
            return _tailed_comb(decay_r=1000.0, decay_l=5000.0), 13000.0, {}
        return _tailed_comb(), 13000.0, {}

    # "slow": a 5 ns left tail, as long as the bound of half a dead zone,
    # ends with T_L on the upper bound and T_R free
    @pytest.mark.parametrize("case", ["tailed-0", "slow", "hom-300k"])
    def test_same_minimum_as_trust_region_reflective(self, monkeypatch, case):
        from scipy.optimize import least_squares

        def trf(fun, x0, lo, hi):
            sol = least_squares(fun, x0, bounds=(lo, hi), method="trf", x_scale="jac")
            return sol.x, sol.fun, sol.jac, sol.njev, sol.status > 0

        hist, period, kw = self._case(case)
        floor, cost = self._floor_and_cost(
            monkeypatch, fitting._trf_least_squares, hist, period, **kw
        )
        floor_trf, cost_trf = self._floor_and_cost(monkeypatch, trf, hist, period, **kw)
        assert floor_trf > 0.0
        assert floor == pytest.approx(floor_trf, rel=1e-5)
        assert cost <= cost_trf * (1.0 + 1e-9)

    # each case's floor, pinned with the zone sums accumulated bin by bin;
    # another summation order may move it in the tenth digit, no further
    @pytest.mark.parametrize(
        "case,pinned",
        [
            ("tailed-0", 40.08863163669062),
            ("hom-300k", 1.5403403662560222),
        ],
    )
    def test_floor_within_1e9_of_the_pinned_solve(self, case, pinned):
        hist, period, kw = self._case(case)
        assert hs.estimate_background(hist, period, **kw) == pytest.approx(pinned, rel=1e-9)


class TestCombInputs:
    @pytest.mark.parametrize("period", [np.nan, np.inf])
    def test_non_finite_period_rejected(self, period):
        hist = _synthetic_comb()
        with pytest.raises(hs.ValidationError, match="finite"):
            hs.estimate_background(hist, period)
        with pytest.raises(hs.ValidationError, match="finite"):
            hs.integrate_peaks(hist, period)

    @pytest.mark.parametrize("floor", [np.nan, np.inf, -np.inf])
    def test_non_finite_floor_rejected(self, floor):
        hist = _synthetic_comb()
        for corrected in (False, True):
            with pytest.raises(hs.ValidationError, match="floor .* must be finite"):
                hs.integrate_peaks(hist, 13000.0, floor=floor, corrected=corrected)

    @pytest.mark.parametrize("name", ["estimate_background", "integrate_peaks"])
    def test_comb_offset_keyword_refused(self, name):
        # a caller still passing the removed offset fails loudly instead of
        # reading a comb at k*period it did not ask for
        with pytest.raises(TypeError, match="delay_ps"):
            getattr(hs, name)(_synthetic_comb(), 13000.0, delay_ps=500.0)


class TestCombPosition:
    def test_delayed_run_peaks_centre_on_whole_periods(self):
        # both channels share one tag clock, so a 500 ps delayed run, as in
        # the README pair, still puts every comb peak at k*period: its
        # cross-source pairs sit at +-500 ps around it, not on one side
        cfg = scenario_dict()
        cfg["detector"]["efficiency"] = 1.0
        cfg["train"].update(n_pulses=300_000, source_delay_ps=500.0)
        cfg = hs.parse_scenario(json.dumps(cfg))
        stream, _ = hs.run_simulation(
            cfg.emitter1, cfg.emitter2, cfg.circuit, cfg.detector, cfg.train, seed=cfg.seed
        )
        hist = hs.cross_correlate(stream, 10.0, 40000.0)
        for k in range(-2, 3):
            offset = hist.bin_centers_ps - k * cfg.train.period_ps
            near = np.abs(offset) <= 1500.0
            # the centroids read -22 ps (k = 0) and -9 to -13 ps, standard
            # errors 2.6-4.2 ps: the channels see different mixes of the sources
            centroid = np.average(offset[near], weights=hist.counts[near])
            assert abs(centroid) < 100.0, (k, centroid)


class TestIntegratePeaks:
    def test_equal_peaks_give_unity_ratio(self):
        hist = _synthetic_comb()
        pa = hs.integrate_peaks(hist, period_ps=13000.0, delta_t_ps=3000.0, n_side=6)
        assert pa.g2_zero == pytest.approx(1.0, rel=1e-12)
        assert pa.g2_zero_err > 0.0  # Poisson floor on the central area

    def test_suppressed_central_peak_reference_shape(self):
        hist = _synthetic_comb(central_scale=0.459, peak_height=1000.0)
        pa = hs.integrate_peaks(hist, period_ps=13000.0, delta_t_ps=3000.0, n_side=6)
        assert pa.g2_zero == pytest.approx(0.459, rel=1e-12)

    def test_eleven_peak_table_has_expected_k_values(self):
        hist = _synthetic_comb()
        pa = hs.integrate_peaks(hist, period_ps=13000.0, delta_t_ps=3000.0, n_side=10)
        assert list(pa.k_values) == list(range(-5, 6))
        assert pa.areas.size == 11

    def test_overlapping_windows_rejected(self):
        hist = _synthetic_comb()
        with pytest.raises(hs.ConfigurationError):
            hs.integrate_peaks(hist, period_ps=13000.0, delta_t_ps=14000.0, n_side=6)

    def test_comb_must_fit_inside_window(self):
        hist = _synthetic_comb()
        with pytest.raises(hs.ConfigurationError):
            hs.integrate_peaks(hist, period_ps=13000.0, delta_t_ps=3000.0, n_side=14)

    def test_correction_matches_floor_free_reference(self):
        rng = np.random.default_rng(23)
        clean = _synthetic_comb(central_scale=0.4, rng=np.random.default_rng(23))
        noisy = _synthetic_comb(
            central_scale=0.4, floor=60.0, rng=np.random.default_rng(24)
        )
        pa_clean = hs.integrate_peaks(clean, 13000.0, 3000.0, 6)
        floor = hs.estimate_background(noisy, 13000.0)
        pa_corr = hs.integrate_peaks(
            noisy, 13000.0, 3000.0, 6, floor=floor, corrected=True
        )
        err = np.hypot(pa_clean.g2_zero_err, pa_corr.g2_zero_err)
        assert abs(pa_corr.g2_zero - pa_clean.g2_zero) <= 2.0 * max(err, 1e-3)

    def test_ratio_scale_invariant(self):
        hist = _synthetic_comb(central_scale=0.37)
        scaled = hs.CorrelationHistogram(
            bin_width_ps=hist.bin_width_ps,
            window_ps=hist.window_ps,
            counts=hist.counts * 3,
        )
        a = hs.integrate_peaks(hist, 13000.0, 3000.0, 6).g2_zero
        b = hs.integrate_peaks(scaled, 13000.0, 3000.0, 6).g2_zero
        assert a == pytest.approx(b, rel=1e-12)

    def test_poisson_errors_on_raw_areas(self):
        hist = _synthetic_comb()
        pa = hs.integrate_peaks(hist, 13000.0, 3000.0, 6)
        np.testing.assert_allclose(pa.area_errors, np.sqrt(pa.areas))


class TestHomVisibility:
    def test_reference_corrected_value(self):
        v, err = hs.hom_visibility(0.558, 0.459)
        assert v == pytest.approx(0.17741935483870971, rel=1e-12)
        assert round(v, 3) == 0.177

    def test_reference_raw_value(self):
        v, _ = hs.hom_visibility(0.680, 0.587)
        assert v == pytest.approx(0.13676470588235307, rel=1e-12)

    def test_identical_inputs_give_zero(self):
        v, err = hs.hom_visibility(0.44, 0.44)
        assert v == 0.0

    def test_error_propagation(self):
        gd, gs, ed, es = 0.56, 0.46, 0.004, 0.003
        v, err = hs.hom_visibility(gd, gs, ed, es)
        expected = np.hypot(gs / gd**2 * ed, es / gd)
        assert err == pytest.approx(expected, rel=1e-12)

    def test_zero_delayed_ratio_rejected(self):
        with pytest.raises(hs.ValidationError):
            hs.hom_visibility(0.0, 0.3)

    @pytest.mark.parametrize(
        "args",
        [(np.nan, 0.3), (np.inf, 0.3), (0.5, np.nan), (0.5, np.inf), (0.5, 0.3, np.nan, 0.0),
         (0.5, 0.3, 0.0, np.inf)],
    )
    def test_non_finite_ratio_or_error_rejected(self, args):
        with pytest.raises(hs.ValidationError, match="finite"):
            hs.hom_visibility(*args)

    def test_accepts_peak_analysis_objects(self):
        h_s = _synthetic_comb(central_scale=0.459, peak_height=1000.0)
        h_d = _synthetic_comb(central_scale=0.558, peak_height=1000.0)
        pa_s = hs.integrate_peaks(h_s, 13000.0, 3000.0, 6)
        pa_d = hs.integrate_peaks(h_d, 13000.0, 3000.0, 6)
        v, err = hs.hom_visibility(pa_d, pa_s)
        assert v == pytest.approx(0.17741935483870971, rel=1e-9)
        assert err > 0.0


class TestTimetrace:
    def test_fixed_offset_occupies_single_bin(self):
        train = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=50)
        period = train.period_ps
        times = np.sort(
            np.array([round(k * period) + 430 for k in range(50)], dtype=np.int64)
        )
        stream = make_stream(times, [])
        trace = hs.timetrace(stream, train, bin_width_ps=20.0)
        occupied = np.flatnonzero(trace.counts)
        assert occupied.size <= 2  # rounding of k*period can straddle a bin edge
        assert np.any(np.abs(occupied - 430 // 20) <= 1)
        assert trace.counts.sum() == 50

    def test_uniform_tags_give_flat_trace(self):
        rng = np.random.default_rng(2)
        train = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=100000)
        times = np.sort(rng.integers(0, int(train.span_ps), size=200000))
        trace = hs.timetrace(make_stream(times, []), train, bin_width_ps=100.0)
        mean = trace.counts[:-1].mean()
        assert trace.counts[:-1].std() <= 4.0 * np.sqrt(mean)

    @pytest.mark.parametrize("channel", [2, -1])
    def test_channel_other_than_0_or_1_rejected(self, channel):
        train = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=10)
        with pytest.raises(hs.ValidationError, match="channel"):
            hs.timetrace(make_stream([100, 200], [300]), train, channel=channel)

    def test_channel_filter(self):
        train = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=10)
        stream = make_stream([100, 200], [300])
        both = hs.timetrace(stream, train)
        only0 = hs.timetrace(stream, train, channel=0)
        assert both.counts.sum() == 3
        assert only0.counts.sum() == 2

    def test_channels_0_and_1_split_the_trace(self):
        train = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=10)
        stream = make_stream([100, 200], [300, 7000])
        both = hs.timetrace(stream, train)
        only0 = hs.timetrace(stream, train, channel=0)
        only1 = hs.timetrace(stream, train, channel=1)
        assert (only0.counts.sum(), only1.counts.sum()) == (2, 2)
        np.testing.assert_array_equal(only0.counts + only1.counts, both.counts)

    @pytest.mark.parametrize("bin_width", [np.nan, np.inf, 0.5, 1e-300])
    def test_bin_width_must_be_finite_and_at_least_1_ps(self, bin_width):
        train = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=10)
        with pytest.raises(hs.ValidationError, match="bin_width_ps"):
            hs.timetrace(make_stream([100, 200], [300]), train, bin_width_ps=bin_width)

    @pytest.mark.parametrize("rep_rate_mhz,bin_width", [(76.0, 20.0), (80.0, 20.0), (76.0, 1.0)])
    def test_fold_is_exact_up_to_the_tag_clock(self, rep_rate_mhz, bin_width):
        # a float64 fold of 2^58 + 12345 ps at 76 MHz is 7 ps off, and one of
        # 2^62 - 12345 ps 57 ps off
        rng = np.random.default_rng(62)
        clock = hs.formats.TAG_CLOCK_PS
        times = np.concatenate((
            [2**58 + 12345, clock - 12345, clock - 1],
            clock - rng.integers(1, 2**40, size=3000),
            rng.integers(2**53, clock, size=3000),
        ))
        times.sort()
        stream = make_stream(times[::2], times[1::2])
        train = hs.PulseTrainSpec(rep_rate_mhz=rep_rate_mhz, n_pulses=1)
        trace = hs.timetrace(stream, train, bin_width_ps=bin_width)
        assert np.array_equal(trace.counts, timetrace_reference(stream, train, bin_width))
        one = hs.timetrace(make_stream([2**58 + 12345], []), train, bin_width_ps=bin_width)
        k = (Fraction(2**58 + 12345) % Fraction(train.period_ps)) // Fraction(bin_width)
        assert one.counts[k] == 1

    def test_period_past_the_tag_clock_folds_without_overflow(self):
        # a 1e19 ps period is a whole number of picoseconds past int64
        train = hs.PulseTrainSpec(rep_rate_mhz=1e-13, n_pulses=1)
        stream = make_stream([5, 2**61], [2**62 - 1])
        trace = hs.timetrace(stream, train, bin_width_ps=1e17)
        assert trace.counts.sum() == 3
        assert np.array_equal(trace.counts, timetrace_reference(stream, train, 1e17))

    @pytest.mark.parametrize("channel", [None, 0, 1])
    def test_phase_zero_and_one_period_less_1_ps_land_in_the_end_bins(self, channel):
        # 76 MHz is 19 periods in 250,000 ps: 250,000 m folds to phase 0 and
        # 250,000 m - 1 to one period less 1 ps, 13156.89 ps, in the last bin
        whole = 250_000 * np.arange(1, 41)
        stream = make_stream(np.r_[whole[::2], whole[1::2] - 1], np.r_[whole[1::2], whole[::4] - 1])
        train = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=1)
        trace = hs.timetrace(stream, train, bin_width_ps=20.0, channel=channel)
        first, last = {None: (40, 30), 0: (20, 20), 1: (20, 10)}[channel]
        assert trace.n_bins == 658 and (trace.counts[0], trace.counts[-1]) == (first, last)
        assert trace.counts.sum() == first + last
        assert np.array_equal(trace.counts, timetrace_reference(stream, train, 20.0, channel))

    @pytest.mark.parametrize("bin_width", [20.0, 7.5, 1.25])
    @pytest.mark.parametrize("channel", [None, 0, 1])
    def test_slice_sweep_equals_whole_stream_fold(self, monkeypatch, bin_width, channel):
        # three whole slices and 17 tags of a fourth, up to 2^61 ps, far past
        # 2^53 ps, where a float64 stops holding every picosecond
        n = 3 * correlate._SLICE_TAGS + 17
        rng = np.random.default_rng(12)
        times = np.sort(rng.integers(0, 2**61, size=n))
        times[: n // 2] //= 2**40  # and a dense first half
        times.sort()
        chans = rng.integers(0, 2, size=n)
        stream = make_stream(times[chans == 0], times[chans == 1])
        train = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=1)
        expected = timetrace_reference(stream, train, bin_width, channel)
        for workers in ("1", "2", "5"):
            monkeypatch.setenv("HOMSIM_THREADS", workers)
            trace = hs.timetrace(stream, train, bin_width_ps=bin_width, channel=channel)
            assert trace.counts.dtype == np.int64
            assert np.array_equal(trace.counts, expected)

