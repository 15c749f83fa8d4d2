"""Coherence kernel, closed-form visibility, quadrature cross-check."""

import cmath
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import homsim as hs
from helpers import emitter_long_t2, emitter_short_t2, make_emitter


def _valid_pair(t1a, t2a_frac, t1b, t2b_frac):
    ea = make_emitter(t1_fast_ps=t1a, t2_ps=max(t2a_frac * 2.0 * t1a, 1e-3))
    eb = make_emitter(t1_fast_ps=t1b, t2_ps=max(t2b_frac * 2.0 * t1b, 1e-3))
    return ea, eb


class TestCoherenceKernel:
    def test_zero_delay_equals_overlap(self):
        k = hs.coherence_kernel(0.0, emitter_short_t2(), emitter_long_t2(), 0.95)
        assert k == pytest.approx(0.95, rel=1e-12)

    @given(
        tau=st.floats(min_value=-5000, max_value=5000),
        pol=st.floats(min_value=0.0, max_value=1.0),
        delta=st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_bounded_by_overlap(self, tau, pol, delta):
        k = hs.coherence_kernel(
            tau, emitter_short_t2(), emitter_long_t2(), pol, delta_uev=delta
        )
        assert abs(k) <= pol + 1e-12

    @given(tau=st.floats(min_value=0.0, max_value=5000.0))
    @settings(max_examples=100, deadline=None)
    def test_kernel_even_at_zero_detuning(self, tau):
        e1, e2 = emitter_short_t2(), emitter_long_t2()
        assert hs.coherence_kernel(tau, e1, e2) == pytest.approx(
            hs.coherence_kernel(-tau, e1, e2), rel=1e-12, abs=1e-300
        )

    def test_default_detuning_is_the_emitters_energy_difference(self):
        e1, e2 = emitter_short_t2(energy_uev=2.0), emitter_long_t2(energy_uev=7.0)
        tau = np.linspace(-2000.0, 2000.0, 81)
        k = hs.coherence_kernel(tau, e1, e2, 0.9)
        assert np.array_equal(k, hs.coherence_kernel(tau, e1, e2, 0.9, delta_uev=-5.0))
        assert not np.allclose(k, hs.coherence_kernel(tau, e1, e2, 0.9, delta_uev=0.0))

    def test_per_pair_frequency_offset_adds_to_the_detuning(self):
        e1, e2 = emitter_short_t2(), emitter_long_t2()
        tau = np.array([-800.0, 150.0, 900.0])
        offsets = np.array([0.5, -1.0, 3.0])
        k = hs.coherence_kernel(tau, e1, e2, delta_uev=2.0, freq_offset_uev=offsets)
        one_by_one = [
            hs.coherence_kernel(t, e1, e2, delta_uev=2.0 + o) for t, o in zip(tau, offsets)
        ]
        assert k == pytest.approx(one_by_one, rel=1e-12, abs=1e-15)


class TestClosedFormVisibility:
    def test_reference_point_zero_detuning(self):
        v = hs.visibility_closed_form(emitter_short_t2(), emitter_long_t2(), 0.0, 1.0)
        assert v == pytest.approx(0.1234726034575293, rel=1e-12)

    def test_reference_point_five_microev(self):
        v = hs.visibility_closed_form(emitter_short_t2(), emitter_long_t2(), 5.0, 1.0)
        assert v == pytest.approx(0.08925922932749987, rel=1e-10)

    @pytest.mark.parametrize("delay", [0.0, 500.0])
    def test_default_detuning_is_the_emitters_energy_difference(self, delay):
        # the README pair with emitter 2 moved to 5 ueV
        e1, e2 = emitter_short_t2(), emitter_long_t2(energy_uev=5.0)
        for route in (hs.visibility_closed_form, hs.visibility_numeric):
            v = route(e1, e2, delay_ps=delay)
            assert v == route(e1, e2, delta_uev=-5.0, delay_ps=delay)
            assert v < route(e1, e2, delta_uev=0.0, delay_ps=delay) - 0.01
        assert hs.visibility_closed_form(e1, e2) == pytest.approx(0.08925922932749987, rel=1e-10)

    def test_reference_point_partial_polarization(self):
        v = hs.visibility_closed_form(emitter_short_t2(), emitter_long_t2(), 0.0, 0.95)
        assert v == pytest.approx(0.11729897328465283, rel=1e-10)

    def test_detuned_never_exceeds_resonant(self):
        e1, e2 = emitter_short_t2(), emitter_long_t2()
        v0 = hs.visibility_closed_form(e1, e2, 0.0, 1.0)
        for delta in np.linspace(0.0, 20.0, 41):
            assert hs.visibility_closed_form(e1, e2, delta, 1.0) <= v0 + 1e-12

    @given(
        t1a=st.floats(min_value=50, max_value=3000),
        t2a_frac=st.floats(min_value=0.01, max_value=1.0),
        t1b=st.floats(min_value=50, max_value=3000),
        t2b_frac=st.floats(min_value=0.01, max_value=1.0),
        delta=st.floats(min_value=0.0, max_value=30.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_detuning_bound_holds_over_random_emitters(
        self, t1a, t2a_frac, t1b, t2b_frac, delta
    ):
        ea, eb = _valid_pair(t1a, t2a_frac, t1b, t2b_frac)
        assert hs.visibility_closed_form(ea, eb, delta, 1.0) <= (
            hs.visibility_closed_form(ea, eb, 0.0, 1.0) + 1e-12
        )

    def test_monotone_in_dephasing_at_fixed_lifetimes(self):
        t2_values = np.linspace(1200.0, 100.0, 12)  # increasing dephasing
        last = np.inf
        for t2 in t2_values:
            e = make_emitter(t1_fast_ps=600.0, t2_ps=t2)
            v = hs.visibility_closed_form(e, e, 0.0, 1.0)
            assert v <= last + 1e-12
            last = v

    def test_single_emitter_reduction(self):
        for t1 in np.linspace(100.0, 2000.0, 25):
            for frac in (0.1, 0.6, 1.0):
                e = make_emitter(t1_fast_ps=t1, t2_ps=frac * 2.0 * t1)
                v = hs.visibility_closed_form(e, e, 0.0, 1.0)
                assert abs(v - e.t2_ps / (2.0 * e.t1_fast_ps)) <= 1e-9

    def test_fourier_limited_identical_pair_reaches_unity(self):
        e = make_emitter(t1_fast_ps=600.0, t2_ps=1200.0)
        # Zero pure dephasing, zero detuning: perfectly indistinguishable.
        assert hs.visibility_closed_form(e, e, 0.0, 1.0) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("arg", ["delta_uev", "delay_ps"])
    def test_non_finite_detuning_or_delay_rejected(self, arg, bad):
        e1, e2 = emitter_short_t2(), emitter_long_t2()
        for route in (hs.visibility_closed_form, hs.visibility_numeric):
            with pytest.raises(hs.ValidationError, match=arg):
                route(e1, e2, **{arg: bad})

    @pytest.mark.parametrize("delta", [1e150, -1e200, 1e300, 1.7e308, 1e308, 5e307])
    def test_huge_detuning_leaves_nothing_to_interfere(self, delta):
        # products of (g+A) factors overflow at these detunings, and with a
        # delay d so does the phase delta_omega*d; V must not
        e1, e2 = emitter_short_t2(), emitter_long_t2()
        for d in (0.0, 1e4, -1e4, 2e3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                v = hs.visibility_closed_form(e1, e2, delta, 1.0, delay_ps=d)
            assert np.isfinite(v) and abs(v) < 1e-100

    @pytest.mark.parametrize("t", [1e-300, 1e300, 1e308])
    def test_single_emitter_reduction_at_extreme_lifetimes(self, t):
        e = make_emitter(t1_fast_ps=t, t1_slow_ps=t, t2_ps=t)
        assert hs.visibility_closed_form(e, e) == pytest.approx(0.5, rel=1e-12)
        other = emitter_long_t2()
        for v in (hs.visibility_closed_form(e, other), hs.visibility_closed_form(other, e)):
            assert np.isfinite(v) and 0.0 <= v <= 1.0

    @pytest.mark.parametrize("t2_over_t1", [1.0, 2.0])
    @pytest.mark.parametrize("delta", [1e150, -1e150, 1.7e308, 0.0])
    def test_lifetimes_1e600_apart_give_a_finite_visibility(self, delta, t2_over_t1):
        # one ratio T1_i/(T1_1+T1_2) underflows to 0 while its denominator
        # 1 + A*T1_i overflows to inf + inf*j, and 0/(inf + inf*j) is NaN
        def emitter(t1):
            return make_emitter(t1_fast_ps=t1, t1_slow_ps=t1, t2_ps=t2_over_t1 * t1)

        fast, slow = emitter(1e-300), emitter(1e300)
        for e1, e2 in ((fast, slow), (slow, fast), (fast, fast)):
            for d in (0.0, 1e4, -1e4, 1e300):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    v = hs.visibility_closed_form(e1, e2, delta, 1.0, delay_ps=d)
                assert np.isfinite(v) and abs(v) <= 1.0

    @given(
        t1=st.tuples(*[st.floats(min_value=1e-300, max_value=1e308)] * 2),
        t2_over_t1=st.tuples(*[st.floats(min_value=1e-9, max_value=2.0)] * 2),
        delta=st.floats(min_value=-1.7e308, max_value=1.7e308),
        pol=st.floats(min_value=0.0, max_value=1.0),
        delay=st.sampled_from([0.0, -0.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_zero_delay_is_the_sum_of_the_two_lifetime_terms_bit_for_bit(
        self, t1, t2_over_t1, delta, pol, delay
    ):
        # the delay formula at d = 0 against pol * Re[c/(g1+A) + c/(g2+A)],
        # each term as (T1_i/(T1_1+T1_2)) / (1 + A*T1_i), over the ranges of
        # the overflow guards above; the sign of a zero counts too
        t2 = [r * t for r, t in zip(t2_over_t1, t1)]
        assume(all(0.0 < x < np.inf and 1.0 / x < np.inf for x in t2))
        e1, e2 = (make_emitter(t1_fast_ps=t, t1_slow_ps=t, t2_ps=s) for t, s in zip(t1, t2))
        a = e1.pure_dephasing_rate + e2.pure_dephasing_rate + 1j * hs.detuning_to_angular(delta)

        def term(own, other):
            weight, denom = 1.0 / (1.0 + other / own), 1.0 + a * own
            return weight / denom if weight and cmath.isfinite(denom) else 0j

        expected = float(pol * (term(*t1) + term(*t1[::-1])).real)
        got = hs.visibility_closed_form(e1, e2, delta, pol, delay_ps=delay)
        assert struct.pack("<d", got) == struct.pack("<d", expected)

    def test_quadrature_agrees_with_closed_form_at_reference_point(self):
        e1, e2 = emitter_short_t2(), emitter_long_t2()
        vq = hs.visibility_numeric(e1, e2, 0.0, 1.0)
        vc = hs.visibility_closed_form(e1, e2, 0.0, 1.0)
        assert abs(vq - vc) <= 1e-4

    def test_quadrature_agreement_on_random_sweep(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(30):
            t1a = float(rng.uniform(100, 1500))
            t1b = float(rng.uniform(100, 1500))
            ea = make_emitter(
                t1_fast_ps=t1a, t2_ps=float(rng.uniform(0.05, 1.0)) * 2.0 * t1a
            )
            eb = make_emitter(
                t1_fast_ps=t1b, t2_ps=float(rng.uniform(0.05, 1.0)) * 2.0 * t1b
            )
            delta = float(rng.uniform(0.0, 10.0))
            pol = float(rng.uniform(0.5, 1.0))
            diff = abs(
                hs.visibility_numeric(ea, eb, delta, pol)
                - hs.visibility_closed_form(ea, eb, delta, pol)
            )
            worst = max(worst, diff)
        assert worst <= 1e-3


class TestDelayedVisibility:
    """Source 2 excited delay_ps after source 1 (the delayed reference)."""

    @staticmethod
    def _quad(e1, e2, delta_uev, pol, delay):
        # adaptive 1-D quadrature over the emission-time difference u
        g1, g2 = e1.radiative_rate, e2.radiative_rate
        a = e1.pure_dephasing_rate + e2.pure_dephasing_rate
        w = hs.detuning_to_angular(delta_uev)
        c = g1 * g2 / (g1 + g2)

        def f(u):
            dens = c * np.exp(-g1 * u) if u >= 0 else c * np.exp(g2 * u)
            return dens * np.cos(w * (u - delay)) * np.exp(-a * abs(u - delay))

        cuts = sorted({0.0, delay})
        pieces = [(-np.inf, cuts[0])] + list(zip(cuts, cuts[1:])) + [(cuts[-1], np.inf)]
        return pol * sum(quad(f, lo, hi, limit=400)[0] for lo, hi in pieces)

    @pytest.mark.parametrize("delta", [0.0, 5.0])
    @pytest.mark.parametrize("pol", [1.0, 0.95])
    def test_zero_delay_is_the_zero_delay_formula(self, delta, pol):
        e1, e2 = emitter_short_t2(), emitter_long_t2()
        g1, g2 = e1.radiative_rate, e2.radiative_rate
        a = e1.pure_dephasing_rate + e2.pure_dephasing_rate
        a = a + 1j * hs.detuning_to_angular(delta)
        expected = pol * (
            g1 * g2 * (g1 + g2 + 2.0 * a) / ((g1 + a) * (g2 + a) * (g1 + g2))
        ).real
        assert hs.visibility_closed_form(e1, e2, delta, pol, delay_ps=0.0) == expected

    def test_zero_delay_quadrature_reference_value(self):
        v = hs.visibility_numeric(
            emitter_short_t2(), emitter_long_t2(), 0.0, 0.95, delay_ps=0.0
        )
        assert v == pytest.approx(0.11731081775149495, rel=1e-12)

    def test_reference_pair_at_half_a_nanosecond(self):
        e1, e2 = emitter_short_t2(), emitter_long_t2()
        v = hs.visibility_closed_form(e1, e2, 0.0, 0.95, delay_ps=500.0)
        assert v == pytest.approx(self._quad(e1, e2, 0.0, 0.95, 500.0), abs=1e-7)
        assert 0.06 < v < 0.08

    def test_closed_form_matches_quadrature_over_random_pairs_and_delays(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(30):
            t1a = float(rng.uniform(100, 1500))
            t1b = float(rng.uniform(100, 1500))
            ea = make_emitter(
                t1_fast_ps=t1a, t2_ps=float(rng.uniform(0.05, 1.0)) * 2.0 * t1a
            )
            eb = make_emitter(
                t1_fast_ps=t1b, t2_ps=float(rng.uniform(0.05, 1.0)) * 2.0 * t1b
            )
            delta = float(rng.uniform(0.0, 10.0))
            pol = float(rng.uniform(0.5, 1.0))
            delay = float(rng.uniform(-3000.0, 3000.0))
            diff = abs(
                hs.visibility_numeric(ea, eb, delta, pol, delay_ps=delay)
                - hs.visibility_closed_form(ea, eb, delta, pol, delay_ps=delay)
            )
            worst = max(worst, diff)
        assert worst <= 1e-3

    def test_dephasing_rate_equal_to_decay_rate_is_continuous(self):
        # T1 = T2 = 400 ps on both sources gives gs1 + gs2 = 1/T1 exactly,
        # the removable singularity of the closed form
        e = make_emitter(t1_fast_ps=400.0, t2_ps=400.0)
        assert e.pure_dephasing_rate * 2.0 == e.radiative_rate
        v = hs.visibility_closed_form(e, e, 0.0, 1.0, delay_ps=300.0)
        assert np.isfinite(v)
        assert v == pytest.approx(self._quad(e, e, 0.0, 1.0, 300.0), abs=1e-7)
        near = make_emitter(t1_fast_ps=400.0, t2_ps=400.0 * (1.0 + 1e-9))
        assert hs.visibility_closed_form(
            near, near, 0.0, 1.0, delay_ps=300.0
        ) == pytest.approx(v, rel=1e-8)

    def test_negative_delay_swaps_the_emitters(self):
        e1, e2 = emitter_short_t2(), emitter_long_t2()
        for delay in (120.0, 500.0, 2500.0):
            assert hs.visibility_closed_form(
                e1, e2, 2.0, 0.9, delay_ps=-delay
            ) == pytest.approx(
                hs.visibility_closed_form(e2, e1, 2.0, 0.9, delay_ps=delay), rel=1e-12
            )

    def test_visibility_falls_towards_zero_with_delay(self):
        e1, e2 = emitter_short_t2(), emitter_long_t2()
        delays = [0.0, 100.0, 500.0, 1000.0, 2000.0, 5000.0, 20000.0]
        v = [hs.visibility_closed_form(e1, e2, 0.0, 1.0, delay_ps=d) for d in delays]
        assert all(a > b for a, b in zip(v, v[1:]))
        assert v[-1] < 1e-6 * v[0]

    def test_long_delay_does_not_overflow(self):
        # strong dephasing times a long delay: exp(+A d) alone would overflow
        e = make_emitter(t1_fast_ps=600.0, t2_ps=1.0)
        v = hs.visibility_closed_form(e, e, 0.0, 1.0, delay_ps=1.0e6)
        assert np.isfinite(v) and 0.0 <= v < 1e-12


class TestQuadratureConvolution:
    """visibility_numeric's FFT convolution against the plain double sum."""

    @staticmethod
    def _double_sum(e1, e2, delta_uev, delay_ps):
        # the same grid visibility_numeric picks by default
        step = min(e1.t1_fast_ps, e2.t1_fast_ps, e1.t2_ps, e2.t2_ps) / 50.0
        n = int(np.ceil(10.0 * max(e1.t1_fast_ps, e2.t1_fast_ps) / step))
        t = np.arange(n) * step
        p1 = np.exp(-t / e1.t1_fast_ps)
        p2 = np.exp(-t / e2.t1_fast_ps)
        lags = t[:, None] - t[None, :] - delay_ps
        kern = hs.coherence_kernel(lags, e1, e2, delta_uev=delta_uev)
        return float(p1 @ kern @ p2 / (p1.sum() * p2.sum()))

    @pytest.mark.parametrize("delay", [0.0, 500.0])
    @pytest.mark.parametrize("delta", [0.0, 3.0])
    def test_matches_direct_double_sum(self, delay, delta):
        ea = make_emitter(t1_fast_ps=150.0, t2_ps=280.0)
        eb = make_emitter(t1_fast_ps=120.0, t2_ps=200.0)
        expected = self._double_sum(ea, eb, delta, delay)
        got = hs.visibility_numeric(ea, eb, delta, 1.0, delay_ps=delay)
        assert abs(got - expected) <= 1e-12 * abs(expected)


class TestPostselectedVisibility:
    @pytest.mark.parametrize(
        "g,expected", [(0.17, 0.66), (0.31, 0.38), (0.35, 0.30), (0.5, 0.0)]
    )
    def test_exact_values(self, g, expected):
        assert hs.postselected_visibility(g) == pytest.approx(expected, abs=1e-12)

    def test_above_half_goes_negative_with_warning(self):
        with pytest.warns(RuntimeWarning):
            v = hs.postselected_visibility(0.6)
        assert v == pytest.approx(-0.2, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=0.5))
    def test_monotone_decreasing_in_g(self, g):
        base = hs.postselected_visibility(0.0)
        assert base == 1.0
        assert hs.postselected_visibility(g) <= base


def _windowed_dip_ratio(e1, e2, circuit, half_window_ps=1500.0, n=120001):
    """Integral of the dip density over the window, relative to the
    distinguishable level (half the envelope integral over the same window)."""
    tau = np.linspace(-half_window_ps, half_window_ps, n)
    c = hs.predicted_hom_dip(tau, e1, e2, circuit)
    w = hs.envelope_cross_correlation(tau, e1, e2)
    return np.trapezoid(c, tau) / (0.5 * np.trapezoid(w, tau))


class TestDipModel:
    def test_envelope_is_a_normalized_density(self):
        tau = np.linspace(-30000.0, 30000.0, 600001)
        w = hs.envelope_cross_correlation(tau, emitter_short_t2(), emitter_long_t2())
        assert np.all(w >= 0.0)
        assert np.trapezoid(w, tau) == pytest.approx(1.0, abs=1e-6)

    def test_distinguishable_dip_ratio_is_flat_half(self):
        e1, e2 = emitter_short_t2(), emitter_long_t2()
        taus = np.linspace(-4000.0, 4000.0, 41)
        c = hs.predicted_hom_dip(taus, e1, e2, hs.CircuitSpec(0.5, 0.0))
        w = hs.envelope_cross_correlation(taus, e1, e2)
        mask = w > 1e-12
        assert np.allclose(c[mask] / w[mask], 0.5, atol=1e-12)

    def test_full_coalescence_nulls_zero_delay(self):
        e = make_emitter(t1_fast_ps=600.0, t2_ps=1200.0)
        c = hs.predicted_hom_dip(np.array([0.0]), e, e, hs.CircuitSpec(0.5, 1.0))
        assert c[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_delay_depth_follows_the_circuit_overlap(self):
        e1, e2 = emitter_short_t2(), emitter_long_t2()
        circuit = hs.CircuitSpec(0.5, 0.8, classical_visibility=0.9)
        c = hs.predicted_hom_dip(0.0, e1, e2, circuit)
        w = hs.envelope_cross_correlation(0.0, e1, e2)
        assert c == pytest.approx(w * 0.5 * (1.0 - 0.8 * 0.9), rel=1e-12)

    def test_windowed_dip_ratio_reference_value(self):
        e1, e2 = emitter_short_t2(), emitter_long_t2()
        ratio = _windowed_dip_ratio(e1, e2, hs.CircuitSpec(0.5, 1.0))
        # Independent analytic evaluation of the same windowed integrals.
        g1, g2 = 1.0 / 720.0, 1.0 / 600.0
        a = e1.pure_dephasing_rate + e2.pure_dephasing_rate
        L = 1500.0
        c = g1 * g2 / (g1 + g2)
        capture = c * (
            (1 - np.exp(-g1 * L)) / g1 + (1 - np.exp(-g2 * L)) / g2
        )
        i_coh = c * (
            (1 - np.exp(-(g1 + a) * L)) / (g1 + a)
            + (1 - np.exp(-(g2 + a) * L)) / (g2 + a)
        )
        analytic = 1.0 - i_coh / capture
        assert analytic == pytest.approx(0.8620065780757864, rel=1e-12)
        assert ratio == pytest.approx(analytic, abs=1e-5)
        v = hs.visibility_closed_form(e1, e2, 0.0, 1.0)
        assert abs(ratio - (1.0 - v)) < 0.02


class TestG2ClosedForm:
    """The predicted peak ratio r^2 + t^2 - 2rt V(delay) of one run."""

    @pytest.mark.parametrize("delay", [0.0, 500.0])
    def test_reference_pair_is_the_acceptance_formula_bit_for_bit(self, delay):
        e1, e2 = emitter_short_t2(), emitter_long_t2()
        cir = hs.CircuitSpec(reflectance=0.48, pol_overlap=0.95)
        r, t = cir.reflectance, cir.transmittance
        # criterion 08's inline g_theory
        v = hs.visibility_closed_form(e1, e2, delta_uev=0.0, pol_overlap=0.95, delay_ps=delay)
        assert hs.g2_closed_form(e1, e2, cir, delay) == r * r + t * t - 2.0 * r * t * v

    def test_reference_pair_at_half_a_nanosecond(self):
        cir = hs.CircuitSpec(reflectance=0.48, pol_overlap=0.95)
        g = hs.g2_closed_form(emitter_short_t2(), emitter_long_t2(), cir, 500.0)
        assert g == pytest.approx(0.4669, abs=5e-5)

    @pytest.mark.parametrize("delay", [0.0, 500.0])
    def test_orthogonal_polarizations_give_the_classical_ratio(self, delay):
        cir = hs.CircuitSpec(reflectance=0.48, pol_overlap=0.0)
        r, t = cir.reflectance, cir.transmittance
        g = hs.g2_closed_form(emitter_short_t2(), emitter_long_t2(), cir, delay)
        assert g == r * r + t * t

    @pytest.mark.parametrize("frac", [0.1, 0.6, 1.0])
    def test_identical_emitters_at_zero_delay(self, frac):
        e = make_emitter(t1_fast_ps=700.0, t2_ps=frac * 2.0 * 700.0)
        cir = hs.CircuitSpec(reflectance=0.45, pol_overlap=1.0)
        r, t = cir.reflectance, cir.transmittance
        expected = r * r + t * t - 2.0 * r * t * e.t2_ps / (2.0 * e.t1_fast_ps)
        assert hs.g2_closed_form(e, e, cir, 0.0) == pytest.approx(expected, rel=1e-12)
