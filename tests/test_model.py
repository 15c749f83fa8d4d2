"""Units, domain dataclasses, and their validation rules."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homsim as hs
from helpers import make_emitter


class TestConversions:
    def test_linewidth_to_t2_regression_values(self):
        # Independently computed from T2 = 2*hbar/Gamma.
        assert hs.t2_from_linewidth(13.5) == pytest.approx(
            97.51288250370371, rel=1e-12
        )
        assert hs.t2_from_linewidth(3.0) == pytest.approx(
            438.8079712666667, rel=1e-12
        )

    def test_linewidth_values_land_in_measured_coherence_windows(self):
        assert 80.0 <= hs.t2_from_linewidth(13.5) <= 120.0
        assert 410.0 <= hs.t2_from_linewidth(3.0) <= 470.0

    @given(st.floats(min_value=1e-3, max_value=1e5))
    def test_conversions_are_exact_inverses(self, gamma_uev):
        # 2*hbar/x maps a linewidth to a coherence time and back alike
        t2 = hs.t2_from_linewidth(gamma_uev)
        assert hs.t2_from_linewidth(t2) == pytest.approx(gamma_uev, rel=1e-12)

    def test_detuning_to_angular_is_linear_in_hbar_units(self):
        # 658.2119569 ueV corresponds to exactly 1 rad/ps.
        assert hs.detuning_to_angular(658.2119569) == pytest.approx(1.0, rel=1e-15)
        assert hs.detuning_to_angular(0.0) == 0.0
        assert hs.detuning_to_angular(-658.2119569) == pytest.approx(
            -1.0, rel=1e-15
        )

    def test_nonpositive_linewidth_rejected(self):
        with pytest.raises(hs.ValidationError):
            hs.t2_from_linewidth(0.0)


class TestEmitterSpec:
    def test_coherence_beyond_fourier_limit_rejected(self):
        with pytest.raises(hs.ValidationError):
            make_emitter(t1_fast_ps=600.0, t2_ps=1200.0 + 1e-6)

    def test_fourier_limit_boundary_accepted(self):
        e = make_emitter(t1_fast_ps=600.0, t2_ps=1200.0)
        assert e.pure_dephasing_rate == pytest.approx(0.0, abs=1e-15)

    def test_dephasing_rate_definition(self):
        e = make_emitter(t1_fast_ps=720.0, t2_ps=100.0)
        assert e.pure_dephasing_rate == pytest.approx(
            1.0 / 100.0 - 1.0 / 1440.0, rel=1e-12
        )
        assert e.radiative_rate == pytest.approx(1.0 / 720.0, rel=1e-12)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("t1_fast_ps", 0.0),
            ("t1_slow_ps", -5.0),
            ("t2_ps", 0.0),
            ("slow_fraction", -0.1),
            ("slow_fraction", 1.1),
            ("emission_prob", -0.2),
            ("emission_prob", 1.2),
            ("double_prob", -0.1),
            ("double_prob", 1.5),
            ("blink_on_rate_per_s", -1.0),
            ("blink_off_rate_per_s", -1.0),
            ("spectral_diffusion_sigma_uev", -0.5),
            ("t1_slow_ps", math.inf),
            ("energy_uev", math.nan),
            ("blink_on_rate_per_s", math.inf),
        ],
    )
    def test_out_of_range_fields_rejected(self, field, value):
        with pytest.raises(hs.ValidationError):
            make_emitter(**{field: value})

    @pytest.mark.parametrize("field", ["t1_fast_ps", "t2_ps"])
    def test_time_whose_rate_overflows_rejected(self, field):
        # 1/1e-320 is inf: every rate-based formula downstream would be NaN
        with pytest.raises(hs.ValidationError, match="%s is too short" % field):
            make_emitter(**{field: 1e-320})

    def test_blink_rates_whose_sum_overflows_rejected(self):
        # k_on + k_off = inf would leave the telegraph gate off for good
        with pytest.raises(hs.ValidationError, match="blink_on_rate_per_s"):
            make_emitter(blink_on_rate_per_s=1e308, blink_off_rate_per_s=1e308)
        make_emitter(blink_on_rate_per_s=1e300, blink_off_rate_per_s=1e300)

    def test_extreme_but_representable_times_accepted(self):
        for t in (1e-300, 1e300, 1e308):
            e = make_emitter(t1_fast_ps=t, t1_slow_ps=t, t2_ps=t)
            assert math.isfinite(e.radiative_rate)
            assert e.pure_dephasing_rate == pytest.approx(0.5 / t, rel=1e-12)

    def test_validation_is_pure_same_message_every_time(self):
        def grab():
            try:
                make_emitter(t1_fast_ps=100.0, t2_ps=500.0)
            except hs.ValidationError as exc:
                return str(exc)
            return None

        first, second = grab(), grab()
        assert first is not None and first == second


class TestCircuitSpec:
    def test_transmittance_complements_reflectance(self):
        c = hs.CircuitSpec(reflectance=0.48, pol_overlap=0.95)
        assert c.transmittance == pytest.approx(0.52, rel=1e-12)

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.1, 1.1])
    def test_degenerate_reflectance_rejected(self, r):
        with pytest.raises(hs.ValidationError):
            hs.CircuitSpec(reflectance=r, pol_overlap=1.0)

    @pytest.mark.parametrize("pol", [-0.1, 1.0000001])
    def test_overlap_outside_unit_interval_rejected(self, pol):
        with pytest.raises(hs.ValidationError):
            hs.CircuitSpec(reflectance=0.5, pol_overlap=pol)

    def test_arm_transmission_bounds(self):
        with pytest.raises(hs.ValidationError):
            hs.CircuitSpec(
                reflectance=0.5, pol_overlap=1.0, arm_transmission=(1.0, 1.2, 1.0, 1.0)
            )
        with pytest.raises(hs.ValidationError):
            hs.CircuitSpec(
                reflectance=0.5, pol_overlap=1.0, arm_transmission=(1.0, 1.0, 1.0)
            )

    def test_overlap_multiplies_classical_ceiling(self):
        c = hs.CircuitSpec(reflectance=0.5, pol_overlap=0.9, classical_visibility=0.98)
        assert c.overlap == pytest.approx(0.9 * 0.98, rel=1e-12)
        c2 = hs.CircuitSpec(reflectance=0.5, pol_overlap=0.9)
        assert c2.overlap == 0.9
        # Both factors multiply into the interference term of the dip.
        e = hs.EmitterSpec(
            energy_uev=0.0,
            t1_fast_ps=600.0,
            t1_slow_ps=12000.0,
            slow_fraction=0.0,
            t2_ps=440.0,
        )
        w0 = hs.envelope_cross_correlation(0.0, e, e)
        assert hs.predicted_hom_dip(0.0, e, e, c) == pytest.approx(
            w0 * 0.5 * (1.0 - 0.9 * 0.98), rel=1e-12
        )


class TestDetectorSpec:
    def test_irf_sigma_from_fwhm(self):
        d = hs.DetectorSpec(irf_fwhm_ps=80.0)
        assert d.irf_sigma_ps == pytest.approx(80.0 / 2.3548200450309493, rel=1e-12)

    @pytest.mark.parametrize(
        "kw",
        [
            {"irf_fwhm_ps": -1.0},
            {"dark_rate_cps": -10.0},
            {"efficiency": -0.1},
            {"efficiency": 1.1},
            {"dead_time_ps": -5.0},
            {"irf_fwhm_ps": math.inf},
            {"dead_time_ps": math.inf},
        ],
    )
    def test_out_of_range_detector_fields_rejected(self, kw):
        with pytest.raises(hs.ValidationError):
            hs.DetectorSpec(**kw)


class TestPulseTrainSpec:
    def test_period_and_span(self):
        t = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=1000)
        assert t.period_ps == pytest.approx(1e6 / 76.0, rel=1e-12)
        assert t.span_ps == pytest.approx(1000 * 1e6 / 76.0, rel=1e-12)

    def test_invalid_train_rejected(self):
        with pytest.raises(hs.ValidationError):
            hs.PulseTrainSpec(rep_rate_mhz=0.0, n_pulses=10)
        with pytest.raises(hs.ValidationError):
            hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=-1)

    def test_empty_train_is_a_valid_degenerate_case(self):
        t = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=0)
        assert t.span_ps == 0.0


_VALID_SPECS = [
    make_emitter(),
    hs.CircuitSpec(reflectance=0.48, pol_overlap=0.95, classical_visibility=0.9),
    hs.DetectorSpec(irf_fwhm_ps=80.0, dark_rate_cps=300.0, dead_time_ps=20000.0),
    hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=10, source_delay_ps=500.0),
]


_FLOAT_FIELDS = [
    (spec, f.name)
    for spec in _VALID_SPECS
    for f in dataclasses.fields(spec)
    if isinstance(getattr(spec, f.name), (float, tuple))
]


@pytest.mark.parametrize(
    "spec,name",
    _FLOAT_FIELDS,
    ids=["%s.%s" % (type(spec).__name__, name) for spec, name in _FLOAT_FIELDS],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_float_field_must_be_finite(spec, name, bad):
    value = getattr(spec, name)
    bad_value = (value[0], bad) + value[2:] if isinstance(value, tuple) else bad
    with pytest.raises(hs.ValidationError, match=name):
        dataclasses.replace(spec, **{name: bad_value})


def test_classical_visibility_may_stay_unset():
    c = hs.CircuitSpec(reflectance=0.5, pol_overlap=0.8, classical_visibility=None)
    assert c.overlap == 0.8
