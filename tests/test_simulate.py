"""Monte Carlo engine: emission, routing, detection, determinism."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import homsim as hs
from homsim import simulate
from helpers import (
    blink_gate_reference,
    blink_probabilities,
    emitter_long_t2,
    emitter_short_t2,
    make_emitter,
    prune_dead_time_reference,
    reference_circuit,
)


def _train(n_pulses=20000, rep=76.0, delay=0.0):
    return hs.PulseTrainSpec(rep_rate_mhz=rep, n_pulses=n_pulses, source_delay_ps=delay)


def _off_emitter():
    return make_emitter(emission_prob=0.0)


class TestEmission:
    def test_silent_emitter_emits_nothing(self):
        events = hs.generate_emission_stream(_off_emitter(), _train(1000), 1, seed=1)
        assert events == []

    def test_unit_probability_emits_once_per_pulse(self):
        e = make_emitter(emission_prob=1.0)
        events = hs.generate_emission_stream(e, _train(5000), 1, seed=2)
        assert len(events) == 5000
        assert sorted({ev.pulse_index for ev in events}) == list(range(5000))

    def test_events_sorted_by_time(self):
        e = make_emitter(emission_prob=0.7, slow_fraction=0.1)
        events = hs.generate_emission_stream(e, _train(5000), 1, seed=3)
        times = [ev.emit_time_ps for ev in events]
        assert times == sorted(times)

    def test_slow_component_fraction_matches_binomial(self):
        frac = 0.3
        e = make_emitter(emission_prob=1.0, slow_fraction=frac)
        events = hs.generate_emission_stream(e, _train(20000), 1, seed=4)
        n = len(events)
        slow = sum(ev.component == "slow" for ev in events)
        sigma = np.sqrt(n * frac * (1 - frac))
        assert abs(slow - frac * n) <= 3.0 * sigma

    def test_fast_component_mean_delay_matches_lifetime(self):
        e = make_emitter(emission_prob=1.0, t1_fast_ps=720.0, slow_fraction=0.0)
        train = _train(20000)
        events = hs.generate_emission_stream(e, train, 1, seed=5)
        delays = np.array(
            [ev.emit_time_ps - ev.pulse_index * train.period_ps for ev in events]
        )
        assert abs(delays.mean() - 720.0) <= 3.0 * 720.0 / np.sqrt(delays.size)

    def test_source_two_carries_intentional_delay(self):
        e = make_emitter(emission_prob=1.0, slow_fraction=0.0)
        train = _train(20000, delay=500.0)
        ev1 = hs.generate_emission_stream(e, train, 1, seed=6)
        ev2 = hs.generate_emission_stream(e, train, 2, seed=6)
        d1 = np.mean(
            [ev.emit_time_ps - ev.pulse_index * train.period_ps for ev in ev1]
        )
        d2 = np.mean(
            [ev.emit_time_ps - ev.pulse_index * train.period_ps for ev in ev2]
        )
        assert d2 - d1 == pytest.approx(500.0, abs=4.0 * 600.0 / np.sqrt(20000))

    def test_double_emission_adds_slow_branch_photon(self):
        frac = 0.5
        n_pulses = 20000
        e = make_emitter(emission_prob=1.0, double_prob=frac)
        events = hs.generate_emission_stream(e, _train(n_pulses), 1, seed=7)
        per_pulse = {}
        for ev in events:
            per_pulse.setdefault(ev.pulse_index, []).append(ev)
        doubles = [v for v in per_pulse.values() if len(v) == 2]
        sigma = np.sqrt(n_pulses * frac * (1 - frac))
        assert abs(len(doubles) - frac * n_pulses) <= 3.0 * sigma
        # the extra photon always rides the long-lived branch
        assert all(any(ev.component == "slow" for ev in v) for v in doubles)

    def test_spectral_diffusion_offsets_have_configured_spread(self):
        e = make_emitter(emission_prob=1.0, spectral_diffusion_sigma_uev=2.0)
        events = hs.generate_emission_stream(e, _train(20000), 1, seed=8)
        offs = np.array([ev.freq_offset_uev for ev in events])
        assert abs(offs.std() - 2.0) <= 0.1
        assert abs(offs.mean()) <= 3.0 * 2.0 / np.sqrt(offs.size)

    def test_same_seed_reproduces_exact_stream(self):
        e = make_emitter(emission_prob=0.6, slow_fraction=0.05)
        a = hs.generate_emission_stream(e, _train(3000), 1, seed=9)
        b = hs.generate_emission_stream(e, _train(3000), 1, seed=9)
        assert a == b
        c = hs.generate_emission_stream(e, _train(3000), 2, seed=9)
        assert a != c  # independent per-source streams


class TestPairOutcome:
    def _params(self, reflectance=0.5, overlap=1.0, t2_frac=1.0):
        e = make_emitter(t1_fast_ps=600.0, t2_ps=t2_frac * 1200.0)
        return hs.kernel_params(
            e, e, hs.CircuitSpec(reflectance=reflectance, pol_overlap=overlap)
        )

    def _photon(self, source, t, f=0.0):
        return hs.PhotonEvent(
            source_id=source, pulse_index=0, emit_time_ps=t, component="fast",
            freq_offset_uev=f,
        )

    def test_perfect_coalescence_never_splits(self):
        p = self._params()
        for u_pair in (0.0, 0.3, 0.999999):
            ch1, ch2 = hs.pair_interference_outcome(
                self._photon(1, 100.0), self._photon(2, 100.0), p, u_pair, 0.2
            )
            assert ch1 == ch2

    def test_distinguishable_pair_splits_half_the_time(self):
        p = self._params(overlap=0.0)
        ch_same = hs.pair_interference_outcome(
            self._photon(1, 0.0), self._photon(2, 0.0), p, 0.5 + 1e-9, 0.2
        )
        ch_cross = hs.pair_interference_outcome(
            self._photon(1, 0.0), self._photon(2, 0.0), p, 0.5 - 1e-9, 0.2
        )
        assert ch_same[0] == ch_same[1]
        assert ch_cross[0] != ch_cross[1]

    def test_unbalanced_coupler_residual_cross_probability(self):
        # r=0.48, perfect overlap: P_cross = 0.48^2 + 0.52^2 - 2*0.48*0.52
        p = self._params(reflectance=0.48)
        t = 100.0
        below = hs.pair_interference_outcome(
            self._photon(1, t), self._photon(2, t), p, 0.0015, 0.0
        )
        above = hs.pair_interference_outcome(
            self._photon(1, t), self._photon(2, t), p, 0.0017, 0.0
        )
        assert below[0] != below[1]
        assert above[0] == above[1]

    def test_emission_time_gap_restores_distinguishability(self):
        # strong dephasing: tau far beyond the coherence time behaves classically
        p = self._params(t2_frac=0.05)  # T2 = 60 ps
        ch = hs.pair_interference_outcome(
            self._photon(1, 0.0), self._photon(2, 2000.0), p, 0.499, 0.2
        )
        assert ch[0] != ch[1]  # P_c has relaxed back to ~0.5

    def test_same_source_pair_rejected(self):
        p = self._params()
        with pytest.raises(hs.ValidationError):
            hs.pair_interference_outcome(
                self._photon(1, 0.0), self._photon(1, 10.0), p, 0.5, 0.5
            )

    def test_cross_pulse_pair_rejected(self):
        p = self._params()
        ph2 = hs.PhotonEvent(
            source_id=2, pulse_index=1, emit_time_ps=0.0, component="fast"
        )
        with pytest.raises(hs.ValidationError):
            hs.pair_interference_outcome(self._photon(1, 0.0), ph2, p, 0.5, 0.5)


class TestRunSimulation:
    def _run(self, seed=11, n=20000, **kw):
        e1 = kw.pop("e1", emitter_short_t2())
        e2 = kw.pop("e2", emitter_long_t2())
        cir = kw.pop("circuit", hs.CircuitSpec(reflectance=0.48, pol_overlap=0.95))
        det = kw.pop("detector", hs.DetectorSpec(efficiency=0.3))
        train = kw.pop("train", _train(n))
        return hs.run_simulation(e1, e2, cir, det, train, seed=seed)

    def test_counters_balance_exactly(self):
        det = hs.DetectorSpec(efficiency=0.2, dark_rate_cps=50000.0, dead_time_ps=2000.0)
        stream, c = self._run(detector=det)
        assert c.tags_written == c.photons_detected + c.dark_counts - c.dead_time_pruned
        assert stream.n_records == c.tags_written
        assert c.photons_detected <= c.photons_emitted

    def test_fixed_seed_is_reproducible(self):
        s1, c1 = self._run(seed=42)
        s2, c2 = self._run(seed=42)
        assert np.array_equal(s1.times_ps, s2.times_ps)
        assert np.array_equal(s1.channels, s2.channels)
        assert c1 == c2
        s3, _ = self._run(seed=43)
        assert not (
            s1.n_records == s3.n_records
            and np.array_equal(s1.times_ps, s3.times_ps)
        )

    def test_worker_count_does_not_change_output(self, monkeypatch):
        streams = []
        for workers in ("1", "2", "8"):
            monkeypatch.setenv("HOMSIM_THREADS", workers)
            s, _ = self._run(seed=13, n=150000)
            streams.append(s)
        for s in streams[1:]:
            assert np.array_equal(streams[0].times_ps, s.times_ps)
            assert np.array_equal(streams[0].channels, s.channels)

    def test_silent_sources_and_no_darks_give_empty_stream(self):
        stream, c = self._run(
            e1=_off_emitter(),
            e2=_off_emitter(),
            detector=hs.DetectorSpec(efficiency=1.0),
        )
        assert stream.n_records == 0
        assert c.tags_written == 0

    def test_single_source_splits_evenly_on_balanced_coupler(self):
        stream, c = self._run(
            e1=make_emitter(emission_prob=1.0),
            e2=_off_emitter(),
            circuit=hs.CircuitSpec(reflectance=0.5, pol_overlap=1.0),
            detector=hs.DetectorSpec(efficiency=1.0),
            n=100000,
        )
        n0 = int((stream.channels == 0).sum())
        n1 = int((stream.channels == 1).sum())
        assert n0 + n1 == 100000
        assert abs(n0 - n1) <= 3.0 * np.sqrt(100000 * 0.25) * 2.0

    def test_dark_counts_scale_with_rate_and_span(self):
        train = _train(50000)
        det = hs.DetectorSpec(efficiency=1.0, dark_rate_cps=200000.0)
        stream, c = self._run(
            e1=_off_emitter(), e2=_off_emitter(), detector=det, train=train
        )
        expected = 2.0 * 200000.0 * train.span_ps * 1e-12
        assert abs(c.dark_counts - expected) <= 3.0 * np.sqrt(expected)

    def test_dead_time_enforced_per_channel(self):
        det = hs.DetectorSpec(
            efficiency=1.0, dark_rate_cps=500000.0, dead_time_ps=5000.0
        )
        stream, c = self._run(
            e1=_off_emitter(), e2=_off_emitter(), detector=det, train=_train(50000)
        )
        assert c.dead_time_pruned > 0
        for ch in (0, 1):
            t = stream.times_ps[stream.channels == ch]
            if t.size > 1:
                assert np.diff(t).min() >= 5000

    def test_blinking_halves_duty_cycle(self):
        bright = make_emitter(emission_prob=1.0)
        blinky = make_emitter(
            emission_prob=1.0,
            blink_on_rate_per_s=20000.0,
            blink_off_rate_per_s=20000.0,
        )
        _, c_ref = self._run(e1=bright, e2=_off_emitter(), n=100000, seed=21)
        _, c_blk = self._run(e1=blinky, e2=_off_emitter(), n=100000, seed=21)
        duty = c_blk.photons_emitted / c_ref.photons_emitted
        assert duty == pytest.approx(0.5, abs=0.05)

    def test_pairs_interfered_counted(self):
        _, c = self._run(
            detector=hs.DetectorSpec(efficiency=1.0),
            e1=make_emitter(emission_prob=1.0),
            e2=make_emitter(emission_prob=1.0, t1_fast_ps=620.0),
            n=5000,
        )
        assert c.pairs_interfered == 5000

    def test_distinguishable_run_full_pipeline_hits_half(self):
        # orthogonally polarized sources: the corrected central-peak ratio
        # must land on the classical 0.5 anchor
        e1 = make_emitter(t1_fast_ps=300.0, t2_ps=400.0, emission_prob=0.5)
        e2 = make_emitter(t1_fast_ps=310.0, t2_ps=420.0, emission_prob=0.5)
        cir = hs.CircuitSpec(reflectance=0.5, pol_overlap=0.0)
        det = hs.DetectorSpec(irf_fwhm_ps=80.0, efficiency=0.12)
        train = _train(2000000)
        stream, _ = hs.run_simulation(e1, e2, cir, det, train, seed=11)
        hist = hs.cross_correlate(stream, 10.0, 80000.0)
        floor = hs.estimate_background(hist, train.period_ps, delta_t_ps=3000.0)
        pa = hs.integrate_peaks(
            hist, train.period_ps, 3000.0, 6, floor=floor, corrected=True
        )
        assert pa.g2_zero == pytest.approx(0.5, abs=0.02)

    def test_delayed_run_moves_ratio_toward_distinguishable(self):
        e1 = emitter_short_t2()
        e2 = emitter_long_t2()
        cir = hs.CircuitSpec(reflectance=0.48, pol_overlap=0.95)
        det = hs.DetectorSpec(efficiency=1.0, irf_fwhm_ps=80.0)
        train = _train(400000)
        out = {}
        for name, tr in (("sync", train), ("delayed", hs.delayed_reference(train))):
            stream, _ = hs.run_simulation(e1, e2, cir, det, tr, seed=17)
            hist = hs.cross_correlate(stream, 10.0, 80000.0)
            pa = hs.integrate_peaks(hist, train.period_ps, 3000.0, 6)
            out[name] = pa
        sig = np.hypot(out["sync"].g2_zero_err, out["delayed"].g2_zero_err)
        assert out["delayed"].g2_zero > out["sync"].g2_zero + 2.0 * sig


@st.composite
def _dead_time_cases(draw):
    """Sorted tags whose same-channel gaps hit dead, dead +- 1 and 0 often."""
    dead = draw(st.integers(0, 40))
    gaps = draw(
        st.lists(
            st.sampled_from([0, 1, dead - 1, dead, dead + 1, 2 * dead])
            | st.integers(0, 3 * dead + 3),
            max_size=200,
        )
    )
    offset = draw(st.integers(0, 2**40))
    times = offset + np.cumsum(np.maximum(gaps, 0), dtype=np.int64)
    layout = draw(st.sampled_from(["only0", "only1", "interleaved"]))
    if layout == "interleaved":
        channels = np.array(
            draw(st.lists(st.integers(0, 1), min_size=times.size, max_size=times.size)),
            dtype=np.uint8,
        )
    else:
        channels = np.full(times.size, layout == "only1", dtype=np.uint8)
    dead_ps = draw(
        st.sampled_from([float(dead), dead - 0.5, dead + 0.25, 0.0, 1e12])
        | st.floats(0.0, 3.0 * dead + 3.0)
    )
    return times, channels, dead_ps


class TestDeadTimeMatchesSequentialRule:
    @given(_dead_time_cases())
    @example((np.empty(0, np.int64), np.empty(0, np.uint8), 5.0))
    @example((np.array([3, 3, 3, 8, 8]), np.zeros(5, np.uint8), 5.0))
    @example((np.array([0, 5, 10, 14, 19]), np.array([0, 0, 0, 1, 1], np.uint8), 5.0))
    @example((np.array([0, 4, 6, 9, 12]), np.zeros(5, np.uint8), 5.0))
    @example((np.array([0, 1, 2]), np.array([0, 1, 0], np.uint8), 0.0))
    @example((np.array([10, 20, 30]), np.array([1, 0, 1], np.uint8), 100.0))
    def test_equals_reference(self, case):
        times, channels, dead_ps = case
        got = simulate._prune_dead_time(times, channels, dead_ps)
        assert got.dtype == bool
        assert np.array_equal(got, prune_dead_time_reference(times, channels, dead_ps))


class TestBlinkGateMatchesSequentialRule:
    @pytest.mark.parametrize(
        "k_on,k_off",
        [
            (2.0e6, 1.0e6),  # the benchmark's rates
            (0.0, 1.0e6),  # never switches on after an off pulse
            (1.0e6, 0.0),  # stays on once on
            (1.0e15, 2.0e15),  # decay underflows to 0: no carry band
            (1.0, 2.0),  # decay about 1: nearly every pulse carries
        ],
    )
    def test_equals_reference_across_chunk_boundaries(self, k_on, k_off):
        e = make_emitter(blink_on_rate_per_s=k_on, blink_off_rate_per_s=k_off)
        train = _train(3 * simulate._CHUNK_PULSES + 17)
        _, p_on_on, p_off_on = blink_probabilities(e, train)
        assert p_off_on <= p_on_on
        for stream_id in (1, 2):
            got = simulate._blink_gate(e, train, 31, stream_id)
            assert np.array_equal(got, blink_gate_reference(e, train, 31, stream_id))


class TestObjectPathMatchesColumnarCore:
    def test_route_and_detect_of_emission_streams_equals_run_simulation(
        self, monkeypatch
    ):
        e1 = emitter_short_t2(
            blink_on_rate_per_s=2.0e6, blink_off_rate_per_s=1.0e6,
            double_prob=0.05, spectral_diffusion_sigma_uev=2.0,
        )
        e2 = emitter_long_t2(
            blink_on_rate_per_s=1.5e6, blink_off_rate_per_s=1.0e6,
            double_prob=0.03, spectral_diffusion_sigma_uev=3.0,
        )
        cir = reference_circuit()
        det = hs.DetectorSpec(
            irf_fwhm_ps=80.0, dark_rate_cps=50000.0, efficiency=0.6, dead_time_ps=20000.0
        )
        train = _train(150000)  # more than two chunks
        seed = 501
        objects = hs.route_and_detect(
            hs.generate_emission_stream(e1, train, 1, seed),
            hs.generate_emission_stream(e2, train, 2, seed),
            cir, det, train, seed, kernel=hs.kernel_params(e1, e2, cir),
        )
        for workers in ("1", "2"):
            monkeypatch.setenv("HOMSIM_THREADS", workers)
            stream, c = hs.run_simulation(e1, e2, cir, det, train, seed)
            assert min(c.dark_counts, c.dead_time_pruned, c.pairs_interfered) > 0
            assert np.array_equal(objects.times_ps, stream.times_ps)
            assert np.array_equal(objects.channels, stream.channels)


class TestRouteAndDetect:
    def test_kernel_reflectance_must_match_circuit(self):
        e = make_emitter()
        cir = hs.CircuitSpec(reflectance=0.48, pol_overlap=1.0)
        other = hs.kernel_params(e, e, hs.CircuitSpec(reflectance=0.5, pol_overlap=1.0))
        ev = hs.generate_emission_stream(
            make_emitter(emission_prob=0.5), _train(100), 1, seed=1
        )
        with pytest.raises(hs.ValidationError):
            hs.route_and_detect(
                ev, [], cir, hs.DetectorSpec(), _train(100), seed=1, kernel=other
            )

    def test_three_photons_in_one_pulse_rejected(self):
        mk = lambda t: hs.PhotonEvent(
            source_id=1, pulse_index=0, emit_time_ps=t, component="fast"
        )
        with pytest.raises(hs.ValidationError):
            hs.route_and_detect(
                [mk(10.0), mk(20.0), mk(30.0)],
                [],
                hs.CircuitSpec(0.5, 1.0),
                hs.DetectorSpec(),
                _train(10),
                seed=1,
            )

    def test_unsorted_events_rejected(self):
        mk = lambda t, p: hs.PhotonEvent(
            source_id=1, pulse_index=p, emit_time_ps=t, component="fast"
        )
        with pytest.raises(hs.ValidationError):
            hs.route_and_detect(
                [mk(500.0, 0), mk(100.0, 1)],
                [],
                hs.CircuitSpec(0.5, 1.0),
                hs.DetectorSpec(),
                _train(10),
                seed=1,
            )


class TestDelayedReference:
    def test_sets_intentional_delay(self):
        train = _train(100)
        delayed = hs.delayed_reference(train)
        assert delayed.source_delay_ps == 500.0
        assert delayed.n_pulses == train.n_pulses
        custom = hs.delayed_reference(train, delay_ps=750.0)
        assert custom.source_delay_ps == 750.0
