"""Monte Carlo engine: emission, routing, detection, determinism."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import homsim as hs
from homsim import model, simulate
from helpers import (
    blink_gate_reference,
    blink_probabilities,
    emission_columns,
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


def _delays(col, train, slot="a"):
    """Emission delays after the pulse start of the photons in one slot."""
    return col["t_" + slot] - col["pulse_" + slot] * train.period_ps


class TestEmission:
    def test_silent_emitter_emits_nothing(self):
        col = emission_columns(_off_emitter(), _train(1000), 1, seed=1)
        assert col["pulse_a"].size == 0
        assert col["pulse_b"].size == 0

    def test_unit_probability_emits_once_per_pulse(self):
        e = make_emitter(emission_prob=1.0)
        col = emission_columns(e, _train(5000), 1, seed=2)
        assert np.array_equal(col["pulse_a"], np.arange(5000))
        assert col["pulse_b"].size == 0

    def test_photon_times_finite_and_after_pulse_start(self):
        e = make_emitter(emission_prob=0.7, slow_fraction=0.1, double_prob=0.2)
        train = _train(5000, delay=500.0)
        for source, start in ((1, 0.0), (2, 500.0)):
            col = emission_columns(e, train, source, seed=3)
            for slot in ("a", "b"):
                d = _delays(col, train, slot)
                assert d.size > 0
                assert np.all(np.isfinite(d))
                assert np.all(d >= start)

    def test_slow_component_fraction_matches_binomial(self):
        frac = 0.3
        e = make_emitter(emission_prob=1.0, slow_fraction=frac)
        col = emission_columns(e, _train(20000), 1, seed=4)
        n = col["pulse_a"].size
        slow = int(col["slow_a"].sum())
        sigma = np.sqrt(n * frac * (1 - frac))
        assert abs(slow - frac * n) <= 3.0 * sigma

    def test_fast_component_mean_delay_matches_lifetime(self):
        e = make_emitter(emission_prob=1.0, t1_fast_ps=720.0, slow_fraction=0.0)
        train = _train(20000)
        delays = _delays(emission_columns(e, train, 1, seed=5), train)
        assert abs(delays.mean() - 720.0) <= 3.0 * 720.0 / np.sqrt(delays.size)

    def test_source_two_carries_intentional_delay(self):
        e = make_emitter(emission_prob=1.0, slow_fraction=0.0)
        train = _train(20000, delay=500.0)
        d1 = _delays(emission_columns(e, train, 1, seed=6), train).mean()
        d2 = _delays(emission_columns(e, train, 2, seed=6), train).mean()
        assert d2 - d1 == pytest.approx(500.0, abs=4.0 * 600.0 / np.sqrt(20000))

    def test_double_emission_adds_slow_branch_photon(self):
        frac = 0.5
        n_pulses = 20000
        e = make_emitter(emission_prob=1.0, double_prob=frac)
        train = _train(n_pulses)
        col = emission_columns(e, train, 1, seed=7)
        doubles = col["pulse_b"].size
        sigma = np.sqrt(n_pulses * frac * (1 - frac))
        assert abs(doubles - frac * n_pulses) <= 3.0 * sigma
        # the extra photon always rides the long-lived branch
        delays = _delays(col, train, "b")
        assert abs(delays.mean() - e.t1_slow_ps) <= 3.0 * e.t1_slow_ps / np.sqrt(doubles)

    def test_spectral_diffusion_offsets_have_configured_spread(self):
        e = make_emitter(emission_prob=1.0, spectral_diffusion_sigma_uev=2.0)
        col = emission_columns(e, _train(20000), 1, seed=8)
        offs = col["f_a"]
        assert abs(offs.std() - 2.0) <= 0.1
        assert abs(offs.mean()) <= 3.0 * 2.0 / np.sqrt(offs.size)

    def test_same_seed_reproduces_exact_stream(self):
        e = make_emitter(emission_prob=0.6, slow_fraction=0.05)
        a = emission_columns(e, _train(3000), 1, seed=9)
        b = emission_columns(e, _train(3000), 1, seed=9)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        c = emission_columns(e, _train(3000), 2, seed=9)
        # independent per-source streams
        assert not np.array_equal(a["pulse_a"], c["pulse_a"])
        assert not np.array_equal(a["t_a"], c["t_a"])


class TestPairOutcome:
    """Every pulse is one interfering pair: both sources always emit, no
    slow branch, no loss, so the two tags of a pulse split across the
    channels with the kernel's P_c = r^2 + t^2 - 2rt*D(tau)."""

    N = 20000

    def _split_fraction(self, seed, reflectance=0.5, overlap=1.0, t2_ps=1200.0):
        e = make_emitter(t1_fast_ps=600.0, t2_ps=t2_ps, emission_prob=1.0)
        cir = hs.CircuitSpec(reflectance=reflectance, pol_overlap=overlap)
        train = _train(self.N)
        stream, c = hs.run_simulation(
            e, e, cir, hs.DetectorSpec(efficiency=1.0), train, seed
        )
        assert c.pairs_interfered == self.N
        # rint can put a tag just before its pulse start: shift by period/4
        pulse = np.floor((stream.times_ps + train.period_ps / 4) / train.period_ps)
        pulse = pulse.astype(np.int64)
        assert np.array_equal(np.bincount(pulse, minlength=self.N), np.full(self.N, 2))
        ones = np.bincount(pulse, weights=stream.channels, minlength=self.N)
        return float(np.mean(ones == 1)), e

    def _within_4_sigma(self, frac, p):
        assert abs(frac - p) <= 4.0 * np.sqrt(p * (1.0 - p) / self.N)

    def test_perfect_coalescence_never_splits(self):
        # Fourier-limited identical photons on a balanced coupler: P_c = 0
        for seed in (3, 4, 5):
            frac, _ = self._split_fraction(seed)
            assert frac == 0.0

    def test_distinguishable_pair_splits_half_the_time(self):
        frac, _ = self._split_fraction(6, overlap=0.0)
        self._within_4_sigma(frac, 0.5)

    def test_unbalanced_coupler_residual_cross_probability(self):
        # r = 0.48, perfect overlap: P_c = r^2 + t^2 - 2rt = (r - t)^2
        frac, _ = self._split_fraction(7, reflectance=0.48)
        self._within_4_sigma(frac, (0.48 - 0.52) ** 2)

    def test_emission_time_gap_restores_distinguishability(self):
        # strong dephasing (T2 = 60 ps): pairs further apart in emission
        # time than T2 split classically, so P_c averages to (1 - V) / 2
        frac, e = self._split_fraction(8, t2_ps=60.0)
        self._within_4_sigma(frac, 0.5 * (1.0 - hs.visibility_closed_form(e, e)))


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

    def test_seeds_above_2_63_get_their_own_stream(self):
        det = hs.DetectorSpec(efficiency=1.0, dark_rate_cps=1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = [
                self._run(seed=s, n=2000, detector=det)
                for s in (2**63 + 1, 2**63 + 2, 2**64 - 1)
            ]
        for i, (a, _) in enumerate(runs):
            for b, _ in runs[i + 1 :]:
                assert not np.array_equal(a.times_ps, b.times_ps)

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
        # about 16 prunings are expected over 500k pulses, so P(none) ~ 1e-7
        stream, c = self._run(
            e1=_off_emitter(), e2=_off_emitter(), detector=det, train=_train(500000)
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
        # the telegraph state keeps for about 1,900 pulses, so the duty over
        # n pulses spreads by sigma ~ sqrt(0.25 * 3,800 / n): 0.0125 here,
        # which makes the bound 4 sigma
        n = 6_100_000
        _, c_ref = self._run(e1=bright, e2=_off_emitter(), n=n, seed=21)
        _, c_blk = self._run(e1=blinky, e2=_off_emitter(), n=n, seed=21)
        duty = c_blk.photons_emitted / c_ref.photons_emitted
        assert duty == pytest.approx(0.5, abs=0.05)

    def test_blink_rates_whose_sum_overflows_rejected(self):
        # k_on + k_off = inf would leave the gate off for good, losing
        # every photon without a word
        def blinky(k):
            return make_emitter(
                emission_prob=1.0, blink_on_rate_per_s=k, blink_off_rate_per_s=k
            )

        det = hs.DetectorSpec(efficiency=1.0)
        with pytest.raises(hs.ValidationError, match="blink_on_rate_per_s"):
            self._run(seed=3, e1=blinky(1e308), e2=blinky(1e308), detector=det)
        # switching far faster than the pulses: each pulse is on with p = 1/2
        _, c = self._run(seed=3, e1=blinky(1e300), e2=blinky(1e300), detector=det)
        assert abs(c.photons_emitted - 20000) <= 4.0 * np.sqrt(40000 * 0.25)

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
    # dead times near or past the int64 clock, on tags near 2^62: t + dead must fit int64
    @example((np.array([2**62 - 9, 2**62 - 5, 2**62 - 1]), np.array([0, 1, 0], np.uint8), 1e300))
    @example((np.array([1, 2**61, 2**62 - 2, 2**62 - 1]), np.zeros(4, np.uint8), 5e18))
    @example((np.array([0, 1, 2**62 - 1]), np.zeros(3, np.uint8), 4e18))
    def test_equals_reference(self, case):
        times, channels, dead_ps = case
        got = simulate._prune_dead_time(times, channels, dead_ps, [None, None])
        assert got.dtype == bool
        assert np.array_equal(got, prune_dead_time_reference(times, channels, dead_ps))

    @given(_dead_time_cases(), st.lists(st.integers(0, 200), max_size=6))
    @example((np.array([0, 4, 6, 9, 12]), np.zeros(5, np.uint8), 5.0), [1, 2, 2, 4])
    @example((np.array([10, 20, 30]), np.array([1, 0, 1], np.uint8), 1e12), [1])
    def test_segment_by_segment_equals_reference(self, case, cuts):
        # each segment starts from the last kept tag of every channel
        times, channels, dead_ps = case
        bounds = [0, *sorted(min(c, times.size) for c in cuts), times.size]
        last = [None, None]
        got = [
            simulate._prune_dead_time(times[a:b], channels[a:b], dead_ps, last)
            for a, b in zip(bounds, bounds[1:])
        ]
        assert np.array_equal(
            np.concatenate(got), prune_dead_time_reference(times, channels, dead_ps)
        )


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
            got = np.concatenate(list(simulate._blink_gates(e, train, 31, stream_id)))
            assert np.array_equal(got, blink_gate_reference(e, train, 31, stream_id))


class TestBlockPipeline:
    """The tail of run_simulation: blocks sorted apart, stitched in time order."""

    @staticmethod
    def _block_keys(e1, e2, circuit, det, train, seed):
        """Each pulse block's tag keys, as its worker makes them (no blinking)."""
        emitters = ((1, e1), (2, e2))
        return [
            simulate._route_chunk(
                b, e1, e2,
                [simulate._emission_columns(e, train, i, seed, b, None) for i, e in emitters],
                circuit, det, seed,
            )[0]
            for b in range(-(-train.n_pulses // simulate._CHUNK_PULSES))
        ]

    def test_tags_spilling_over_blocks_equal_one_global_sort(self, monkeypatch):
        # 100 ps pulses: a block spans 6.6 us and the IRF sigma is 4 us
        e1, e2 = emitter_short_t2(emission_prob=0.1), emitter_long_t2(emission_prob=0.1)
        det = hs.DetectorSpec(irf_fwhm_ps=9.4e6, dark_rate_cps=1e8, efficiency=0.5)
        train = _train(6 * simulate._CHUNK_PULSES + 17, rep=1e4)
        args = (e1, e2, reference_circuit(), det, train)
        blocks = self._block_keys(*args, 9)
        span = simulate._CHUNK_PULSES * train.period_ps
        spill = [int((k[-1] >> 1) // span) - b for b, k in enumerate(blocks) if k.size]
        assert max(spill) >= 2
        keys = np.sort(np.concatenate(blocks + [simulate._dark_counts(det, train.span_ps, 9)]))
        for workers in ("1", "2", "5"):
            monkeypatch.setenv("HOMSIM_THREADS", workers)
            stream, c = hs.run_simulation(*args, seed=9)
            assert np.array_equal(stream.times_ps, keys >> 1)
            assert np.array_equal(stream.channels, keys & 1)
            assert c.tags_written == keys.size and c.dark_counts > 1000

    @pytest.mark.parametrize("dead_ps", [20000.0, 12345.5, 1.5e9])
    def test_dead_time_carries_across_blocks(self, monkeypatch, dead_ps):
        # 1.5e9 ps outlasts a whole block (862 us), so every kept tag's dead
        # time runs into a later block
        det = dict(irf_fwhm_ps=80.0, dark_rate_cps=1e5, efficiency=0.5)
        train = _train(3 * simulate._CHUNK_PULSES + 17)
        args = (emitter_short_t2(), emitter_long_t2(), reference_circuit())
        free, _ = hs.run_simulation(*args, hs.DetectorSpec(**det), train, seed=13)
        keep = prune_dead_time_reference(free.times_ps, free.channels, dead_ps)
        assert (~keep).sum() > 100
        for workers in ("1", "2", "5"):
            monkeypatch.setenv("HOMSIM_THREADS", workers)
            stream, c = hs.run_simulation(
                *args, hs.DetectorSpec(**det, dead_time_ps=dead_ps), train, seed=13
            )
            assert np.array_equal(stream.times_ps, free.times_ps[keep])
            assert np.array_equal(stream.channels, free.channels[keep])
            assert c.dead_time_pruned == (~keep).sum()

    def test_blocks_with_no_decided_pulse_carry_the_state_on(self):
        # at 2 and 1 switches per second almost no pulse is decided: at this
        # seed pulse 0 is on and blocks 1 to 4 carry its state
        e = make_emitter(blink_on_rate_per_s=2.0, blink_off_rate_per_s=1.0)
        train = _train(5 * simulate._CHUNK_PULSES)
        for b in range(1, 5):
            assert not simulate._blink_words(e, train, 4, 1, b)[1].any()
        gates = list(simulate._blink_gates(e, train, 4, 1))
        assert all(g.all() for g in gates[1:])
        got = np.concatenate(gates)
        assert np.array_equal(got, blink_gate_reference(e, train, 4, 1))

    def test_each_blink_word_is_drawn_once_per_run(self, monkeypatch):
        drawn = []
        words = simulate._blink_words

        def counting(emitter, train, seed, source_id, block):
            drawn.append((source_id, block))
            return words(emitter, train, seed, source_id, block)

        monkeypatch.setattr(simulate, "_blink_words", counting)
        train = _train(3 * simulate._CHUNK_PULSES + 17)
        e1, e2 = (make_emitter(blink_on_rate_per_s=k, blink_off_rate_per_s=1.0e6)
                  for k in (2.0e6, 1.5e6))
        hs.run_simulation(e1, e2, reference_circuit(), hs.DetectorSpec(), train, seed=5)
        assert sorted(drawn) == [(i, b) for i in (1, 2) for b in range(4)]

    def test_state_carried_past_undecided_blocks_at_any_worker_count(self, monkeypatch):
        # at seed 4 source 1's blocks 1 to 4 have no decided pulse, so its
        # state is carried from block 0 across all of them
        e1 = make_emitter(blink_on_rate_per_s=2.0, blink_off_rate_per_s=1.0)
        e2 = make_emitter(blink_on_rate_per_s=1.0, blink_off_rate_per_s=2.0)
        train = _train(4 * simulate._CHUNK_PULSES + 17)
        for b in range(1, 5):
            assert not simulate._blink_words(e1, train, 4, 1, b)[1].any()
        args = (e1, e2, reference_circuit(), hs.DetectorSpec(dark_rate_cps=1e4), train)
        runs = []
        for workers in ("1", "2", "5"):
            monkeypatch.setenv("HOMSIM_THREADS", workers)
            runs.append(hs.run_simulation(*args, seed=4))
        (first, c), *rest = runs
        assert c.photons_emitted > simulate._CHUNK_PULSES
        for stream, counters in rest:
            assert np.array_equal(stream.times_ps, first.times_ps)
            assert np.array_equal(stream.channels, first.channels)
            assert counters == c

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_map_chunks_runs_at_most_two_items_per_worker_ahead(self, monkeypatch, workers):
        monkeypatch.setenv("HOMSIM_THREADS", workers)
        pulled = []

        def items():
            for i in range(40):
                pulled.append(i)
                yield i

        for k, r in enumerate(model._map_chunks(lambda i: i * i, items())):
            assert r == k * k
            assert len(pulled) <= k + 1 + 2 * int(workers)
        assert len(pulled) == 40

    def test_traced_peak_grows_by_at_most_24_bytes_per_tag(self, monkeypatch):
        # the README pair at efficiency 1 gives about one tag per pulse;
        # the returned stream takes 9 bytes per tag
        monkeypatch.setenv("HOMSIM_THREADS", "2")
        det = hs.DetectorSpec(irf_fwhm_ps=80.0, dark_rate_cps=300.0, efficiency=1.0)
        peaks, tags = [], []
        for n in (1_000_000, 3_000_000):
            tracemalloc.start()
            try:
                stream, _ = hs.run_simulation(
                    emitter_short_t2(), emitter_long_t2(), reference_circuit(), det,
                    _train(n), seed=3,
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            tags.append(stream.n_records)
            del stream
        assert (peaks[1] - peaks[0]) / (tags[1] - tags[0]) <= 24.0

    def test_one_block_working_set_is_sized_by_its_photons(self, monkeypatch):
        # the README pair at efficiency 1 emits about one photon per pulse, and
        # every photon becomes a tag; four float64 slots per pulse for the
        # times and again for the offsets alone would take 64 bytes a pulse
        monkeypatch.setenv("HOMSIM_THREADS", "1")
        det = hs.DetectorSpec(irf_fwhm_ps=80.0, dark_rate_cps=300.0, efficiency=1.0)
        tracemalloc.start()
        try:
            _, c = hs.run_simulation(
                emitter_short_t2(), emitter_long_t2(), reference_circuit(), det,
                _train(simulate._CHUNK_PULSES), seed=3,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.photons_emitted > 0.9 * simulate._CHUNK_PULSES
        assert peak <= 128.0 * c.photons_emitted


def _box_muller_reference(u):
    """The plain Box-Muller formula that simulate._gauss computes in place."""
    return np.sqrt(-2.0 * np.log1p(-u[0])) * np.cos(np.pi * (2.0 * u[1] - 1.0))


class TestBlockDraws:
    def test_gaussian_at_extreme_words_stays_below_nine_sigma(self):
        # _require_representable bounds tag times and kernel phases by 9 sigma
        top = 1.0 - 2.0**-53
        u = np.array([[0.0, 0.0, top, top, top], [0.0, top, 0.0, 0.5, top]])
        reference = _box_muller_reference(u)
        z = simulate._gauss(u)
        assert np.array_equal(z, reference)
        assert np.all(np.isfinite(z))
        assert np.abs(z).max() == pytest.approx(np.sqrt(53.0 * 2.0 * np.log(2.0)))
        assert np.abs(z).max() < 9.0

    def test_gaussian_equals_box_muller_formula_bit_for_bit(self):
        u = simulate._block_rng(17, 3, 0).random((2, 100_003))
        reference = _box_muller_reference(u)
        assert np.array_equal(simulate._gauss(u), reference)

    def test_block_draws_depend_only_on_seed_stream_and_block(self):
        e = make_emitter(
            emission_prob=0.7, slow_fraction=0.1, double_prob=0.2,
            spectral_diffusion_sigma_uev=2.0,
        )
        short = _train(simulate._CHUNK_PULSES + 17)
        long = _train(3 * simulate._CHUNK_PULSES)
        for source in (1, 2):
            a = simulate._emission_columns(e, short, source, 41, 0, None)
            b = simulate._emission_columns(e, long, source, 41, 0, None)
            assert a[0].max() < simulate._CHUNK_PULSES <= a[0].max() + 16
            for x, y in zip(a, b):
                assert np.array_equal(x, y)


class TestRunSimulationRegression:
    """Tag streams pinned at the seed, at one and two worker threads. Any
    change to these numbers is a golden change and must be declared."""

    @staticmethod
    def _check(monkeypatch, args, seed, sha256, counters):
        for workers in ("1", "2"):
            monkeypatch.setenv("HOMSIM_THREADS", workers)
            stream, c = hs.run_simulation(*args, seed=seed)
            digest = hashlib.sha256(
                stream.times_ps.astype("<i8").tobytes()
                + stream.channels.astype("u1").tobytes()
            ).hexdigest()
            assert c.as_dict() == counters
            assert digest == sha256

    def test_tag_stream_digest_and_counters(self, monkeypatch):
        # every stage: blinking, double emission, spectral diffusion,
        # jitter, dark counts and dead time over more than two chunks
        e1 = emitter_short_t2(
            blink_on_rate_per_s=2.0e6, blink_off_rate_per_s=1.0e6,
            double_prob=0.05, spectral_diffusion_sigma_uev=2.0,
        )
        e2 = emitter_long_t2(
            blink_on_rate_per_s=1.5e6, blink_off_rate_per_s=1.0e6,
            double_prob=0.03, spectral_diffusion_sigma_uev=3.0,
        )
        det = hs.DetectorSpec(
            irf_fwhm_ps=80.0, dark_rate_cps=50000.0, efficiency=0.6, dead_time_ps=20000.0
        )
        self._check(
            monkeypatch, (e1, e2, reference_circuit(), det, _train(150000)), 501,
            "9d43a79ca007cc4ccea472e6bb23c164ed597c71ec99158da291b05b52f0f086",
            {
                "photons_emitted": 98002,
                "photons_detected": 59249,
                "dark_counts": 233,
                "dead_time_pruned": 14217,
                "pairs_interfered": 5297,
                "tags_written": 45265,
            },
        )

    def test_lossy_detuned_delayed_digest_and_counters(self, monkeypatch):
        # the words the case above cannot see: four unequal arm
        # transmissions make every output-loss draw count, and a contrast
        # cap, a detuning and a source delay shape every pair kernel; no IRF
        e1 = emitter_short_t2(double_prob=0.2)
        e2 = emitter_long_t2(energy_uev=2.0, double_prob=0.15)
        circuit = reference_circuit(
            arm_transmission=(0.9, 0.75, 0.6, 0.8), classical_visibility=0.85
        )
        det = hs.DetectorSpec(irf_fwhm_ps=0.0, dark_rate_cps=50000.0, efficiency=0.7)
        self._check(
            monkeypatch, (e1, e2, circuit, det, _train(150000, delay=300.0)), 502,
            "e5382a0e4c1195225767e447b86a48a0d68168ff4504e330851caa7220800f0a",
            {
                "photons_emitted": 176170,
                "photons_detected": 71410,
                "dark_counts": 207,
                "dead_time_pruned": 0,
                "pairs_interfered": 11684,
                "tags_written": 71617,
            },
        )

    def test_tags_jittered_below_zero_dropped(self, monkeypatch):
        # a 2 ns FWHM IRF at a 2 ns period: two tags of the first pulses
        # land below 0 ps and are dropped, in the first of two blocks
        det = hs.DetectorSpec(irf_fwhm_ps=2000.0, dark_rate_cps=50000.0, efficiency=0.8)
        e1 = emitter_short_t2(emission_prob=0.9, double_prob=0.1)
        e2 = emitter_long_t2(emission_prob=0.9)
        self._check(
            monkeypatch, (e1, e2, reference_circuit(), det, _train(100000, rep=500.0)), 505,
            "0686d6a1b8c07408afc857c8d1a90df2978c77870c504b497d242806b6cf4104",
            {
                "photons_emitted": 188637,
                "photons_detected": 150971,
                "dark_counts": 23,
                "dead_time_pruned": 0,
                "pairs_interfered": 48518,
                "tags_written": 150994,
            },
        )


class TestTagClockBound:
    """Every time a spec can produce must fit the int64 picosecond clock."""

    def _run(self, e1=None, det=None, train=None):
        return hs.run_simulation(
            e1 or emitter_short_t2(), emitter_long_t2(), reference_circuit(),
            det or hs.DetectorSpec(irf_fwhm_ps=80.0, efficiency=0.3),
            train or _train(2000), seed=20260815,
        )

    @pytest.mark.parametrize(
        "kw",
        [
            {"e1": emitter_short_t2(t1_slow_ps=1e300)},
            {"e1": emitter_short_t2(t1_fast_ps=1e18)},
            {"det": hs.DetectorSpec(irf_fwhm_ps=1e300)},
            {"train": _train(2000, rep=1e-12)},
        ],
        ids=["t1_slow", "t1_fast", "irf", "rep_rate"],
    )
    def test_times_beyond_the_clock_rejected(self, kw):
        with pytest.raises(hs.ValidationError, match="int64 picosecond tag clock"):
            self._run(**kw)

    def test_huge_train_inside_the_clock_runs(self):
        # period 2^50 ps: 2000 pulses end near 2^61 ps, inside the bound
        train = _train(2000, rep=1e6 / 2.0**50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stream, c = self._run(train=train)
        assert c.tags_written == c.photons_detected > 0
        assert stream.times_ps[-1] > 2**60


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def _any_valid_scenario(draw):
    """Specs over their whole finite domains, with at most 2,000 pulses.

    Each unbounded field is a typical value three times in four and any
    finite value otherwise, so that both the runs and the rejections of
    huge values are exercised.
    """

    def value(typical, lo=0.0, positive=False):
        if draw(st.integers(0, 3)):
            return draw(_floats(lo, typical, exclude_min=positive))
        return draw(_floats(-1e308 if lo < 0 else 0.0, 1e308, exclude_min=positive))

    def emitter():
        t1 = value(5000.0, positive=True)
        return hs.EmitterSpec(
            energy_uev=value(100.0, lo=-100.0),
            t1_fast_ps=t1,
            t1_slow_ps=value(1e5, positive=True),
            slow_fraction=draw(_floats(0.0, 1.0, exclude_max=True)),
            t2_ps=2.0 * t1 * draw(_floats(0.0, 1.0, exclude_min=True)),
            emission_prob=draw(_floats(0.0, 1.0)),
            double_prob=draw(_floats(0.0, 1.0, exclude_max=True)),
            blink_on_rate_per_s=value(1e8),
            blink_off_rate_per_s=value(1e8),
            spectral_diffusion_sigma_uev=value(10.0),
        )

    try:
        e1, e2 = emitter(), emitter()
        circuit = hs.CircuitSpec(
            reflectance=draw(_floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
            pol_overlap=draw(_floats(0.0, 1.0)),
            arm_transmission=tuple(draw(_floats(0.0, 1.0, exclude_min=True)) for _ in range(4)),
            classical_visibility=draw(st.none() | _floats(0.0, 1.0)),
        )
        det = hs.DetectorSpec(
            irf_fwhm_ps=value(500.0),
            dark_rate_cps=value(1e6),
            efficiency=draw(_floats(0.0, 1.0, exclude_min=True)),
            dead_time_ps=value(1e5),
        )
        rep = value(1000.0, positive=True)
        train = hs.PulseTrainSpec(
            rep_rate_mhz=rep,
            n_pulses=draw(st.integers(0, 2000)),
            source_delay_ps=draw(_floats(0.0, 0.5, exclude_max=True)) * 1e6 / rep,
        )
    except hs.ValidationError:
        # the draw broke a spec invariant (t2 or the delay underflowed)
        assume(False)
    # Expected dark counts per channel that numpy can draw but that would
    # take gigabytes: a valid spec, only too large to run in a unit test.
    mu = det.dark_rate_cps * train.span_ps * 1e-12
    assume(not 1e5 < mu < 1e19)
    return e1, e2, circuit, det, train, draw(st.integers(0, 2**64 - 1))


class TestAnyValidSpec:
    @settings(max_examples=150, deadline=None)
    @given(_any_valid_scenario())
    @example(
        (
            emitter_short_t2(t1_slow_ps=1e300, slow_fraction=0.5),
            emitter_long_t2(),
            reference_circuit(),
            hs.DetectorSpec(irf_fwhm_ps=80.0, efficiency=0.3),
            _train(2000),
            20260815,
        )
    )
    @example(
        (
            emitter_short_t2(energy_uev=1e308),
            emitter_long_t2(energy_uev=-1e308),
            reference_circuit(),
            hs.DetectorSpec(efficiency=1.0),
            _train(2000),
            20260815,
        )
    )
    def test_runs_to_sorted_balanced_tags_or_rejects(self, case):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                stream, c = hs.run_simulation(*case)
            except hs.ValidationError:
                return
        assert stream.times_ps.dtype == np.int64
        assert np.all(np.diff(stream.times_ps) >= 0)
        assert c.tags_written == c.photons_detected + c.dark_counts - c.dead_time_pruned
        assert stream.n_records == c.tags_written


class TestDelayedReference:
    def test_sets_intentional_delay(self):
        train = _train(100)
        delayed = hs.delayed_reference(train)
        assert delayed.source_delay_ps == 500.0
        assert delayed.n_pulses == train.n_pulses
        custom = hs.delayed_reference(train, delay_ps=750.0)
        assert custom.source_delay_ps == 750.0
