"""End-to-end acceptance checks.

One test per advertised guarantee, each asserted at its stated tolerance;
`pytest -v tests/test_acceptance.py` prints one pass/fail line per check.
Measured values are printed so failures are self-explanatory.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import homsim as hs
from homsim import fitting
from helpers import (
    brute_force_histogram,
    emitter_long_t2,
    emitter_short_t2,
    make_emitter,
    make_stream,
    scenario_dict,
)

ACCEPTANCE_SEED = 20260815


def _train(n_pulses, delay=0.0):
    return hs.PulseTrainSpec(
        rep_rate_mhz=76.0, n_pulses=n_pulses, source_delay_ps=delay
    )


def test_criterion_01_splitting_ratio_exact_and_fast():
    m = hs.SplitterMeasurement.from_drive_pairs(51.0, 49.0, 46.0, 54.0)
    hs.splitting_ratio(m)  # warm-up
    t0 = time.perf_counter()
    r, t = hs.splitting_ratio(m)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    print("criterion 01: r:t = %.1f:%.1f in %.4f ms" % (100 * r, 100 * t, elapsed_ms))
    assert "%.1f:%.1f" % (100 * r, 100 * t) == "48.5:51.5"
    assert "%.0f:%.0f" % (100 * r, 100 * t) == "48:52"
    assert elapsed_ms < 1.0


def test_criterion_02_hom_visibility_reference_value():
    v, err = hs.hom_visibility(0.558, 0.459)
    print("criterion 02: V = %.6f (%.1f%%)" % (v, 100 * v))
    assert v == pytest.approx(0.17741935483870971, rel=1e-12)
    assert "%.1f" % (100 * v) == "17.7"
    assert abs(100 * v - 17.8) <= 0.7


def test_criterion_03_postselected_visibility_exact():
    cases = {0.17: 0.66, 0.31: 0.38, 0.35: 0.30}
    for g, expected in cases.items():
        v = hs.postselected_visibility(g)
        print("criterion 03: g=%.2f -> V'=%.2f" % (g, v))
        assert v == pytest.approx(expected, rel=1e-12)


def test_criterion_04_closed_form_sweep_and_quadrature_agreement():
    e1, e2 = emitter_short_t2(), emitter_long_t2()
    t0 = time.perf_counter()
    sweep = np.array(
        [
            hs.visibility_closed_form(e1, e2, delta_uev=d, pol_overlap=1.0)
            for d in np.linspace(0.0, 5.0, 50)
        ]
    )
    # bounds quoted at 2 decimals: every point must round into [0.09, 0.14]
    rounded = np.round(sweep, 2)
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    worst = 0.0
    for _ in range(100):
        t1a = float(rng.uniform(100.0, 1500.0))
        t1b = float(rng.uniform(100.0, 1500.0))
        ea = make_emitter(
            t1_fast_ps=t1a, t2_ps=float(rng.uniform(0.05, 1.0)) * 2.0 * t1a
        )
        eb = make_emitter(
            t1_fast_ps=t1b, t2_ps=float(rng.uniform(0.05, 1.0)) * 2.0 * t1b
        )
        delta = float(rng.uniform(0.0, 10.0))
        pol = float(rng.uniform(0.5, 1.0))
        diff = abs(
            hs.visibility_closed_form(ea, eb, delta, pol)
            - hs.visibility_numeric(ea, eb, delta, pol)
        )
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    print(
        "criterion 04: sweep [%.4f, %.4f], worst route disagreement %.2e, %.2f s"
        % (sweep.min(), sweep.max(), worst, elapsed)
    )
    assert np.all(rounded >= 0.09) and np.all(rounded <= 0.14)
    assert sweep.min() >= 0.085
    assert sweep.max() <= 0.14
    assert sweep.max() >= 0.10  # overlaps the 10-15% band
    assert worst <= 1e-3
    assert elapsed < 5.0


def test_criterion_05_single_emitter_reduction():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        t1 = float(rng.uniform(100.0, 2000.0))
        t2 = float(rng.uniform(0.02, 1.0)) * 2.0 * t1
        e = make_emitter(t1_fast_ps=t1, t2_ps=t2)
        v = hs.visibility_closed_form(e, e, delta_uev=0.0, pol_overlap=1.0)
        worst = max(worst, abs(v - t2 / (2.0 * t1)))
    print("criterion 05: max |V - T2/(2 T1)| = %.2e over 50 points" % worst)
    assert worst <= 1e-9


def test_criterion_06_coherence_time_from_linewidth():
    t2_narrow = hs.t2_from_linewidth(13.5)
    t2_wide = hs.t2_from_linewidth(3.0)
    print("criterion 06: 13.5 ueV -> %.4f ps; 3.0 ueV -> %.4f ps" % (t2_narrow, t2_wide))
    assert t2_narrow == pytest.approx(97.51288250370371, rel=1e-12)
    assert "%.1f" % t2_narrow == "97.5"
    assert 80.0 <= t2_narrow <= 120.0
    assert t2_wide == pytest.approx(438.8079712666667, rel=1e-12)
    assert "%.1f" % t2_wide == "438.8"
    assert 410.0 <= t2_wide <= 470.0


def test_criterion_07_lorentzian_deconvolution_exact():
    first = fitting.deconvolve_lorentzian(16.5, 3.0)
    second = fitting.deconvolve_lorentzian(6.0, 3.0)
    print("criterion 07: (16.5, 3.0) -> %.6f; (6.0, 3.0) -> %.6f" % (first, second))
    assert first == pytest.approx(13.5, rel=1e-12)
    assert second == pytest.approx(3.0, rel=1e-12)


def test_criterion_08_end_to_end_interference_closed_loop():
    e1, e2 = emitter_short_t2(), emitter_long_t2()
    cir = hs.CircuitSpec(reflectance=0.48, pol_overlap=0.95)
    det = hs.DetectorSpec(
        irf_fwhm_ps=80.0, dark_rate_cps=300.0, efficiency=1.0, dead_time_ps=0.0
    )
    # the delayed reference is not fully distinguishable: photons 0.5 ns
    # apart still interfere, so each run is predicted by
    # g(delay) = r^2 + t^2 - 2rt V(delay) and V_meas by (g_d - g_s) / g_d
    delayed_train = hs.delayed_reference(_train(1000000))
    r, t = cir.reflectance, cir.transmittance

    def g_theory(delay_ps):
        v = hs.visibility_closed_form(
            e1, e2, delta_uev=0.0, pol_overlap=0.95, delay_ps=delay_ps
        )
        return r * r + t * t - 2.0 * r * t * v

    g_d_theory = g_theory(delayed_train.source_delay_ps)
    v_closed = (g_d_theory - g_theory(0.0)) / g_d_theory

    t0 = time.perf_counter()
    results = {}
    for name, train in (("sync", _train(1000000)), ("delayed", delayed_train)):
        stream, _ = hs.run_simulation(e1, e2, cir, det, train, seed=ACCEPTANCE_SEED)
        hist = hs.cross_correlate(stream, 10.0, 80000.0)
        floor = hs.estimate_background(hist, train.period_ps, delta_t_ps=3000.0)
        results[name] = hs.integrate_peaks(
            hist, train.period_ps, 3000.0, 6, floor=floor, corrected=True
        )
    elapsed = time.perf_counter() - t0

    g_s, g_d = results["sync"], results["delayed"]
    v_meas, v_err = hs.hom_visibility(g_d, g_s)
    print(
        "criterion 08: sync g2=%.4f+-%.4f, delayed g2=%.4f+-%.4f, "
        "V_meas=%.4f+-%.4f vs closed-form protocol %.4f, runtime %.1f s"
        % (
            g_s.g2_zero, g_s.g2_zero_err, g_d.g2_zero, g_d.g2_zero_err,
            v_meas, v_err, v_closed, elapsed,
        )
    )
    failures = []
    if abs(v_meas - v_closed) > 0.03:
        failures.append(
            "measured V %.4f differs from closed-form protocol %.4f by %.1f pp (> 3 pp)"
            % (v_meas, v_closed, 100 * abs(v_meas - v_closed))
        )
    if abs(g_d.g2_zero - g_d_theory) > 0.02:
        failures.append(
            "delayed corrected g2 %.4f outside %.4f +- 0.02"
            % (g_d.g2_zero, g_d_theory)
        )
    if elapsed >= 60.0:
        failures.append("runtime %.1f s exceeds 60 s" % elapsed)
    assert not failures, "; ".join(failures)


def test_criterion_09_hbt_multiphoton_and_dark_floor():
    off = make_emitter(emission_prob=0.0)
    cir = hs.CircuitSpec(reflectance=0.5, pol_overlap=1.0)
    det = hs.DetectorSpec(
        irf_fwhm_ps=80.0, dark_rate_cps=0.0, efficiency=1.0, dead_time_ps=0.0
    )

    def hbt_g2(emission_prob, double_prob):
        e = emitter_short_t2(emission_prob=emission_prob, double_prob=double_prob)
        train = _train(1000000)
        stream, _ = hs.run_simulation(e, off, cir, det, train, seed=ACCEPTANCE_SEED)
        hist = hs.cross_correlate(stream, 10.0, 80000.0)
        return hs.integrate_peaks(hist, train.period_ps, 3000.0, 6)

    low = hbt_g2(0.5, 0.1533)
    high = hbt_g2(0.3, 0.2715)
    print(
        "criterion 09: tuned g2 targets %.4f+-%.4f (0.15 band) and %.4f+-%.4f (0.35 band)"
        % (low.g2_zero, low.g2_zero_err, high.g2_zero, high.g2_zero_err)
    )
    assert abs(low.g2_zero - 0.15) <= 0.02
    assert abs(high.g2_zero - 0.35) <= 0.08

    # dark-count floor at the documented signal/dark rate ratio
    e = make_emitter(t1_fast_ps=300.0, t2_ps=400.0, emission_prob=0.5)
    det_dark = hs.DetectorSpec(
        irf_fwhm_ps=80.0, dark_rate_cps=89000.0, efficiency=0.05, dead_time_ps=0.0
    )
    train = _train(4000000)
    stream, _ = hs.run_simulation(e, off, cir, det_dark, train, seed=31)
    hist = hs.cross_correlate(stream, 10.0, 80000.0)
    floor = hs.estimate_background(hist, train.period_ps, delta_t_ps=3000.0)
    fraction = floor * hist.n_bins / hist.total_pairs
    print("criterion 09: dark floor fraction = %.4f" % fraction)
    assert 0.15 <= fraction <= 0.20


def test_criterion_10_correlator_matches_brute_force():
    rng = np.random.default_rng(10)
    geometries = [(5.0, 2500.0), (10.0, 5000.0), (25.0, 10000.0), (50.0, 20000.0)]
    t0 = time.perf_counter()
    for i in range(100):
        n = int(rng.integers(100, 10001))
        times = np.sort(rng.integers(0, 1000000, size=n))
        split = rng.random(n) < rng.uniform(0.2, 0.8)
        bin_width, window = geometries[i % len(geometries)]
        stream = make_stream(times[~split], times[split])
        hist = hs.cross_correlate(stream, bin_width, window)
        oracle = brute_force_histogram(stream, bin_width, window)
        assert np.array_equal(hist.counts, oracle), "stream %d diverged" % i
    elapsed = time.perf_counter() - t0
    print("criterion 10: 100 random streams bit-exact in %.2f s" % elapsed)
    assert elapsed < 10.0


def test_criterion_11_decay_fit_recovery_across_seeds():
    t = np.arange(-2000.0, 50000.0, 25.0)
    sigma_irf = 80.0 / 2.3548200450309493
    model = 50.0 + 1.02e5 * (
        0.98 * fitting.exp_conv_gauss(t, 720.0, sigma_irf)
        + 0.02 * fitting.exp_conv_gauss(t, 12000.0, sigma_irf)
    )
    passes = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        y = rng.poisson(model).astype(float)
        res = fitting.fit_biexp_irf(t, y, 80.0)
        ok = (
            res.status == "converged"
            and abs(res["tau_fast"] - 720.0) / 720.0 <= 0.05
            and abs(res["tau_slow"] - 12000.0) / 12000.0 <= 0.15
        )
        passes += ok
    print("criterion 11: %d/20 seeds recovered (need >= 18)" % passes)
    assert passes >= 18


def test_criterion_12_calibration_synthetics():
    rng = np.random.default_rng(12)
    phase = np.linspace(0.0, 6.0 * np.pi, 4000)
    trace = 1000.0 * (1.0 + 0.98 * np.cos(phase))
    trace = trace * (1.0 + 0.01 * rng.standard_normal(phase.size))
    v, _ = hs.fringe_visibility(np.clip(trace, 0.0, None), mode="clipped")

    d = np.linspace(0.25, 2.25, 9)
    db = -6.5 * d + 27.0 + 0.4 * rng.standard_normal(d.size)
    loss, loss_err = hs.fit_loss(d, 10.0 ** (db / 10.0))

    ang = np.linspace(0.0, 360.0, 73)
    malus = 800.0 * (1.0 + 0.95 * np.cos(2.0 * np.deg2rad(ang - 20.0)))
    malus = malus * (1.0 + 0.02 * rng.standard_normal(ang.size))
    rho, _ = hs.dolp(ang, malus)

    print(
        "criterion 12: fringe V=%.4f, loss=%.3f+-%.3f dB/mm, DOLP=%.4f"
        % (v, loss, loss_err, rho)
    )
    assert abs(v - 0.98) <= 0.01
    assert abs(loss - 6.5) <= 0.5
    assert abs(rho - 0.95) <= 0.01


def _simulate_at_1_2_8_threads(tmp_path, scenario, before_run=""):
    """The tag files `homsim simulate` writes for scenario at HOMSIM_THREADS
    1, 2 and 8, each in a fresh interpreter that runs before_run between
    importing homsim.cli and running the command."""
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))
    blobs = {}
    for workers in ("1", "2", "8"):
        out = tmp_path / ("tags_%s.ptg1" % workers)
        env = dict(os.environ, HOMSIM_THREADS=workers)
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from homsim.cli import main; %ssys.exit(main(sys.argv[1:]))"
                % before_run,
                "simulate",
                "--config",
                str(cfg),
                "--out",
                str(out),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs[workers] = out.read_bytes()
    return blobs


def test_criterion_13_thread_count_determinism(tmp_path):
    blobs = _simulate_at_1_2_8_threads(tmp_path, scenario_dict(seed=ACCEPTANCE_SEED))
    sizes = {k: len(v) for k, v in blobs.items()}
    print("criterion 13: file sizes at 1/2/8 workers = %s" % sizes)
    assert blobs["1"] == blobs["2"] == blobs["8"]
    assert len(blobs["1"]) > 22


def test_criterion_13_first_random_draws_in_worker_threads(tmp_path):
    # numpy >= 2 imports numpy.random on first use, which must not race with
    # the pool's threads: run_simulation makes its first draw, through
    # _block_rng, in the calling thread before the pool starts. Each run
    # records where its first _block_rng call ran; blinking sources draw
    # their telegraph words in the thread that feeds the pool while the
    # workers draw emission words, and the files match at every worker count
    cfg = scenario_dict(seed=ACCEPTANCE_SEED)
    for key, blink_on in (("emitter1", 2.0e6), ("emitter2", 1.5e6)):
        cfg[key].update(blink_on_rate_per_s=blink_on, blink_off_rate_per_s=1.0e6)
    cfg["train"]["n_pulses"] = 300_000  # five pulse blocks
    record = (
        "\nimport os, threading\n"
        "import numpy\n"
        "import homsim.simulate as sim\n"
        "assert int(numpy.__version__.split('.')[0]) < 2 or 'numpy.random' not in sys.modules\n"
        "def recorded(*args, draw=sim._block_rng, first=[]):\n"
        "    if not first:\n"
        "        first.append(threading.current_thread() is threading.main_thread())\n"
        "        with open(%r %% os.environ['HOMSIM_THREADS'], 'w') as fh:\n"
        "            fh.write(str(first[0]))\n"
        "    return draw(*args)\n"
        "sim._block_rng = recorded\n"
    ) % str(tmp_path / "first_draw_%s.txt")
    blobs = _simulate_at_1_2_8_threads(tmp_path, cfg, record)
    assert blobs["1"] == blobs["2"] == blobs["8"]
    assert len(blobs["1"]) > 22
    for workers in blobs:
        assert (tmp_path / ("first_draw_%s.txt" % workers)).read_text() == "True"
