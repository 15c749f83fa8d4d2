"""Tests of the benchmark's own reference values and checks.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each check must pass on homsim's real output and reject a tampered copy.
"""

from __future__ import annotations

import math
import struct
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

E1 = workloads.SCENARIO["emitter1"]
E2 = workloads.SCENARIO["emitter2"]


@pytest.mark.parametrize("t1, t2", [(720.0, 100.0), (600.0, 440.0), (500.0, 1000.0)])
def test_quadrature_meets_identical_emitter_limit(t1, t2):
    assert reference.visibility(t1, t2, t1, t2) == pytest.approx(t2 / (2.0 * t1), abs=1e-10)
    assert not workloads.quadrature_self_test()


def test_quadrature_is_symmetric_under_swap_and_negative_delay():
    forward = reference.visibility(720.0, 100.0, 600.0, 440.0, 0.95, 0.0, 300.0)
    swapped = reference.visibility(600.0, 440.0, 720.0, 100.0, 0.95, 0.0, -300.0)
    assert forward == pytest.approx(swapped, abs=1e-10)


def test_windowed_ratio_tends_to_coincidence_ratio():
    fast1 = dict(E1, slow_fraction=0.0)
    fast2 = dict(E2, slow_fraction=0.0)
    period = 1e6 / 76.0
    wide = reference.windowed_ratio(fast1, fast2, 0.48, 0.95, 1.0, 80.0, period, 500.0, 12000.0)
    v = reference.visibility(720.0, 100.0, 600.0, 440.0, 0.95, 0.0, 500.0)
    assert wide == pytest.approx(reference.coincidence_ratio(v, 0.48), abs=1e-4)


def test_telegraph_moments_match_the_markov_chain():
    rng = np.random.default_rng(5)
    n, trials, period = 300, 20000, 1e6 / 76.0
    p_emit, p_double, k_on, k_off = 0.5, 0.1, 4e7, 2e7
    mean, var = reference.telegraph_photons(n, period, p_emit, p_double, k_on, k_off)
    pi = k_on / (k_on + k_off)
    lam = math.exp(-(k_on + k_off) * period * 1e-12)
    state = rng.random(trials) < pi
    total = np.zeros(trials)
    for _ in range(n):
        photons = (rng.random(trials) < p_emit) * (1 + (rng.random(trials) < p_double))
        total += state * photons
        stay_on = pi + (1 - pi) * lam
        turn_on = pi * (1 - lam)
        state = rng.random(trials) < np.where(state, stay_on, turn_on)
    assert total.mean() == pytest.approx(mean, rel=0.01)
    assert total.var() == pytest.approx(var, rel=0.05)


def test_tags_sorted_rejects_one_unsorted_tag():
    times = np.arange(0, 1000, 10)
    channels = np.zeros(times.size, dtype=np.uint8)
    assert not checks.tags_sorted(times, channels)
    times[40], times[41] = times[41], times[40]
    assert checks.tags_sorted(times, channels)


def test_dead_time_rejects_two_close_tags_on_one_channel():
    times = np.array([0, 25_000, 50_000, 60_000])
    assert not checks.dead_time_respected(times, np.array([0, 0, 0, 1]), 20_000.0)
    assert not checks.dead_time_respected(times, np.array([0, 0, 1, 0]), 20_000.0)
    assert checks.dead_time_respected(times, np.array([0, 0, 0, 0]), 20_000.0)


def test_counters_balance_rejects_one_lost_tag():
    counters = {"photons_detected": 100, "dark_counts": 3, "dead_time_pruned": 10, "tags_written": 93}
    assert not checks.counters_balance(counters)
    assert checks.counters_balance(dict(counters, tags_written=92))


def test_visibility_rejects_a_five_point_shift():
    sides = {k: 100_000 for k in (-3, -2, -1, 1, 2, 3)}
    synced = {**sides, 0: 43_750}
    delayed = {**sides, 0: 46_050}
    v = (0.4605 - 0.4375) / 0.4605
    assert not checks.visibility_agrees(v, synced, delayed, 0.4375, 0.4605)
    assert checks.visibility_agrees(v + 0.05, synced, delayed, 0.4375, 0.4605)
    assert checks.visibility_agrees(v - 0.05, synced, delayed, 0.4375, 0.4605)


def test_peak_areas_match_brute_force_pair_count():
    rng = np.random.default_rng(1)
    times = np.sort(rng.integers(0, 2_000_000, 400))
    channels = rng.integers(0, 2, times.size)
    windows = checks.peak_windows(13157.9, 3000.0, 6, 10.0, 80_000.0)
    counted = checks.count_peak_areas(times, channels, windows)
    t0, t1 = times[channels == 0], times[channels == 1]
    delays = (t1[None, :] - t0[:, None]).ravel()
    for k, (lo, hi) in windows.items():
        assert counted[k] == int(np.sum((delays >= lo) & (delays < hi)))
    assert checks.count_pairs(times, channels, 80_000.0) == int(np.sum((delays >= -80_000) & (delays < 80_000)))


def test_ptg1_reader_and_size(tmp_path):
    times = np.array([5, 17, 17, 900], dtype=np.uint64)
    channels = np.array([1, 0, 1, 0], dtype=np.uint8)
    path = tmp_path / "tags.ptg1"
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHQQ", b"PTG1", 1, 1, times.size))
        for t, c in zip(times, channels):
            fh.write(struct.pack("<QB7x", int(t), int(c)))
    got_t, got_c = checks.read_ptg1(path)
    assert got_t.tolist() == times.tolist() and got_c.tolist() == channels.tolist()
    assert not checks.ptg1_size(path, 4)
    assert checks.ptg1_size(path, 5)


def test_self_time_subtracts_the_union_of_children():
    tracer = spans.Tracer()
    tracer.spans = [
        {"id": 0, "parent": None, "name": "a", "round": 1, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "b", "round": 1, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "name": "b", "round": 1, "start": 3.0, "end": 5.0},
    ]
    times = spans.self_times(tracer.spans)[1]
    assert times["a"] == pytest.approx(6.0)
    assert times["b"] == pytest.approx(5.0)


@pytest.fixture(scope="module")
def hs():
    return pytest.importorskip("homsim")


def _run_small(hs, cls, pulses, tmp_path):
    small = type("Small", (cls,), {"pulses": pulses})
    workload = small(11, tmp_path)
    workload.build(hs)
    assert not workload.prepare()
    out, failed = workload.round(spans.NullTracer())
    assert failed == 0
    return workload, out


def _tampered_stream(out, run, times, channels):
    out[run] = dict(out[run], stream=types.SimpleNamespace(times_ps=times, channels=channels))


def test_hom_reference_checks_reject_tampered_outputs(hs, tmp_path):
    workload, out = _run_small(hs, workloads.HomReference, 500_000, tmp_path)
    assert workload.check(out) == []

    v, err = out["V"]
    assert any(f.startswith("V ") for f in workload.check(dict(out, V=(v + 0.05, err))))

    times = out["synced"]["stream"].times_ps.copy()
    times[1000], times[1001] = times[1001] + 1, times[1000]
    bad = dict(out)
    _tampered_stream(bad, "synced", times, out["synced"]["stream"].channels)
    assert any("out of time order" in f for f in workload.check(bad))


def test_blink_deadtime_checks_reject_a_tag_inside_the_dead_time(hs, tmp_path):
    workload, out = _run_small(hs, workloads.BlinkDeadtime, 300_000, tmp_path)
    assert workload.check(out) == []

    stream = out["synced"]["stream"]
    i = int(np.flatnonzero(stream.channels == 0)[10])
    times = np.insert(stream.times_ps, i + 1, stream.times_ps[i] + 1)
    channels = np.insert(stream.channels, i + 1, 0)
    _tampered_stream(out, "synced", times, channels)
    assert any("dead time" in f for f in workload.check(out))
