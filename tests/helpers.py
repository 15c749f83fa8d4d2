"""Shared builders for the test suite.

Two reference emitters are used throughout: a short-coherence one
(T1 = 720 ps, T2 = 100 ps) and a long-coherence one (T1 = 600 ps,
T2 = 440 ps), both with a weak 12 ns slow decay component.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import homsim as hs
from homsim.simulate import (
    _CHUNK_PULSES,
    _STREAM_BLINK,
    _blink_gates,
    _block_rng,
    _emission_columns,
    _gauss,
)


def make_emitter(
    energy_uev=0.0,
    t1_fast_ps=600.0,
    t1_slow_ps=12000.0,
    slow_fraction=0.0,
    t2_ps=440.0,
    emission_prob=0.5,
    **kw,
):
    return hs.EmitterSpec(
        energy_uev=energy_uev,
        t1_fast_ps=t1_fast_ps,
        t1_slow_ps=t1_slow_ps,
        slow_fraction=slow_fraction,
        t2_ps=t2_ps,
        emission_prob=emission_prob,
        **kw,
    )


def emitter_short_t2(**kw):
    base = dict(
        energy_uev=0.0,
        t1_fast_ps=720.0,
        t1_slow_ps=12000.0,
        slow_fraction=0.02,
        t2_ps=100.0,
        emission_prob=0.5,
    )
    base.update(kw)
    return hs.EmitterSpec(**base)


def emitter_long_t2(**kw):
    base = dict(
        energy_uev=0.0,
        t1_fast_ps=600.0,
        t1_slow_ps=12000.0,
        slow_fraction=0.012,
        t2_ps=440.0,
        emission_prob=0.5,
    )
    base.update(kw)
    return hs.EmitterSpec(**base)


def reference_circuit(**kw):
    base = dict(reflectance=0.48, pol_overlap=0.95)
    base.update(kw)
    return hs.CircuitSpec(**base)


def make_stream(times0, times1):
    """Build a sorted two-channel TimeTagStream from per-channel times."""
    t0 = np.asarray(times0, dtype=np.int64)
    t1 = np.asarray(times1, dtype=np.int64)
    times = np.concatenate([t0, t1])
    chans = np.concatenate(
        [np.zeros(t0.size, dtype=np.uint8), np.ones(t1.size, dtype=np.uint8)]
    )
    order = np.lexsort((chans, times))
    return hs.TimeTagStream(times_ps=times[order], channels=chans[order])


def brute_force_histogram(stream, bin_width_ps, window_ps, rows=512):
    """O(N*M) reference correlator: full pair enumeration, chunked.

    Counts ordered pairs (a in ch0, b in ch1) by tau = t_b - t_a into
    half-open bins covering [-window, +window), taking rows channel-0 tags
    at a time (each chunk holds rows x M delays).
    """
    t0 = stream.times_ps[stream.channels == 0].astype(np.float64)
    t1 = stream.times_ps[stream.channels == 1].astype(np.float64)
    n_bins = int(round(2.0 * window_ps / bin_width_ps))
    counts = np.zeros(n_bins, dtype=np.int64)
    for lo in range(0, t0.size, rows):
        block = t0[lo : lo + rows]
        tau = t1[None, :] - block[:, None]
        keep = (tau >= -window_ps) & (tau < window_ps)
        idx = np.floor((tau[keep] + window_ps) / bin_width_ps).astype(np.int64)
        idx = np.clip(idx, 0, n_bins - 1)
        counts += np.bincount(idx, minlength=n_bins)
    return counts


def poissonize(rng, y):
    return rng.poisson(np.clip(y, 0, None)).astype(float)


def scenario_dict(**overrides):
    """Full JSON-ready scenario; keyword overrides replace whole blocks."""
    emitter1 = {
        "energy_uev": 0.0,
        "t1_fast_ps": 720.0,
        "t1_slow_ps": 12000.0,
        "slow_fraction": 0.02,
        "t2_ps": 100.0,
        "emission_prob": 0.5,
        "double_prob": 0.0,
        "blink_on_rate_per_s": 0.0,
        "blink_off_rate_per_s": 0.0,
        "spectral_diffusion_sigma_uev": 0.0,
    }
    emitter2 = dict(
        emitter1, t1_fast_ps=600.0, t2_ps=440.0, slow_fraction=0.012
    )
    base = {
        "emitter1": emitter1,
        "emitter2": emitter2,
        "circuit": {
            "reflectance": 0.48,
            "pol_overlap": 0.95,
            "arm_transmission": [1.0, 1.0, 1.0, 1.0],
            "classical_visibility": None,
        },
        "detector": {
            "irf_fwhm_ps": 80.0,
            "dark_rate_cps": 300.0,
            "efficiency": 0.3,
            "dead_time_ps": 0.0,
        },
        "train": {
            "rep_rate_mhz": 76.0,
            "n_pulses": 100000,
            "source_delay_ps": 0.0,
        },
        "seed": 20260815,
    }
    base.update(overrides)
    return base


def emission_columns(emitter, train, source_id, seed):
    """One source's emission columns over the whole train, blink gate applied.

    Keys: pulse_a/t_a/slow_a/f_a for the primary photons and pulse_b/t_b/f_b
    for the extra slow-branch photons, one entry per photon that exists, in
    pulse order; pulse_* are pulse indices in the train. f_* are the
    spectral-diffusion offsets that _gauss makes from each photon's words,
    None without spectral diffusion.
    """
    cols = {key: [] for key in ("pulse_a", "t_a", "slow_a", "f_a", "pulse_b", "t_b", "f_b")}
    for b, gate in enumerate(_blink_gates(emitter, train, seed, source_id)):
        pulse, t, w, k, slow = _emission_columns(emitter, train, source_id, seed, b, gate)
        pulse = pulse + b * _CHUNK_PULSES
        f = None if w is None else emitter.spectral_diffusion_sigma_uev * _gauss(w)
        for key, col in (("pulse", pulse), ("t", t), ("f", f)):
            if col is not None:
                cols[key + "_a"].append(col[:k])
                cols[key + "_b"].append(col[k:])
        cols["slow_a"].append(slow)
    return {key: np.concatenate(c) if c else None for key, c in cols.items()}


def blink_probabilities(emitter, train):
    """(pi_on, p_on_on, p_off_on) of the telegraph gate, as the simulator has them."""
    k_on = emitter.blink_on_rate_per_s
    k_off = emitter.blink_off_rate_per_s
    k_tot = k_on + k_off
    pi_on = k_on / k_tot
    decay = np.exp(-k_tot * train.period_ps * 1e-12)
    return pi_on, pi_on + (1.0 - pi_on) * decay, pi_on * (1.0 - decay)


def blink_gate_reference(emitter, train, seed, source_id):
    """Sequential telegraph gate: one pulse at a time, carrying the state.

    Reference for the per-block gates of simulate._blink_gates, joined; draws
    the same words, one per pulse from simulate's blink stream of the source,
    block by block.
    """
    if emitter.blink_on_rate_per_s == 0.0 and emitter.blink_off_rate_per_s == 0.0:
        return None
    pi_on, p_on_on, p_off_on = blink_probabilities(emitter, train)
    n = train.n_pulses
    gate = np.empty(n, dtype=bool)
    state = False
    for p0 in range(0, n, _CHUNK_PULSES):
        p1 = min(p0 + _CHUNK_PULSES, n)
        u = _block_rng(seed, _STREAM_BLINK + source_id, p0 // _CHUNK_PULSES).random(p1 - p0)
        for i, uv in enumerate(u, start=p0):
            if i == 0:
                state = uv < pi_on
            else:
                state = uv < (p_on_on if state else p_off_on)
            gate[i] = state
    return gate


def prune_dead_time_reference(times, channels, dead_ps):
    """Sequential non-paralysable dead time, tag by tag per channel.

    Reference for simulate._prune_dead_time, whole or segment by segment.
    """
    if dead_ps <= 0 or times.size == 0:
        return np.ones(times.size, dtype=bool)
    keep = np.ones(times.size, dtype=bool)
    for ch in (0, 1):
        idx = np.flatnonzero(channels == ch)
        last = -np.inf
        for i in idx:
            if times[i] - last < dead_ps:
                keep[i] = False
            else:
                last = times[i]
    return keep


def timetrace_reference(stream, train, bin_width_ps, channel=None):
    """Whole-array period fold of the tag times in exact rational arithmetic.

    Reference for correlate.timetrace, which folds one slice at a time in
    floats. With period = num / den and bin width a / b, a tag t lies in bin
    floor((t den mod num) b / (a den)), capped at the last bin.
    """
    times = stream.times_ps
    if channel is not None:
        times = times[stream.channels == channel]
    period, width = Fraction(train.period_ps), Fraction(bin_width_ps)
    n_bins = math.ceil(period / width)
    num, den = period.numerator, period.denominator
    phase = times.astype(object) * den % num  # Python integers: exact at any size
    idx = (phase * width.denominator // (width.numerator * den)).astype(np.int64)
    return np.bincount(np.minimum(idx, n_bins - 1), minlength=n_bins).astype(np.int64)
