"""Checks of homsim's outputs against properties of the method.

Each check returns a list of failure messages, empty when it passes.
Nothing here imports homsim: peak areas are counted straight from the
tags, and tag files are parsed from the documented PTG1 layout.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

# Multiple of the standard error within which a measured ratio must lie.
STAT_K = 4.0
# Telegraph photon counts are sums of correlated pulses; 5 sigma keeps a
# false alarm below 1e-6 per source and run.
EMITTED_K = 5.0
PTG1_HEADER = 22
PTG1_RECORD = 16


def digest(times, channels) -> str:
    """SHA-256 of the tag stream's times (int64) and channels (uint8)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(times, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(channels, dtype=np.uint8).tobytes())
    return h.hexdigest()


def read_ptg1(path):
    """Times and channels of a PTG1 file: 22-byte header, 16-byte records."""
    raw = Path(path).read_bytes()
    count = int(np.frombuffer(raw[14:22], dtype="<u8")[0])
    records = np.frombuffer(raw[PTG1_HEADER:], dtype=np.uint8).reshape(count, PTG1_RECORD)
    times = records[:, :8].copy().view("<u8").ravel().astype(np.int64)
    return times, records[:, 8].copy()


def tags_sorted(times, channels) -> list[str]:
    times = np.asarray(times)
    out = []
    steps = np.flatnonzero(np.diff(times) < 0)
    if steps.size:
        out.append("%d tags out of time order (first at index %d)" % (steps.size, steps[0] + 1))
    if np.any((np.asarray(channels) != 0) & (np.asarray(channels) != 1)):
        out.append("channel other than 0 or 1")
    return out


def counters_balance(counters: dict) -> list[str]:
    """tags_written == photons_detected + dark_counts - dead_time_pruned."""
    expect = counters["photons_detected"] + counters["dark_counts"] - counters["dead_time_pruned"]
    if counters["tags_written"] != expect:
        return ["tags_written %d != detected + dark - pruned = %d" % (counters["tags_written"], expect)]
    return []


def tags_match_counters(times, counters: dict) -> list[str]:
    if len(times) != counters["tags_written"]:
        return ["stream holds %d tags, counters say %d" % (len(times), counters["tags_written"])]
    return []


def dead_time_respected(times, channels, dead_ps: float) -> list[str]:
    """No two kept tags on one channel closer than the dead time."""
    times = np.asarray(times)
    channels = np.asarray(channels)
    out = []
    for ch in (0, 1):
        gaps = np.diff(times[channels == ch])
        if gaps.size and gaps.min() < dead_ps:
            out.append(
                "channel %d: %d gaps below the %g ps dead time (smallest %d ps)"
                % (ch, int(np.sum(gaps < dead_ps)), dead_ps, gaps.min())
            )
    return out


def peak_windows(period_ps, delta_t_ps, n_side, bin_width_ps, window_ps):
    """Delay range [lo, hi) of each comb peak k as the histogram bins it.

    Bin i covers [-window + i*bw, -window + (i+1)*bw); peak k takes the
    bins whose centres lie within delta_t/2 of k*period.
    """
    half = n_side // 2
    n_bins = int(round(2.0 * window_ps / bin_width_ps))
    centres = -window_ps + bin_width_ps * (np.arange(n_bins) + 0.5)
    out = {}
    for k in range(-half, half + 1):
        idx = np.flatnonzero(np.abs(centres - k * period_ps) <= delta_t_ps / 2.0)
        out[k] = (-window_ps + bin_width_ps * idx[0], -window_ps + bin_width_ps * (idx[-1] + 1))
    return out


def count_peak_areas(times, channels, windows: dict) -> dict:
    """Pairs (ch0 tag, ch1 tag) whose delay t1 - t0 lies in each window."""
    times = np.asarray(times, dtype=np.int64)
    channels = np.asarray(channels)
    t0 = times[channels == 0]
    t1 = times[channels == 1]
    out = {}
    for k, (lo, hi) in windows.items():
        # integer tags: t1 - t0 >= lo  <=>  t1 >= t0 + ceil(lo)
        a = np.searchsorted(t1, t0 + math.ceil(lo), side="left")
        b = np.searchsorted(t1, t0 + math.ceil(hi), side="left")
        out[k] = int(np.sum(b - a))
    return out


def count_pairs(times, channels, window_ps: float) -> int:
    """Pairs (ch0 tag, ch1 tag) with delay in [-window, window)."""
    return sum(count_peak_areas(times, channels, {0: (-window_ps, window_ps)}).values())


def ratio(areas: dict) -> tuple[float, float]:
    """Central over mean side area and its Poisson standard error."""
    sides = [a for k, a in areas.items() if k != 0]
    central = areas[0]
    g = central * len(sides) / sum(sides)
    return g, g * math.sqrt(1.0 / max(central, 1) + 1.0 / sum(sides))


def agrees(name: str, measured: float, expected: float, sigma: float, k: float = STAT_K) -> list[str]:
    if not abs(measured - expected) <= k * sigma:
        return [
            "%s %.5f differs from the expected %.5f by %.1f sigma (sigma %.5f, limit %g)"
            % (name, measured, expected, abs(measured - expected) / sigma, sigma, k)
        ]
    return []


def areas_match(name: str, homsim_areas, counted: dict) -> list[str]:
    """homsim's raw peak areas equal the pairs counted from the tags."""
    mine = np.array([counted[k] for k in sorted(counted)], dtype=float)
    theirs = np.asarray(homsim_areas, dtype=float)
    if theirs.shape != mine.shape or not np.allclose(theirs, mine, rtol=0, atol=1e-6 * max(mine.max(), 1)):
        return ["%s peak areas %s != counted from tags %s" % (name, theirs.tolist(), mine.tolist())]
    return []


def visibility_agrees(v_meas, areas_synced: dict, areas_delayed: dict, g_synced, g_delayed) -> list[str]:
    """V_meas against (g_d - g_s)/g_d, sigma from the counted peak areas."""
    gs, ss = ratio(areas_synced)
    gd, sd = ratio(areas_delayed)
    sigma = math.hypot(ss / gd, gs * sd / gd**2)
    return agrees("V", v_meas, (g_delayed - g_synced) / g_delayed, sigma)


def emitted_agrees(emitted: int, mean: float, var: float) -> list[str]:
    return agrees("photons emitted", emitted, mean, math.sqrt(var), EMITTED_K)


def ptg1_size(path, tags_written: int) -> list[str]:
    size = Path(path).stat().st_size
    if size != PTG1_HEADER + PTG1_RECORD * tags_written:
        return ["PTG1 file is %d bytes, expected 22 + 16 * %d" % (size, tags_written)]
    return []
