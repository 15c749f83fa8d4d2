"""Time-tag cross-correlation, pulsed peak-area analysis, and visibility.

Builds the two-detector correlation histogram from sorted tag streams,
fits the flat dark-count floor under the peak tails in the inter-peak
dead zones, integrates the pulsed peak comb, and turns central-to-side
peak ratios into the two-photon interference visibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formats import TimeTagStream
from .model import (
    ConfigurationError,
    EstimationError,
    ValidationError,
    _comb_ks,
    _dead_zone_edge,
    _grid_bins,
    _map_chunks,
)


@dataclass(frozen=True)
class CorrelationHistogram:
    """Histogram of arrival-time differences t(ch b) - t(ch a).

    Bins are half-open [lo, hi), bin i covering
    [-window + i*bin_width, -window + (i+1)*bin_width); the bin count is
    2*window/bin_width and the grid is centered on zero delay.
    """

    bin_width_ps: float
    window_ps: float
    counts: np.ndarray

    def __post_init__(self) -> None:
        n = _grid_bins(self.bin_width_ps, self.window_ps)
        if self.counts.size != n:
            raise ConfigurationError(
                "histogram has %d bins, not the %d of window %g ps over bin %g ps"
                % (self.counts.size, n, self.window_ps, self.bin_width_ps)
            )
        if np.any(self.counts < 0):
            raise ValidationError("histogram counts must be >= 0")

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    @property
    def total_pairs(self) -> int:
        return int(self.counts.sum())

    @property
    def bin_edges_ps(self) -> np.ndarray:
        return -self.window_ps + self.bin_width_ps * np.arange(self.n_bins + 1)

    @property
    def bin_centers_ps(self) -> np.ndarray:
        return -self.window_ps + self.bin_width_ps * (np.arange(self.n_bins) + 0.5)


_SLICE_TAGS = 1 << 15  # tags per slice of a sweep over the stream


def _sweep(n_tags, count_slice, out):
    """Adds count_slice(start, stop), the counts of tags [start, stop), over
    the slices of _SLICE_TAGS tags of [0, n_tags) into out, in place, and
    returns out. Integer counts sum exactly, so out is the same for any
    worker count."""
    slices = range(0, n_tags, _SLICE_TAGS)
    for partial in _map_chunks(lambda i: count_slice(i, min(i + _SLICE_TAGS, n_tags)), slices):
        np.add(out, partial, out=out)
    return out


def _zero_counts(n_bins):
    try:
        return np.zeros(n_bins, dtype=np.int64)
    except (MemoryError, ValueError) as exc:  # numpy's two ways to refuse a size
        raise ConfigurationError("%g bins do not fit in memory (%s)" % (n_bins, exc)) from exc


def _histogram_slice(stream, start, stop, below, above, hist):
    """Counts on hist's grid of the pairs whose channel-0 tag is one of tags
    [start, stop). For integer tags, t1 >= t0 - window exactly when
    t1 >= t0 - below, and t1 < t0 + window exactly when t1 < t0 + above."""
    times, channels, near = stream.times_ps, stream.channels, stream.times_ps[start:stop]
    # np.compress, as boolean indexing is several times slower on a mixed mask
    t0 = np.compress(channels[start:stop] == 0, near)
    a, b = np.searchsorted(times, (near[0] - below, near[-1] + above))
    t1 = np.compress(channels[a:b] == 1, times[a:b])
    lo = np.searchsorted(t1, t0 - below)
    counts_per = np.searchsorted(t1, t0 + above) - lo
    flat = np.arange(counts_per.sum())
    flat -= np.repeat(np.cumsum(counts_per) - counts_per - lo, counts_per)
    # exact, as |tau| <= window; >= 0, as tau >= -floor(window), so the cast floors
    tau = np.add(t1[flat] - np.repeat(t0, counts_per), hist.window_ps)
    tau /= hist.bin_width_ps
    return np.bincount(tau.astype(np.int64), minlength=hist.n_bins)


def cross_correlate(
    stream: TimeTagStream, bin_width_ps: float, window_ps: float
) -> CorrelationHistogram:
    """Histogram all channel-0/channel-1 tag pairs with |t1 - t0| <= window.

    Pair delays tau = t(ch1) - t(ch0) in [-window, window) are binned on the
    half-open grid. Equivalent to brute-force pair enumeration; implemented
    as a sweep over slices of the merged stream, searching each slice's
    channel-0 tags in the short run of channel-1 tags in reach of it, with
    exact integer delays at any tag time.
    """
    n_bins = _grid_bins(bin_width_ps, window_ps)
    hist = CorrelationHistogram(float(bin_width_ps), float(window_ps), _zero_counts(n_bins))
    # the stream guarantees sorted times in [0, TAG_CLOCK_PS) and channels 0/1
    n, ones = stream.n_records, np.count_nonzero(stream.channels)
    if 0 < ones < n and n >= 3 and window_ps > stream.span_ps:
        raise ValidationError(
            "correlation window %g ps exceeds the data span %g ps" % (window_ps, stream.span_ps)
        )
    # no pair is more than the span apart, which keeps the bounds in int64
    below, above = (min(r(window_ps), stream.span_ps + 1) for r in (math.floor, math.ceil))
    _sweep(n, lambda i, j: _histogram_slice(stream, i, j, below, above, hist), hist.counts)
    return hist


def _check_period(period_ps) -> None:
    if not 0 < period_ps < np.inf:
        raise ValidationError("period_ps must be positive and finite")


def estimate_background(
    hist: CorrelationHistogram, period_ps: float, delta_t_ps: float = 3000.0
) -> float:
    """The flat floor under the peak comb, in counts/bin.

    The floor holds the dark counts and any other pairs with no structure
    on the scale of a dead zone.

    Dead-zone bins are those farther than delta_t/2 plus one bin width from
    every peak center c_k = k*period. They still hold the exponential tails
    of the neighbouring peaks, so the dead zone between c_k and c_(k+1) is
    fitted as

        floor + a_k exp(-(tau - c_k)/T_R) + b_k exp(-(c_(k+1) - tau)/T_L)

    with one floor and one pair of decay times for the whole comb and free
    tail amplitudes per dead zone. The decay times are bounded to
    [bin width, half the dead-zone length]: slower tails cannot be told
    apart from a floor and stay in it. Returns the floor, clipped at zero;
    dead zones too short to tell the floor from the tails raise an
    EstimationError.

    The floor and the amplitudes are solved linearly for any decay times, so
    only (log T_R, log T_L) is searched: from the best of 8 equal pairs
    spaced over the box, by fitting._trf_least_squares, the solver of every
    fit, to its tolerances of 1e-8.
    """
    _check_period(period_ps)
    edge = _dead_zone_edge(period_ps, hist.window_ps, hist.bin_width_ps, delta_t_ps)
    centers = hist.bin_centers_ps
    k_max = int(np.ceil(hist.window_ps / period_ps)) + 1
    peak_pos = period_ps * np.arange(-k_max, k_max + 1)
    # each bin lies between peak_pos[right - 1] and peak_pos[right]
    right = np.searchsorted(peak_pos, centers)
    past = centers - peak_pos[right - 1]
    before = peak_pos[right] - centers
    dead = np.minimum(past, before) > edge
    y = hist.counts[dead].astype(float)
    # tails are measured from the dead-zone edges, where they are largest
    past = past[dead] - edge
    before = before[dead] - edge
    # right is sorted, so each zone is one run of the dead bins from starts
    _, starts, zone = np.unique(right[dead], return_index=True, return_inverse=True)
    zone_bins, zone_y = np.diff(starts, append=y.size), np.add.reduceat(y, starts)
    w = np.empty((7, y.size))  # the terms of each zone sum, one row each
    u, v, uu, uv, vv, uy, vy = w

    def fit(log_decay):
        """Least-squares floor and model, tail amplitudes solved per zone."""
        np.exp(np.divide(past, -np.exp(log_decay[0]), out=u), out=u)
        np.exp(np.divide(before, -np.exp(log_decay[1]), out=v), out=v)
        for a, b, out in ((u, u, uu), (u, v, uv), (v, v, vv), (u, y, uy), (v, y, vy)):
            np.multiply(a, b, out=out)
        s_u, s_v, s_uu, s_uv, s_vv, s_uy, s_vy = np.add.reduceat(w, starts, axis=1)
        gram_inv = np.linalg.pinv(np.stack([[s_uu, s_uv], [s_uv, s_vv]]).transpose(2, 0, 1))
        tail_1 = np.stack([s_u, s_v], axis=1)
        tail_y = np.stack([s_uy, s_vy], axis=1)
        # floor = <P1, Py> / <P1, P1>, P projecting out each zone's tails
        p11 = zone_bins - np.einsum("zi,zij,zj->z", tail_1, gram_inv, tail_1)
        p1y = zone_y - np.einsum("zi,zij,zj->z", tail_1, gram_inv, tail_y)
        if p11.sum() < 1.0:
            raise EstimationError(
                "dead zones too short to separate the floor from the peak tails"
            )
        floor = p1y.sum() / p11.sum()
        amp = np.einsum("zij,zj->zi", gram_inv, tail_y - floor * tail_1)
        return floor, floor + amp[zone, 0] * u + amp[zone, 1] * v

    lo = np.log(hist.bin_width_ps)
    hi = max(np.log((period_ps - 2.0 * edge) / 2.0), lo + 1.0)
    start = min(
        np.linspace(lo, hi, 8), key=lambda g: float(np.sum((fit((g, g))[1] - y) ** 2))
    )
    from .fitting import _trf_least_squares  # here, so that importing correlate loads no fits

    log_decay = _trf_least_squares(
        lambda p: fit(p)[1] - y, np.full(2, start), np.full(2, lo), np.full(2, hi)
    )[0]
    return max(float(fit(log_decay)[0]), 0.0)


@dataclass(frozen=True)
class PeakAnalysis:
    """Integrated pulsed-peak areas and the central-to-side-peak ratio.

    areas[i] belongs to the comb peak at k_values[i]*period. The
    ratio g2_zero = central area / mean(side areas); its uncertainty
    combines the Poisson error of the central area with the standard
    deviation of the side-peak areas.
    """

    period_ps: float
    delta_t_ps: float
    k_values: np.ndarray
    areas: np.ndarray
    area_errors: np.ndarray
    bins_per_peak: np.ndarray
    floor_per_bin: float
    g2_zero: float
    g2_zero_err: float


def integrate_peaks(
    hist: CorrelationHistogram,
    period_ps: float,
    delta_t_ps: float = 3000.0,
    n_side: int = 6,
    floor: float = 0.0,
    corrected: bool = False,
) -> PeakAnalysis:
    """Integrate the pulse comb: central peak plus n_side side peaks total.

    area_k sums counts in bins whose centers lie within delta_t/2 of
    k*period; when corrected, floor*bins_in_window is subtracted from
    each area. Poisson errors are taken on the raw (uncorrected)
    areas; the ratio error propagates the side-area standard deviation of
    the mean together with the central Poisson error.
    """
    _check_period(period_ps)
    if not math.isfinite(floor):
        raise ValidationError("floor %g counts/bin must be finite" % floor)
    ks = _comb_ks(period_ps, hist.window_ps, delta_t_ps, n_side)
    centers = hist.bin_centers_ps
    peak_pos = period_ps * ks
    raw = np.empty(ks.size, dtype=float)
    nbins = np.empty(ks.size, dtype=np.int64)
    for i, c in enumerate(peak_pos):
        mask = np.abs(centers - c) <= delta_t_ps / 2.0
        raw[i] = float(hist.counts[mask].sum())
        nbins[i] = int(mask.sum())
    errors = np.sqrt(raw)
    areas = raw - floor * nbins if corrected else raw.copy()
    side = areas[ks != 0]
    mean_side = float(np.mean(side))
    if mean_side <= 0:
        raise EstimationError("side-peak areas average to zero; cannot normalize")
    a0 = float(areas[ks == 0][0])
    sigma_a0 = float(errors[ks == 0][0])
    sigma_mean = float(np.std(side, ddof=1) / np.sqrt(side.size))
    g2 = a0 / mean_side
    g2_err = np.hypot(sigma_a0 / mean_side, a0 * sigma_mean / mean_side**2)
    return PeakAnalysis(
        period_ps=float(period_ps),
        delta_t_ps=float(delta_t_ps),
        k_values=ks,
        areas=areas,
        area_errors=errors,
        bins_per_peak=nbins,
        floor_per_bin=float(floor if corrected else 0.0),
        g2_zero=float(g2),
        g2_zero_err=float(g2_err),
    )


def hom_visibility(g_delayed, g_synced, err_delayed: float = 0.0, err_synced: float = 0.0):
    """Interference visibility from the delayed and synchronized peak ratios.

    V = (g_d - g_s)/g_d, with the error propagated from both inputs.
    Accepts floats or PeakAnalysis objects (whose own errors are then used).
    Returns (V, V_err).
    """
    if hasattr(g_delayed, "g2_zero"):
        err_delayed = g_delayed.g2_zero_err
        g_delayed = g_delayed.g2_zero
    if hasattr(g_synced, "g2_zero"):
        err_synced = g_synced.g2_zero_err
        g_synced = g_synced.g2_zero
    if not all(map(math.isfinite, (g_delayed, g_synced, err_delayed, err_synced))):
        raise ValidationError("ratios and their errors must be finite")
    if g_delayed <= 0:
        raise ValidationError("delayed-reference ratio must be > 0")
    if g_synced < 0:
        raise ValidationError("synchronized ratio must be >= 0")
    v = (g_delayed - g_synced) / g_delayed
    v_err = np.hypot(g_synced * err_delayed / g_delayed**2, err_synced / g_delayed)
    return float(v), float(v_err)


@dataclass(frozen=True)
class Timetrace:
    """Histogram of tag times folded by the pulse period."""

    bin_width_ps: float
    period_ps: float
    counts: np.ndarray
    channel: int | None = None

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    @property
    def bin_centers_ps(self) -> np.ndarray:
        return self.bin_width_ps * (np.arange(self.n_bins) + 0.5)


def timetrace(
    stream: TimeTagStream, train, bin_width_ps: float = 20.0, channel: int | None = None
) -> Timetrace:
    """Fold tag times modulo the pulse period into bins of >= 1 ps (tags are integer ps)."""
    if not 1.0 <= bin_width_ps < np.inf:
        raise ValidationError("bin_width_ps must be finite and >= 1 ps")
    if channel not in (None, 0, 1):
        raise ValidationError("channel must be None, 0 or 1")
    period = train.period_ps
    n_bins = int(np.ceil(period / bin_width_ps))
    # period = whole / den exactly, so whole ps is a whole number of periods, and
    # below 2^53 unless the period is whole. A float fold is exact for tags below
    # 2^53 ps, and for tags past it once reduced modulo whole ps.
    whole = period.as_integer_ratio()[0]

    def fold(start, stop):
        times = stream.times_ps[start:stop]
        if channel is not None:  # np.compress, as in _histogram_slice
            times = np.compress(stream.channels[start:stop] == channel, times)
        if times.size and times[-1] >= max(whole, 2**53):  # so whole fits int64
            times = times % whole
        phase = np.mod(times.astype(np.float64), period)  # >= 0, so the cast floors
        phase /= bin_width_ps
        idx = phase.astype(np.int64)
        return np.bincount(np.minimum(idx, n_bins - 1, out=idx), minlength=n_bins)

    return Timetrace(
        bin_width_ps=float(bin_width_ps),
        period_ps=float(period),
        counts=_sweep(stream.n_records, fold, _zero_counts(n_bins)),
        channel=channel,
    )

