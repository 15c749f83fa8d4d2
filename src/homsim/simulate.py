"""Monte Carlo engine: pulsed emission, splitter routing with pairwise
two-photon interference, losses, timing jitter, dark counts, dead time.

run_simulation is the one simulation core. It works on whole columns, one
chunk of pulses at a time: per source, a primary photon and an optional
extra slow-branch photon per pulse, gated by the blinking telegraph. A
pulse in which exactly one photon of each source survives to the coupler
interferes through interfere.coherence_kernel; every other photon routes
classically. The chunks' tags are merged with the dark counts, sorted and
pruned for dead time.

Randomness comes from counter-based generators with a fixed number of
words consumed per pulse, so any pulse range can be generated
independently: results are identical for every chunking and worker count.
Streams are keyed (seed, stream_id) with stream 1/2 = emission of source
1/2, 3 = circuit decisions, 4/5 = dark counts of channel 0/1.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .interfere import InterferenceKernelParams, coherence_kernel, kernel_params
from .model import (
    CircuitSpec,
    ConfigurationError,
    DetectorSpec,
    EmitterSpec,
    PulseTrainSpec,
    ValidationError,
    detuning_to_angular,
)

_EMIT_WORDS = 8  # per pulse: emit, component, decay, double, double-decay,
#                  freq offset, blink, double freq offset
_CIRCUIT_WORDS = 20  # per pulse: 4 photon slots x (survival, route, output
#                      loss, jitter) + pair draw + assignment draw + 2 spare
_STREAM_CIRCUIT = 3
_STREAM_DARK0 = 4
_STREAM_DARK1 = 5
_CHUNK_PULSES = 1 << 16


@dataclass(frozen=True)
class TimeTagStream:
    """Detector output: channel/time records sorted by time.

    times_ps are integer picoseconds (resolution 1 ps); channels are 0/1.
    seed and config_digest carry provenance when produced by a simulation.
    """

    times_ps: np.ndarray
    channels: np.ndarray
    resolution_ps: int = 1
    seed: int | None = None
    config_digest: str | None = None

    def __post_init__(self) -> None:
        if self.times_ps.size != self.channels.size:
            raise ValidationError("times and channels must have equal length")
        if self.times_ps.size:
            if np.any(np.diff(self.times_ps) < 0):
                raise ValidationError("time tags must be sorted ascending")
            if np.any((self.channels != 0) & (self.channels != 1)):
                raise ValidationError("channels must be 0 or 1")

    @property
    def n_records(self) -> int:
        return int(self.times_ps.size)

    @property
    def span_ps(self) -> int:
        return int(self.times_ps[-1] - self.times_ps[0]) if self.n_records else 0


@dataclass(frozen=True)
class SimulationCounters:
    """Exact bookkeeping of every generated and recorded event."""

    photons_emitted: int
    photons_detected: int
    dark_counts: int
    dead_time_pruned: int
    pairs_interfered: int
    tags_written: int

    def as_dict(self) -> dict:
        return {
            "photons_emitted": self.photons_emitted,
            "photons_detected": self.photons_detected,
            "dark_counts": self.dark_counts,
            "dead_time_pruned": self.dead_time_pruned,
            "pairs_interfered": self.pairs_interfered,
            "tags_written": self.tags_written,
        }


def _worker_count() -> int:
    env = os.environ.get("HOMSIM_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ConfigurationError("HOMSIM_THREADS must be an integer") from exc
        if n < 1:
            raise ConfigurationError("HOMSIM_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def _philox(seed: int, stream_id: int) -> Philox:
    # an explicit uint64 key: numpy turns a list holding an int >= 2^63
    # into float64, which merges neighbouring seeds
    return Philox(key=np.array([seed, stream_id], dtype=np.uint64))


def _stream_words(seed: int, stream_id: int, p0: int, n: int, width: int) -> np.ndarray:
    """Uniform words for pulses [p0, p0+n), shape (n, width).

    width must be a multiple of 4 so pulse boundaries align with the
    4-word counter blocks of the generator.
    """
    bitgen = _philox(seed, stream_id)
    if p0:
        bitgen.advance(p0 * width // 4)
    return Generator(bitgen).random((n, width))


def _gauss_from_uniform(u: np.ndarray) -> np.ndarray:
    from scipy.special import ndtri

    return ndtri(np.maximum(u, 2.0**-55))


def _blink_gate(emitter: EmitterSpec, train: PulseTrainSpec, seed: int, stream_id: int):
    """Per-pulse on/off gate of the two-state telegraph, or None if static.

    Pulse 0 is on when u < pi_on; pulse i > 0 is on when u < p_on_on after
    an on pulse and when u < p_off_on after an off one. Since
    p_on_on - p_off_on = decay >= 0 (and p_off_on <= pi_on <= p_on_on also
    holds in floating point), u splits into three bands: u < p_off_on is on
    whatever came before, u >= p_on_on is off whatever came before, and a
    u in between repeats the previous pulse's state. So every pulse takes
    the state of the last pulse at or before it whose u is in an outer
    band, and pulse 0 is always decided. The words are drawn one chunk at
    a time, and a chunk's first pulse takes the carried state when its u
    is in the middle band.
    """
    k_on = emitter.blink_on_rate_per_s
    k_off = emitter.blink_off_rate_per_s
    if k_on == 0.0 and k_off == 0.0:
        return None
    k_tot = k_on + k_off
    pi_on = k_on / k_tot
    decay = np.exp(-k_tot * train.period_ps * 1e-12)
    p_on_on = pi_on + (1.0 - pi_on) * decay
    p_off_on = pi_on * (1.0 - decay)
    n = train.n_pulses
    gate = np.empty(n, dtype=bool)
    for p0 in range(0, n, _CHUNK_PULSES):
        p1 = min(p0 + _CHUNK_PULSES, n)
        u = _stream_words(seed, stream_id, p0, p1 - p0, _EMIT_WORDS)[:, 6]
        on = u < p_off_on
        decided = on | (u >= p_on_on)
        if p0 == 0:
            on[0] = u[0] < pi_on
        elif not decided[0]:
            on[0] = gate[p0 - 1]
        decided[0] = True
        last = np.where(decided, np.arange(p1 - p0), 0)
        np.maximum.accumulate(last, out=last)
        gate[p0:p1] = on[last]
    return gate


def _emission_columns(
    emitter: EmitterSpec,
    train: PulseTrainSpec,
    source_id: int,
    seed: int,
    p0: int,
    p1: int,
    gate=None,
):
    """Column arrays for pulses [p0, p1): primary and extra photon slots."""
    n = p1 - p0
    u = _stream_words(seed, source_id, p0, n, _EMIT_WORDS)
    delay = train.source_delay_ps if source_id == 2 else 0.0
    start = (np.arange(p0, p1, dtype=np.float64)) * train.period_ps + delay
    has_a = u[:, 0] < emitter.emission_prob
    if gate is not None:
        has_a &= gate[p0:p1]
    slow = u[:, 1] < emitter.slow_fraction
    tau = np.where(slow, emitter.t1_slow_ps, emitter.t1_fast_ps)
    t_a = start - np.log1p(-u[:, 2]) * tau
    has_b = has_a & (u[:, 3] < emitter.double_prob)
    t_b = start - np.log1p(-u[:, 4]) * emitter.t1_slow_ps
    sd = emitter.spectral_diffusion_sigma_uev
    if sd > 0.0:
        f_a = sd * _gauss_from_uniform(u[:, 5])
        f_b = sd * _gauss_from_uniform(u[:, 7])
    else:
        f_a = np.zeros(n)
        f_b = np.zeros(n)
    return {
        "has_a": has_a,
        "t_a": t_a,
        "slow_a": slow,
        "f_a": f_a,
        "has_b": has_b,
        "t_b": t_b,
        "f_b": f_b,
    }


def _order_slots(col):
    """Reorder each pulse's two slots so slot a holds the earlier photon."""
    both = col["has_a"] & col["has_b"]
    swap = both & (col["t_b"] < col["t_a"])
    only_b = col["has_b"] & ~col["has_a"]
    move = swap | only_b
    t_a = np.where(move, col["t_b"], col["t_a"])
    t_b = np.where(swap, col["t_a"], col["t_b"])
    f_a = np.where(move, col["f_b"], col["f_a"])
    f_b = np.where(swap, col["f_a"], col["f_b"])
    has_a = col["has_a"] | col["has_b"]
    has_b = both
    return has_a, t_a, f_a, has_b, t_b, f_b


def _route_chunk(
    p0: int,
    col1,
    col2,
    circuit: CircuitSpec,
    det: DetectorSpec,
    kparams: InterferenceKernelParams,
    seed: int,
):
    """Route one pulse chunk through the splitter; returns tags + counters."""
    n = col1["has_a"].size
    u = _stream_words(seed, _STREAM_CIRCUIT, p0, n, _CIRCUIT_WORDS)
    h1a, t1a, f1a, h1b, t1b, f1b = _order_slots(col1)
    h2a, t2a, f2a, h2b, t2b, f2b = _order_slots(col2)
    tin = circuit.arm_transmission
    eff = det.efficiency
    sv = [
        h1a & (u[:, 0] < tin[0] * eff),
        h1b & (u[:, 4] < tin[0] * eff),
        h2a & (u[:, 8] < tin[1] * eff),
        h2b & (u[:, 12] < tin[1] * eff),
    ]
    emitted = int(h1a.sum() + h1b.sum() + h2a.sum() + h2b.sum())
    n1 = sv[0].astype(np.int8) + sv[1]
    n2 = sv[2].astype(np.int8) + sv[3]
    paired = (n1 == 1) & (n2 == 1)
    r = circuit.reflectance
    t = circuit.transmittance

    # Channels for the four slots; -1 = not detected/absent.
    chan = [np.full(n, -1, dtype=np.int8) for _ in range(4)]
    times = [t1a, t1b, t2a, t2b]
    # Classical routing for every surviving photon not in an interfering pair.
    for s in range(4):
        free = sv[s] & ~paired
        bar = u[:, 4 * s + 1] < r
        if s < 2:
            chan[s][free] = np.where(bar[free], 0, 1)
        else:
            chan[s][free] = np.where(bar[free], 1, 0)

    pairs_interfered = int(paired.sum())
    if pairs_interfered:
        idx = np.flatnonzero(paired)
        s1_slot = np.where(sv[0][idx], 0, 1)
        s2_slot = np.where(sv[2][idx], 2, 3)
        ta = np.where(s1_slot == 0, t1a[idx], t1b[idx])
        fa = np.where(s1_slot == 0, f1a[idx], f1b[idx])
        tb = np.where(s2_slot == 2, t2a[idx], t2b[idx])
        fb = np.where(s2_slot == 2, f2a[idx], f2b[idx])
        d = coherence_kernel(ta - tb, kparams, fa - fb)
        p_cross = r * r + t * t - 2.0 * r * t * d
        u_pair = u[idx, 16]
        u_assign = u[idx, 17]
        cross = u_pair < p_cross
        both_bar = u_assign < (r * r) / (r * r + t * t)
        ch_a = np.where(cross, np.where(both_bar, 0, 1), np.where(u_assign < 0.5, 0, 1))
        ch_b = np.where(cross, 1 - ch_a, ch_a)
        rows = idx
        for s in (0, 1):
            sel = s1_slot == s
            chan[s][rows[sel]] = ch_a[sel].astype(np.int8)
        for s in (2, 3):
            sel = s2_slot == s
            chan[s][rows[sel]] = ch_b[sel].astype(np.int8)

    out_times = []
    out_chans = []
    tout = (tin[2], tin[3])
    sigma = det.irf_sigma_ps
    for s in range(4):
        present = chan[s] >= 0
        ch = chan[s][present]
        keep = u[present, 4 * s + 2] < np.where(ch == 0, tout[0], tout[1])
        ch = ch[keep]
        tt = times[s][present][keep]
        if sigma > 0.0:
            tt = tt + sigma * _gauss_from_uniform(u[present, 4 * s + 3][keep])
        out_times.append(tt)
        out_chans.append(ch)
    tt = np.concatenate(out_times)
    cc = np.concatenate(out_chans).astype(np.uint8)
    ti = np.rint(tt).astype(np.int64)
    ok = ti >= 0
    return ti[ok], cc[ok], emitted, int(ok.sum()), pairs_interfered


def _dark_counts(det: DetectorSpec, span_ps: float, seed: int):
    times = []
    chans = []
    for ch, stream in ((0, _STREAM_DARK0), (1, _STREAM_DARK1)):
        rng = Generator(_philox(seed, stream))
        mu = det.dark_rate_cps * span_ps * 1e-12
        try:
            n = int(rng.poisson(mu)) if mu > 0 else 0
        except ValueError as exc:
            raise ValidationError(
                "dark_rate_cps %g over the %g ps span gives %g expected dark "
                "counts per channel, too many to draw" % (det.dark_rate_cps, span_ps, mu)
            ) from exc
        if n:
            t = np.rint(rng.uniform(0.0, span_ps, n)).astype(np.int64)
            times.append(t)
            chans.append(np.full(n, ch, dtype=np.uint8))
    if not times:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
    return np.concatenate(times), np.concatenate(chans)


def _prune_dead_time(times: np.ndarray, channels: np.ndarray, dead_ps: float):
    """Mask of the tags a non-paralysable detector records.

    Per channel, a tag is kept when it comes at least dead_ps after the
    last kept tag of that channel; pruned tags do not extend the dead
    time. times are sorted integer picoseconds, so t_j - t_i >= dead_ps
    exactly when t_j - t_i >= ceil(dead_ps). With nxt[i] the first tag at
    or after t_i + ceil(dead_ps), the tag kept after a kept tag i is nxt[i],
    because every tag before it falls inside i's dead time and every tag
    from it on is clear of it. The first tag is always kept, so the kept
    tags are exactly the chain 0 -> nxt[0] -> nxt[nxt[0]] -> ..., which
    pointer doubling marks in about log2(kept) whole-array gathers.
    """
    keep = np.ones(times.size, dtype=bool)
    if dead_ps <= 0 or times.size == 0:
        return keep
    dead = math.ceil(dead_ps)
    for ch in (0, 1):
        idx = np.flatnonzero(channels == ch)
        if idx.size:
            keep[idx] = _dead_time_chain(times[idx], dead)
    return keep


def _dead_time_chain(t: np.ndarray, dead: int) -> np.ndarray:
    """Kept mask of one channel's sorted tags under dead time dead >= 1."""
    m = t.size
    on = np.zeros(m + 1, dtype=bool)
    on[0] = True
    if dead > t[-1] - t[0]:  # only the first tag; also keeps t + dead in int64
        return on[:m]
    # jump[i] = nxt[i], with a sentinel m that points at itself.
    jump = np.append(np.searchsorted(t, t + dead, side="left"), m)
    # After k rounds the first 2**k links of the chain are marked and jump
    # is nxt applied 2**k times; once that takes tag 0 to the sentinel the
    # whole chain is marked.
    while jump[0] != m:
        on[jump[on]] = True
        jump = jump[jump]
    return on[:m]


def _require_representable(
    e1: EmitterSpec, e2: EmitterSpec, det: DetectorSpec, train: PulseTrainSpec
) -> None:
    """Reject specs whose draws overflow the tag clock or the pair kernel.

    A decay draw is below -ln(2^-53) < 37 lifetimes and a Gaussian draw
    below 9 sigma. The latest tag must stay under 2^62 ps, so that tags
    and tag + dead time fit the int64 picosecond clock. For a pair,
    |tau| < delay + 37 lifetimes, and the kernel's phase delta*tau and
    exponent (gs1 + gs2)*|tau| must be finite. The blink gate needs the
    total switching rate k_on + k_off to be finite.
    """
    for i, e in enumerate((e1, e2), start=1):
        if not math.isfinite(e.blink_on_rate_per_s + e.blink_off_rate_per_s):
            raise ValidationError(
                "emitter%d: blink_on_rate_per_s %g + blink_off_rate_per_s %g "
                "overflows" % (i, e.blink_on_rate_per_s, e.blink_off_rate_per_s)
            )
    slowest = max(max(e.t1_fast_ps, e.t1_slow_ps) for e in (e1, e2))
    t_max = train.span_ps + train.source_delay_ps + 37.0 * slowest + 9.0 * det.irf_sigma_ps
    if not t_max < 2.0**62:
        raise ValidationError(
            "tag times up to %g ps do not fit the int64 picosecond tag clock; "
            "shorten the pulse train, the lifetimes or the IRF" % t_max
        )
    sd = e1.spectral_diffusion_sigma_uev + e2.spectral_diffusion_sigma_uev
    detuning = abs(e1.energy_uev - e2.energy_uev) + 9.0 * sd
    dephasing = e1.pure_dephasing_rate + e2.pure_dephasing_rate
    tau_max = train.source_delay_ps + 37.0 * slowest
    if not math.isfinite((detuning_to_angular(detuning) + dephasing) * tau_max):
        raise ValidationError(
            "the two-photon kernel overflows: detuning up to %g ueV and pure "
            "dephasing %g per ps over pair delays up to %g ps"
            % (detuning, dephasing, tau_max)
        )


def run_simulation(
    emitter1: EmitterSpec,
    emitter2: EmitterSpec,
    circuit: CircuitSpec,
    det: DetectorSpec,
    train: PulseTrainSpec,
    seed: int,
) -> tuple[TimeTagStream, SimulationCounters]:
    """Full two-source experiment: emission, interference, detection.

    Deterministic for fixed (specs, seed): chunk boundaries and worker
    count never change the output stream.
    """
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must fit in 64 bits")
    _require_representable(emitter1, emitter2, det, train)
    kparams = kernel_params(emitter1, emitter2, circuit)
    gate1 = _blink_gate(emitter1, train, seed, 1)
    gate2 = _blink_gate(emitter2, train, seed, 2)

    def work(p0: int):
        p1 = min(p0 + _CHUNK_PULSES, train.n_pulses)
        col1 = _emission_columns(emitter1, train, 1, seed, p0, p1, gate1)
        col2 = _emission_columns(emitter2, train, 2, seed, p0, p1, gate2)
        return _route_chunk(p0, col1, col2, circuit, det, kparams, seed)

    starts = list(range(0, train.n_pulses, _CHUNK_PULSES))
    workers = min(_worker_count(), max(len(starts), 1))
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, starts))
    else:
        results = [work(p0) for p0 in starts]
    dark_t, dark_c = _dark_counts(det, train.span_ps, seed)
    times = np.concatenate([res[0] for res in results] + [dark_t])
    chans = np.concatenate([res[1] for res in results] + [dark_c])
    order = np.lexsort((chans, times))
    times = times[order]
    chans = chans[order]
    keep = _prune_dead_time(times, chans, det.dead_time_ps)
    stream = TimeTagStream(times_ps=times[keep], channels=chans[keep], seed=seed)
    return stream, SimulationCounters(
        photons_emitted=sum(res[2] for res in results),
        photons_detected=sum(res[3] for res in results),
        dark_counts=int(dark_t.size),
        dead_time_pruned=int(keep.size - keep.sum()),
        pairs_interfered=sum(res[4] for res in results),
        tags_written=stream.n_records,
    )


def delayed_reference(train: PulseTrainSpec, delay_ps: float = 500.0) -> PulseTrainSpec:
    """The same pulse train with the intentional inter-source delay set."""
    return replace(train, source_delay_ps=delay_ps)
