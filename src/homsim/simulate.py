"""Monte Carlo engine: pulsed emission, splitter routing with pairwise
two-photon interference, losses, timing jitter, dark counts, dead time.

run_simulation is the one simulation core. It works on whole columns, one
chunk of pulses at a time, with four photon slots per pulse: rows 0/1 of
each (4, n) array are source 1's primary and extra slow-branch photon, rows
2/3 source 2's, each source's two ordered by emission time. The primary is
gated by the blinking telegraph; the extra photon exists only with it. A
pulse in which exactly one photon of each source survives to the coupler
interferes through interfere.coherence_kernel; every other photon routes
classically. The chunks' tags are merged with the dark counts, sorted and
pruned for dead time.

Randomness comes from counter-based generators with a fixed number of
uniform words per pulse, so any pulse range can be generated independently:
results are identical for every chunking and worker count. Streams are
keyed (seed, stream_id):

    1, 2  emission of source 1, 2; 8 words per pulse: 0 emit, 1 slow
          branch, 2 primary decay, 3 double emission, 4 extra-photon decay,
          5 primary frequency offset, 6 blink, 7 extra frequency offset
    3     circuit; 20 words per pulse: 4s survival to the coupler, 4s+1
          classical route, 4s+2 output loss, 4s+3 jitter for slot s = 0..3,
          then 16 pair outcome, 17 pair assignment, 18-19 spare
    4, 5  dark counts of channel 0, 1
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .interfere import coherence_kernel, kernel_params
from .model import (
    CircuitSpec,
    ConfigurationError,
    DetectorSpec,
    EmitterSpec,
    PulseTrainSpec,
    ValidationError,
    detuning_to_angular,
)

_EMIT_WORDS = 8
_CIRCUIT_WORDS = 20
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
        return asdict(self)


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


def _map_chunks(fn, items) -> list:
    """[fn(item) for item in items], on a pool of up to _worker_count() threads."""
    with ThreadPoolExecutor(max_workers=max(1, min(_worker_count(), len(items)))) as pool:
        return list(pool.map(fn, items))


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
    """One source's photon slots for pulses [p0, p1): (has, t, f, slow).

    has, t and f have shape (2, n): row 0 is the primary photon, row 1 the
    extra slow-branch photon, which a pulse only has when it has a primary.
    slow flags the primary photons that took the slow branch.
    """
    n = p1 - p0
    u = _stream_words(seed, source_id, p0, n, _EMIT_WORDS).T
    delay = train.source_delay_ps if source_id == 2 else 0.0
    start = (np.arange(p0, p1, dtype=np.float64)) * train.period_ps + delay
    has = np.empty((2, n), dtype=bool)
    has[0] = u[0] < emitter.emission_prob
    if gate is not None:
        has[0] &= gate[p0:p1]
    has[1] = has[0] & (u[3] < emitter.double_prob)
    slow = u[1] < emitter.slow_fraction
    t = np.empty((2, n))
    t[0] = start - np.log1p(-u[2]) * np.where(slow, emitter.t1_slow_ps, emitter.t1_fast_ps)
    t[1] = start - np.log1p(-u[4]) * emitter.t1_slow_ps
    f = np.zeros((2, n))
    sd = emitter.spectral_diffusion_sigma_uev
    if sd > 0.0:
        f[0] = sd * _gauss_from_uniform(u[5])
        f[1] = sd * _gauss_from_uniform(u[7])
    return has, t, f, slow


def _order_slots(has, times, freqs):
    """Swap, in place, each source's two photons where the extra one is earlier.

    has, times and freqs are (4, n) photon slots; afterwards slot 0 (2) holds
    source 1's (2's) earlier photon.
    """
    src, col = np.nonzero(has[1::2] & (times[1::2] < times[::2]))
    first, second = 2 * src, 2 * src + 1
    times[first, col], times[second, col] = times[second, col], times[first, col]
    freqs[first, col], freqs[second, col] = freqs[second, col], freqs[first, col]


def _route_chunk(p0: int, src1, src2, circuit: CircuitSpec, det: DetectorSpec, kparams, seed: int):
    """Route one pulse chunk through the splitter; returns tags + counters.

    src1 and src2 are the sources' _emission_columns; they stack into the
    four photon slots, 0/1 from source 1 and 2/3 from source 2. kparams are
    the pair kernel's interfere.InterferenceKernelParams.
    """
    has, times, freqs = (np.concatenate((a, b)) for a, b in zip(src1[:3], src2[:3]))
    _order_slots(has, times, freqs)
    n = has.shape[1]
    w = _stream_words(seed, _STREAM_CIRCUIT, p0, n, _CIRCUIT_WORDS).reshape(n, 5, 4)
    tin = circuit.arm_transmission
    p_in = np.array([tin[0], tin[0], tin[1], tin[1]])[:, None] * det.efficiency
    sv = has & (w[:, :4, 0].T < p_in)
    # exactly one surviving photon from each source interferes
    paired = (sv[0] ^ sv[1]) & (sv[2] ^ sv[3])
    r = circuit.reflectance
    t = circuit.transmittance

    # Output channel per slot; -1 = lost or absent. Every surviving photon
    # not in an interfering pair routes classically: a bar (reflected)
    # photon leaves on its own side, source 1 on channel 0, source 2 on 1.
    chan = np.full((4, n), -1, dtype=np.int8)
    rows, cols = np.nonzero(sv & ~paired)
    chan[rows, cols] = (w[cols, rows, 1] < r) != (rows < 2)

    idx = np.flatnonzero(paired)
    if idx.size:
        # the slot of each source's surviving photon
        sa = sv[1, idx].astype(np.intp)
        sb = sv[3, idx] + 2
        d = coherence_kernel(
            times[sa, idx] - times[sb, idx], kparams, freqs[sa, idx] - freqs[sb, idx]
        )
        p_cross = r * r + t * t - 2.0 * r * t * d
        u_assign = w[idx, 4, 1]
        cross = w[idx, 4, 0] < p_cross
        both_bar = u_assign < (r * r) / (r * r + t * t)
        ch_a = np.where(cross, np.where(both_bar, 0, 1), np.where(u_assign < 0.5, 0, 1))
        chan[sa, idx] = ch_a
        chan[sb, idx] = np.where(cross, 1 - ch_a, ch_a)

    rows, cols = np.nonzero(chan >= 0)
    ch = chan[rows, cols]
    keep = w[cols, rows, 2] < np.where(ch == 0, tin[2], tin[3])
    rows, cols, ch = rows[keep], cols[keep], ch[keep]
    tt = times[rows, cols]
    sigma = det.irf_sigma_ps
    if sigma > 0.0:
        tt = tt + sigma * _gauss_from_uniform(w[cols, rows, 3])
    ti = np.rint(tt).astype(np.int64)
    ok = ti >= 0
    return ti[ok], ch[ok].astype(np.uint8), int(has.sum()), int(ok.sum()), int(idx.size)


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

    results = _map_chunks(work, range(0, train.n_pulses, _CHUNK_PULSES))
    dark_t, dark_c = _dark_counts(det, train.span_ps, seed)
    times = np.concatenate([res[0] for res in results] + [dark_t])
    chans = np.concatenate([res[1] for res in results] + [dark_c])
    order = np.lexsort((chans, times))
    times, chans = times[order], chans[order]
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
