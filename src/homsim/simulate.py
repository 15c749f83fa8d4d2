"""Monte Carlo engine, and nothing else: pulsed emission, splitter routing
with pairwise two-photon interference, losses, timing jitter, dark counts,
dead time. The TimeTagStream it returns lives in formats, its pool in model.

run_simulation is the one simulation core. It works one chunk of pulses at
a time on photon columns, one entry per photon that exists: each source's
primary photons, gated by the blinking telegraph, then its extra slow-branch
photons, which a pulse has only with a primary, each in pulse order.
Slot-major order is source 1's columns, then source 2's; a pulse's two
photons of a source are ordered by emission time. A pulse in which exactly
one photon of each source survives to the coupler interferes through
interfere.coherence_kernel, taken on the two EmitterSpecs at
CircuitSpec.overlap with the pair's spectral-diffusion offsets as extra
detuning; every other photon routes classically.

The rest is a pipeline over the pulse blocks in time order, which builds no
array the size of the run but the returned TimeTagStream. The thread that
feeds the pool draws each block's telegraph words once, in block order, and
carries the state on (_blink_gates). Each worker sorts its block's tag keys
(2 * time + channel). No tag of block b or later is earlier than
(b * _CHUNK_PULSES * period - 9 sigma_IRF), since a photon starts no earlier
than its pulse (source_delay_ps and decay draws are >= 0) and the IRF draw
moves it by less than 8.6 sigma (_gauss); float rounding and rint take less
than an ulp of that start plus 0.5 ps. So once block b - 1 is in, the keys
below that watermark are merged with the dark counts below it and released;
the rest wait. Dead time prunes each released segment, carrying each
channel's last kept tag, and the kept segments are concatenated.

Randomness is keyed per block of _CHUNK_PULSES pulses: each (seed, stream,
block) seeds its own SFC64 generator, whose words are drawn in a fixed order
and only for what exists. A chunk is one block, so the output is the same for
every worker count, and _CHUNK_PULSES is part of the output contract. Per
block, in draw order (each kind of word is drawn for all its items before the
next kind; a Gaussian takes two words, see _gauss):

    1, 2  source 1, 2: an emit word per pulse; a slow-branch word, then a
          decay word, per primary photon; if double_prob > 0, a double-
          emission word per primary and a decay word per extra photon; if
          spectral diffusion > 0, a Gaussian per primary, then per extra,
          whose words become offsets only for the interfering pairs
    3     circuit, photons slot-major and pairs in pulse order: a survival
          word per photon, a route word per classical photon, an outcome,
          then an assignment word per interfering pair, an output-loss word
          per photon reaching a detector, and if irf_sigma_ps > 0 a Gaussian
          per kept photon
    4, 5  dark counts of channel 0, 1 (block 0)
    6, 7  blinking of source 1, 2: one word per pulse
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from itertools import repeat

import numpy as np

from .formats import TAG_CLOCK_PS, TimeTagStream
from .interfere import coherence_kernel
from .model import (
    CircuitSpec,
    DetectorSpec,
    EmitterSpec,
    PulseTrainSpec,
    ValidationError,
    _map_chunks,
    detuning_to_angular,
)

_STREAM_CIRCUIT = 3
_STREAM_DARK = 4  # + channel
_STREAM_BLINK = 5  # + source id
_CHUNK_PULSES = 1 << 16


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


def _block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    # spawn_key pads the seed to four 32-bit words, so every key is its own
    # state; SeedSequence((seed, stream, block)) gives seed s + k*2^32's
    # stream b, block 0 the state of seed s's stream k, block b. numpy >= 2
    # imports np.random on this first use, so commands that draw none skip it
    rnd = np.random
    return rnd.Generator(rnd.SFC64(rnd.SeedSequence(seed, spawn_key=(stream, block))))


def _gauss(u: np.ndarray) -> np.ndarray:
    """Box-Muller normals sqrt(-2 ln(1 - u0)) cos(pi (2 u1 - 1)), made in
    place in u[0] from words u of shape (2, k), each in [0, 1).

    |z| <= sqrt(-2 ln 2^-53) < 8.6, since 1 - u >= 2^-53. The angle is
    taken in [-pi, pi), where numpy's cos is faster; that flips the sign.
    """
    r, c = u
    np.sqrt(np.multiply(np.log1p(np.negative(r, out=r), out=r), -2.0, out=r), out=r)
    np.multiply(np.subtract(np.multiply(c, 2.0, out=c), 1.0, out=c), np.pi, out=c)
    return np.multiply(r, np.cos(c, out=c), out=r)


def _blink_words(
    emitter: EmitterSpec, train: PulseTrainSpec, seed: int, source_id: int, block: int
):
    """A pulse block's telegraph words, as (on, decided) per pulse.

    Pulse 0 is on when u < pi_on; pulse i > 0 is on when u < p_on_on after
    an on pulse and when u < p_off_on after an off one. Since
    p_on_on - p_off_on = decay >= 0 (and p_off_on <= pi_on <= p_on_on also
    holds in floating point), u splits into three bands: u < p_off_on is on
    whatever came before, u >= p_on_on is off whatever came before, and a
    u in between repeats the previous pulse's state. So every pulse takes
    the state of the last decided pulse at or before it: pulse 0, or one
    whose u is in an outer band. on holds the decided pulses' states.
    """
    k_tot = emitter.blink_on_rate_per_s + emitter.blink_off_rate_per_s
    pi_on = emitter.blink_on_rate_per_s / k_tot
    decay = np.exp(-k_tot * train.period_ps * 1e-12)
    p_on_on = pi_on + (1.0 - pi_on) * decay
    p_off_on = pi_on * (1.0 - decay)
    n = min(_CHUNK_PULSES, train.n_pulses - block * _CHUNK_PULSES)
    u = _block_rng(seed, _STREAM_BLINK + source_id, block).random(n)
    on = u < p_off_on
    decided = on | (u >= p_on_on)
    if block == 0:
        on[0] = u[0] < pi_on
        decided[0] = True
    return on, decided


def _blink_gates(emitter: EmitterSpec, train: PulseTrainSpec, seed: int, source_id: int):
    """Yields each pulse block's per-pulse on/off gate in block order, None
    for every block of a static emitter. A block's undecided first pulse
    takes the last decided state before it, carried from block to block."""
    n_blocks = -(-train.n_pulses // _CHUNK_PULSES)
    if emitter.blink_on_rate_per_s == 0.0 and emitter.blink_off_rate_per_s == 0.0:
        yield from repeat(None, n_blocks)
        return
    carry = None
    for block in range(n_blocks):
        on, decided = _blink_words(emitter, train, seed, source_id, block)
        if not decided[0]:
            on[0], decided[0] = carry, True
        at = np.flatnonzero(decided)
        carry = bool(on[at[-1]])
        yield np.repeat(on[at], np.diff(at, append=on.size))


def _emission_columns(
    emitter: EmitterSpec, train: PulseTrainSpec, source_id: int, seed: int, block: int, gate
):
    """One source's photons of pulse block `block`, as columns (pulse, t, w)
    with k and slow.

    The first k photons are the primaries, one per emitting pulse, and the
    rest the extra slow-branch photons, which a pulse only has when it has a
    primary; each group is in pulse order. pulse is a photon's pulse in the
    block, t its emission time and w[:, j] the two words of its spectral-
    diffusion Gaussian (_gauss); w is None without diffusion. slow flags the
    primaries that took the slow branch. gate, the block's on/off gate from
    _blink_gates, masks the emit words; None leaves them ungated.
    """
    p0 = block * _CHUNK_PULSES
    rng = _block_rng(seed, source_id, block)
    emits = rng.random(min(_CHUNK_PULSES, train.n_pulses - p0)) < emitter.emission_prob
    if gate is not None:
        emits &= gate
    pulse = np.flatnonzero(emits)
    k = pulse.size
    slow = rng.random(k) < emitter.slow_fraction

    def decay(start, t1):
        """start - t1 ln(1 - u), built in place in fresh words u."""
        t = rng.random(start.size)
        np.log1p(np.negative(t, out=t), out=t)
        t *= t1
        return np.subtract(start, t, out=t)

    start = (p0 + pulse) * train.period_ps
    start += train.source_delay_ps if source_id == 2 else 0.0
    t = decay(start, np.where(slow, emitter.t1_slow_ps, emitter.t1_fast_ps))
    if emitter.double_prob > 0.0:
        double = rng.random(k) < emitter.double_prob
        pulse = np.concatenate((pulse, pulse[double]))
        t = np.concatenate((t, decay(start[double], emitter.t1_slow_ps)))
    w = None
    if emitter.spectral_diffusion_sigma_uev > 0.0:
        w = np.concatenate([rng.random((2, m)) for m in (k, pulse.size - k)], axis=1)
    return pulse, t, w, k, slow


def _order_slots(pulse, t, w, k):
    """Swap, in place, the two photons of each of one source's double-emitting
    pulses where the extra one is earlier, so that the primary is the earlier."""
    first = np.searchsorted(pulse[:k], pulse[k:])
    swap = np.flatnonzero(t[k:] < t[first])
    a, b = first[swap], k + swap
    for col in (t,) if w is None else (t, w.T):
        col[a], col[b] = col[b], col[a]


def _route_chunk(
    block: int, e1: EmitterSpec, e2: EmitterSpec, photons,
    circuit: CircuitSpec, det: DetectorSpec, seed: int,
):
    """Route one pulse block through the splitter: its sorted tag keys, and its
    photons emitted, detected and paired.

    photons are the _emission_columns of e1 and of e2, reordered in place.
    The block's photons are taken slot-major, source 1's and then source 2's:
    photon j >= n1 is source 2's photon j - n1. A tag's key is 2 * time + channel.
    """
    for pulse, t, w, k, _ in photons:
        _order_slots(pulse, t, w, k)
    (p1, t1, w1, _, _), (p2, t2, w2, _, _) = photons
    n1 = t1.size
    rng = _block_rng(seed, _STREAM_CIRCUIT, block)
    tin = circuit.arm_transmission
    sv = rng.random(n1 + t2.size)  # the survival words, then whether each photon survived
    sv = np.concatenate((sv[:n1] < tin[0] * det.efficiency, sv[n1:] < tin[1] * det.efficiency))
    # exactly one surviving photon from each source interferes
    paired = np.ones(_CHUNK_PULSES, dtype=bool)
    for (pulse, _, _, k, _), s in zip(photons, (sv[:n1], sv[n1:])):
        odd = np.zeros(_CHUNK_PULSES, dtype=bool)  # an odd number of the source's photons survived
        odd[pulse[:k][s[:k]]] = True
        odd[pulse[k:][s[k:]]] ^= True
        paired &= odd
    in_pair = np.concatenate((paired[p1], paired[p2]))
    r, t = circuit.reflectance, circuit.transmittance

    # Output channel per photon; -1 = lost. Every surviving photon not in an
    # interfering pair routes classically: a bar (reflected) photon leaves on
    # its own side, source 1 on channel 0, source 2 on 1.
    chan = np.full(sv.size, -1, dtype=np.int8)
    lone = np.flatnonzero(sv & ~in_pair)
    chan[lone] = (rng.random(lone.size) < r) != (lone < n1)

    # each pair's photons: source 1's survivors, then source 2's, each put in
    # pulse order (a merge of its primaries and its extras)
    sa, sb = np.flatnonzero(sv & in_pair).reshape(2, -1)
    sa, sb = (s[np.argsort(p[s], kind="stable")] for p, s in ((p1, sa), (p2, sb - n1)))
    f1, f2 = (0.0 if w is None else e.spectral_diffusion_sigma_uev * _gauss(w[:, s])
              for e, w, s in ((e1, w1, sa), (e2, w2, sb)))  # only the pairs' offsets are read
    d = coherence_kernel(t1[sa] - t2[sb], e1, e2, circuit.overlap, freq_offset_uev=f1 - f2)
    p_cross = r * r + t * t - 2.0 * r * t * d
    u_cross, u_assign = rng.random((2, sa.size))
    cross = u_cross < p_cross
    # a pair that splits puts source 1's photon on channel 0 when both reflect
    # and on 1 when both transmit, source 2's on the other; a bunched pair
    # shares channel 0 or 1 with even odds
    ch_a = u_assign >= np.array((0.5, r * r / (r * r + t * t)))[cross.view(np.int8)]
    chan[sa] = ch_a
    chan[n1 + sb] = ch_a ^ cross

    out = np.flatnonzero(chan >= 0)
    ch = chan[out]
    keep = rng.random(out.size) < np.array(tin[2:])[ch]  # a table: faster than np.where
    if not keep.all():
        kept = np.flatnonzero(keep)  # one index for both, as in run_simulation
        ch, out = ch[kept], out[kept]
    j = int(np.searchsorted(out, n1))
    tt = np.concatenate((t1[out[:j]], t2[out[j:] - n1]))
    sigma = det.irf_sigma_ps
    if sigma > 0.0:
        z = _gauss(rng.random((2, tt.size)))
        tt += np.multiply(z, sigma, out=z)
    keys = np.rint(tt, out=tt).astype(np.int64)  # the tag times, in integer ps
    keys *= 2
    keys += ch
    if keys.size and keys.min() < 0:  # 2 * time + channel < 0 exactly when time < 0
        keys = keys[keys >= 0]
    keys.sort(kind="stable")
    return keys, (sv.size, keys.size, sa.size)


def _dark_counts(det: DetectorSpec, span_ps: float, seed: int) -> np.ndarray:
    """Tag keys (2 * time + channel) of both channels' dark counts."""
    mu = det.dark_rate_cps * span_ps * 1e-12
    keys = [np.empty(0, dtype=np.int64)]
    for ch in (0, 1):
        rng = _block_rng(seed, _STREAM_DARK + ch, 0)
        try:
            n = int(rng.poisson(mu)) if mu > 0 else 0
        except ValueError as exc:
            raise ValidationError(
                "dark_rate_cps %g over the %g ps span gives %g expected dark "
                "counts per channel, too many to draw" % (det.dark_rate_cps, span_ps, mu)
            ) from exc
        keys.append(2 * np.rint(rng.uniform(0.0, span_ps, n)).astype(np.int64) + ch)
    return np.concatenate(keys)


def _prune_dead_time(times: np.ndarray, channels: np.ndarray, dead_ps: float, last: list):
    """Mask of the tags a non-paralysable detector records.

    Per channel, a tag is kept when it comes at least dead_ps after the
    last kept tag of that channel; pruned tags do not extend the dead
    time. times are sorted integer picoseconds, so t_j - t_i >= dead_ps
    exactly when t_j - t_i >= ceil(dead_ps). With nxt[i] the first tag at
    or after t_i + ceil(dead_ps), the tag kept after a kept tag i is nxt[i],
    because every tag before it falls inside i's dead time and every tag
    from it on is clear of it. So the kept tags are the chain start ->
    nxt[start] -> ..., which _dead_time_chain marks; start is the first tag
    at or after last[ch] + ceil(dead_ps). last[ch] is channel ch's last kept
    tag before these, or None, and is updated in place, so that a sorted
    stream can be pruned segment by segment.
    """
    keep = np.zeros(times.size, bool)
    dead = math.ceil(dead_ps)
    for ch in (0, 1):
        idx = np.flatnonzero(channels == ch)
        t = times[idx]
        if last[ch] is not None:
            # capped past every tag, so that the bound fits int64
            first = np.searchsorted(t, min(last[ch] + dead, TAG_CLOCK_PS))
            idx, t = idx[first:], t[first:]
        if idx.size:
            on = _dead_time_chain(t, dead)
            keep[idx[on]] = True
            last[ch] = int(t[::-1][np.argmax(on[::-1])])  # argmax stops at the first True
    return keep


def _dead_time_chain(t: np.ndarray, dead: int) -> np.ndarray:
    """Kept mask of one channel's sorted tags under dead time dead >= 0.

    A tag at least dead after the one before it heads a cluster and is kept
    whatever came before. Only clusters of two or more tags are chained: among
    their tags, nxt[i] is the first at or after t_i + dead, so each head's chain
    runs through its cluster's kept tags to the next head."""
    if dead > t[-1] - t[0]:  # only the first tag; also keeps t + dead in int64
        return np.arange(t.size) == 0
    on = np.append(True, np.diff(t) >= dead)  # the heads
    cl = np.flatnonzero(~on | np.append(~on[1:], False))  # the cluster tags
    tc, kept = t[cl], np.append(on[cl], False)  # kept starts at the heads
    heads = np.flatnonzero(kept)
    ends = np.append(heads[1:], cl.size)  # where each head's cluster ends
    # jump = nxt, with a sentinel that points at itself. After k rounds, the first 2**k
    # links of each head's chain are marked and jump is nxt applied 2**k times.
    jump = np.append(np.searchsorted(tc, tc + dead), cl.size)
    while (jump[heads] < ends).any():
        kept[jump[kept]] = True
        jump = jump[jump]
    on[cl] = kept[:-1]
    return on


def _require_representable(
    e1: EmitterSpec, e2: EmitterSpec, det: DetectorSpec, train: PulseTrainSpec
) -> None:
    """Reject specs whose draws overflow the tag clock or the pair kernel.

    A decay draw is below -ln(2^-53) < 37 lifetimes and a Gaussian draw
    (_gauss) below 9 sigma. The latest tag must stay under TAG_CLOCK_PS, so
    that tags, tag + dead time and the merge's 2 * tag + 1 fit int64. For a pair,
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
    if not t_max < TAG_CLOCK_PS:
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

    Deterministic for fixed (specs, seed): the worker count never changes
    the output stream.
    """
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must fit in 64 bits")
    _require_representable(emitter1, emitter2, det, train)
    n_blocks = -(-train.n_pulses // _CHUNK_PULSES)
    sources = ((1, emitter1), (2, emitter2))
    gates = zip(*(_blink_gates(e, train, seed, i) for i, e in sources))
    dark = np.sort(_dark_counts(det, train.span_ps, seed))
    counts = np.zeros(3, dtype=np.int64)  # photons emitted, detected and paired

    def work(item):
        block, gs = item  # gs: the block's gate of each source
        photons = [_emission_columns(e, train, i, seed, block, g) for (i, e), g in zip(sources, gs)]
        return _route_chunk(block, emitter1, emitter2, photons, circuit, det, seed)

    def segments():
        """All tag keys in time order, as sorted segments (see the module docstring)."""
        pending, d0 = dark[:0], 0
        for b, (keys, block_counts) in enumerate(_map_chunks(work, enumerate(gates)), start=1):
            counts[:] += block_counts
            # the watermark in keys; the last block releases every key
            start = b * _CHUNK_PULSES * train.period_ps
            wm = math.floor(start) - math.ceil(9.0 * det.irf_sigma_ps + math.ulp(start))
            cut = 2 * wm if b < n_blocks else np.iinfo(np.int64).max
            d1 = int(np.searchsorted(dark, cut))
            # three sorted runs, which the stable sort merges
            merged = np.sort(np.concatenate((pending, keys, dark[d0:d1])), kind="stable")
            i = int(np.searchsorted(merged, cut))
            yield merged[:i]
            pending, d0 = merged[i:], d1
        yield dark[d0:]

    last = [None, None]  # each channel's last kept tag
    times, chans = [], []
    for keys in segments():
        # times are below TAG_CLOCK_PS, so the keys fit int64 and sort by time, then channel
        t, c = keys >> 1, (keys & 1).astype(np.uint8)
        if det.dead_time_ps > 0:
            kept = np.flatnonzero(_prune_dead_time(t, c, det.dead_time_ps, last))
            t, c = t[kept], c[kept]  # one index for both: faster than a mixed boolean mask
        times.append(t)
        chans.append(c)
    stream = TimeTagStream(np.concatenate(times), np.concatenate(chans), seed=seed)
    return stream, SimulationCounters(
        photons_emitted=int(counts[0]),
        photons_detected=int(counts[1]),
        dark_counts=int(dark.size),
        dead_time_pruned=int(counts[1]) + dark.size - stream.n_records,
        pairs_interfered=int(counts[2]),
        tags_written=stream.n_records,
    )


def delayed_reference(train: PulseTrainSpec, delay_ps: float = 500.0) -> PulseTrainSpec:
    """The same pulse train with the intentional inter-source delay set."""
    return replace(train, source_delay_ps=delay_ps)
