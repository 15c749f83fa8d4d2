"""Symmetry relations: the simulator checked against itself.

A relation says how the output must change when the input changes in a
known way, so it needs no closed form that shares the simulator's
assumptions. Each test compares runs on independent seeds against a bound
of four standard deviations, derived from the expected counts before the
run, never from the runs themselves.

The runs use the reference pair with no dark counts and no dead time, so
that every tag is a routed photon, and 10 ns peak windows.
"""

import math

import homsim as hs
from helpers import emitter_long_t2, emitter_short_t2

N_PULSES = 2_000_000
DELTA_T_PS = 10000.0
N_SIDE = 10
# a lower bound on the share of a peak inside its 10 ns window: it holds
# 99.8 % of the fast-branch pairs and a third of those with a 12 ns
# slow-branch photon, which are at most 4 % of the pairs
CAPTURE = 0.95
_DET = hs.DetectorSpec(irf_fwhm_ps=80.0, dark_rate_cps=0.0, efficiency=1.0)
_TRAIN = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=N_PULSES)


def _run(e1, e2, circuit, seed):
    """g2 at zero delay and the singles of channels 0 and 1 of one run."""
    stream, _ = hs.run_simulation(e1, e2, circuit, _DET, _TRAIN, seed=seed)
    hist = hs.cross_correlate(stream, 10.0, 80000.0)
    peaks = hs.integrate_peaks(hist, _TRAIN.period_ps, DELTA_T_PS, N_SIDE)
    ones = int(stream.channels.sum())
    return peaks.g2_zero, stream.n_records - ones, ones


def _singles(e1, e2, circuit):
    """Expected photons per pulse on channels 0 and 1. A bar photon leaves
    on its own side: source 1's reflected photons on channel 0, source 2's
    on channel 1. An interfering pair puts one photon on each channel on
    average, as r + t = 1, so the same rule holds for its photons."""
    tin = circuit.arm_transmission
    n1, n2 = e1.emission_prob * tin[0], e2.emission_prob * tin[1]
    r, t = circuit.reflectance, circuit.transmittance
    return r * n1 + t * n2, t * n1 + r * n2


def _g2_sigma(e1, e2, circuit):
    """An upper bound on the standard deviation of one run's g2.

    g2 = C / mean(S) with Poisson areas has variance (g2 + g2^2 / N_SIDE) / S,
    which grows with g2. g2 is at most its value for distinguishable photons,
    (r^2 + t^2) n1 n2 / (s0 s1), as no source gives two photons in a pulse
    and the kernel is not negative without detuning; S is at least CAPTURE
    times N_PULSES s0 s1.
    """
    tin = circuit.arm_transmission
    n1, n2 = e1.emission_prob * tin[0], e2.emission_prob * tin[1]
    r, t = circuit.reflectance, circuit.transmittance
    s0, s1 = _singles(e1, e2, circuit)
    g2 = (r * r + t * t) * n1 * n2 / (s0 * s1)
    return math.sqrt((g2 + g2 * g2 / N_SIDE) / (CAPTURE * N_PULSES * s0 * s1))


def test_swapping_the_sources_leaves_g2_unchanged():
    # emitter 1 and 2 change places, and their input arms with them, so that
    # the sources differ in rate as well as in lifetime and coherence
    e1, e2 = emitter_short_t2(), emitter_long_t2()
    cir = hs.CircuitSpec(reflectance=0.48, pol_overlap=0.95, arm_transmission=(1.0, 0.8, 1.0, 1.0))
    swapped = hs.CircuitSpec(reflectance=0.48, pol_overlap=0.95,
                             arm_transmission=(0.8, 1.0, 1.0, 1.0))
    bound = 4.0 * math.hypot(_g2_sigma(e1, e2, cir), _g2_sigma(e2, e1, swapped))
    g2, _, _ = _run(e1, e2, cir, seed=101)
    g2_swapped, _, _ = _run(e2, e1, swapped, seed=102)
    assert abs(g2 - g2_swapped) <= bound, (g2, g2_swapped, bound)


def test_exchanging_r_and_t_keeps_g2_and_swaps_the_singles():
    # a strongly unequal splitter and a dimmer source 2, so that a photon
    # routed to the wrong side shows in the singles
    e1, e2 = emitter_short_t2(), emitter_long_t2(emission_prob=0.25)
    cir, flipped = (hs.CircuitSpec(reflectance=r, pol_overlap=0.95) for r in (0.3, 0.7))
    s0, s1 = (N_PULSES * s for s in _singles(e1, e2, cir))
    rho = s0 / s1  # (r n1 + t n2) / (t n1 + r n2)
    # a pulse puts 0, 1 or 2 photons on a channel, so c^2 <= 2c and the
    # variance of a channel's count is at most twice its mean. Hence
    # Var(c0 - rho c1) <= 2 (s0 + rho^2 s1), the cross term being <= 0
    ratio_bound = 4.0 * math.sqrt(2.0 * (s0 + rho * rho * s1))
    swap_bound = 4.0 * math.sqrt(4.0 * max(s0, s1))
    g2_bound = 4.0 * math.hypot(_g2_sigma(e1, e2, cir), _g2_sigma(e1, e2, flipped))

    g2, c0, c1 = _run(e1, e2, cir, seed=201)
    g2_flipped, f0, f1 = _run(e1, e2, flipped, seed=202)
    assert abs(g2 - g2_flipped) <= g2_bound, (g2, g2_flipped, g2_bound)
    assert abs(c0 - f1) <= swap_bound and abs(c1 - f0) <= swap_bound, (c0, c1, f0, f1)
    assert abs(c0 - rho * c1) <= ratio_bound, (c0, c1, rho)
    assert abs(f1 - rho * f0) <= ratio_bound, (f0, f1, rho)
