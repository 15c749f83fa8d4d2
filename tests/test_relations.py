"""Symmetry relations: the simulator checked against itself.

A relation says how the output must change when the input changes in a
known way, so it needs no closed form that shares the simulator's
assumptions. Each test compares runs on independent seeds against a bound
of four standard deviations, derived from the expected counts before the
run, never from the runs themselves.

The runs use the reference pair with no dark counts and no dead time, so
that every tag is a routed photon, and 10 ns peak windows.

These relations catch a kernel of the wrong sign, swapped output channels,
routing by the other source's input arm and a source delay that is ignored.
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


def _run(e1, e2, circuit, seed, det=_DET, train=_TRAIN, delta_t_ps=DELTA_T_PS):
    """g2 at zero delay, the singles of channels 0 and 1 and the mean
    side-peak area of one run."""
    stream, _ = hs.run_simulation(e1, e2, circuit, det, train, seed=seed)
    hist = hs.cross_correlate(stream, 10.0, 80000.0)
    peaks = hs.integrate_peaks(hist, train.period_ps, delta_t_ps, N_SIDE)
    ones = int(stream.channels.sum())
    side = float(peaks.areas[peaks.k_values != 0].mean())
    return peaks.g2_zero, stream.n_records - ones, ones, side


def _photons(e1, e2, circuit, efficiency=1.0):
    """Expected photons per pulse of sources 1 and 2 that reach the coupler."""
    tin = circuit.arm_transmission
    return e1.emission_prob * tin[0] * efficiency, e2.emission_prob * tin[1] * efficiency


def _singles(e1, e2, circuit, efficiency=1.0):
    """Expected photons per pulse on channels 0 and 1. A bar photon leaves
    on its own side: source 1's reflected photons on channel 0, source 2's
    on channel 1. An interfering pair puts one photon on each channel on
    average, as r + t = 1, so the same rule holds for its photons."""
    n1, n2 = _photons(e1, e2, circuit, efficiency)
    r, t = circuit.reflectance, circuit.transmittance
    return r * n1 + t * n2, t * n1 + r * n2


def _g2_sigma(e1, e2, circuit, efficiency=1.0):
    """An upper bound on the standard deviation of one run's g2.

    g2 = C / mean(S) with Poisson areas has variance (g2 + g2^2 / N_SIDE) / S,
    which grows with g2. g2 is at most its value for distinguishable photons,
    (r^2 + t^2) n1 n2 / (s0 s1), as no source gives two photons in a pulse
    and the kernel is not negative without detuning; S is at least CAPTURE
    times N_PULSES s0 s1.
    """
    n1, n2 = _photons(e1, e2, circuit, efficiency)
    r, t = circuit.reflectance, circuit.transmittance
    s0, s1 = _singles(e1, e2, circuit, efficiency)
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
    g2, *_ = _run(e1, e2, cir, seed=101)
    g2_swapped, *_ = _run(e2, e1, swapped, seed=102)
    assert abs(g2 - g2_swapped) <= bound, (g2, g2_swapped, bound)


def test_exchanging_r_and_t_keeps_g2_and_swaps_the_singles():
    # a strongly unequal splitter, a dimmer source 2 and a lossy input arm 2,
    # so that a photon routed to the wrong side, or by the other source's
    # input arm, shows in the singles
    e1, e2 = emitter_short_t2(), emitter_long_t2(emission_prob=0.25)
    cir, flipped = (
        hs.CircuitSpec(reflectance=r, pol_overlap=0.95, arm_transmission=(1.0, 0.5, 1.0, 1.0))
        for r in (0.3, 0.7)
    )
    s0, s1 = (N_PULSES * s for s in _singles(e1, e2, cir))
    rho = s0 / s1  # (r n1 + t n2) / (t n1 + r n2)
    # a pulse puts 0, 1 or 2 photons on a channel, so c^2 <= 2c and the
    # variance of a channel's count is at most twice its mean. Hence
    # Var(c0 - rho c1) <= 2 (s0 + rho^2 s1), the cross term being <= 0
    ratio_bound = 4.0 * math.sqrt(2.0 * (s0 + rho * rho * s1))
    swap_bound = 4.0 * math.sqrt(4.0 * max(s0, s1))
    g2_bound = 4.0 * math.hypot(_g2_sigma(e1, e2, cir), _g2_sigma(e1, e2, flipped))

    g2, c0, c1, _ = _run(e1, e2, cir, seed=201)
    g2_flipped, f0, f1, _ = _run(e1, e2, flipped, seed=202)
    assert abs(g2 - g2_flipped) <= g2_bound, (g2, g2_flipped, g2_bound)
    assert abs(c0 - f1) <= swap_bound and abs(c1 - f0) <= swap_bound, (c0, c1, f0, f1)
    assert abs(c0 - rho * c1) <= ratio_bound, (c0, c1, rho)
    assert abs(f1 - rho * f0) <= ratio_bound, (f0, f1, rho)


def test_distinguishable_limit():
    # overlap 0 and a detuning of 500 ueV, far above both linewidths, leave
    # no interference: the closed form puts the detuned pair's V at 3.1e-5,
    # a g2 shift near 1.5e-5, so the bounds hold for it too. The same pair
    # at zero detuning interferes, and its g2 lies lower by about
    # 2 r t V = 0.058
    e1, e2 = emitter_short_t2(), emitter_long_t2()
    distinguishable = hs.CircuitSpec(reflectance=0.48, pol_overlap=0.0)
    cir = hs.CircuitSpec(reflectance=0.48, pol_overlap=0.95)
    detuned = emitter_long_t2(energy_uev=500.0)
    sigma = _g2_sigma(e1, e2, cir)
    bound = 4.0 * math.sqrt(2.0) * sigma
    g2_dist, *_ = _run(e1, e2, distinguishable, seed=301)
    g2_detuned, *_ = _run(e1, detuned, cir, seed=302)
    g2, *_ = _run(e1, e2, cir, seed=303)
    assert abs(g2_dist - g2_detuned) <= bound, (g2_dist, g2_detuned, bound)
    assert g2_dist - g2 > bound, (g2_dist, g2, bound)


def _side_area_rel_sigma(e1, e2, circuit, efficiency):
    """An upper bound on the relative standard deviation of one run's mean
    side-peak area.

    A pulse puts a photons on channel 0 and b on channel 1, with means s0
    and s1. As a <= 2, a^2 <= 2a and Var a <= 2 s0 - s0^2; so for b. The
    area of the K = N_SIDE side peaks is the sum over pulses i and peaks k of
    a_i b_(i+k). Pulses are independent, so its variance is at most
    N K^2 (s1 sd_a + s0 sd_b)^2 + 2 N K Var a Var b, with |Cov(a, b)| at most
    sd_a sd_b, while its mean is at least CAPTURE N K s0 s1. Unlike g2, the
    area moves with the run's photon count, which the first term holds.
    """
    s0, s1 = _singles(e1, e2, circuit, efficiency)
    var_a, var_b = 2.0 * s0 - s0 * s0, 2.0 * s1 - s1 * s1
    var = (s1 * math.sqrt(var_a) + s0 * math.sqrt(var_b)) ** 2 + 2.0 * var_a * var_b / N_SIDE
    return math.sqrt(var / N_PULSES) / (CAPTURE * s0 * s1)


def test_efficiency_thins_the_areas_and_keeps_g2():
    # the efficiency drops each photon before the coupler, on its own, so at
    # r = 1/2, where a photon leaves on either side with even odds in a pair
    # as alone, the side-peak areas scale by eta^2 and g2 stays, both exactly
    # in expectation. Double emission is off: a lost extra photon could turn
    # a pulse into an interfering pair
    e1, e2 = emitter_short_t2(), emitter_long_t2()
    cir = hs.CircuitSpec(reflectance=0.5, pol_overlap=0.95)
    half = hs.DetectorSpec(irf_fwhm_ps=80.0, dark_rate_cps=0.0, efficiency=0.5)
    g2_bound = 4.0 * math.hypot(_g2_sigma(e1, e2, cir), _g2_sigma(e1, e2, cir, 0.5))
    ratio_bound = 0.25 * 4.0 * math.hypot(
        _side_area_rel_sigma(e1, e2, cir, 1.0), _side_area_rel_sigma(e1, e2, cir, 0.5)
    )
    g2, _, _, side = _run(e1, e2, cir, seed=401)
    g2_half, _, _, side_half = _run(e1, e2, cir, seed=402, det=half)
    assert abs(g2 - g2_half) <= g2_bound, (g2, g2_half, g2_bound)
    assert abs(side_half / side - 0.25) <= ratio_bound, (side, side_half, ratio_bound)


def _delayed_g2_sigma(e1, e2, circuit):
    """_g2_sigma for 12 ns windows and a 6 ns source delay.

    A peak holds same-source pairs, photons of one source from pulses k
    apart, and cross-source pairs, one photon of each. 12 ns windows hold
    at least CAPTURE of the same-source pairs. The cross-source pairs sit
    on the window edges, at +-6 ns: a window keeps those where source 2's
    decay is the shorter, about T1_1 / (T1_1 + T1_2) = 0.55 of them, in
    the central peak and the side peaks alike. So the bound counts none of
    them in S, and all of them in g2 = cross / (CAPTURE same + cross).
    """
    n1, n2 = _photons(e1, e2, circuit)
    r, t = circuit.reflectance, circuit.transmittance
    same, cross = r * t * (n1 * n1 + n2 * n2), (r * r + t * t) * n1 * n2
    g2 = cross / (CAPTURE * same + cross)
    return math.sqrt((g2 + g2 * g2 / N_SIDE) / (CAPTURE * N_PULSES * same))


def test_delay_far_beyond_the_wavepackets_leaves_no_interference():
    # at 6 ns, e^(-d/T1) < 3e-4 for both emitters and the closed form puts
    # V(6 ns) at 3.3e-5, so overlap 0.95 and 0 give the same g2. 12 ns
    # windows keep the cross-source pairs, centred at +-6 ns, in the comb
    e1, e2 = emitter_short_t2(), emitter_long_t2()
    train = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=N_PULSES, source_delay_ps=6000.0)
    cir, dist = (hs.CircuitSpec(reflectance=0.48, pol_overlap=v) for v in (0.95, 0.0))
    bound = 4.0 * math.sqrt(2.0) * _delayed_g2_sigma(e1, e2, cir)
    g2, *_ = _run(e1, e2, cir, seed=501, train=train, delta_t_ps=12000.0)
    g2_dist, *_ = _run(e1, e2, dist, seed=502, train=train, delta_t_ps=12000.0)
    assert abs(g2 - g2_dist) <= bound, (g2, g2_dist, bound)
