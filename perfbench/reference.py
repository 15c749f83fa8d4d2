"""Reference values computed apart from homsim.

Nothing here imports homsim: the benchmark checks homsim's outputs
against these numbers, so they must not share its code.

- visibility(): the two-photon visibility V(d) of two exponential
  wavepackets, source 2 excited d ps after source 1, by 2-D quadrature of
  the coherence kernel D(tau) = pol cos(dw tau) exp(-|tau| (gs1 + gs2)) over
  the two emission densities, tau = t1 - t2 - d.
- coincidence_ratio(): g(d) = r^2 + t^2 - 2 r t V(d), the central-to-side
  peak-area ratio of a run.
- windowed_ratio(): the same ratio as the peak-area analysis measures it,
  with the slow decay components, the timing jitter and the +-delta_t/2
  integration windows; this is what the checks compare measured ratios
  with, since the window alone moves g(d) by about 0.005 for the reference
  pair, about 3.5 times the statistical error of a 1M-pulse run.
- telegraph_photons(): mean and variance of the photons one blinking source
  emits over a pulse train, under the telegraph's stationary on-fraction.
"""

from __future__ import annotations

import math

# Reduced Planck constant in ueV*ps (CODATA 2018: 6.582119569e-16 eV s).
HBAR_UEV_PS = 658.2119569


def quad(f, a: float, b: float, opts: dict) -> float:
    """Adaptive quadrature of f over [a, b]."""
    # imported here, so that the benchmark's set-up does not pay for scipy
    from scipy.integrate import quad as _quad

    return _quad(f, a, b, **opts)[0]


def dephasing_rate(t1_ps: float, t2_ps: float) -> float:
    """Pure dephasing rate 1/T2 - 1/(2 T1), per ps."""
    return max(1.0 / t2_ps - 1.0 / (2.0 * t1_ps), 0.0)


def visibility(
    t1_1: float,
    t2_1: float,
    t1_2: float,
    t2_2: float,
    pol_overlap: float = 1.0,
    detuning_uev: float = 0.0,
    delay_ps: float = 0.0,
) -> float:
    """V(d) = E[D(t1 - t2 - d)] for t_i ~ Exp(T1_i), by nested quadrature.

    The inner integral over t1 is split at the kernel's cusp t1 = t2 + d.
    """
    g1, g2 = 1.0 / t1_1, 1.0 / t1_2
    rate = dephasing_rate(t1_1, t2_1) + dephasing_rate(t1_2, t2_2)
    omega = detuning_uev / HBAR_UEV_PS
    opts = {"epsabs": 1e-13, "epsrel": 1e-11, "limit": 200}

    def kernel(tau):
        return math.cos(omega * tau) * math.exp(-abs(tau) * rate)

    # both densities are below e^-60 beyond 60 lifetimes
    reach = 60.0 * max(t1_1, t1_2)

    def inner(t2):
        cusp = t2 + delay_ps

        def f(t1):
            return g1 * math.exp(-g1 * t1) * kernel(t1 - cusp)

        below = quad(f, 0.0, cusp, opts) if cusp > 0.0 else 0.0
        above = quad(f, max(cusp, 0.0), max(cusp, 0.0) + reach, opts)
        return g2 * math.exp(-g2 * t2) * (below + above)

    # the outer integrand is smooth except where the cusp leaves t1 = 0
    knee = max(-delay_ps, 0.0)
    total = quad(inner, knee, knee + reach, opts)
    if knee > 0.0:
        total += quad(inner, 0.0, knee, opts)
    return pol_overlap * total


def coincidence_ratio(v: float, reflectance: float) -> float:
    """Central-to-side peak-area ratio g = r^2 + t^2 - 2 r t V."""
    r = reflectance
    t = 1.0 - r
    return r * r + t * t - 2.0 * r * t * v


def telegraph_photons(
    n_pulses: int,
    period_ps: float,
    emission_prob: float,
    double_prob: float,
    on_rate_per_s: float,
    off_rate_per_s: float,
) -> tuple[float, float]:
    """Mean and variance of the photons one source emits over the train.

    Pulse i yields X_i = G_i B_i (1 + C_i) photons: G_i is the on/off state
    of a two-state Markov chain started in its stationary law, B_i and C_i
    independent Bernoulli draws with emission_prob and double_prob. With
    pi the on-fraction and lam = exp(-(k_on + k_off) T) the chain's
    one-pulse correlation, Cov(G_i, G_j) = pi (1 - pi) lam^|i-j|, so

        Var(sum X) = n Var(X) + 2 mu^2 pi (1 - pi) sum_k (n - k) lam^k.
    """
    n = n_pulses
    mu = emission_prob * (1.0 + double_prob)
    second = emission_prob * (1.0 + 3.0 * double_prob)  # E[(B (1 + C))^2]
    k_tot = on_rate_per_s + off_rate_per_s
    if k_tot == 0.0:
        return n * mu, n * (second - mu * mu)
    pi = on_rate_per_s / k_tot
    lam = math.exp(-k_tot * period_ps * 1e-12)
    var_one = pi * second - (pi * mu) ** 2
    # sum_{k=1}^{n-1} (n - k) lam^k in closed form
    lag_sum = lam * (n * (1.0 - lam) - (1.0 - lam**n)) / (1.0 - lam) ** 2
    return n * pi * mu, n * var_one + 2.0 * mu * mu * pi * (1.0 - pi) * lag_sum


def _difference_density(src_a, src_b):
    """Terms (weight, rate_a, rate_b) of the density of E_b - E_a.

    Each source is a list of (weight, rate) exponential components. For
    E_a ~ Exp(alpha), E_b ~ Exp(beta) the difference y has density
    alpha beta / (alpha + beta) times exp(-beta y) above 0 and exp(alpha y)
    below.
    """
    return [
        (wa * wb * ra * rb / (ra + rb), ra, rb)
        for wa, ra in src_a
        for wb, rb in src_b
    ]


def _expect_difference(f, terms, shift, intervals, opts):
    """E[f(E_b - E_a + shift)] for f vanishing outside the union of intervals.

    Each interval is split at the density's cusp (x = shift) and at x = 0,
    where the coherence kernel has its cusp, and integrated by quadrature.
    """

    def density(y):
        if y < 0.0:
            return sum(c * math.exp(ra * y) for c, ra, _ in terms)
        return sum(c * math.exp(-rb * y) for c, _, rb in terms)

    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    total = 0.0
    for lo, hi in merged:
        cuts = sorted({lo, hi, *(x for x in (shift, 0.0) if lo < x < hi)})
        for a, b in zip(cuts, cuts[1:]):
            total += quad(lambda x: density(x - shift) * f(x), a, b, opts)
    return total


def windowed_ratio(
    source1: dict,
    source2: dict,
    reflectance: float,
    pol_overlap: float,
    efficiency: float,
    irf_fwhm_ps: float,
    period_ps: float,
    delay_ps: float,
    window_ps: float,
    n_side: int = 6,
) -> float:
    """Expected raw g2(0) of a pulsed run as the peak-area analysis sees it.

    Each source is a dict with t1_fast_ps, t1_slow_ps, slow_fraction,
    t2_ps and emission_prob; it emits at most one photon per pulse (no
    double emission, no blinking, no dark counts). Peak k counts the
    ch0/ch1 pairs with delays in [k T - w/2, k T + w/2), w = window_ps,
    both tags jittered by the Gaussian timing response. Photons of one pulse
    interfere through D(tau) on their emission-time difference tau; photons
    of different pulses route classically. Pairs from pulse offsets m
    spill into peak k with the tails of the slow decay, so every offset
    within 5 periods is summed. Returns the central area over the mean of
    the n_side side areas; for w -> infinity and no slow component it is
    coincidence_ratio(visibility(...), r). Assumes zero detuning and
    irf_fwhm_ps > 0.
    """
    r = reflectance
    t = 1.0 - r
    q = r * r + t * t
    gstar = dephasing_rate(source1["t1_fast_ps"], source1["t2_ps"]) + dephasing_rate(
        source2["t1_fast_ps"], source2["t2_ps"]
    )
    jitter = math.sqrt(2.0) * irf_fwhm_ps / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    opts = {"epsabs": 1e-12, "epsrel": 1e-10, "limit": 400}

    def components(src):
        f = src["slow_fraction"]
        return [(1.0 - f, 1.0 / src["t1_fast_ps"]), (f, 1.0 / src["t1_slow_ps"])]

    reach = 40.0 * max(source1["t1_slow_ps"], source2["t1_slow_ps"])
    edge = 10.0 * jitter

    def in_window(k):
        """Chance that a pair delay x plus jitter lands in peak k's window."""
        lo, hi = k * period_ps - window_ps / 2.0, k * period_ps + window_ps / 2.0
        scale = 1.0 / (math.sqrt(2.0) * jitter)
        return (
            lambda x: 0.5 * (math.erf((hi - x) * scale) - math.erf((lo - x) * scale)),
            (lo - edge, hi + edge),
        )

    def kernel(tau):
        return pol_overlap * math.exp(-abs(tau) * gstar)

    comp = {1: components(source1), 2: components(source2)}
    offset = {1: 0.0, 2: delay_ps}
    p = {
        1: source1["emission_prob"] * efficiency,
        2: source2["emission_prob"] * efficiency,
    }
    # tau = E1 - E2 - d is the emission-time difference the kernel sees
    tau_terms = _difference_density(comp[2], comp[1])
    mean_d = _expect_difference(
        kernel, tau_terms, -delay_ps, [(-delay_ps - reach, -delay_ps + reach)], opts
    )
    # marginal channel of one photon: classical r, shifted when it pairs up
    bar = {
        i: r + p[3 - i] * r * t * (t * t - r * r) / q * mean_d for i in (1, 2)
    }
    to_ch0 = {1: p[1] * bar[1], 2: p[2] * (1.0 - bar[2])}
    to_ch1 = {1: p[1] * (1.0 - bar[1]), 2: p[2] * bar[2]}

    def area(k):
        win, (lo, hi) = in_window(k)

        # one photon from each source in the same pulse; ch1 - ch0 is
        # +tau when source 1 lands on ch1, -tau when it lands on ch0
        def same_pulse(tau):
            p_cross = q - 2.0 * r * t * kernel(tau)
            return p_cross * (r * r * win(-tau) + t * t * win(tau)) / q

        total = p[1] * p[2] * _expect_difference(
            same_pulse, tau_terms, -delay_ps, [(lo, hi), (-hi, -lo)], opts
        )
        for a in (1, 2):
            for b in (1, 2):
                terms = _difference_density(comp[a], comp[b])
                for m in range(k - 5, k + 6):
                    if m != 0:
                        shift = offset[b] - offset[a] + m * period_ps
                        total += to_ch0[a] * to_ch1[b] * _expect_difference(
                            win, terms, shift, [(lo, hi)], opts
                        )
        return total

    half = n_side // 2
    sides = [area(k) for k in range(-half, half + 1) if k != 0]
    return area(0) * len(sides) / sum(sides)
