"""Two-photon interference theory for a pair of independent emitters.

The mutual coherence of two photons detected a time tau apart is modelled
as a damped beat note

    D(tau) = overlap * cos(delta_omega * tau) * exp(-|tau| * (gs1 + gs2))

where gs_i are the emitters' pure dephasing rates and delta_omega their
angular frequency difference. Averaging D over the joint emission-time
distribution of the two exponential wavepackets yields the wavepacket-level
visibility; for identical emitters it reduces to T2 / (2 T1).
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from .model import CircuitSpec, EmitterSpec, ValidationError, detuning_to_angular


def coherence_kernel(
    tau_ps,
    e1: EmitterSpec,
    e2: EmitterSpec,
    overlap: float = 1.0,
    delta_uev: float | None = None,
    freq_offset_uev=0.0,
):
    """Mutual coherence D(tau); accepts scalars or arrays, |D| <= overlap.

    delta_uev defaults to the emitters' energy difference (1 minus 2).
    freq_offset_uev is the pair's extra detuning on top of it: the simulator
    passes each interfering pair's spectral-diffusion offsets (source 1
    minus source 2), elementwise with tau_ps.
    """
    tau = np.asarray(tau_ps, dtype=float)
    if delta_uev is None:
        delta_uev = e1.energy_uev - e2.energy_uev
    a = e1.pure_dephasing_rate + e2.pure_dephasing_rate
    delta = detuning_to_angular(delta_uev) + detuning_to_angular(freq_offset_uev)
    out = overlap * np.cos(delta * tau) * np.exp(-np.abs(tau) * a)
    return out if out.ndim else float(out)


def _visibility_detuning(e1, e2, pol_overlap: float, delta_uev, delay_ps: float) -> float:
    """delta_uev, by default the emitters' energy difference (1 minus 2), once
    it and the other inputs that EmitterSpec does not check are checked."""
    if delta_uev is None:
        delta_uev = e1.energy_uev - e2.energy_uev
    if not 0.0 <= pol_overlap <= 1.0:
        raise ValidationError("pol_overlap must be in [0, 1]")
    for name, value in (("delta_uev", delta_uev), ("delay_ps", delay_ps)):
        if not math.isfinite(value):
            raise ValidationError("%s must be finite, got %r" % (name, value))
    return delta_uev


def _exprel(z):
    """(exp(z) - 1) / z, continued to 1 at z = 0."""
    return np.expm1(z) / z if z != 0 else 1.0


def _weighted(weight: float, denom: complex) -> complex:
    """weight / denom, 0 where the weight underflowed to 0 or denom overflowed.

    Complex division gives NaN there: 0/(inf + inf*j) and 1/(inf + inf*j).
    """
    return weight / denom if weight and cmath.isfinite(denom) else 0j


def visibility_closed_form(
    e1: EmitterSpec,
    e2: EmitterSpec,
    delta_uev: float | None = None,
    pol_overlap: float = 1.0,
    delay_ps: float = 0.0,
) -> float:
    """Wavepacket-averaged two-photon interference visibility.

    Evaluates the analytic average of the coherence kernel over the joint
    exponential emission-time distribution of the fast decay components,
    with source 2 excited delay_ps after source 1 (the kernel then sees the
    emission-time difference minus the delay) and the detuning delta_uev,
    by default the emitters' energy difference (1 minus 2):

        V = pol * c * Re[e^(-Ad)/(g2+A) + (e^(-g1 d) - e^(-Ad))/(A-g1)
                         + e^(-g1 d)/(g1+A)],
        c = g1*g2/(g1+g2),   A = (gs1 + gs2) + i * delta_omega

    for a delay d >= 0, the middle term tending to d*e^(-g1 d) as A -> g1.
    At d = 0 it is pol * c * Re[1/(g1+A) + 1/(g2+A)]. A negative delay
    swaps the roles of the two emitters. For identical emitters at zero
    detuning and zero delay this reduces to T2 / (2 T1). Each c/(g_i+A) is
    evaluated as (T1_i/(T1_1+T1_2)) / (1 + A*T1_i), a ratio bounded by one
    over a denominator of modulus at least one, so no intermediate overflows
    at extreme lifetimes or detunings; a term whose ratio underflows to 0
    or whose denominator overflows is 0.
    """
    delta_uev = _visibility_detuning(e1, e2, pol_overlap, delta_uev, delay_ps)
    t1a, t1b = e1.t1_fast_ps, e2.t1_fast_ps
    if delay_ps < 0.0:
        t1a, t1b = t1b, t1a
    a = (e1.pure_dephasing_rate + e2.pure_dephasing_rate) + 1j * detuning_to_angular(delta_uev)
    term1 = _weighted(1.0 / (1.0 + t1b / t1a), 1.0 + a * t1a)
    term2 = _weighted(1.0 / (1.0 + t1a / t1b), 1.0 + a * t1b)
    g1 = 1.0 / t1a
    d = abs(delay_ps)
    if np.isfinite(a * d):
        # the slower-decaying exponential is factored out, so nothing overflows
        slow, fast = (g1, a) if a.real >= g1 else (a, g1)
        middle = d * np.exp(-slow * d) * _exprel((slow - fast) * d) / (t1a + t1b)
        val = np.exp(-a * d) * term2 + middle + np.exp(-g1 * d) * term1
    else:
        # A*d overflows or A is infinite: the e^(-Ad) terms vanish or have no
        # computable phase. Their coefficients sum to -g1*g2/((g2+A)(A-g1)), of
        # modulus below d^2/(3e616*T1_1*T1_2), so they are dropped. A = g1 only
        # where g1*d overflows too, and then e^(-g1 d) = 0.
        decay = math.exp(-g1 * d)
        val = decay * (term1 + _weighted(1.0, (a - g1) * (t1a + t1b))) if decay else 0j
    return float(pol_overlap * val.real)


def g2_closed_form(e1: EmitterSpec, e2: EmitterSpec, circuit: CircuitSpec, delay_ps: float):
    """Central-to-side peak ratio r^2 + t^2 - 2rt V(delay_ps) of a run with
    source 2 excited delay_ps late, V at the circuit's overlap. It omits the
    integration window, the slow decay branch and the detector jitter.
    """
    r, t = circuit.reflectance, circuit.transmittance
    v = visibility_closed_form(e1, e2, pol_overlap=circuit.overlap, delay_ps=delay_ps)
    return r * r + t * t - 2.0 * r * t * v


def visibility_numeric(
    e1: EmitterSpec,
    e2: EmitterSpec,
    delta_uev: float | None = None,
    pol_overlap: float = 1.0,
    delay_ps: float = 0.0,
) -> float:
    """Visibility by direct 2-D quadrature over the emission-time densities.

    Independent numerical route used to cross-check the closed form:
    V = pol * sum_ij P1(t_i) P2(t_j) D(t_i - t_j - delay) / (sum P1 * sum P2)
    on a uniform grid, with source 2 excited delay_ps after source 1 and
    the detuning delta_uev (by default, as in the closed form). The grid
    is fixed: it spans 10x the longer lifetime T1 from emission, with a
    step of min(T1, T2)/50 over both emitters.
    """
    delta_uev = _visibility_detuning(e1, e2, pol_overlap, delta_uev, delay_ps)
    t1a, t1b = e1.t1_fast_ps, e2.t1_fast_ps
    step_ps = min(t1a, t1b, e1.t2_ps, e2.t2_ps) / 50.0
    n = int(np.ceil(10.0 * max(t1a, t1b) / step_ps))
    t = np.arange(n) * step_ps
    p1 = np.exp(-t / t1a)
    p2 = np.exp(-t / t1b)
    lags = np.arange(-(n - 1), n) * step_ps - delay_ps
    kern = coherence_kernel(lags, e1, e2, delta_uev=delta_uev)
    # s[i] = sum_j p2[j] * kern(t_i - t_j - delay), entries n-1 .. 2n-2 of
    # the linear convolution. A circular one of length m >= 2n-1 wraps only
    # entries from m on, which land below n-1; m is a power of two for speed.
    m = 1 << (2 * n - 2).bit_length()
    s = np.fft.irfft(np.fft.rfft(p2, m) * np.fft.rfft(kern, m), m)[n - 1 : 2 * n - 1]
    return float(pol_overlap * np.sum(p1 * s) / (np.sum(p1) * np.sum(p2)))


def postselected_visibility(g2_zero_time: float) -> float:
    """Post-selected visibility (0.5 - g) / 0.5 from the zero-delay value.

    Values of g above 0.5 yield a negative result; that is reported as-is
    with a warning rather than clamped.
    """
    if not 0.0 <= g2_zero_time:
        raise ValidationError("g2 at zero delay must be >= 0")
    v = (0.5 - g2_zero_time) / 0.5
    if v < 0.0:
        warnings.warn(
            "post-selected visibility is negative (g = %.4g > 0.5)" % g2_zero_time,
            RuntimeWarning,
            stacklevel=2,
        )
    return v


def envelope_cross_correlation(tau_ps, e1: EmitterSpec, e2: EmitterSpec):
    """Normalized density of the emission-time difference of the two wavepackets."""
    tau = np.asarray(tau_ps, dtype=float)
    g1, g2 = e1.radiative_rate, e2.radiative_rate
    c = g1 * g2 / (g1 + g2)
    w = np.where(tau >= 0.0, c * np.exp(-g1 * tau), c * np.exp(g2 * tau))
    return w if w.ndim else float(w)


def predicted_hom_dip(tau_grid_ps, e1: EmitterSpec, e2: EmitterSpec, circuit: CircuitSpec):
    """Predicted central-peak coincidence density.

    c(tau) = w(tau) * 0.5 * (1 - 4 r t D(tau)) with w the envelope
    cross-correlation and D the kernel at the circuit's overlap; normalized
    so that the distinguishable case (D = 0) integrates to 0.5 when a side
    peak integrates to 1.
    """
    tau = np.asarray(tau_grid_ps, dtype=float)
    r, t = circuit.reflectance, circuit.transmittance
    w = envelope_cross_correlation(tau, e1, e2)
    return w * 0.5 * (1.0 - 4.0 * r * t * coherence_kernel(tau, e1, e2, circuit.overlap))
