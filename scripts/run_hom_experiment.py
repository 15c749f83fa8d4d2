#!/usr/bin/env python3
"""Run the full two-emitter interference experiment and report visibility.

Simulates a synchronized run and a delayed-reference run from the same
scenario, pushes both through the correlation/peak-integration pipeline,
and compares the measured visibility with the closed-form prediction.

The delayed reference is not fully distinguishable: photons a few hundred
ps apart still interfere. Each run's peak ratio is therefore predicted as
g(delay) = r^2 + t^2 - 2rt V(delay), and the protocol's visibility as
(g_delayed - g_sync) / g_delayed; the zero-delay V is reported alongside.

    python scripts/run_hom_experiment.py --out-dir results/
    python scripts/run_hom_experiment.py --config scenario.json --out-dir out/
"""

import argparse
import json
import sys
from pathlib import Path

import homsim as hs
from homsim.config import config_digest, load_scenario, parse_scenario
from homsim.formats import write_histogram_csv, write_ptg1, write_report
from homsim.svgplot import histogram_svg


def default_scenario_text() -> str:
    return json.dumps(
        {
            "emitter1": {
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
            },
            "emitter2": {
                "energy_uev": 0.0,
                "t1_fast_ps": 600.0,
                "t1_slow_ps": 12000.0,
                "slow_fraction": 0.012,
                "t2_ps": 440.0,
                "emission_prob": 0.5,
                "double_prob": 0.0,
                "blink_on_rate_per_s": 0.0,
                "blink_off_rate_per_s": 0.0,
                "spectral_diffusion_sigma_uev": 0.0,
            },
            "circuit": {
                "reflectance": 0.48,
                "pol_overlap": 0.95,
                "arm_transmission": [1.0, 1.0, 1.0, 1.0],
                "classical_visibility": None,
            },
            "detector": {
                "irf_fwhm_ps": 80.0,
                "dark_rate_cps": 300.0,
                "efficiency": 1.0,
                "dead_time_ps": 0.0,
            },
            "train": {
                "rep_rate_mhz": 76.0,
                "n_pulses": 1000000,
                "source_delay_ps": 0.0,
            },
            "seed": 20260815,
        }
    )


def analyze(cfg, train, stream):
    ana = cfg.analysis
    hist = hs.cross_correlate(stream, ana.bin_width_ps, ana.window_ps)
    floor = hs.estimate_background(hist, train.period_ps, delta_t_ps=ana.delta_t_ps)
    peaks = hs.integrate_peaks(
        hist, train.period_ps, ana.delta_t_ps, ana.n_side,
        floor=floor, corrected=True,
    )
    return hist, floor, peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None, help="scenario JSON (default: built-in)")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--delay-ps", type=float, default=500.0,
                        help="source-2 excitation delay of the reference run")
    args = parser.parse_args(argv)

    cfg = (
        load_scenario(args.config)
        if args.config
        else parse_scenario(default_scenario_text())
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def v_theory(delay_ps):
        return hs.visibility_closed_form(
            cfg.emitter1,
            cfg.emitter2,
            delta_uev=cfg.emitter1.energy_uev - cfg.emitter2.energy_uev,
            pol_overlap=cfg.circuit.overlap,
            delay_ps=delay_ps,
        )

    def g_theory(delay_ps):
        r, t = cfg.circuit.reflectance, cfg.circuit.transmittance
        return r * r + t * t - 2.0 * r * t * v_theory(delay_ps)

    v_closed = v_theory(0.0)
    g_sync = g_theory(cfg.train.source_delay_ps)
    g_delayed = g_theory(args.delay_ps)
    v_protocol = (g_delayed - g_sync) / g_delayed

    runs = {}
    for name, train, g_pred in (
        ("sync", cfg.train, g_sync),
        ("delayed", hs.delayed_reference(cfg.train, delay_ps=args.delay_ps), g_delayed),
    ):
        stream, counters = hs.run_simulation(
            cfg.emitter1, cfg.emitter2, cfg.circuit, cfg.detector, train, cfg.seed
        )
        write_ptg1(out / ("%s.ptg1" % name), stream)
        hist, floor, peaks = analyze(cfg, train, stream)
        write_histogram_csv(out / ("%s_hist.csv" % name), hist)
        histogram_svg(out / ("%s_hist.svg" % name), hist)
        runs[name] = peaks
        print(
            "%s run: %d tags, corrected g2(0,dt) = %.4f +- %.4f (floor %.3f/bin), "
            "predicted %.4f"
            % (
                name, counters.tags_written, peaks.g2_zero, peaks.g2_zero_err,
                floor, g_pred,
            )
        )

    v_meas, v_err = hs.hom_visibility(runs["delayed"], runs["sync"])
    print("measured visibility  V = %.4f +- %.4f" % (v_meas, v_err))
    print(
        "closed-form estimate V = %.4f for this protocol (%.0f ps reference delay)"
        % (v_protocol, args.delay_ps)
    )
    print("closed-form estimate V = %.4f at zero delay (ideal reference)" % v_closed)

    write_report(
        out / "experiment_report.json",
        {
            "sync_g2": runs["sync"].g2_zero,
            "sync_g2_err": runs["sync"].g2_zero_err,
            "delayed_g2": runs["delayed"].g2_zero,
            "delayed_g2_err": runs["delayed"].g2_zero_err,
            "V_measured": v_meas,
            "V_measured_err": v_err,
            "V_closed_form": v_closed,
            "V_closed_form_protocol": v_protocol,
            "sync_g2_predicted": g_sync,
            "delayed_g2_predicted": g_delayed,
            "delay_ps": args.delay_ps,
            "seed": cfg.seed,
            "config_digest": config_digest(cfg),
        },
    )
    print("artifacts written to %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
