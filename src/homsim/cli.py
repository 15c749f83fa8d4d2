"""Command-line front end.

Subcommands cover simulation, correlation analysis, fitting, closed-form
theory, and calibration estimators. Exit codes: 0 success, 2 invalid
input/configuration, 3 numerical failure.

Each command imports only the modules it runs. It calls simulate, correlate
and fitting through the module, and load_scenario, read_ptg1 and write_ptg1
through this module's names, so that a wrapper set on either is called.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import asdict

import numpy as np

from .config import load_scenario
from .formats import read_ptg1, write_ptg1
from .model import ConfigurationError, EstimationError, ModelDomainError, ValidationError


def __getattr__(name):
    # homsim.cli.simulate, .correlate and .fitting, for wrappers of their functions
    if name in ("simulate", "correlate", "fitting"):
        return __import__("%s.%s" % (__package__, name), fromlist=[name])
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homsim",
        description="Two-photon interference simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write a PTG1 tag file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="optional JSON counters report")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze-hom", help="peak-area interference analysis")
    p.add_argument("--tags", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_analyze_hom)

    p = sub.add_parser("correlate", help="cross-correlation histogram to CSV")
    p.add_argument("--tags", required=True)
    p.add_argument("--bin-width-ps", type=float, default=10.0)
    p.add_argument("--window-ps", type=float, default=80000.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("timetrace", help="fold tags by the pulse period")
    p.add_argument("--tags", required=True)
    p.add_argument("--rep-rate-mhz", type=float, required=True)
    p.add_argument("--bin-width-ps", type=float, default=20.0)
    p.add_argument("--channel", type=int, choices=(0, 1), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_timetrace)

    p = sub.add_parser("fit-decay", help="bi-exponential decay fit with IRF")
    p.add_argument("--data", required=True)
    p.add_argument("--irf-fwhm-ps", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_decay)

    p = sub.add_parser("fit-g2cw", help="cw antibunching dip fit")
    p.add_argument("--data", required=True)
    p.add_argument("--irf-fwhm-ps", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_g2cw)

    p = sub.add_parser("fit-lorentzian", help="Lorentzian line fit")
    p.add_argument("--data", required=True)
    p.add_argument("--instrument-fwhm-uev", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_lorentzian)

    p = sub.add_parser("theory", help="closed-form interference visibility")
    p.add_argument("--t1-1", type=float, required=True, help="lifetime of source 1 (ps)")
    p.add_argument("--t2-1", type=float, required=True, help="coherence time of source 1 (ps)")
    p.add_argument("--t1-2", type=float, required=True, help="lifetime of source 2 (ps)")
    p.add_argument("--t2-2", type=float, required=True, help="coherence time of source 2 (ps)")
    p.add_argument("--detuning-uev", type=float, default=0.0)
    p.add_argument("--pol-overlap", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("calib-splitter", help="splitting ratio from two drives")
    p.add_argument("bar1", type=float, help="output 1 intensity, input 1 driven")
    p.add_argument("cross1", type=float, help="output 2 intensity, input 1 driven")
    p.add_argument("bar2", type=float, help="output 2 intensity, input 2 driven")
    p.add_argument("cross2", type=float, help="output 1 intensity, input 2 driven")
    p.set_defaults(func=_cmd_calib_splitter)

    p = sub.add_parser("calib-fringe", help="classical fringe contrast")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=("raw", "clipped"), default="raw")
    p.set_defaults(func=_cmd_calib_fringe)

    p = sub.add_parser("calib-loss", help="propagation loss from a cut-back series")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_calib_loss)

    p = sub.add_parser("calib-dolp", help="degree of linear polarization")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_calib_dolp)

    return parser


def _cmd_simulate(args) -> None:
    from . import simulate
    from .config import config_digest
    from .formats import write_report

    cfg = load_scenario(args.config)
    stream, counters = simulate.run_simulation(
        cfg.emitter1, cfg.emitter2, cfg.circuit, cfg.detector, cfg.train, cfg.seed
    )
    write_ptg1(args.out, stream)
    for key, value in counters.as_dict().items():
        print("%s: %d" % (key.replace("_", " "), value))
    if args.report:
        write_report(
            args.report,
            {
                "counters": counters.as_dict(),
                "seed": cfg.seed,
                "config_digest": config_digest(cfg),
                "out": str(args.out),
            },
        )


def _cmd_analyze_hom(args) -> None:
    from . import correlate, interfere
    from .config import config_digest
    from .formats import write_histogram_csv, write_peaks_csv, write_report
    from .svgplot import histogram_svg

    cfg = load_scenario(args.config)
    ana = cfg.analysis
    stream = read_ptg1(args.tags)
    period = cfg.train.period_ps
    hist = correlate.cross_correlate(stream, ana.bin_width_ps, ana.window_ps)
    floor = correlate.estimate_background(hist, period, delta_t_ps=ana.delta_t_ps)

    def comb(corrected, n_side=ana.n_side, delta_t_ps=ana.delta_t_ps):
        # through the module, so that a wrapper of integrate_peaks sees each call
        return correlate.integrate_peaks(
            hist, period, delta_t_ps, n_side, floor=floor, corrected=corrected
        )

    raw, corrected = comb(False), comb(True)
    # the eleven-peak table, or the configured comb where ten side peaks do not fit
    try:
        table_raw, table_corr = comb(False, n_side=10), comb(True, n_side=10)
    except ConfigurationError:
        table_raw, table_corr = raw, corrected
    headline, table = (corrected, table_corr) if ana.background_correction else (raw, table_raw)
    narrow = comb(ana.background_correction, delta_t_ps=ana.postselect_delta_t_ps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        v_post = interfere.postselected_visibility(max(narrow.g2_zero, 0.0))
    g2_theory = interfere.g2_closed_form(
        cfg.emitter1, cfg.emitter2, cfg.circuit, cfg.train.source_delay_ps
    )

    hist_csv = args.out_prefix + "_hist.csv"
    write_histogram_csv(hist_csv, hist)
    svg_path = args.out_prefix + "_hist.svg"
    half = headline.delta_t_ps / 2.0
    centers = (period * headline.k_values).tolist()
    histogram_svg(svg_path, hist, peak_spans=[(c - half, c + half) for c in centers])
    peaks_csv = args.out_prefix + "_peaks.csv"
    write_peaks_csv(peaks_csv, table_raw, table_corr)

    report = {
        "g2_raw": raw.g2_zero,
        "g2_raw_err": raw.g2_zero_err,
        "g2_corrected": corrected.g2_zero,
        "g2_corrected_err": corrected.g2_zero_err,
        "g2_closed_form": g2_theory,
        "floor_per_bin": floor,
        "background_fraction": float(
            floor * hist.n_bins / max(hist.total_pairs, 1)
        ),
        "postselected_g2": narrow.g2_zero,
        "postselected_g2_err": narrow.g2_zero_err,
        "postselected_visibility": v_post,
        "eleven_peak_areas": {
            "k": table.k_values,
            "area": table.areas,
            "error": table.area_errors,
        },
        "analysis": asdict(ana),
        "seed": cfg.seed,
        "config_digest": config_digest(cfg),
        "files": {"histogram": hist_csv, "peaks": peaks_csv, "plot": svg_path},
    }
    write_report(args.out_prefix + "_report.json", report)
    print("g2_raw = %.6f +- %.6f" % (raw.g2_zero, raw.g2_zero_err))
    print("g2_corrected = %.6f +- %.6f" % (corrected.g2_zero, corrected.g2_zero_err))
    print("g2_headline = %.6f +- %.6f" % (headline.g2_zero, headline.g2_zero_err))
    print("floor_per_bin = %.6f" % floor)
    print("postselected_g2 = %.6f" % narrow.g2_zero)
    print("postselected_visibility = %.6f" % v_post)
    print("g2_closed_form = %.6f" % g2_theory)


def _cmd_correlate(args) -> None:
    from . import correlate
    from .formats import write_histogram_csv

    stream = read_ptg1(args.tags)
    hist = correlate.cross_correlate(stream, args.bin_width_ps, args.window_ps)
    write_histogram_csv(args.out, hist)
    print("total_pairs = %d" % hist.total_pairs)


def _cmd_timetrace(args) -> None:
    from . import correlate
    from .formats import write_timetrace_csv
    from .model import PulseTrainSpec

    stream = read_ptg1(args.tags)
    train = PulseTrainSpec(rep_rate_mhz=args.rep_rate_mhz, n_pulses=1)
    trace = correlate.timetrace(
        stream, train, bin_width_ps=args.bin_width_ps, channel=args.channel
    )
    write_timetrace_csv(args.out, trace)
    print("total_counts = %d" % int(trace.counts.sum()))


def _finish_fit(res, out_path) -> None:
    from .formats import write_report

    if res.status == "singular":
        raise EstimationError("fit failed: singular normal equations")
    for name in res.param_names:
        print("%s = %.6g +- %.3g" % (name, res[name], res.uncertainty(name)))
    print("reduced_chisq = %.4g" % res.reduced_chisq)
    print("status = %s" % res.status)
    if out_path:
        write_report(out_path, res.as_dict())


def _cmd_fit_decay(args) -> None:
    from . import fitting
    from .formats import read_timetrace_xy

    x, y = read_timetrace_xy(args.data)
    res = fitting.fit_biexp_irf(x, y, args.irf_fwhm_ps)
    _finish_fit(res, args.out)


def _cmd_fit_g2cw(args) -> None:
    from . import fitting
    from .formats import read_xy_csv

    x, y = read_xy_csv(args.data)
    res = fitting.fit_g2cw(x, y, args.irf_fwhm_ps)
    _finish_fit(res, args.out)


def _cmd_fit_lorentzian(args) -> None:
    from . import fitting
    from .formats import read_xy_csv
    from .model import t2_from_linewidth

    x, y = read_xy_csv(args.data)
    res = fitting.fit_lorentzian(x, y)
    width = args.instrument_fwhm_uev
    intrinsic = None if width is None else fitting.deconvolve_lorentzian(res["fwhm"], width)
    _finish_fit(res, args.out)
    if intrinsic is not None:
        print("intrinsic_fwhm_uev = %.6g" % intrinsic)
        print("t2_ps = %.6g" % t2_from_linewidth(intrinsic))


def _cmd_theory(args) -> None:
    from . import interfere
    from .formats import write_report
    from .model import EmitterSpec

    # t1_slow_ps is unused, as slow_fraction is 0
    e1, e2 = (
        EmitterSpec(energy_uev=0.0, t1_fast_ps=t1, t1_slow_ps=t1, slow_fraction=0.0, t2_ps=t2)
        for t1, t2 in ((args.t1_1, args.t2_1), (args.t1_2, args.t2_2))
    )
    v = interfere.visibility_closed_form(
        e1, e2, delta_uev=args.detuning_uev, pol_overlap=args.pol_overlap
    )
    print("V_closed_form = %.6f" % v)
    bound = min(0.5 * e1.t2_ps / e1.t1_fast_ps, 0.5 * e2.t2_ps / e2.t1_fast_ps)
    print("single_emitter_bound = %.6f" % bound)
    if args.out:
        write_report(
            args.out,
            {
                "V_closed_form": v,
                "single_emitter_bound": bound,
                "t1_ps": [args.t1_1, args.t1_2],
                "t2_ps": [args.t2_1, args.t2_2],
                "detuning_uev": args.detuning_uev,
                "pol_overlap": args.pol_overlap,
            },
        )


def _cmd_calib_splitter(args) -> None:
    from . import calib

    m = calib.SplitterMeasurement.from_drive_pairs(
        args.bar1, args.cross1, args.bar2, args.cross2
    )
    (r, t), imbalance = calib.splitting_ratio(m), calib.outcoupling_imbalance(m)
    print("r:t = %.1f:%.1f" % (100.0 * r, 100.0 * t))
    print("outcoupling_imbalance = %.4f" % imbalance)


def _cmd_calib_fringe(args) -> None:
    from . import calib
    from .formats import read_xy_csv

    _, y = read_xy_csv(args.data)
    v, err = calib.fringe_visibility(y, mode=args.mode)
    print("V = %.4f +- %.4f" % (v, err))


def _cmd_calib_loss(args) -> None:
    from . import calib
    from .formats import read_xy_csv

    x, y = read_xy_csv(args.data)
    loss, err = calib.fit_loss(x, y)
    print("loss = %.3f +- %.3f dB/mm" % (loss, err))


def _cmd_calib_dolp(args) -> None:
    from . import calib
    from .formats import read_xy_csv

    x, y = read_xy_csv(args.data)
    value, err = calib.dolp(x, y)
    print("DOLP = %.4f +- %.4f" % (value, err))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValidationError, ConfigurationError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (EstimationError, ModelDomainError, np.linalg.LinAlgError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
