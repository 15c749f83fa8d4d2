#!/usr/bin/env python3
"""Run the full two-emitter interference experiment and report visibility.

Runs `homsim simulate` and `homsim analyze-hom` on a synchronized run and a
delayed-reference run of one scenario, and forms V = (g_delayed - g_sync) /
g_delayed from the two reports. The delayed reference still interferes, so
each report's g2_closed_form predicts its own run, and the two give the
protocol's predicted V; the zero-delay V is reported alongside.

    python scripts/run_hom_experiment.py --config scenario.json --out-dir out/

Each run (sync, delayed) leaves its scenario <run>.json, <run>.ptg1 and
analyze-hom's files with the prefix <run>; experiment_report.json holds V.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import homsim as hs
from homsim import cli
from homsim.formats import write_report


def run_protocol(config, out, delay_ps) -> int:
    # both runs' scenarios are checked and written before either run starts
    cfg = hs.load_scenario(config)
    runs = {"sync": cfg, "delayed": replace(cfg, train=hs.delayed_reference(cfg.train, delay_ps))}
    out.mkdir(parents=True, exist_ok=True)
    for name, run_cfg in runs.items():
        (out / (name + ".json")).write_text(json.dumps(hs.scenario_to_dict(run_cfg)))
    for name in runs:
        prefix = str(out / name)
        print("%s run:" % name)
        code = cli.main(["simulate", "--config", prefix + ".json", "--out", prefix + ".ptg1"])
        code = code or cli.main(["analyze-hom", "--tags", prefix + ".ptg1",
                                 "--config", prefix + ".json", "--out-prefix", prefix])
        if code:
            return code
    sync, delayed = (json.loads((out / (name + "_report.json")).read_text()) for name in runs)
    v_meas, v_err = hs.hom_visibility(
        delayed["g2_corrected"], sync["g2_corrected"],
        delayed["g2_corrected_err"], sync["g2_corrected_err"],
    )
    v_protocol, _ = hs.hom_visibility(delayed["g2_closed_form"], sync["g2_closed_form"])
    v_closed = hs.visibility_closed_form(
        cfg.emitter1, cfg.emitter2, pol_overlap=cfg.circuit.overlap
    )
    print("measured visibility  V = %.4f +- %.4f" % (v_meas, v_err))
    print("closed-form estimate V = %.4f for this protocol (%.0f ps reference delay)"
          % (v_protocol, delay_ps))
    print("closed-form estimate V = %.4f at zero delay (ideal reference)" % v_closed)
    write_report(
        out / "experiment_report.json",
        {
            "sync_g2": sync["g2_corrected"],
            "sync_g2_err": sync["g2_corrected_err"],
            "delayed_g2": delayed["g2_corrected"],
            "delayed_g2_err": delayed["g2_corrected_err"],
            "V_measured": v_meas,
            "V_measured_err": v_err,
            "V_closed_form": v_closed,
            "V_closed_form_protocol": v_protocol,
            "sync_g2_predicted": sync["g2_closed_form"],
            "delayed_g2_predicted": delayed["g2_closed_form"],
            "delay_ps": delay_ps,
            "seed": sync["seed"],
            "config_digest": sync["config_digest"],
        },
    )
    print("artifacts written to %s" % out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="scenario JSON of the synchronized run")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--delay-ps", type=float, default=500.0,
                        help="source-2 excitation delay of the reference run")
    args = parser.parse_args(argv)
    try:
        return run_protocol(args.config, Path(args.out_dir), args.delay_ps)
    except (hs.ValidationError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
