"""One homsim CLI command with spans around its calls into homsim.

    cli_traced.py SPANS_JSON COMMAND [ARGS...]

Replaces the module functions the CLI calls by traced wrappers, runs
homsim.cli.main on the arguments, writes the spans to SPANS_JSON and
exits with the command's code.
"""

import sys

import homsim.cli as cli
import spans

TRACED = (
    (cli.simulate, "run_simulation", "simulate.run_simulation"),
    (cli.correlate, "cross_correlate", "correlate.cross_correlate"),
    (cli.correlate, "estimate_background", "correlate.estimate_background"),
    (cli.correlate, "integrate_peaks", "correlate.integrate_peaks"),
    (cli.correlate, "timetrace", "correlate.timetrace"),
    (cli.fitting, "fit_biexp_irf", "fitting.fit_biexp_irf"),
    # imported by name into homsim.cli
    (cli, "load_scenario", "config.load_scenario"),
    (cli, "read_ptg1", "formats.read_ptg1"),
    (cli, "write_ptg1", "formats.write_ptg1"),
)


def main(argv: list[str]) -> int:
    tracer = spans.Tracer()
    for owner, attr, name in TRACED:
        tracer.wrap(owner, attr, name)
    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
