"""Import cost: homsim imports no scipy, in any module or CLI command;
`import homsim` loads no submodule, and each command loads only the modules
it runs. Every check runs in a fresh interpreter, where no earlier test has
loaded a module for it."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homsim as hs
import homsim.cli
from helpers import scenario_dict

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Run in a fresh interpreter with scipy blocked, so that importing scipy or
# any submodule raises and the probe exits non-zero; otherwise print the exit
# code of each command of argv[1], a JSON list of argument lists.
_PROBE = """
import json, sys

sys.modules["scipy"] = None
import homsim.cli
print(json.dumps([homsim.cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""

# Run one command, argv[1:], in a fresh interpreter; print its exit code and
# the homsim modules and numpy.random it loaded.
_LOADS = """
import json, sys

import homsim.cli
code = homsim.cli.main(sys.argv[1:])
loaded = [m for m in sys.modules if m.startswith("homsim.") or m == "numpy.random"]
print(json.dumps([code, sorted(loaded)]))
"""

# Wrap what perfbench/cli_traced.py wraps, before any command runs, by
# wrappers that record the commands that call them; run the commands of
# argv[2], a JSON list of argument lists, and print the names each called.
_TRACED = """
import json, sys

sys.path.insert(0, sys.argv[1])
from cli_traced import TRACED
import homsim.cli as cli

called = []
def wrap(owner, attr, name):
    fn = getattr(owner, attr)
    def recorded(*args, **kwargs):
        called.append(name)
        return fn(*args, **kwargs)
    setattr(owner, attr, recorded)

for owner, attr, name in TRACED:
    wrap(owner, attr, name)
out = {}
for argv in json.loads(sys.argv[2]):
    del called[:]
    out[argv[0]] = [cli.main(argv), sorted(set(called))]
print(json.dumps(out))
"""


def _python(code, *args):
    """The last stdout line of code run in a fresh interpreter, read as JSON."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _write_xy(path, x, y):
    path.write_text("".join("%.17g,%.17g\n" % xy for xy in zip(x, y)))
    return str(path)


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """Argument lists of every command, by name, with their input files. The
    analyze-hom tag file is written by the simulate command run here."""
    tmp_path = tmp_path_factory.mktemp("commands")
    times = np.cumsum(np.full(2000, 6581, dtype=np.int64))
    tags = tmp_path / "small.ptg1"
    hs.write_ptg1(tags, hs.TimeTagStream(times, (np.arange(times.size) % 2).astype(np.uint8)))
    # the Gaussian draws of the IRF jitter and the spectral diffusion
    cfg = scenario_dict()
    for name in ("emitter1", "emitter2"):
        cfg[name] = dict(cfg[name], spectral_diffusion_sigma_uev=2.0)
    cfg["train"] = dict(cfg["train"], n_pulses=5000)
    assert cfg["detector"]["irf_fwhm_ps"] > 0.0
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(cfg))
    # data every fit command converges on, through the IRF-convolved models
    rng = np.random.default_rng(3)
    t = np.arange(0.0, 13160.0, 20.0)
    decay = hs.fitting._biexp_model(t, (2e4, 800.0, 700.0, 9000.0, 0.03, 2.0), 34.0)
    tau = np.linspace(-6000.0, 6000.0, 301)
    dip = 1.0 - 0.85 * (hs.exp_conv_gauss(tau, 500.0, 34.0) + hs.exp_conv_gauss(-tau, 500.0, 34.0))
    e = np.linspace(-60.0, 60.0, 121)
    line = 2.0 + 200.0 / np.pi * 16.5 / (4.0 * (e - 3.0) ** 2 + 16.5**2)
    angles = np.arange(0.0, 360.0, 10.0)
    malus = 100.0 * (1.0 + 0.8 * np.cos(np.deg2rad(2.0 * (angles - 30.0))))
    d = str(tmp_path)
    decay_csv = _write_xy(tmp_path / "decay.csv", t, rng.poisson(decay))
    dip_csv = _write_xy(tmp_path / "g2.csv", tau, dip + rng.normal(0.0, 0.01, tau.size))
    line_csv = _write_xy(tmp_path / "line.csv", e, line + rng.normal(0.0, 0.05, e.size))
    sweep_csv = _write_xy(tmp_path / "dolp.csv", angles, malus + rng.normal(0.0, 1.0, angles.size))
    phase = np.linspace(0.0, 4.0 * np.pi, 200)
    fringe_csv = _write_xy(tmp_path / "fringe.csv", phase, 1.0 + 0.9 * np.cos(phase))
    mm = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    cutback_csv = _write_xy(tmp_path / "cutback.csv", mm, 10.0 ** (-0.3 * mm / 10.0))
    argvs = [
        ["theory", "--t1-1", "720", "--t2-1", "100", "--t1-2", "600", "--t2-2", "440"],
        ["correlate", "--tags", str(tags), "--out", d + "/corr.csv"],
        ["timetrace", "--tags", str(tags), "--rep-rate-mhz", "76", "--out", d + "/trace.csv"],
        ["simulate", "--config", str(scenario), "--out", d + "/sim.ptg1"],
        ["analyze-hom", "--tags", d + "/sim.ptg1", "--config", str(scenario),
         "--out-prefix", d + "/hom"],
        ["fit-decay", "--data", decay_csv, "--irf-fwhm-ps", "80"],
        ["fit-g2cw", "--data", dip_csv, "--irf-fwhm-ps", "80"],
        ["fit-lorentzian", "--data", line_csv],
        ["calib-splitter", "51", "49", "46", "54"],
        ["calib-fringe", "--data", fringe_csv, "--mode", "clipped"],
        ["calib-loss", "--data", cutback_csv],
        ["calib-dolp", "--data", sweep_csv],
    ]
    by_name = {argv[0]: argv for argv in argvs}
    assert homsim.cli.main(by_name["simulate"]) == 0
    return by_name


def test_no_command_imports_scipy(commands):
    codes = _python(_PROBE, json.dumps(list(commands.values())))
    assert dict(zip(commands, codes)) == {name: 0 for name in commands}


def test_import_homsim_loads_no_submodule():
    probe = """
import json, sys
import homsim

print(json.dumps([m for m in sys.modules if m.startswith("homsim.")]))
"""
    assert _python(probe) == []


def test_names_and_submodules_resolve_on_first_access():
    probe = """
import json, sys
import homsim as hs

found = [
    hs.formats.write_timetrace_csv.__module__,
    hs.fitting._biexp_model.__module__,
    hs.TimeTagStream.__module__,
    hs.formats is sys.modules["homsim.formats"],
]
print(json.dumps(found))
"""
    assert _python(probe) == ["homsim.formats", "homsim.fitting", "homsim.formats", True]


def test_star_import_binds_every_exported_name():
    probe = """
import json
from homsim import *
import homsim

print(json.dumps([n for n in homsim.__all__ if n not in globals()]))
"""
    assert _python(probe) == []


# The modules a command must not load: those of the other commands
_NOT_LOADED = {
    "theory": {"homsim.simulate", "homsim.correlate", "homsim.fitting", "homsim.calib"},
    "fit-decay": {"homsim.simulate", "homsim.correlate"},
    "correlate": {"homsim.simulate", "homsim.interfere", "homsim.svgplot"},
    "timetrace": {"homsim.simulate", "homsim.interfere", "homsim.fitting", "homsim.svgplot"},
    "simulate": {"homsim.fitting"},
    "analyze-hom": {"homsim.simulate"},
    "calib-splitter": {"homsim.fitting"},
    "calib-fringe": {"homsim.fitting"},
    "calib-loss": {"homsim.fitting"},
    "calib-dolp": {"homsim.fitting"},
}
_NUMPY_2 = int(np.__version__.split(".")[0]) >= 2


@pytest.mark.parametrize(
    "name",
    ["theory", "correlate", "timetrace", "simulate", "analyze-hom", "fit-decay", "fit-g2cw",
     "fit-lorentzian", "calib-splitter", "calib-fringe", "calib-loss", "calib-dolp"],
)
def test_each_command_loads_only_its_modules(commands, name):
    code, loaded = _python(_LOADS, *commands[name])
    assert code == 0
    assert sorted(_NOT_LOADED.get(name, set()) & set(loaded)) == []
    # numpy >= 2 imports numpy.random on first use, which only simulate makes
    if _NUMPY_2:
        assert ("numpy.random" in loaded) == (name == "simulate")


def test_commands_call_the_wrappers_that_perfbench_traces(commands):
    names = ("simulate", "analyze-hom", "timetrace", "fit-decay")
    out = _python(_TRACED, str(_PERFBENCH), json.dumps([commands[n] for n in names]))
    assert out == {
        "simulate": [0, ["config.load_scenario", "formats.write_ptg1", "simulate.run_simulation"]],
        "analyze-hom": [0, [
            "config.load_scenario", "correlate.cross_correlate",
            "correlate.estimate_background", "correlate.integrate_peaks", "formats.read_ptg1",
        ]],
        "timetrace": [0, ["correlate.timetrace", "formats.read_ptg1"]],
        "fit-decay": [0, ["fitting.fit_biexp_irf"]],
    }
