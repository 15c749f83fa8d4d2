"""Import cost: homsim imports no scipy, in any module or CLI command."""

import json
import subprocess
import sys

import numpy as np

import homsim as hs
from helpers import scenario_dict

# Run in a fresh interpreter with scipy blocked, so that importing scipy or
# any submodule raises and the probe exits non-zero; otherwise print the exit
# code of each command of argv[1], a JSON list of argument lists.
_PROBE = """
import json, sys

sys.modules["scipy"] = None
import homsim.cli
print(json.dumps([homsim.cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def _write_xy(path, x, y):
    path.write_text("".join("%.17g,%.17g\n" % xy for xy in zip(x, y)))
    return str(path)


def test_no_command_imports_scipy(tmp_path):
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
    commands = [
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
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.strip().splitlines()[-1])
    assert dict(zip([argv[0] for argv in commands], codes)) == {argv[0]: 0 for argv in commands}
