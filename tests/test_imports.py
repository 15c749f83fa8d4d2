"""Import cost: `import homsim` loads numpy only; scipy loads at first use."""

import json
import subprocess
import sys

import numpy as np

import homsim as hs
from helpers import scenario_dict

# Run in a fresh interpreter; after each step, record which scipy modules
# are loaded. argv[1] is a small PTG1 file, argv[2] a scratch directory and
# argv[3] a scenario with timing jitter and spectral diffusion; analyze-hom
# reads the tag file that simulate writes.
_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {}
import homsim
seen["import homsim"] = scipy_modules()
import homsim.cli
seen["import homsim.cli"] = scipy_modules()
code = homsim.cli.main(
    ["theory", "--t1-1", "720", "--t2-1", "100", "--t1-2", "600", "--t2-2", "440"]
)
seen["theory"] = scipy_modules() + ([] if code == 0 else ["exit %d" % code])
code = homsim.cli.main(
    ["timetrace", "--tags", sys.argv[1], "--rep-rate-mhz", "76",
     "--out", sys.argv[2] + "/trace.csv"]
)
seen["timetrace"] = scipy_modules() + ([] if code == 0 else ["exit %d" % code])
code = homsim.cli.main(
    ["simulate", "--config", sys.argv[3], "--out", sys.argv[2] + "/sim.ptg1"]
)
seen["simulate"] = scipy_modules() + ([] if code == 0 else ["exit %d" % code])
code = homsim.cli.main(
    ["analyze-hom", "--tags", sys.argv[2] + "/sim.ptg1", "--config", sys.argv[3],
     "--out-prefix", sys.argv[2] + "/hom"]
)
seen["analyze-hom"] = scipy_modules() + ([] if code == 0 else ["exit %d" % code])
print(json.dumps(seen))
"""


def test_homsim_and_light_commands_load_no_scipy(tmp_path):
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
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tags), str(tmp_path), str(scenario)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {
        "import homsim": [],
        "import homsim.cli": [],
        "theory": [],
        "timetrace": [],
        "simulate": [],
        "analyze-hom": [],
    }
