"""The benchmark's workloads: inputs made from the seed, one round, checks.

A round repeats the same operations on the same inputs, so every round of
a run must give the same outputs; the first round is checked in full
against reference.py and checks.py, later ones against the first.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import checks
import reference
import spans

HERE = Path(__file__).resolve().parent

# The README's scenario: the reference pair on a 48:52 coupler.
SCENARIO = {
    "emitter1": {
        "energy_uev": 0.0, "t1_fast_ps": 720.0, "t1_slow_ps": 12000.0,
        "slow_fraction": 0.02, "t2_ps": 100.0, "emission_prob": 0.5,
        "double_prob": 0.0, "blink_on_rate_per_s": 0.0,
        "blink_off_rate_per_s": 0.0, "spectral_diffusion_sigma_uev": 0.0,
    },
    "emitter2": {
        "energy_uev": 0.0, "t1_fast_ps": 600.0, "t1_slow_ps": 12000.0,
        "slow_fraction": 0.012, "t2_ps": 440.0, "emission_prob": 0.5,
        "double_prob": 0.0, "blink_on_rate_per_s": 0.0,
        "blink_off_rate_per_s": 0.0, "spectral_diffusion_sigma_uev": 0.0,
    },
    "circuit": {
        "reflectance": 0.48, "pol_overlap": 0.95,
        "arm_transmission": [1.0, 1.0, 1.0, 1.0], "classical_visibility": None,
    },
    "detector": {
        "irf_fwhm_ps": 80.0, "dark_rate_cps": 300.0, "efficiency": 0.3,
        "dead_time_ps": 0.0,
    },
    "train": {"rep_rate_mhz": 76.0, "n_pulses": 1_000_000, "source_delay_ps": 0.0},
}
# analyze-hom's defaults, used by the in-process protocol as well
BIN_WIDTH_PS = 10.0
WINDOW_PS = 80_000.0
DELTA_T_PS = 3000.0
N_SIDE = 6


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit simulation seed for one run of one workload."""
    digest = hashlib.sha256(("%d:%s" % (seed, label)).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def specs(hs, scenario: dict):
    """homsim spec objects from a scenario dict."""
    circuit = dict(scenario["circuit"], arm_transmission=tuple(scenario["circuit"]["arm_transmission"]))
    return (
        hs.EmitterSpec(**scenario["emitter1"]),
        hs.EmitterSpec(**scenario["emitter2"]),
        hs.CircuitSpec(**circuit),
        hs.DetectorSpec(**scenario["detector"]),
        hs.PulseTrainSpec(**scenario["train"]),
    )


@contextlib.contextmanager
def threads(n: int):
    """HOMSIM_THREADS set to n for the calls made inside the block."""
    previous = os.environ.get("HOMSIM_THREADS")
    os.environ["HOMSIM_THREADS"] = str(n)
    try:
        yield
    finally:
        if previous is None:
            del os.environ["HOMSIM_THREADS"]
        else:
            os.environ["HOMSIM_THREADS"] = previous


def counters_of(result) -> dict:
    return {k: getattr(result, k) for k in spans.COUNTERS}


def _windowed(scenario: dict, delay_ps: float) -> float:
    det = scenario["detector"]
    return reference.windowed_ratio(
        scenario["emitter1"], scenario["emitter2"],
        scenario["circuit"]["reflectance"], scenario["circuit"]["pol_overlap"],
        det["efficiency"], det["irf_fwhm_ps"], 1e6 / scenario["train"]["rep_rate_mhz"],
        delay_ps, DELTA_T_PS, N_SIDE,
    )


def quadrature_self_test() -> list[str]:
    """The quadrature meets the T2/(2 T1) limit of identical emitters."""
    out = []
    for t1, t2 in ((720.0, 100.0), (600.0, 440.0), (500.0, 1000.0)):
        v = reference.visibility(t1, t2, t1, t2)
        if abs(v - t2 / (2.0 * t1)) > 1e-9:
            out.append("quadrature V %.10f for identical emitters, expected T2/(2T1) = %.10f" % (v, t2 / (2 * t1)))
    return out


class HomReference:
    """The paper's protocol in-process: a synchronised and a delayed run."""

    name = "hom-reference"
    ops_per_round = 1  # one visibility with its error bar
    warmup_rounds = 1  # the first round in a process pays page faults and thread start
    in_children = False  # homsim runs in this process
    pulses = 1_000_000  # per run; rounds of about 1 s, so a run's median is over many
    delay_ps = 500.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.scenario = copy.deepcopy(SCENARIO)
        self.scenario["detector"]["efficiency"] = 1.0
        self.scenario["train"]["n_pulses"] = self.pulses
        self.seeds = {run: derive_seed(seed, "%s/%s" % (self.name, run)) for run in ("synced", "delayed")}

    def build(self, hs) -> None:
        self.hs = hs
        e1, e2, circuit, det, train = specs(hs, self.scenario)
        self.args = (e1, e2, circuit, det)
        self.trains = {"synced": train, "delayed": hs.delayed_reference(train, self.delay_ps)}

    def prepare(self) -> list[str]:
        self.g_expected = {"synced": _windowed(self.scenario, 0.0), "delayed": _windowed(self.scenario, self.delay_ps)}
        self.windows = checks.peak_windows(self.trains["synced"].period_ps, DELTA_T_PS, N_SIDE, BIN_WIDTH_PS, WINDOW_PS)
        return quadrature_self_test()

    def simulate(self, tr, run: str):
        train = self.trains[run]
        return tr.call("simulate.run_simulation", self.hs.run_simulation, *self.args, train, self.seeds[run])

    def round(self, tr):
        hs = self.hs
        out = {}
        for run in ("synced", "delayed"):
            period = self.trains[run].period_ps
            stream, counters = self.simulate(tr, run)
            hist = tr.call("correlate.cross_correlate", hs.cross_correlate, stream, BIN_WIDTH_PS, WINDOW_PS)
            floor = tr.call("correlate.estimate_background", hs.estimate_background, hist, period, DELTA_T_PS)
            peaks = tr.call(
                "correlate.integrate_peaks", hs.integrate_peaks, hist, period, DELTA_T_PS, N_SIDE,
                floor=floor, corrected=True,
            )
            out[run] = {"stream": stream, "counters": counters_of(counters), "peaks": peaks}
        out["V"] = hs.hom_visibility(out["delayed"]["peaks"], out["synced"]["peaks"])
        return out, 0

    def check(self, out) -> list[str]:
        fails = []
        counted = {}
        for run in ("synced", "delayed"):
            o = out[run]
            times, channels = o["stream"].times_ps, o["stream"].channels
            fails += checks.tags_sorted(times, channels)
            fails += checks.counters_balance(o["counters"])
            fails += checks.tags_match_counters(times, o["counters"])
            counted[run] = checks.count_peak_areas(times, channels, self.windows)
            peaks = o["peaks"]
            fails += checks.areas_match(run, peaks.areas + peaks.floor_per_bin * peaks.bins_per_peak, counted[run])
            g, sigma = checks.ratio(counted[run])
            fails += checks.agrees("%s g2" % run, g, self.g_expected[run], sigma)
        fails += checks.visibility_agrees(
            out["V"][0], counted["synced"], counted["delayed"], self.g_expected["synced"], self.g_expected["delayed"]
        )
        return fails

    def summary(self, out) -> dict:
        return {
            "digest": [checks.digest(out[r]["stream"].times_ps, out[r]["stream"].channels) for r in ("synced", "delayed")],
            "V": out["V"],
        }

    def finish(self, first: dict) -> list[str]:
        """The synchronised run again on one thread gives the same tags."""
        fn, args = self.profile_run()
        with threads(1):
            stream, _ = fn(*args)
        if checks.digest(stream.times_ps, stream.channels) != first["digest"][0]:
            return ["single-thread tag stream differs from the threaded one"]
        return []

    def profile_run(self):
        """The simulation that the thread speed-up and peak allocation time."""
        return self.hs.run_simulation, (*self.args, self.trains["synced"], self.seeds["synced"])


class BlinkDeadtime(HomReference):
    """The same pair blinking, double-emitting and diffusing, 20 ns dead time."""

    name = "blink-deadtime"
    pulses = 500_000
    dead_time_ps = 20_000.0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        for key, blink_on, blink_off, double, diffusion in (
            ("emitter1", 2.0e6, 1.0e6, 0.05, 2.0),
            ("emitter2", 1.5e6, 1.0e6, 0.03, 3.0),
        ):
            self.scenario[key].update(
                blink_on_rate_per_s=blink_on, blink_off_rate_per_s=blink_off,
                double_prob=double, spectral_diffusion_sigma_uev=diffusion,
            )
        self.scenario["detector"]["dead_time_ps"] = self.dead_time_ps

    def prepare(self) -> list[str]:
        period = 1e6 / self.scenario["train"]["rep_rate_mhz"]
        self.emitted = [0.0, 0.0]
        for key in ("emitter1", "emitter2"):
            e = self.scenario[key]
            mean, var = reference.telegraph_photons(
                self.pulses, period, e["emission_prob"], e["double_prob"],
                e["blink_on_rate_per_s"], e["blink_off_rate_per_s"],
            )
            self.emitted = [self.emitted[0] + mean, self.emitted[1] + var]
        return []

    def round(self, tr):
        stream, counters = self.simulate(tr, "synced")
        hist = tr.call("correlate.cross_correlate", self.hs.cross_correlate, stream, BIN_WIDTH_PS, WINDOW_PS)
        return {"synced": {"stream": stream, "counters": counters_of(counters), "pairs": hist.total_pairs}}, 0

    def check(self, out) -> list[str]:
        o = out["synced"]
        times, channels = o["stream"].times_ps, o["stream"].channels
        fails = checks.tags_sorted(times, channels)
        fails += checks.counters_balance(o["counters"])
        fails += checks.tags_match_counters(times, o["counters"])
        fails += checks.dead_time_respected(times, channels, self.dead_time_ps)
        fails += checks.emitted_agrees(o["counters"]["photons_emitted"], *self.emitted)
        pairs = checks.count_pairs(times, channels, WINDOW_PS)
        if pairs != o["pairs"]:
            fails.append("cross_correlate holds %d pairs, counted %d from the tags" % (o["pairs"], pairs))
        return fails

    def summary(self, out) -> dict:
        o = out["synced"]
        return {"digest": [checks.digest(o["stream"].times_ps, o["stream"].channels)], "counters": o["counters"]}

    def finish(self, first: dict) -> list[str]:
        return []


# The README's typical session. fit-decay fits a trace made from the
# README scenario at its own seed, whatever --seed is: its fold fault makes
# the fit fail on some seeds and not on others, and on this one it fails
# every time (exit 3), which counts as one failed operation per round.
DECAY_SEED = 20260815
CLI_COMMANDS = ("simulate", "analyze-hom", "timetrace", "fit-decay", "theory")


class CliSession:
    """The README's typical session, each command a fresh interpreter."""

    name = "cli-session"
    ops_per_round = len(CLI_COMMANDS)
    warmup_rounds = 0  # every command is a fresh interpreter
    in_children = True  # homsim runs in the subprocesses

    def __init__(self, seed: int, workdir: Path) -> None:
        self.scenario = copy.deepcopy(SCENARIO)
        self.scenario["seed"] = derive_seed(seed, self.name)
        self.dir = workdir
        self.config = workdir / "scenario.json"
        self.decay_trace = workdir / "decay_trace.csv"

    def build(self, hs) -> None:
        self.hs = hs
        self.config.write_text(json.dumps(self.scenario, indent=2))

    def prepare(self) -> list[str]:
        e1, e2 = self.scenario["emitter1"], self.scenario["emitter2"]
        self.v_zero = reference.visibility(e1["t1_fast_ps"], e1["t2_ps"], e2["t1_fast_ps"], e2["t2_ps"], 0.95)
        self.g_expected = _windowed(self.scenario, 0.0)
        self.windows = checks.peak_windows(1e6 / 76.0, DELTA_T_PS, N_SIDE, BIN_WIDTH_PS, WINDOW_PS)
        self.fast_lifetimes = sorted((e1["t1_fast_ps"], e2["t1_fast_ps"]))
        hs = self.hs
        stream, _ = hs.run_simulation(*specs(hs, self.scenario), DECAY_SEED)
        trace = hs.timetrace(stream, hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=1), bin_width_ps=20.0)
        hs.formats.write_timetrace_csv(self.decay_trace, trace)
        return quadrature_self_test()

    def argv(self, command: str) -> list[str]:
        d = self.dir
        return {
            "simulate": ["--config", str(self.config), "--out", str(d / "run.ptg1"), "--report", str(d / "run.json")],
            "analyze-hom": ["--tags", str(d / "run.ptg1"), "--config", str(self.config), "--out-prefix", str(d / "run_hom")],
            "timetrace": ["--tags", str(d / "run.ptg1"), "--rep-rate-mhz", "76", "--bin-width-ps", "20", "--out", str(d / "trace.csv")],
            "fit-decay": ["--data", str(self.decay_trace), "--irf-fwhm-ps", "80", "--out", str(d / "decay.json")],
            "theory": [
                "--t1-1", "720", "--t2-1", "100", "--t1-2", "600", "--t2-2", "440",
                "--detuning-uev", "0", "--pol-overlap", "0.95", "--out", str(d / "theory.json"),
            ],
        }[command]

    def round(self, tr):
        out = {}
        failed = 0
        traced = isinstance(tr, spans.Tracer)
        for command in CLI_COMMANDS:
            spans_file = self.dir / ("spans-%s.json" % command)
            spans_file.unlink(missing_ok=True)
            if traced:
                cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans_file), command]
            else:
                cmd = [sys.executable, "-m", "homsim.cli", command]
            with tr.span("cli." + command) as span:
                proc = subprocess.run(cmd + self.argv(command), capture_output=True, text=True)
            if traced and spans_file.exists():
                tr.adopt(json.loads(spans_file.read_text()), span)
            out[command] = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
            if proc.returncode != 0:
                failed += 1
        return out, failed

    def check(self, out) -> list[str]:
        fails = []
        for command, o in out.items():
            if o["code"] != 0 and not (command == "fit-decay" and o["code"] == 3):
                fails.append("%s exited %d: %s" % (command, o["code"], o["stderr"].strip()[-300:]))
        if fails:
            return fails
        d = self.dir
        counters = json.loads((d / "run.json").read_text())["counters"]
        n_tags = counters["tags_written"]
        fails += checks.counters_balance(counters)
        fails += checks.ptg1_size(d / "run.ptg1", n_tags)
        times, channels = checks.read_ptg1(d / "run.ptg1")
        fails += checks.tags_sorted(times, channels)
        fails += checks.tags_match_counters(times, counters)

        counted = checks.count_peak_areas(times, channels, self.windows)
        rows = [line.split(",") for line in (d / "run_hom_peaks.csv").read_text().splitlines() if not line.startswith("#")]
        raw = {int(k): float(area) for k, area, *_ in rows if abs(int(k)) <= N_SIDE // 2}
        fails += checks.areas_match("analyze-hom", [raw[k] for k in sorted(raw)], counted)
        g_raw = json.loads((d / "run_hom_report.json").read_text())["g2_raw"]
        g, sigma = checks.ratio(counted)
        if abs(g_raw - g) > 1e-9:
            fails.append("analyze-hom g2_raw %.6f != %.6f from the counted areas" % (g_raw, g))
        fails += checks.agrees("analyze-hom g2_raw", g_raw, self.g_expected, sigma)

        v = json.loads((d / "theory.json").read_text())["V_closed_form"]
        if abs(v - self.v_zero) > 1e-9:
            fails.append("theory V %.9f != quadrature %.9f" % (v, self.v_zero))

        total = sum(int(line.split(",")[1]) for line in (d / "trace.csv").read_text().splitlines() if not line.startswith("#"))
        printed = int(out["timetrace"]["stdout"].split("total_counts =")[1].split()[0])
        if not total == printed == n_tags:
            fails.append("timetrace holds %d counts (prints %d), the tag file %d" % (total, printed, n_tags))

        if out["fit-decay"]["code"] == 0:
            tau = json.loads((d / "decay.json").read_text())["params"]["tau_fast"]
            lo, hi = self.fast_lifetimes
            if not lo <= tau <= hi:
                fails.append("fit-decay tau_fast %.1f ps outside the sources' [%g, %g] ps" % (tau, lo, hi))
        return fails

    def summary(self, out) -> dict:
        times, channels = checks.read_ptg1(self.dir / "run.ptg1")
        return {"codes": [o["code"] for o in out.values()], "digest": [checks.digest(times, channels)]}

    def finish(self, first: dict) -> list[str]:
        return []

    def profile_run(self):
        hs = self.hs
        cfg = hs.load_scenario(self.config)
        return hs.run_simulation, (cfg.emitter1, cfg.emitter2, cfg.circuit, cfg.detector, cfg.train, cfg.seed)


WORKLOADS = {w.name: w for w in (HomReference, BlinkDeadtime, CliSession)}
