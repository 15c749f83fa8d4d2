"""Command-line interface: subcommands, artifacts, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import homsim as hs
from homsim import fitting, formats
from homsim.cli import main
from helpers import scenario_dict


@pytest.fixture
def run(capsys):
    def _run(*args):
        code = main([str(a) for a in args])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def write_config(tmp_path, name="scenario.json", **overrides):
    p = tmp_path / name
    p.write_text(json.dumps(scenario_dict(**overrides)))
    return p


def write_two_tags(tmp_path):
    """A PTG1 file of one tag per channel: too few for the window-against-span check."""
    p = tmp_path / "two.ptg1"
    formats.write_ptg1(p, hs.TimeTagStream(np.array([10, 20]), np.array([0, 1], dtype=np.uint8)))
    return p


def write_xy(tmp_path, x, y, name="data.csv", header=""):
    p = tmp_path / name
    rows = "".join("%g,%g\n" % (a, b) for a, b in zip(x, y))
    p.write_text(header + rows)
    return p


class TestTheory:
    def test_reference_pair_visibility(self, run):
        code, out, _ = run(
            "theory", "--t1-1", 720, "--t2-1", 100, "--t1-2", 600, "--t2-2", 440,
            "--pol-overlap", 0.95,
        )
        assert code == 0
        value = float(out.split("V_closed_form =")[1].split()[0])
        assert value == pytest.approx(0.11729897328465283, abs=5e-7)
        assert 0.09 <= value <= 0.14

    def test_report_file(self, run, tmp_path):
        out_path = tmp_path / "theory.json"
        code, _, _ = run(
            "theory", "--t1-1", 720, "--t2-1", 100, "--t1-2", 600, "--t2-2", 440,
            "--detuning-uev", 5.0, "--out", out_path,
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["V_closed_form"] == pytest.approx(0.08925922932749987, rel=1e-9)
        assert data["detuning_uev"] == 5.0


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_detuning_exits_2(self, run, value):
        code, out, err = run(
            "theory", "--t1-1", 720, "--t2-1", 100, "--t1-2", 600, "--t2-2", 440,
            "--detuning-uev=" + value,
        )
        assert code == 2
        assert out == "" and err.startswith("error:") and "delta_uev" in err

    def test_polarisation_overlap_above_1_exits_2(self, run):
        code, out, err = run(
            "theory", "--t1-1", 720, "--t2-1", 100, "--t1-2", 600, "--t2-2", 440,
            "--pol-overlap", 1.5,
        )
        assert code == 2
        assert out == "" and err.startswith("error:") and "pol_overlap" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--detuning-uev", "1e300"],
            ["--detuning-uev", "1e200"],
            ["--t1-1", "1e-300", "--t2-1", "1e-300"],
            ["--t1-1", "1e-300", "--t2-1", "1e-300", "--t1-2", "1e-300", "--t2-2", "1e-300"],
            ["--t1-1", "1e308", "--t2-1", "1e308", "--t1-2", "1e308", "--t2-2", "1e308"],
        ],
    )
    def test_extreme_but_valid_inputs_print_a_finite_visibility(self, run, extra):
        code, out, _ = run(
            "theory", "--t1-1", 720, "--t2-1", 100, "--t1-2", 600, "--t2-2", 440, *extra
        )
        assert code == 0
        value = float(out.split("V_closed_form =")[1].split()[0])
        bound = float(out.split("single_emitter_bound =")[1].split()[0])
        assert np.isfinite(value) and 0.0 <= value <= 1.0
        assert 0.0 < bound <= 1.0

    def test_lifetimes_1e600_apart_at_huge_detuning_print_a_finite_visibility(self, run):
        code, out, _ = run(
            "theory", "--t1-1", "1e-300", "--t2-1", "1e-300", "--t1-2", "1e300",
            "--t2-2", "1e300", "--detuning-uev", "1e150",
        )
        assert code == 0
        value = float(out.split("V_closed_form =")[1].split()[0])
        assert np.isfinite(value) and abs(value) <= 1.0

    def test_lifetime_whose_rate_overflows_exits_2(self, run):
        code, _, err = run(
            "theory", "--t1-1", "1e-320", "--t2-1", "1e-320", "--t1-2", 600, "--t2-2", 440
        )
        assert code == 2
        assert err.startswith("error:") and "t1_fast_ps is too short" in err


class TestCalibCommands:
    def test_splitter_reference_ratio(self, run):
        code, out, _ = run("calib-splitter", 51, 49, 46, 54)
        assert code == 0
        assert "r:t = 48.5:51.5" in out

    @pytest.mark.parametrize(
        "drives,ratio",
        [
            (["1e308", "1e-308", "1e308", "1e-308"], "100.0:0.0"),  # was nan:nan
            (["1e-308", "1e308", "1e-308", "1e308"], "0.0:100.0"),  # was ZeroDivisionError
        ],
    )
    def test_splitter_extreme_ratios_stay_finite(self, run, drives, ratio):
        code, out, err = run("calib-splitter", *drives)
        assert (code, err) == (0, "")
        assert out == "r:t = %s\noutcoupling_imbalance = 1.0000\n" % ratio

    def test_fringe_full_swing(self, run, tmp_path):
        t = np.linspace(0.0, 4.0 * np.pi, 801)
        p = write_xy(tmp_path, t, 0.5 * (1.0 + np.cos(t)))
        code, out, _ = run("calib-fringe", "--data", p)
        assert code == 0
        assert "V = 1.0000" in out

    def test_loss_exact_line(self, run, tmp_path):
        d = np.linspace(0.25, 2.25, 9)
        p = write_xy(tmp_path, d, 500.0 * 10.0 ** (-6.5 * d / 10.0))
        code, out, _ = run("calib-loss", "--data", p)
        assert code == 0
        assert "loss = 6.500" in out

    def test_dolp_fit(self, run, tmp_path):
        ang = np.linspace(0.0, 360.0, 25, endpoint=False)
        y = 800.0 * (1.0 + 0.95 * np.cos(2.0 * np.deg2rad(ang - 20.0)))
        p = write_xy(tmp_path, ang, y)
        code, out, _ = run("calib-dolp", "--data", p)
        assert code == 0
        assert "DOLP = 0.9500" in out


class TestSimulate:
    def test_writes_valid_sorted_tags_and_counters(self, run, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "tags.ptg1"
        report = tmp_path / "sim.json"
        code, stdout, _ = run(
            "simulate", "--config", cfg, "--out", out, "--report", report
        )
        assert code == 0
        stream = formats.read_ptg1(out)
        assert stream.n_records > 0
        assert np.all(np.diff(stream.times_ps) >= 0)
        assert set(np.unique(stream.channels)) <= {0, 1}
        assert "photons emitted:" in stdout
        assert "tags written:" in stdout
        data = json.loads(report.read_text())
        assert data["seed"] == 20260815
        assert len(data["config_digest"]) == 64
        assert data["counters"]["tags_written"] == stream.n_records

    def test_fixed_seed_gives_identical_bytes(self, run, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.ptg1", tmp_path / "b.ptg1"
        assert run("simulate", "--config", cfg, "--out", out1)[0] == 0
        assert run("simulate", "--config", cfg, "--out", out2)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_silent_scenario_writes_empty_file(self, run, tmp_path):
        silent = scenario_dict()
        silent["emitter1"] = dict(silent["emitter1"], emission_prob=0.0)
        silent["emitter2"] = dict(silent["emitter2"], emission_prob=0.0)
        silent["detector"] = dict(silent["detector"], dark_rate_cps=0.0)
        cfg = tmp_path / "silent.json"
        cfg.write_text(json.dumps(silent))
        out = tmp_path / "empty.ptg1"
        code, _, _ = run("simulate", "--config", cfg, "--out", out)
        assert code == 0
        assert formats.read_ptg1(out).n_records == 0

    @pytest.mark.parametrize(
        "analysis,message",
        [
            # a 200 ns integration window leaves no dead zone at 76 MHz
            ({"delta_t_ps": 200000}, "analysis.delta_t_ps"),
            # the configured 50 ps comb fits +-39.5 ns (outermost edge 39498.7 ps),
            # analyze-hom's 100 ps post-selection comb does not
            ({"window_ps": 39500, "delta_t_ps": 50}, "edge 39523.7 ps) does not fit in the "
             "+-39500 ps analysis.window_ps"),
        ],
        ids=["no-dead-zone", "postselection-comb"],
    )
    def test_analysis_that_cannot_run_exits_2_before_writing_tags(
        self, run, tmp_path, analysis, message
    ):
        # the scenario fails to load, so simulate writes nothing
        cfg = write_config(tmp_path, analysis=analysis)
        out = tmp_path / "tags.ptg1"
        code, _, err = run("simulate", "--config", cfg, "--out", out)
        assert code == 2
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_thread_count_does_not_change_file_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        blobs = []
        for workers in ("1", "2", "8"):
            out = tmp_path / ("tags_%s.ptg1" % workers)
            env = dict(os.environ, HOMSIM_THREADS=workers)
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from homsim.cli import main; sys.exit(main(sys.argv[1:]))",
                 "simulate", "--config", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


@pytest.fixture(scope="module")
def sim_artifacts(tmp_path_factory):
    """One mid-size simulated run shared by the analysis-command tests."""
    tmp = tmp_path_factory.mktemp("cli_sim")
    cfg = tmp / "scenario.json"
    cfg.write_text(json.dumps(scenario_dict()))
    tags = tmp / "tags.ptg1"
    code = main(["simulate", "--config", str(cfg), "--out", str(tags)])
    assert code == 0
    return {"dir": tmp, "config": cfg, "tags": tags}


class TestAnalyzeHom:
    def test_report_and_artifacts(self, run, sim_artifacts):
        prefix = str(sim_artifacts["dir"] / "hom")
        code, out, _ = run(
            "analyze-hom",
            "--tags", sim_artifacts["tags"],
            "--config", sim_artifacts["config"],
            "--out-prefix", prefix,
        )
        assert code == 0
        report = json.loads((sim_artifacts["dir"] / "hom_report.json").read_text())
        for key in (
            "g2_raw", "g2_corrected", "floor_per_bin", "background_fraction",
            "postselected_g2", "postselected_visibility", "eleven_peak_areas",
            "config_digest", "seed", "g2_closed_form",
        ):
            assert key in report
        # the analysis block is the scenario's analysis spec, with no comb offset
        assert report["analysis"] == dataclasses.asdict(hs.AnalysisSpec())
        assert 0.0 <= report["g2_corrected"] <= 2.0
        assert 0.0 <= report["background_fraction"] <= 1.0
        assert len(report["eleven_peak_areas"]["k"]) == 11
        assert report["eleven_peak_areas"]["k"][5] == 0
        assert "g2_corrected = " in out
        counts = np.loadtxt(sim_artifacts["dir"] / "hom_hist.csv", delimiter=",", usecols=1)
        assert counts.sum() > 0
        svg = (sim_artifacts["dir"] / "hom_hist.svg").read_text()
        assert "<svg" in svg
        peaks = (sim_artifacts["dir"] / "hom_peaks.csv").read_text().splitlines()
        assert sum(1 for ln in peaks if not ln.startswith("#")) == 11

    def test_comb_offset_flag_is_refused(self, capsys, sim_artifacts, tmp_path):
        # the comb sits at k*period, so a script still passing an offset
        # gets a usage error, not a report analysed at a comb it did not ask for
        with pytest.raises(SystemExit) as exc:
            main(["analyze-hom", "--help"])
        assert exc.value.code == 0
        assert "--comb-offset-ps" not in capsys.readouterr().out
        prefix = tmp_path / "off"
        with pytest.raises(SystemExit) as exc:
            main([
                "analyze-hom",
                "--tags", str(sim_artifacts["tags"]),
                "--config", str(sim_artifacts["config"]),
                "--out-prefix", str(prefix),
                "--comb-offset-ps", "500",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --comb-offset-ps" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_peaks_table_is_not_read_as_two_column_data(self, run, sim_artifacts, tmp_path):
        prefix = str(tmp_path / "hom")
        args = ("--tags", sim_artifacts["tags"], "--config", sim_artifacts["config"])
        assert run("analyze-hom", *args, "--out-prefix", prefix)[0] == 0
        code, out, err = run("calib-loss", "--data", prefix + "_peaks.csv")
        assert code == 2
        assert "hom_peaks.csv must have two numeric columns, not 4" in err
        assert out == ""

    def test_window_without_room_for_eleven_peaks_tables_the_configured_comb(
        self, run, sim_artifacts, tmp_path
    ):
        # ten side peaks reach 5 periods + 1.5 ns = 67.3 ns, past a 60 ns window
        cfg = write_config(tmp_path, analysis={"window_ps": 60000.0, "n_side": 6})
        code, _, err = run(
            "analyze-hom",
            "--tags", sim_artifacts["tags"],
            "--config", cfg,
            "--out-prefix", tmp_path / "w60",
        )
        assert code == 0, err
        report = json.loads((tmp_path / "w60_report.json").read_text())
        assert report["eleven_peak_areas"]["k"] == [-3, -2, -1, 0, 1, 2, 3]
        peaks = (tmp_path / "w60_peaks.csv").read_text().splitlines()
        assert sum(1 for ln in peaks if not ln.startswith("#")) == 7

    def test_without_background_correction_every_headline_is_raw(
        self, run, sim_artifacts, tmp_path
    ):
        cfg = write_config(tmp_path, analysis={"background_correction": False})
        code, out, err = run(
            "analyze-hom",
            "--tags", sim_artifacts["tags"],
            "--config", cfg,
            "--out-prefix", tmp_path / "raw",
        )
        assert code == 0, err
        report = json.loads((tmp_path / "raw_report.json").read_text())
        # with a floor, the raw and corrected figures differ
        assert report["floor_per_bin"] > 0.0
        assert report["g2_raw"] != report["g2_corrected"]
        printed = dict(ln.split(" = ") for ln in out.splitlines())
        assert printed["g2_headline"] == printed["g2_raw"]

        ana = hs.config.AnalysisSpec()
        period = hs.PulseTrainSpec(rep_rate_mhz=76.0, n_pulses=1).period_ps
        hist = hs.cross_correlate(
            formats.read_ptg1(sim_artifacts["tags"]), ana.bin_width_ps, ana.window_ps
        )
        table = hs.integrate_peaks(hist, period, ana.delta_t_ps, n_side=10)
        assert report["eleven_peak_areas"]["area"] == table.areas.tolist()
        assert report["eleven_peak_areas"]["error"] == table.area_errors.tolist()
        narrow = hs.integrate_peaks(hist, period, max(100.0, 2.0 * ana.bin_width_ps), ana.n_side)
        assert report["postselected_g2"] == narrow.g2_zero
        assert report["postselected_g2_err"] == narrow.g2_zero_err


class TestCorrelateCommand:
    def test_histogram_csv(self, run, sim_artifacts):
        out = sim_artifacts["dir"] / "hist.csv"
        code, stdout, _ = run(
            "correlate", "--tags", sim_artifacts["tags"],
            "--bin-width-ps", 50, "--window-ps", 40000, "--out", out,
        )
        assert code == 0
        counts = np.loadtxt(out, delimiter=",", usecols=1, dtype=np.int64)
        printed = int(stdout.split("total_pairs =")[1].split()[0])
        assert printed == counts.sum()

    def test_bad_geometry_exits_2(self, run, sim_artifacts):
        code, _, err = run(
            "correlate", "--tags", sim_artifacts["tags"],
            "--bin-width-ps", 7, "--window-ps", 100,
            "--out", sim_artifacts["dir"] / "x.csv",
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("window", [1e13, 1e30])
    def test_grid_too_large_to_allocate_exits_2_naming_the_bin_count(
        self, run, tmp_path, window
    ):
        code, _, err = run(
            "correlate", "--tags", write_two_tags(tmp_path),
            "--bin-width-ps", 1, "--window-ps", window, "--out", tmp_path / "x.csv",
        )
        assert code == 2
        assert err.startswith("error: %g bins do not fit in memory" % (2.0 * window))

    @pytest.mark.parametrize("command", ["correlate", "analyze-hom"])
    def test_bin_count_that_overflows_exits_2_naming_the_window(
        self, run, sim_artifacts, tmp_path, command
    ):
        # 2 * 1e308 / bin width overflows to inf; analyze-hom fails as the scenario
        # loads, before it reads the tags
        cfg = write_config(tmp_path, analysis={"window_ps": 1e308})
        args = {
            "correlate": ["--window-ps", "1e308", "--bin-width-ps", 1, "--out", tmp_path / "c.csv"],
            "analyze-hom": ["--config", cfg, "--out-prefix", tmp_path / "a"],
        }[command]
        code, out, err = run(command, "--tags", sim_artifacts["tags"], *args)
        assert code == 2
        assert err.startswith("error: correlation window 1e+308 ps over bin width")
        assert "Traceback" not in err and out == ""
        assert list(tmp_path.glob("[ac]*")) == []

    @pytest.mark.parametrize("workers", ["0", "abc"])
    def test_bad_thread_count_exits_2(self, run, monkeypatch, sim_artifacts, tmp_path, workers):
        monkeypatch.setenv("HOMSIM_THREADS", workers)
        code, out, err = run(
            "correlate", "--tags", sim_artifacts["tags"],
            "--bin-width-ps", 50, "--window-ps", 40000, "--out", tmp_path / "c.csv",
        )
        assert code == 2
        assert out == "" and err.startswith("error: HOMSIM_THREADS must ")

    def test_window_wider_than_the_data_span_exits_2_naming_the_span(self, run, tmp_path):
        # 200 pulses at 76 MHz span about 2.6 us, less than the 10 us window
        cfg = write_config(tmp_path, train={"rep_rate_mhz": 76.0, "n_pulses": 200,
                                            "source_delay_ps": 0.0})
        assert run("simulate", "--config", cfg, "--out", tmp_path / "t.ptg1")[0] == 0
        code, out, err = run(
            "correlate", "--tags", tmp_path / "t.ptg1",
            "--bin-width-ps", 50, "--window-ps", 1e7, "--out", tmp_path / "c.csv",
        )
        assert code == 2
        assert out == "" and err.startswith("error: correlation window 1e+07 ps exceeds the data span")

    def test_finite_bin_count_past_any_array_exits_2_on_a_short_line(self, run, tmp_path):
        # 2e300 bins is a finite float with 301 digits as an integer
        code, out, err = run(
            "correlate", "--tags", write_two_tags(tmp_path),
            "--bin-width-ps", 1, "--window-ps", 1e300, "--out", tmp_path / "c.csv",
        )
        assert code == 2
        assert err.startswith("error: 2e+300 bins do not fit in memory")
        assert "Traceback" not in err and out == ""
        assert len(err.splitlines()[0]) < 120


class TestTimetraceCommand:
    def test_counts_conserved_and_channel_filter(self, run, sim_artifacts):
        stream = formats.read_ptg1(sim_artifacts["tags"])
        out_all = sim_artifacts["dir"] / "trace.csv"
        code, stdout, _ = run(
            "timetrace", "--tags", sim_artifacts["tags"],
            "--rep-rate-mhz", 76, "--out", out_all,
        )
        assert code == 0
        total = int(stdout.split("total_counts =")[1].split()[0])
        assert total == stream.n_records
        out_ch0 = sim_artifacts["dir"] / "trace0.csv"
        code, stdout, _ = run(
            "timetrace", "--tags", sim_artifacts["tags"],
            "--rep-rate-mhz", 76, "--channel", 0, "--out", out_ch0,
        )
        assert code == 0
        assert float(formats.read_csv_header(out_ch0)["channel"]) == 0
        counts = np.loadtxt(out_ch0, delimiter=",", usecols=1, dtype=np.int64)
        assert counts.sum() == int((stream.channels == 0).sum())

    def test_period_too_long_to_allocate_exits_2_naming_the_bin_count(self, run, tmp_path):
        # 1e-9 MHz: a 1e15 ps period in 20 ps bins
        code, _, err = run(
            "timetrace", "--tags", write_two_tags(tmp_path), "--rep-rate-mhz", 1e-9,
            "--out", tmp_path / "x.csv",
        )
        assert code == 2
        assert err.startswith("error: 5e+13 bins do not fit in memory")


class TestFitCommands:
    def test_fit_decay_closed_loop(self, run, tmp_path):
        # emitter 1 alone at a slow rep rate (period >> slow tail, so the
        # fold is benign), then refit the folded trace
        solo = scenario_dict()
        solo["emitter1"] = dict(solo["emitter1"], emission_prob=1.0)
        solo["emitter2"] = dict(solo["emitter2"], emission_prob=0.0)
        solo["detector"] = dict(
            solo["detector"], efficiency=1.0, dark_rate_cps=0.0, irf_fwhm_ps=200.0
        )
        solo["train"] = dict(solo["train"], rep_rate_mhz=5.0, n_pulses=150000)
        # a window of 3 periods and the 6-side-peak comb at 200 ns, which the
        # scenario must hold to load
        solo["analysis"] = {"window_ps": 640000.0}
        cfg = tmp_path / "solo.json"
        cfg.write_text(json.dumps(solo))
        tags = tmp_path / "solo.ptg1"
        assert run("simulate", "--config", cfg, "--out", tags)[0] == 0
        trace = tmp_path / "solo_trace.csv"
        assert run(
            "timetrace", "--tags", tags, "--rep-rate-mhz", 5,
            "--bin-width-ps", 20, "--out", trace,
        )[0] == 0
        report = tmp_path / "fit.json"
        code, out, _ = run(
            "fit-decay", "--data", trace, "--irf-fwhm-ps", 200, "--out", report
        )
        assert code == 0
        fit = json.loads(report.read_text())
        assert fit["status"] == "converged"
        assert fit["params"]["tau_fast"] == pytest.approx(720.0, rel=0.05)
        assert "tau_fast" in out

    def test_fit_decay_on_readme_folded_trace(self, run, tmp_path):
        # the README session: 76 MHz fold with half the IRF rise wrapped to
        # the end of the period; emitter 1 has tau_fast 720 ps, emitter 2 600
        cfg = write_config(
            tmp_path, train={"rep_rate_mhz": 76.0, "n_pulses": 1000000,
                             "source_delay_ps": 0.0},
        )
        tags = tmp_path / "run.ptg1"
        assert run("simulate", "--config", cfg, "--out", tags)[0] == 0
        trace = tmp_path / "trace.csv"
        assert run(
            "timetrace", "--tags", tags, "--rep-rate-mhz", 76,
            "--bin-width-ps", 20, "--out", trace,
        )[0] == 0
        report = tmp_path / "decay.json"
        code, _, err = run(
            "fit-decay", "--data", trace, "--irf-fwhm-ps", 80, "--out", report
        )
        assert code == 0, err
        fit = json.loads(report.read_text())
        assert fit["status"] == "converged"
        assert 600.0 <= fit["params"]["tau_fast"] <= 720.0

    def test_fit_g2cw_closed_loop(self, run, tmp_path):
        # normalized dip generated from the same blurred-exponential form
        tau = np.arange(-6000.0, 6000.0, 20.0)
        sigma = 200.0 / 2.3548200450309493
        blur = fitting.exp_conv_gauss(tau, 800.0, sigma) + fitting.exp_conv_gauss(
            -tau, 800.0, sigma
        )
        y = 1.0 - (1.0 - 0.2) * blur
        p = write_xy(tmp_path, tau, y)
        report = tmp_path / "g2cw.json"
        code, _, _ = run(
            "fit-g2cw", "--data", p, "--irf-fwhm-ps", 200, "--out", report
        )
        assert code == 0
        fit = json.loads(report.read_text())
        assert fit["params"]["g0"] == pytest.approx(0.2, abs=0.02)
        assert fit["params"]["tau_d"] == pytest.approx(800.0, rel=0.05)

    def test_fit_lorentzian_with_deconvolution(self, run, tmp_path):
        x = np.linspace(-60.0, 60.0, 241)
        fwhm = 16.5
        y = 1000.0 * (fwhm / (2 * np.pi)) / (x**2 + (fwhm / 2.0) ** 2) + 5.0
        p = write_xy(tmp_path, x, y)
        code, out, _ = run(
            "fit-lorentzian", "--data", p, "--instrument-fwhm-uev", 3.0
        )
        assert code == 0
        intrinsic = float(out.split("intrinsic_fwhm_uev =")[1].split()[0])
        t2 = float(out.split("t2_ps =")[1].split()[0])
        assert intrinsic == pytest.approx(13.5, rel=1e-6)
        assert t2 == pytest.approx(97.51288250370371, rel=1e-5)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_instrument_width_exits_2_naming_it(self, run, tmp_path, value):
        x = np.linspace(-60.0, 60.0, 241)
        y = 1000.0 * (16.5 / (2 * np.pi)) / (x**2 + (16.5 / 2.0) ** 2) + 5.0
        p = write_xy(tmp_path, x, y)
        code, out, err = run("fit-lorentzian", "--data", p, "--instrument-fwhm-uev", value)
        assert code == 2
        assert err.startswith("error:") and "instrument width" in err
        assert "intrinsic_fwhm_uev" not in out

    def test_deconvolution_failure_leaves_no_result(self, run, tmp_path):
        x = np.linspace(-60.0, 60.0, 241)
        y = 1000.0 * (16.5 / (2 * np.pi)) / (x**2 + (16.5 / 2.0) ** 2) + 5.0
        report = tmp_path / "lor.json"
        code, out, err = run(
            "fit-lorentzian", "--data", write_xy(tmp_path, x, y),
            "--instrument-fwhm-uev", 100, "--out", report,
        )
        assert code == 2
        assert err.startswith("error:") and "must exceed the instrument width" in err
        assert out == ""
        assert not report.exists()

    @pytest.mark.parametrize("width", ["abc", "nan", "inf", "0", "-20"])
    def test_unusable_bin_width_header_exits_2_naming_it(self, run, tmp_path, width):
        p = write_xy(
            tmp_path, _DECAY_X, 1000.0 * np.exp(-_DECAY_X / 700.0) + 5.0,
            header="# bin_width_ps=%s\n" % width,
        )
        code, out, err = run("fit-decay", "--data", p, "--irf-fwhm-ps", 80)
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert "bin_width_ps" in err
        assert out == ""

    def test_nan_sample_exits_2(self, run, tmp_path):
        tau = np.arange(-3000.0, 3000.0, 20.0)
        y = 1.0 - 0.8 * np.exp(-np.abs(tau) / 800.0)
        y[5] = np.nan
        p = write_xy(tmp_path, tau, y)
        code, _, err = run("fit-g2cw", "--data", p, "--irf-fwhm-ps", 200)
        assert code == 2
        assert err.startswith("error:") and "finite" in err

    def test_flat_g2cw_exits_3(self, run, tmp_path):
        tau = np.arange(-3000.0, 3000.0, 20.0)
        p = write_xy(tmp_path, tau, np.full(tau.size, 250.0))
        code, _, err = run("fit-g2cw", "--data", p, "--irf-fwhm-ps", 200)
        assert code == 3
        assert "numerical failure" in err


_FRINGE_X = np.arange(20.0)
_LOSS_X = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
_ANGLES = np.arange(0.0, 360.0, 20.0)
_DECAY_X = np.arange(0.0, 4000.0, 20.0)
_DIP_X = np.arange(-3000.0, 3000.0, 20.0)


def _with(values, i, bad):
    out = np.array(values, dtype=float)
    out[i] = bad
    return out


# (arguments, data file as two columns or as its text or None, analysis
# block or None); "{tags}", "{config}", "{data}" and "{tmp}" are filled in
# by the test
_NON_FINITE_CASES = {
    "correlate-bin-nan": (["correlate", "--tags", "{tags}", "--bin-width-ps", "nan",
                           "--out", "{tmp}/c.csv"], None, None),
    "correlate-window-nan": (["correlate", "--tags", "{tags}", "--window-ps", "nan",
                              "--out", "{tmp}/c.csv"], None, None),
    "correlate-window-inf": (["correlate", "--tags", "{tags}", "--window-ps", "inf",
                              "--out", "{tmp}/c.csv"], None, None),
    **{
        "timetrace-bin-" + v: (["timetrace", "--tags", "{tags}", "--rep-rate-mhz", "76",
                                "--bin-width-ps", v, "--out", "{tmp}/t.csv"], None, None)
        for v in ("nan", "inf", "1e-300")
    },
    "analyze-config-bin-nan": (["analyze-hom", "--tags", "{tags}", "--config", "{config}",
                                "--out-prefix", "{tmp}/a"], None, {"bin_width_ps": np.nan}),
    "analyze-config-window-inf": (["analyze-hom", "--tags", "{tags}", "--config", "{config}",
                                   "--out-prefix", "{tmp}/a"], None, {"window_ps": np.inf}),
    "fit-decay-one-row": (["fit-decay", "--data", "{data}", "--irf-fwhm-ps", "80"],
                          ([1.0], [2.0]), None),
    "fit-lorentzian-one-row": (["fit-lorentzian", "--data", "{data}"], ([1.0], [2.0]), None),
    **{
        "fit-decay-irf-" + v: (["fit-decay", "--data", "{data}", "--irf-fwhm-ps", v],
                               (_DECAY_X, 1000.0 * np.exp(-_DECAY_X / 700.0) + 5.0), None)
        for v in ("nan", "inf", "0")
    },
    **{
        "fit-g2cw-irf-" + v: (["fit-g2cw", "--data", "{data}", "--irf-fwhm-ps", v],
                              (_DIP_X, 1.0 - 0.8 * np.exp(-np.abs(_DIP_X) / 800.0)), None)
        for v in ("nan", "inf", "0")
    },
    # a NaN abscissa, which the models would evaluate to their baseline
    "fit-decay-time-nan": (["fit-decay", "--data", "{data}", "--irf-fwhm-ps", "80"],
                           (_with(_DECAY_X, 5, np.nan), 1000.0 * np.exp(-_DECAY_X / 700.0) + 5.0),
                           None),
    "fit-g2cw-delay-nan": (["fit-g2cw", "--data", "{data}", "--irf-fwhm-ps", "80"],
                           (_with(_DIP_X, 5, np.nan), 1.0 - 0.8 * np.exp(-np.abs(_DIP_X) / 800.0)),
                           None),
    "calib-splitter-inf": (["calib-splitter", "inf", "1", "1", "1"], None, None),
    # outcoupling imbalances of 1e616 and 1e-616
    "calib-splitter-imbalance-over": (["calib-splitter", "1e308", "1e-308", "1e-308", "1e308"],
                                      None, None),
    "calib-splitter-imbalance-under": (["calib-splitter", "1e-308", "1e308", "1e308", "1e-308"],
                                       None, None),
    **{
        "calib-fringe-" + str(bad): (["calib-fringe", "--data", "{data}"],
                                     (_FRINGE_X, _with(1 + np.cos(_FRINGE_X / 3), 4, bad)),
                                     None)
        for bad in (np.nan, np.inf)
    },
    **{
        "calib-loss-" + str(bad): (["calib-loss", "--data", "{data}"],
                                   (_LOSS_X, _with(np.exp(-_LOSS_X / 4), 2, bad)), None)
        for bad in (np.nan, np.inf)
    },
    "calib-dolp-nan": (["calib-dolp", "--data", "{data}"],
                       (_ANGLES, _with(2 + np.cos(np.radians(2 * _ANGLES)), 3, np.nan)), None),
    # files without a data row
    "calib-fringe-empty-file": (["calib-fringe", "--data", "{data}"], "", None),
    "calib-loss-blank-file": (["calib-loss", "--data", "{data}"], "\n\n\n", None),
    "fit-decay-header-only": (["fit-decay", "--data", "{data}", "--irf-fwhm-ps", "80"],
                              "# bin_width_ps=20\n# period_ps=13157.9\n", None),
}


@pytest.mark.parametrize("case", list(_NON_FINITE_CASES))
def test_non_finite_or_too_short_input_exits_2_without_a_result(
    run, sim_artifacts, tmp_path, case
):
    args, data, analysis = _NON_FINITE_CASES[case]
    fill = {"tags": sim_artifacts["tags"], "config": sim_artifacts["config"], "tmp": tmp_path}
    if isinstance(data, str):
        fill["data"] = tmp_path / "data.csv"
        fill["data"].write_text(data)
    elif data is not None:
        fill["data"] = write_xy(tmp_path, *data)
    if analysis is not None:
        fill["config"] = write_config(tmp_path, analysis=analysis)  # NaN, Infinity
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(*(a.format(**fill) for a in args))
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "Traceback" not in err
    assert out == "" and caught == []


class TestExitCodes:
    def test_missing_tag_file_exits_2(self, run, tmp_path):
        cfg = write_config(tmp_path)
        code, _, err = run(
            "analyze-hom", "--tags", tmp_path / "nope.ptg1",
            "--config", cfg, "--out-prefix", tmp_path / "x",
        )
        assert code == 2
        assert "error:" in err

    def test_invalid_config_exits_2(self, run, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1}')
        code, _, err = run(
            "simulate", "--config", bad, "--out", tmp_path / "x.ptg1"
        )
        assert code == 2
        assert "missing required key" in err

    @pytest.mark.parametrize(
        "field,value,words",
        [
            ("dead_time_ps", float("inf"), ["dead_time_ps", "finite"]),
            ("dark_rate_cps", 1e30, ["dark_rate_cps", "span"]),
        ],
    )
    def test_unusable_detector_value_exits_2(self, run, tmp_path, field, value, words):
        cfg = scenario_dict()
        cfg["detector"] = dict(cfg["detector"], **{field: value})
        cfg["train"] = dict(cfg["train"], n_pulses=20000)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))  # inf is written as Infinity
        code, _, err = run("simulate", "--config", path, "--out", tmp_path / "x.ptg1")
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        for word in words:
            assert word in err

    def test_nan_analysis_width_exits_2_naming_the_field(self, run, tmp_path):
        cfg = scenario_dict()
        cfg["analysis"] = {"delta_t_ps": float("nan")}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))  # nan is written as NaN
        code, _, err = run(
            "analyze-hom", "--tags", tmp_path / "x.ptg1", "--config", path,
            "--out-prefix", tmp_path / "x",
        )
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert "analysis.delta_t_ps" in err

    def test_blink_rates_whose_sum_overflows_exit_2_at_load(self, run, tmp_path):
        # the scenario holds the emitter, so analyze-hom rejects it as simulate does
        cfg = scenario_dict()
        cfg["emitter1"] = dict(cfg["emitter1"], blink_on_rate_per_s=1e308,
                               blink_off_rate_per_s=1e308)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        tags = write_two_tags(tmp_path)
        code, _, err = run(
            "analyze-hom", "--tags", tags, "--config", path, "--out-prefix", tmp_path / "x"
        )
        assert code == 2
        assert err == "error: blink_on_rate_per_s + blink_off_rate_per_s overflows\n"

    def test_lifetime_beyond_tag_clock_exits_2(self, run, tmp_path):
        cfg = scenario_dict()
        cfg["emitter1"] = dict(cfg["emitter1"], t1_slow_ps=1e300)
        cfg["train"] = dict(cfg["train"], n_pulses=20000)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run("simulate", "--config", path, "--out", tmp_path / "x.ptg1")
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert "int64 picosecond tag clock" in err

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command,flag,args",
        [
            ("correlate", "--svg", ["--svg", "{tmp}/x.svg", "--out", "{tmp}/c.csv"]),
            ("timetrace", "--svg", ["--rep-rate-mhz", "76", "--svg", "{tmp}/x.svg",
                                    "--out", "{tmp}/t.csv"]),
            ("calib-dolp", "--raw", ["--raw"]),
        ],
    )
    def test_removed_option_is_usage_error_and_not_in_help(
        self, capsys, sim_artifacts, tmp_path, command, flag, args
    ):
        data = write_xy(tmp_path, _ANGLES, 2 + np.cos(np.radians(2 * _ANGLES)))
        source = ["--data", data] if command == "calib-dolp" else ["--tags", sim_artifacts["tags"]]
        argv = [command, *source, *(a.format(tmp=tmp_path) for a in args)]
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flag in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert flag not in capsys.readouterr().out
