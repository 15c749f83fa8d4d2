"""scripts/run_hom_experiment.py: the HOM protocol as two homsim runs."""

import importlib.util
import json
from pathlib import Path

import pytest

import homsim as hs
from helpers import scenario_dict

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_hom_experiment.py"
_spec = importlib.util.spec_from_file_location("run_hom_experiment", _SCRIPT)
script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(script)


def _config(path, **train):
    d = scenario_dict()
    d["detector"]["efficiency"] = 1.0
    d["train"].update(n_pulses=200000, **train)
    path.write_text(json.dumps(d))
    return path


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("hom_experiment")
    out = tmp / "out"
    code = script.main(["--config", str(_config(tmp / "scenario.json")), "--out-dir", str(out)])
    assert code == 0
    runs = {
        name: json.loads((out / (name + "_report.json")).read_text())
        for name in ("sync", "delayed")
    }
    return json.loads((out / "experiment_report.json").read_text()), runs, out


def test_visibility_is_formed_from_the_two_analyze_hom_reports(experiment):
    report, runs, _ = experiment
    sync, delayed = runs["sync"], runs["delayed"]
    v, err = hs.hom_visibility(
        delayed["g2_corrected"], sync["g2_corrected"],
        delayed["g2_corrected_err"], sync["g2_corrected_err"],
    )
    assert (report["V_measured"], report["V_measured_err"]) == (v, err)
    assert report["sync_g2"] == sync["g2_corrected"]
    assert report["delayed_g2_err"] == delayed["g2_corrected_err"]


def test_predictions_are_the_reports_closed_form_g2(experiment):
    report, runs, _ = experiment
    assert report["sync_g2_predicted"] == runs["sync"]["g2_closed_form"]
    assert report["delayed_g2_predicted"] == runs["delayed"]["g2_closed_form"]
    assert report["V_closed_form_protocol"] == hs.hom_visibility(
        runs["delayed"]["g2_closed_form"], runs["sync"]["g2_closed_form"]
    )[0]
    assert report["delayed_g2_predicted"] == pytest.approx(0.4669, abs=5e-5)


def test_each_run_leaves_its_scenario_tags_and_analysis(experiment):
    report, runs, out = experiment
    for name, delay in (("sync", 0.0), ("delayed", 500.0)):
        cfg = hs.load_scenario(out / (name + ".json"))
        assert cfg.train.source_delay_ps == delay
        for suffix in (".ptg1", "_hist.csv", "_hist.svg", "_peaks.csv"):
            assert (out / (name + suffix)).is_file()
    assert report["config_digest"] == runs["sync"]["config_digest"]


@pytest.mark.parametrize("delay", ["6578.95", "7000", "nan", "-1"])
def test_unusable_delay_exits_2_before_simulating(tmp_path, capsys, delay):
    # half the 76 MHz period is 6578.947 ps
    out = tmp_path / "out"
    code = script.main(["--config", str(_config(tmp_path / "s.json")), "--out-dir", str(out),
                        "--delay-ps", delay])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "source_delay_ps" in captured.err
    assert list(tmp_path.rglob("*.ptg1")) == []


def test_missing_config_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        script.main(["--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_unusable_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1}')
    assert script.main(["--config", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: config.emitter1: missing required key")
    assert not (tmp_path / "out").exists()
