"""Scenario configuration: strict schema, round trips, digests."""

import copy
import json

import pytest

import homsim as hs
from homsim.config import (
    config_digest,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)


def base_dict():
    emitter = {
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
    }
    e2 = dict(emitter, t1_fast_ps=600.0, t2_ps=440.0, slow_fraction=0.012)
    return {
        "emitter1": emitter,
        "emitter2": e2,
        "circuit": {
            "reflectance": 0.48,
            "pol_overlap": 0.95,
            "arm_transmission": [1.0, 1.0, 1.0, 1.0],
            "classical_visibility": 0.98,
        },
        "detector": {
            "irf_fwhm_ps": 80.0,
            "dark_rate_cps": 300.0,
            "efficiency": 0.3,
            "dead_time_ps": 0.0,
        },
        "train": {
            "rep_rate_mhz": 76.0,
            "n_pulses": 1000,
            "source_delay_ps": 0.0,
        },
        "seed": 42,
        "analysis": {
            "bin_width_ps": 10.0,
            "window_ps": 80000.0,
            "delta_t_ps": 3000.0,
            "n_side": 6,
            "background_correction": True,
        },
    }


def parse_dict(d):
    return parse_scenario(json.dumps(d))


class TestRoundTrip:
    def test_parse_emit_parse_is_identity(self):
        cfg = parse_dict(base_dict())
        again = parse_scenario(json.dumps(scenario_to_dict(cfg)))
        assert again == cfg

    def test_every_field_survives(self):
        d = base_dict()
        out = scenario_to_dict(parse_dict(d))
        assert out == d

    def test_loads_from_file(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(base_dict()))
        assert load_scenario(p) == parse_dict(base_dict())

    def test_null_classical_visibility_round_trips(self):
        d = base_dict()
        d["circuit"]["classical_visibility"] = None
        cfg = parse_dict(d)
        assert cfg.circuit.classical_visibility is None
        assert cfg.circuit.overlap == cfg.circuit.pol_overlap
        assert scenario_to_dict(cfg)["circuit"]["classical_visibility"] is None


class TestDigest:
    def test_digest_is_stable_across_key_order(self):
        d = base_dict()
        shuffled = json.dumps(dict(reversed(list(d.items()))))
        assert config_digest(parse_dict(d)) == config_digest(parse_scenario(shuffled))

    def test_digest_is_sha256_hex(self):
        h = config_digest(parse_dict(base_dict()))
        assert len(h) == 64
        assert set(h) <= set("0123456789abcdef")

    def test_any_field_change_moves_digest(self):
        cfg1 = parse_dict(base_dict())
        d = base_dict()
        d["seed"] = 43
        cfg2 = parse_dict(d)
        assert config_digest(cfg1) != config_digest(cfg2)


class TestSchemaErrors:
    def test_unknown_top_level_key(self):
        d = base_dict()
        d["extra"] = 1
        with pytest.raises(hs.ConfigurationError, match=r"config\.extra"):
            parse_dict(d)

    def test_unknown_nested_key_reports_full_path(self):
        d = base_dict()
        d["emitter1"]["foo"] = 1.0
        with pytest.raises(hs.ConfigurationError, match=r"config\.emitter1\.foo"):
            parse_dict(d)

    def test_unknown_analysis_key(self):
        d = base_dict()
        d["analysis"]["smoothing"] = 3
        with pytest.raises(hs.ConfigurationError, match=r"config\.analysis\.smoothing"):
            parse_dict(d)

    @pytest.mark.parametrize(
        "block", ["emitter1", "emitter2", "circuit", "detector", "train", "seed"]
    )
    def test_missing_blocks_rejected(self, block):
        d = base_dict()
        del d[block]
        with pytest.raises(
            hs.ConfigurationError, match=r"config\.%s: missing" % block
        ):
            parse_dict(d)

    @pytest.mark.parametrize(
        "block,key",
        [
            ("emitter1", "t2_ps"),
            ("emitter1", "double_prob"),
            ("emitter2", "spectral_diffusion_sigma_uev"),
            ("circuit", "arm_transmission"),
            ("circuit", "classical_visibility"),
            ("detector", "dead_time_ps"),
            ("train", "source_delay_ps"),
        ],
    )
    def test_every_physics_field_is_required(self, block, key):
        d = base_dict()
        del d[block][key]
        with pytest.raises(
            hs.ConfigurationError, match=r"config\.%s\.%s: missing" % (block, key)
        ):
            parse_dict(d)

    def test_invalid_json_rejected(self):
        with pytest.raises(hs.ConfigurationError, match="invalid JSON"):
            parse_scenario("{not json")

    def test_non_object_top_level_rejected(self):
        with pytest.raises(hs.ConfigurationError, match="expected an object"):
            parse_scenario("[1, 2, 3]")

    def test_non_object_block_rejected(self):
        d = base_dict()
        d["detector"] = [80.0, 300.0, 0.3, 0.0]
        with pytest.raises(hs.ConfigurationError, match=r"config\.detector"):
            parse_dict(d)


class TestValueTypes:
    def test_boolean_is_not_a_number(self):
        d = base_dict()
        d["emitter1"]["t2_ps"] = True
        with pytest.raises(
            hs.ConfigurationError, match=r"config\.emitter1\.t2_ps: expected a number"
        ):
            parse_dict(d)

    def test_float_is_not_an_integer(self):
        d = base_dict()
        d["train"]["n_pulses"] = 1000.5
        with pytest.raises(
            hs.ConfigurationError, match=r"config\.train\.n_pulses: expected an integer"
        ):
            parse_dict(d)

    def test_number_is_not_a_boolean(self):
        d = base_dict()
        d["analysis"]["background_correction"] = 1
        with pytest.raises(
            hs.ConfigurationError, match="expected true/false"
        ):
            parse_dict(d)

    def test_arm_transmission_needs_four_entries(self):
        d = base_dict()
        d["circuit"]["arm_transmission"] = [1.0, 1.0]
        with pytest.raises(
            hs.ConfigurationError, match="list of four numbers"
        ):
            parse_dict(d)

    def test_string_seed_rejected(self):
        d = base_dict()
        d["seed"] = "42"
        with pytest.raises(hs.ConfigurationError, match=r"config\.seed"):
            parse_dict(d)


class TestSeedRange:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_valid_u64_seeds(self, seed):
        d = base_dict()
        d["seed"] = seed
        assert parse_dict(d).seed == seed

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seeds_rejected(self, seed):
        d = base_dict()
        d["seed"] = seed
        with pytest.raises(hs.ConfigurationError, match="64-bit"):
            parse_dict(d)


class TestAnalysisDefaults:
    def test_missing_analysis_block_uses_defaults(self):
        d = base_dict()
        del d["analysis"]
        a = parse_dict(d).analysis
        assert a.bin_width_ps == 10.0
        assert a.window_ps == 80000.0
        assert a.delta_t_ps == 3000.0
        assert a.n_side == 6
        assert a.background_correction is True

    def test_partial_analysis_block_keeps_other_defaults(self):
        d = base_dict()
        d["analysis"] = {"n_side": 4, "background_correction": False}
        a = parse_dict(d).analysis
        assert a.n_side == 4
        assert a.background_correction is False
        assert a.bin_width_ps == 10.0
        assert a.window_ps == 80000.0

    @pytest.mark.parametrize("key", ["bin_width_ps", "window_ps", "delta_t_ps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -10.0])
    def test_non_positive_or_non_finite_width_rejected(self, key, value):
        d = base_dict()
        d["analysis"] = {key: value}
        with pytest.raises(hs.ValidationError, match="analysis.%s" % key):
            parse_dict(d)

    @pytest.mark.parametrize("bin_width", [0.5, 30.0])
    def test_bin_width_off_the_correlation_grid_rejected(self, bin_width):
        # tags are whole picoseconds, and 30 ps splits the default 160 ns of
        # the +-80 ns window into 5333.33 bins
        d = base_dict()
        d["analysis"] = {"bin_width_ps": bin_width}
        with pytest.raises(hs.ValidationError, match="analysis.bin_width_ps"):
            parse_dict(d)

    @pytest.mark.parametrize("n_side", [0, 1, 5, -2])
    def test_odd_or_small_side_peak_count_rejected(self, n_side):
        d = base_dict()
        d["analysis"] = {"n_side": n_side}
        with pytest.raises(hs.ValidationError, match="analysis.n_side"):
            parse_dict(d)

    @pytest.mark.parametrize(
        "analysis,field",
        [
            ({"delta_t_ps": 200000.0}, "analysis.delta_t_ps"),  # no dead zone at 76 MHz
            ({"delta_t_ps": 13130.0}, "analysis.delta_t_ps"),  # dead zones under a bin long
            ({"window_ps": 15000.0, "n_side": 2}, "analysis.window_ps"),  # under 3 periods
            ({"n_side": 14}, "analysis.n_side"),  # the comb overruns +-80 ns
            # analyze-hom's 100 ps post-selection comb overruns +-39.5 ns
            ({"window_ps": 39500.0, "delta_t_ps": 50.0}, "analysis.window_ps"),
        ],
    )
    def test_comb_that_does_not_fit_the_period_rejected_at_load(self, analysis, field):
        d = base_dict()
        d["analysis"] = analysis
        with pytest.raises(hs.ConfigurationError, match=field):
            parse_dict(d)

    def test_postselection_width_error_names_what_sets_it(self):
        # a 50 ps period fits the configured 10 ps comb but not analyze-hom's
        # 100 ps post-selection width, which no field sets on its own
        d = base_dict()
        d["train"]["rep_rate_mhz"] = 20000.0
        d["analysis"] = {"bin_width_ps": 1, "window_ps": 160, "delta_t_ps": 10}
        with pytest.raises(hs.ConfigurationError) as err:
            parse_dict(d)
        assert str(err.value) == (
            "the post-selection width max(100 ps, 2 x analysis.bin_width_ps) = 100 ps must be "
            "positive and at most the period 50 ps (peaks overlap)"
        )

    def test_comb_rules_follow_the_train_period(self):
        # 6 side peaks at 5 MHz need a window of 3 periods of 200 ns
        d = base_dict()
        d["train"]["rep_rate_mhz"] = 5.0
        with pytest.raises(hs.ConfigurationError, match="analysis.window_ps"):
            parse_dict(d)
        d["analysis"] = {"window_ps": 640000.0}
        assert parse_dict(d).analysis.window_ps == 640000.0

    def test_physics_validation_still_applies(self):
        d = base_dict()
        d["emitter1"]["t2_ps"] = 5000.0  # beyond the 2*T1 coherence bound
        with pytest.raises(hs.ValidationError):
            parse_dict(d)
