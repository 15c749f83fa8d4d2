"""Scenario configuration: strict JSON schema, round-trip, digest.

Every physics parameter must be given explicitly (no silent defaults);
only the analysis block has defaults. Unknown keys are rejected with the
full path to the offending key.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import get_type_hints

from .model import (
    CircuitSpec,
    ConfigurationError,
    DetectorSpec,
    EmitterSpec,
    PulseTrainSpec,
    ValidationError,
    _comb_ks,
    _dead_zone_edge,
    _grid_bins,
)


@dataclass(frozen=True)
class AnalysisSpec:
    """Histogramming and peak-integration settings for analyze-hom."""

    bin_width_ps: float = 10.0
    window_ps: float = 80000.0
    delta_t_ps: float = 3000.0
    n_side: int = 6
    background_correction: bool = True

    def __post_init__(self) -> None:
        _grid_bins(self.bin_width_ps, self.window_ps, "analysis.", ValidationError)
        if not 0 < self.delta_t_ps < float("inf"):
            raise ValidationError("analysis.delta_t_ps must be positive and finite")
        if self.n_side < 2 or self.n_side % 2:
            raise ValidationError("analysis.n_side must be an even count >= 2")

    @property
    def postselect_delta_t_ps(self) -> float:
        """The narrow window of analyze-hom's post-selected g2."""
        return max(100.0, 2.0 * self.bin_width_ps)


@dataclass(frozen=True)
class ScenarioConfig:
    emitter1: EmitterSpec
    emitter2: EmitterSpec
    circuit: CircuitSpec
    detector: DetectorSpec
    train: PulseTrainSpec
    seed: int
    analysis: AnalysisSpec = field(default_factory=AnalysisSpec)

    def __post_init__(self) -> None:
        # analyze-hom's comb rules that the period sets: a scenario fails before simulate runs
        a, period = self.analysis, self.train.period_ps
        _dead_zone_edge(period, a.window_ps, a.bin_width_ps, a.delta_t_ps, "analysis.")
        _comb_ks(period, a.window_ps, a.delta_t_ps, a.n_side, prefix="analysis.")
        width = "the post-selection width max(100 ps, 2 x analysis.bin_width_ps) ="
        _comb_ks(period, a.window_ps, a.postselect_delta_t_ps, a.n_side, "analysis.", width)


def _expect_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigurationError("%s: expected an object" % path)
    return obj


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError("%s: expected a number" % path)
    return float(value)


def _integer(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError("%s: expected an integer" % path)
    return int(value)


def _boolean(value, path):
    if not isinstance(value, bool):
        raise ConfigurationError("%s: expected true/false" % path)
    return value


def _arm_transmission(value, path):
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise ConfigurationError("%s: expected a list of four numbers" % path)
    return tuple(_number(v, "%s[%d]" % (path, i)) for i, v in enumerate(value))


# Reader for each field annotation used by the spec dataclasses.
_READERS = {
    "float": _number,
    "int": _integer,
    "bool": _boolean,
    "float | None": lambda value, path: None if value is None else _number(value, path),
    "tuple[float, float, float, float]": _arm_transmission,
}


def _parse_spec(cls, obj, path, required):
    """Build cls from one JSON block, reading each field by its annotation.

    Keys that are not fields of cls are rejected. With required, every
    field must be given; otherwise absent fields keep the class defaults.
    """
    readers = {f.name: _READERS[f.type] for f in fields(cls)}
    for key in _expect_mapping(obj, path):
        if key not in readers:
            raise ConfigurationError("%s.%s: unknown key" % (path, key))
    values = {}
    for key, read in readers.items():
        if key in obj:
            values[key] = read(obj[key], "%s.%s" % (path, key))
        elif required:
            raise ConfigurationError("%s.%s: missing required key" % (path, key))
    return cls(**values)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario from JSON text.

    Each block is read into the spec class its ScenarioConfig field names.
    Blocks without a default (the physics) and all their fields are
    required; the analysis block and each of its fields may be left out.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError("invalid JSON: %s" % exc)
    obj = _expect_mapping(obj, "config")
    blocks = {f.name: f for f in fields(ScenarioConfig)}
    for key in obj:
        if key not in blocks:
            raise ConfigurationError("config.%s: unknown key" % key)
    for key, f in blocks.items():
        if key not in obj and f.default_factory is MISSING:
            raise ConfigurationError("config.%s: missing required key" % key)
    seed = _integer(obj["seed"], "config.seed")
    if not 0 <= seed < 2**64:
        raise ConfigurationError("config.seed: must be an unsigned 64-bit integer")
    spec_classes = get_type_hints(ScenarioConfig)
    specs = {
        key: _parse_spec(
            spec_classes[key], obj[key], "config." + key, f.default_factory is MISSING
        )
        for key, f in blocks.items()
        if key != "seed" and key in obj
    }
    return ScenarioConfig(seed=seed, **specs)


def load_scenario(path) -> ScenarioConfig:
    with open(path) as fh:
        return parse_scenario(fh.read())


def _lists_for_tuples(items) -> dict:
    return {key: list(v) if isinstance(v, tuple) else v for key, v in items}


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """The JSON-ready form of cfg: every spec field, tuples as lists."""
    return asdict(cfg, dict_factory=_lists_for_tuples)


def config_digest(cfg: ScenarioConfig) -> str:
    """Stable SHA-256 over the canonical JSON form."""
    import hashlib  # here, so that commands that digest no scenario skip it

    canonical = json.dumps(scenario_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
