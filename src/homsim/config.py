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
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("config.seed: must be an unsigned 64-bit integer")
        # analyze-hom's grid and comb rules: a scenario fails before simulate runs.
        # _comb_ks goes first: on a NaN delta_t_ps, _dead_zone_edge would blame the dead zones.
        a, period = self.analysis, self.train.period_ps
        _grid_bins(a.bin_width_ps, a.window_ps, "analysis.")
        _comb_ks(period, a.window_ps, a.delta_t_ps, a.n_side, prefix="analysis.")
        _dead_zone_edge(period, a.window_ps, a.bin_width_ps, a.delta_t_ps, "analysis.")
        width = "the post-selection width max(100 ps, 2 x analysis.bin_width_ps) ="
        _comb_ks(period, a.window_ps, a.postselect_delta_t_ps, a.n_side, "analysis.", width)


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


def _parse_spec(cls, obj, path, strict):
    """Build cls from one JSON object, reading each field by its annotation.

    Keys that are not fields of cls are rejected. A field may be left out
    only when it has a default and strict is false. A field that is itself
    a spec class is read by a recursive call, strict when it has no default.
    """
    if not isinstance(obj, dict):
        raise ConfigurationError("%s: expected an object" % path)
    names = {f.name for f in fields(cls)}
    for key in obj:
        if key not in names:
            raise ConfigurationError("%s.%s: unknown key" % (path, key))
    values, hints = {}, {}
    for f in fields(cls):
        key_path = "%s.%s" % (path, f.name)
        optional = f.default is not MISSING or f.default_factory is not MISSING
        if f.name not in obj:
            if strict or not optional:
                raise ConfigurationError("%s: missing required key" % key_path)
        elif f.type in _READERS:
            values[f.name] = _READERS[f.type](obj[f.name], key_path)
        else:  # a spec class; its annotation resolved once per cls
            hints = hints or get_type_hints(cls)
            values[f.name] = _parse_spec(hints[f.name], obj[f.name], key_path, not optional)
    return cls(**values)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario from JSON text.

    The blocks without a default (the physics) and all their fields are
    required, and so is the seed; the analysis block and each of its fields
    may be left out.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError("invalid JSON: %s" % exc)
    return _parse_spec(ScenarioConfig, obj, "config", strict=False)


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
