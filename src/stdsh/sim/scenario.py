"""Scenario configuration: sectioned key=value text, built-in scenarios 1..5.

Format example (comments start with '#'):

    [network]
    intersections = 6
    ...

Sections: network, demand, signal, scenario. Unknown sections or keys and
malformed values are rejected with the offending line number and field;
an omitted key keeps ScenarioConfig's default. A built-in scenario is those
defaults plus its id and car rate; configs/scenario{1..5}.cfg spell the five
out in full. resolve_config accepts a scenario id, a path to a config file,
config text (a string holding a newline), or a ScenarioConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path


class ConfigError(ValueError):
    pass


def parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Raw parse to {section: {key: (value, line_no)}} with duplicate checks."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {no}: empty section name")
            if current in sections:
                raise ConfigError(f"line {no}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {no}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"line {no}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {no}: empty key")
        if key in sections[current]:
            raise ConfigError(f"line {no}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value, no)
    return sections


@dataclass
class ScenarioConfig:
    # network
    intersections: int = 6
    link_length_m: float = 300.0
    side_link_length_m: float = 200.0
    freeflow_kmh: float = 50.0
    tram_freeflow_kmh: float = 40.0
    saturation_veh_s: float = 0.5
    tram_enabled: bool = True
    tram_stop_intersections: tuple = (1, 3, 4)
    tram_stop_dwell_s: int = 20
    # demand
    car_rate_veh_h: float = 200.0
    bus_headway_s: int = 600
    bus_first_departure_s: int = 60
    tram_headway_s: int = 300
    tram_first_departure_s: int = 30
    turn_left: float = 0.2
    turn_through: float = 0.6
    turn_right: float = 0.2
    car_occupancy_poisson_mean: float = 0.5
    bus_occupancy: int = 40
    tram_occupancy: int = 150
    # signal
    initial_phase: int = 0
    initial_green_s: int = 10
    # scenario
    scenario_id: int = 1
    ramp_to_veh_h: float = 500.0
    ramp_duration_s: int = 1800
    skew_multiplier: float = 1.6
    skew_intersection: int = 3
    speed_threshold_kmh: float = 5.0

    def rates_veh_h(self, entry_ids, t: int) -> list[float]:
        """Car arrival rate of each entry at simulation second t."""
        base = self.car_rate_veh_h
        if self.scenario_id == 2:
            frac = min(1.0, t / float(max(1, self.ramp_duration_s)))
            base = base + (self.ramp_to_veh_h - base) * frac
        if self.scenario_id not in (4, 5):
            return [base] * len(entry_ids)
        hotspot = (f"N{self.skew_intersection}", f"S{self.skew_intersection}")
        # 4: everything heading for the hotspot; 5: the hotspot emptying out
        return [base * self.skew_multiplier if (entry_id in hotspot) == (self.scenario_id == 5)
                else base for entry_id in entry_ids]

    @property
    def rates_settle_s(self) -> int:
        """Second from which rates_veh_h no longer changes with t."""
        return max(1, self.ramp_duration_s) if self.scenario_id == 2 else 0


# config keys per section; a key names its ScenarioConfig field (but
# [scenario] id is scenario_id), and the field's default fixes the parser
_SECTIONS = {
    "network": "intersections link_length_m side_link_length_m freeflow_kmh "
               "tram_freeflow_kmh saturation_veh_s tram_enabled "
               "tram_stop_intersections tram_stop_dwell_s",
    "demand": "car_rate_veh_h bus_headway_s bus_first_departure_s tram_headway_s "
              "tram_first_departure_s turn_left turn_through turn_right "
              "car_occupancy_poisson_mean bus_occupancy tram_occupancy",
    "signal": "initial_phase initial_green_s",
    "scenario": "id ramp_to_veh_h ramp_duration_s skew_multiplier skew_intersection "
                "speed_threshold_kmh",
}
_KINDS = {"tram_stop_intersections": "int_list", "initial_phase": "phase"}


def _schema_entry(key: str) -> tuple:
    attr = "scenario_id" if key == "id" else key
    return attr, _KINDS.get(attr, type(getattr(ScenarioConfig, attr)))


_SCHEMA = {section: {key: _schema_entry(key) for key in keys.split()}
           for section, keys in _SECTIONS.items()}


def _convert(kind, value: str, line: int, key: str):
    try:
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
        if kind is bool:
            low = value.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(value)
        if kind == "int_list":
            return tuple(int(v) for v in value.split(",") if v.strip() != "")
        if kind == "phase":
            if value.upper() in ("P1", "P2", "P3", "P4"):
                return int(value[1]) - 1
            raise ValueError(value)
    except ValueError:
        raise ConfigError(f"line {line}: field {key!r}: cannot parse {value!r}")
    raise ConfigError(f"line {line}: field {key!r}: unsupported type")


def parse_config(text: str) -> ScenarioConfig:
    sections = parse_sections(text)
    cfg = ScenarioConfig()
    for sec, body in sections.items():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        for key, (value, line) in body.items():
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"line {line}: unknown field {key!r} in [{sec}]")
            attr, kind = _SCHEMA[sec][key]
            setattr(cfg, attr, _convert(kind, value, line, key))
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig) -> None:
    def bad(field_name, why):
        raise ConfigError(f"field {field_name!r}: {why}")

    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            bad(f.name, f"must be finite, got {value}")
    if cfg.intersections < 1:
        bad("intersections", "must be >= 1")
    for name in ("link_length_m", "side_link_length_m", "freeflow_kmh",
                 "tram_freeflow_kmh", "saturation_veh_s", "speed_threshold_kmh"):
        if getattr(cfg, name) <= 0:
            bad(name, "must be > 0")
    for name in ("car_rate_veh_h", "ramp_to_veh_h", "skew_multiplier",
                 "car_occupancy_poisson_mean"):
        if getattr(cfg, name) < 0:
            bad(name, "must be >= 0")
    # one uniform draw per entry and second: at most one car, 3600 veh/h
    peaks = {"car_rate_veh_h": cfg.car_rate_veh_h,
             "ramp_to_veh_h": cfg.ramp_to_veh_h if cfg.scenario_id == 2 else 0,
             "skew_multiplier": cfg.car_rate_veh_h * cfg.skew_multiplier
             if cfg.scenario_id in (4, 5) else 0}
    for name, peak in peaks.items():
        if peak > 3600:
            bad(name, f"peak arrival rate {peak:g} veh/h is above one car per entry "
                      "and second (3600 veh/h)")
    for name in ("bus_headway_s", "tram_headway_s", "tram_stop_dwell_s",
                 "initial_green_s", "bus_first_departure_s", "tram_first_departure_s"):
        if getattr(cfg, name) < 0:
            bad(name, "must be >= 0")
    turn_sum = cfg.turn_left + cfg.turn_through + cfg.turn_right
    if min(cfg.turn_left, cfg.turn_through, cfg.turn_right) < 0 or abs(turn_sum - 1.0) > 1e-9:
        bad("turn_left/turn_through/turn_right", f"must be >= 0 and sum to 1, got {turn_sum}")
    for name in ("bus_occupancy", "tram_occupancy"):
        if getattr(cfg, name) < 1:
            bad(name, "must be >= 1")
    if not (1 <= cfg.scenario_id <= 5):
        bad("id", f"scenario must be in 1..5, got {cfg.scenario_id}")
    if not (0 <= cfg.initial_phase <= 3):
        bad("initial_phase", "must be P1..P4")
    if cfg.scenario_id in (4, 5) and not (0 <= cfg.skew_intersection < cfg.intersections):
        bad("skew_intersection", "must index an intersection")
    if cfg.tram_enabled:
        for k in cfg.tram_stop_intersections:
            if not (0 <= k < cfg.intersections):
                bad("tram_stop_intersections", f"index {k} out of range")


# car rate per entry of the built-in scenarios 1..5: off-peak, buildup
# (ramping), peak, school-run inbound hotspot, event outbound hotspot
_CAR_RATES_VEH_H = (200.0, 200.0, 500.0, 350.0, 350.0)


def resolve_config(config) -> ScenarioConfig:
    """Accept a scenario id, a file path, raw text, or a ScenarioConfig.

    Built-in scenario i is ScenarioConfig's defaults with scenario_id i and
    its car rate. A string is config text when it holds a newline (valid
    text always has a section line and a key line), else a file path.
    """
    if isinstance(config, int) and not isinstance(config, bool):
        if not 1 <= config <= len(_CAR_RATES_VEH_H):
            raise ConfigError(f"scenario must be in 1..5, got {config}")
        config = replace(ScenarioConfig(), scenario_id=config,
                         car_rate_veh_h=_CAR_RATES_VEH_H[config - 1])
    if isinstance(config, ScenarioConfig):
        _validate(config)
        return config
    if isinstance(config, str) and "\n" in config:
        return parse_config(config)
    if isinstance(config, (str, Path)):
        return parse_config(Path(config).read_text())
    raise ConfigError(f"cannot interpret config of type {type(config).__name__}")
