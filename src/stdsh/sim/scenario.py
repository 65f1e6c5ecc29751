"""Scenario configuration: sectioned key=value text, templates 1..5.

Format example (comments start with '#'):

    [network]
    intersections = 6
    ...

Sections: network, demand, signal, scenario. Unknown sections or keys and
malformed values are rejected with the offending line number and field.
load_scenario accepts a scenario id (1..5, built-in template), a path to a
config file, or raw config text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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

    def rate_veh_h(self, entry_id: str, t: int) -> float:
        """Car arrival rate for one entry at simulation second t."""
        base = self.car_rate_veh_h
        if self.scenario_id == 2:
            frac = min(1.0, t / float(max(1, self.ramp_duration_s)))
            base = base + (self.ramp_to_veh_h - base) * frac
        if self.scenario_id in (4, 5):
            own = entry_id in (f"N{self.skew_intersection}", f"S{self.skew_intersection}")
            # 4: everything heading for the hotspot; 5: the hotspot emptying out
            if own == (self.scenario_id == 5):
                base *= self.skew_multiplier
        return base

    @property
    def rates_settle_s(self) -> int:
        """Second from which rate_veh_h no longer changes with t."""
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


_SCENARIO_NOTES = {
    1: ("off-peak, light uniform demand", 200.0),
    2: ("buildup: demand ramps up over the horizon", 200.0),
    3: ("peak, heavy uniform demand", 500.0),
    4: ("school-run inbound: surrounding entries feed one hotspot", 350.0),
    5: ("event outbound: the hotspot's own entries surge", 350.0),
}


def scenario_config_text(scenario_id: int) -> str:
    """Built-in config template for scenarios 1..5."""
    if scenario_id not in _SCENARIO_NOTES:
        raise ConfigError(f"scenario must be in 1..5, got {scenario_id}")
    note, rate = _SCENARIO_NOTES[scenario_id]
    lines = [
        f"# scenario {scenario_id}: {note}",
        "[network]",
        "intersections = 6",
        "link_length_m = 300",
        "side_link_length_m = 200",
        "freeflow_kmh = 50",
        "tram_freeflow_kmh = 40",
        "saturation_veh_s = 0.5",
        "tram_enabled = true",
        "tram_stop_intersections = 1,3,4",
        "tram_stop_dwell_s = 20",
        "",
        "[demand]",
        f"car_rate_veh_h = {rate:g}    # per entry",
        "bus_headway_s = 600",
        "bus_first_departure_s = 60",
        "tram_headway_s = 300",
        "tram_first_departure_s = 30",
        "turn_left = 0.2",
        "turn_through = 0.6",
        "turn_right = 0.2",
        "car_occupancy_poisson_mean = 0.5    # occupants = 1 driver + Poisson",
        "bus_occupancy = 40",
        "tram_occupancy = 150",
        "",
        "[signal]",
        "initial_phase = P1",
        "initial_green_s = 10",
        "",
        "[scenario]",
        f"id = {scenario_id}",
        "speed_threshold_kmh = 5",
    ]
    if scenario_id == 2:
        lines += ["ramp_to_veh_h = 500", "ramp_duration_s = 1800"]
    if scenario_id in (4, 5):
        lines += [
            "skew_multiplier = 1.6",
            "skew_intersection = 3    # the interior hotspot",
        ]
    return "\n".join(lines) + "\n"


def resolve_config(config) -> ScenarioConfig:
    """Accept a scenario id, a file path, raw text, or a ScenarioConfig."""
    if isinstance(config, ScenarioConfig):
        _validate(config)
        return config
    if isinstance(config, int):
        return parse_config(scenario_config_text(config))
    if isinstance(config, Path):
        return parse_config(config.read_text())
    if isinstance(config, str):
        if "=" in config or "\n" in config:
            return parse_config(config)
        return parse_config(Path(config).read_text())
    raise ConfigError(f"cannot interpret config of type {type(config).__name__}")
