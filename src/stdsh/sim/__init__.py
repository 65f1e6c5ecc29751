"""Corridor traffic microsimulation."""

from .network import Network, permits
from .scenario import ConfigError, ScenarioConfig, parse_config, resolve_config
from .world import SimWorld, load_scenario

__all__ = [
    "Network", "permits", "ConfigError", "ScenarioConfig", "parse_config",
    "resolve_config", "SimWorld", "load_scenario",
]
