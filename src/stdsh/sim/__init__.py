"""Corridor traffic microsimulation."""

from .network import ARMS, N_PHASES, Lane, Link, Network, exit_arm, permits
from .scenario import ConfigError, ScenarioConfig, parse_config, resolve_config
from .world import (ALL_RED_S, AMBER_S, MAX_GREEN_S, MIN_GREEN_S,
                    SignalController, SimWorld, load_scenario)

__all__ = [
    "ARMS", "N_PHASES", "Lane", "Link", "Network", "exit_arm", "permits",
    "ConfigError", "ScenarioConfig", "parse_config", "resolve_config",
    "ALL_RED_S", "AMBER_S", "MAX_GREEN_S", "MIN_GREEN_S", "SignalController",
    "SimWorld", "load_scenario",
]
