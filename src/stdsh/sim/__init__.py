"""Corridor traffic microsimulation."""

from .network import (ARMS, MOVEMENTS, N_PHASES, PHASE_NAMES, Lane, Link,
                      Network, exit_arm, permits)
from .scenario import ConfigError, ScenarioConfig, parse_config, resolve_config, \
    scenario_config_text
from .world import (ALL_RED_S, AMBER_S, MAX_GREEN_S, MIN_GREEN_S,
                    SignalController, SimWorld, load_scenario)

__all__ = [
    "ARMS", "MOVEMENTS", "N_PHASES", "PHASE_NAMES", "Lane", "Link", "Network",
    "exit_arm", "permits", "ConfigError", "ScenarioConfig", "parse_config",
    "resolve_config", "scenario_config_text", "ALL_RED_S", "AMBER_S",
    "MAX_GREEN_S", "MIN_GREEN_S", "SignalController", "SimWorld", "load_scenario",
]
