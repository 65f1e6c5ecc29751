"""Non-learning controllers: fixed-time Webster plans and a random policy.

The fixed-time controller measures per-phase critical flow ratios during a
short warm-up run of the scenario, sizes a cycle with Webster's formula,
splits the usable green demand-proportionally, then replays the four-phase
plan forever. Greens honour the [8,45] s actuation bounds, so the cycle is
clamped to [52,200] s including the 20 s of lost time.
"""

from __future__ import annotations

import numpy as np

from .env import N_ACTIONS, drive, encode_action
from .sim.network import N_PHASES
from .sim.world import (ALL_RED_S, AMBER_S, MAX_GREEN_S, MIN_GREEN_S, SimWorld,
                        load_scenario)

LOST_TIME_S = N_PHASES * (AMBER_S + ALL_RED_S)          # 20
MIN_CYCLE_S = N_PHASES * MIN_GREEN_S + LOST_TIME_S      # 52
MAX_CYCLE_S = N_PHASES * MAX_GREEN_S + LOST_TIME_S      # 200
WARMUP_S = 300                  # the flow-measuring run before a plan is sized


def webster_cycle(ratios) -> int:
    """Cycle seconds from critical flow ratios, clamped to [52, 200]."""
    ratios = [float(y) for y in ratios]
    if len(ratios) != N_PHASES or min(ratios) < 0:
        raise ValueError("need 4 non-negative flow ratios")
    Y = sum(ratios)
    if Y >= 1.0:                        # oversaturated: the longest cycle
        return MAX_CYCLE_S
    cycle = int(round((1.5 * LOST_TIME_S + 5.0) / (1.0 - Y)))
    return min(max(cycle, MIN_CYCLE_S), MAX_CYCLE_S)


def green_split(cycle: int, ratios) -> list[int]:
    """Demand-proportional integer greens: every phase gets the 8 s minimum,
    the remaining budget goes out by ratio share, the rounding residual to
    the largest-ratio phase, and any excess over 45 s is redistributed."""
    ratios = [float(y) for y in ratios]
    if len(ratios) != N_PHASES or min(ratios) < 0:
        raise ValueError("need 4 non-negative flow ratios")
    budget = cycle - LOST_TIME_S - N_PHASES * MIN_GREEN_S
    if budget < 0:
        raise ValueError(f"cycle {cycle} cannot fit minimum greens")
    Y = sum(ratios)
    if Y == 0:
        shares = [budget // N_PHASES] * N_PHASES
        shares[0] += budget - sum(shares)
    else:
        shares = [int(round(budget * y / Y)) for y in ratios]
        residual = budget - sum(shares)
        top = max(range(N_PHASES), key=lambda p: (ratios[p], -p))
        shares[top] += residual
    greens = [MIN_GREEN_S + s for s in shares]
    # cap at 45 and push the overflow to the phases with room, largest ratio
    # first; no phase takes more than its room, so one pass settles it
    overflow = sum(max(g - MAX_GREEN_S, 0) for g in greens)
    greens = [min(g, MAX_GREEN_S) for g in greens]
    for p in sorted(range(N_PHASES), key=lambda p: (-ratios[p], p)):
        take = min(MAX_GREEN_S - greens[p], overflow)
        greens[p] += take
        overflow -= take
    if sum(greens) + LOST_TIME_S != cycle:
        raise AssertionError("green split failed to fill the cycle")
    return greens


def random_policy(mask: np.ndarray, rng) -> int:
    """Uniform draw over the allowed action indices."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (N_ACTIONS,):
        raise ValueError(f"mask must have shape ({N_ACTIONS},)")
    allowed = np.flatnonzero(mask)
    if len(allowed) == 0:
        raise ValueError("every action is masked")
    return int(allowed[rng.integers(len(allowed))])


# ------------------------------------------------------------------ fixed time

def measure_flow_ratios(scenario, seed: int) -> list[list[float]]:
    """Per-intersection critical flow ratios from a warm-up run.

    The warm-up world cycles a naive equal plan (15 s per phase). Each
    lane's entry count over the warm-up approximates its arrival flow; a
    phase's ratio is the worst lane flow it serves divided by the
    saturation flow.
    """
    world = load_scenario(scenario, seed)
    drive(world, WARMUP_S,
          FixedTimeController(world, [[15] * N_PHASES] * world.net.n))
    sat_flow = world.cfg.saturation_veh_s * WARMUP_S
    return [[max((world.lane_entry_counts[s] / sat_flow for s, _ in phase_lanes),
                 default=0.0) for phase_lanes in node_phases] for node_phases in world.served]


class FixedTimeController:
    """Replays P1..P4 cyclically with each intersection's own greens; a
    drive() decider."""

    def __init__(self, world: SimWorld, greens):
        n = world.net.n
        self.greens = [list(g) for g in greens]
        if len(self.greens) != n:
            raise ValueError(f"need greens for all {n} intersections")
        for greens in self.greens:
            if len(greens) != N_PHASES:
                raise ValueError("need one green per phase")
            for g in greens:
                if not (MIN_GREEN_S <= g <= MAX_GREEN_S):
                    raise ValueError(f"green {g} outside [{MIN_GREEN_S},{MAX_GREEN_S}]")

    def __call__(self, world: SimWorld, due: list[int]) -> list[int]:
        """Per due intersection, the next phase in its cycle with its
        planned green."""
        nxt = [(world.controllers[i].phase + 1) % N_PHASES for i in due]
        return [encode_action(p, self.greens[i][p]) for i, p in zip(due, nxt)]


def fixed_time_fswf(scenario, seed: int) -> list[list[int]]:
    """FS-WF setup: each intersection's Webster greens from its measured ratios."""
    return [green_split(webster_cycle(r), r) for r in measure_flow_ratios(scenario, seed)]
