"""Non-learning controllers: fixed-time Webster plans and a random policy.

The fixed-time controller measures per-phase critical flow ratios during a
short warm-up run of the scenario, sizes a cycle with Webster's formula,
splits the usable green demand-proportionally, then replays the four-phase
plan forever. Greens honour the [8,45] s actuation bounds, so the cycle is
clamped to [52,200] s including the 20 s of lost time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import N_ACTIONS, drive, encode_action
from .sim.network import N_PHASES
from .sim.world import (ALL_RED_S, AMBER_S, MAX_GREEN_S, MIN_GREEN_S, SimWorld,
                        load_scenario)

LOST_TIME_S = N_PHASES * (AMBER_S + ALL_RED_S)          # 20
MIN_CYCLE_S = N_PHASES * MIN_GREEN_S + LOST_TIME_S      # 52
MAX_CYCLE_S = N_PHASES * MAX_GREEN_S + LOST_TIME_S      # 200
WARMUP_S = 300                  # the flow-measuring run before a plan is sized


def webster_cycle(ratios) -> tuple[int, bool]:
    """Cycle seconds from critical flow ratios; flagged when oversaturated."""
    ratios = [float(y) for y in ratios]
    if len(ratios) != N_PHASES or min(ratios) < 0:
        raise ValueError("need 4 non-negative flow ratios")
    Y = sum(ratios)
    if Y >= 1.0:
        return MAX_CYCLE_S, True
    cycle = int(round((1.5 * LOST_TIME_S + 5.0) / (1.0 - Y)))
    if cycle > MAX_CYCLE_S:
        return MAX_CYCLE_S, True        # demand too high for the longest cycle
    return max(cycle, MIN_CYCLE_S), False


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
    # cap at 45 and push any overflow to the other phases, largest ratio first
    order = sorted(range(N_PHASES), key=lambda p: (-ratios[p], p))
    for _ in range(N_PHASES):
        overflow = 0
        for p in range(N_PHASES):
            if greens[p] > MAX_GREEN_S:
                overflow += greens[p] - MAX_GREEN_S
                greens[p] = MAX_GREEN_S
        if overflow == 0:
            break
        for p in order:
            room = MAX_GREEN_S - greens[p]
            take = min(room, overflow)
            greens[p] += take
            overflow -= take
            if overflow == 0:
                break
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
    return int(rng.choice(allowed))


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
    lanes = world.net.all_lanes()
    return [[max((world.lane_entry_counts[lanes[s].key] / sat_flow for s, _ in phase_lanes),
                 default=0.0) for phase_lanes in node_phases] for node_phases in world.served]


@dataclass
class WebsterPlan:
    cycle_s: int
    greens: list[int]
    flagged: bool


def webster_plan(ratios) -> WebsterPlan:
    cycle, flagged = webster_cycle(ratios)
    return WebsterPlan(cycle, green_split(cycle, ratios), flagged)


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


def fixed_time_fswf(scenario, seed: int):
    """FS-WF setup: measured ratios -> per-intersection Webster plans."""
    ratios = measure_flow_ratios(scenario, seed)
    plans = [webster_plan(r) for r in ratios]
    return plans
