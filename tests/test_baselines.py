"""Webster timing, the fixed-time controller, and the random baseline."""

import numpy as np
import pytest

from stdsh.baselines import (FixedTimeController, LOST_TIME_S, MAX_CYCLE_S,
                             MIN_CYCLE_S, fixed_time_fswf, green_split,
                             measure_flow_ratios, random_policy, webster_cycle)
from stdsh.env import N_ACTIONS, N_PHASES, action_mask, decode_action, drive
from stdsh.sim import load_scenario, resolve_config

QUIET = "[demand]\ncar_rate_veh_h = 0\nbus_headway_s = 0\ntram_headway_s = 0\n"


# ------------------------------------------------------------------- webster

def test_webster_cycle_examples():
    # (1.5*20 + 5) / (1 - 0.5) = 70
    assert webster_cycle([0.125, 0.125, 0.125, 0.125]) == 70
    # zero demand collapses to the raw 35 s, clamped up to the minimum
    assert webster_cycle([0.0, 0.0, 0.0, 0.0]) == MIN_CYCLE_S
    # near-saturation blows past the longest cycle and is clamped to it
    assert webster_cycle([0.9, 0.03, 0.03, 0.03]) == MAX_CYCLE_S
    assert webster_cycle([0.25, 0.25, 0.25, 0.25]) == MAX_CYCLE_S
    assert webster_cycle([0.5, 0.5, 0.1, 0.1]) == MAX_CYCLE_S


def test_webster_cycle_monotone_below_clamp():
    cycles = [webster_cycle([y, 0.0, 0.0, 0.0]) for y in np.linspace(0, 0.7, 15)]
    assert cycles == sorted(cycles)


def test_webster_cycle_rejects_bad_input():
    with pytest.raises(ValueError):
        webster_cycle([0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        webster_cycle([-0.1, 0.1, 0.1, 0.1])


def test_green_split_equal_ratios():
    greens = green_split(72, [0.2, 0.2, 0.2, 0.2])
    assert greens == [13, 13, 13, 13]
    assert sum(greens) + LOST_TIME_S == 72
    # Webster sizes four 0.125 ratios at 70 s; the rounding residual goes to P1
    assert green_split(webster_cycle([0.125] * 4), [0.125] * 4) == [14, 12, 12, 12]


def test_green_split_zero_ratio_phase_keeps_minimum():
    greens = green_split(80, [0.3, 0.0, 0.3, 0.0])
    assert greens[1] == 8 and greens[3] == 8
    assert sum(greens) + LOST_TIME_S == 80


def test_green_split_zero_demand_spreads_evenly():
    greens = green_split(MIN_CYCLE_S, [0.0] * 4)
    assert greens == [8, 8, 8, 8]


def test_green_split_fills_cycle_over_random_grid():
    rng = np.random.default_rng(0)
    for _ in range(200):
        cycle = int(rng.integers(MIN_CYCLE_S, MAX_CYCLE_S + 1))
        ratios = rng.uniform(0, 1, size=4)
        greens = green_split(cycle, ratios)
        assert sum(greens) + LOST_TIME_S == cycle
        assert all(8 <= g <= 45 for g in greens)


def test_green_split_caps_dominant_phase_and_redistributes():
    greens = green_split(MAX_CYCLE_S, [0.97, 0.01, 0.01, 0.01])
    assert max(greens) == 45
    assert sum(greens) + LOST_TIME_S == MAX_CYCLE_S


def test_green_split_rejects_cycle_below_minimums():
    with pytest.raises(ValueError):
        green_split(51, [0.1] * 4)


# ------------------------------------------------------------- random policy

def test_random_policy_urn():
    rng = np.random.default_rng(0)
    mask = action_mask(2)
    counts = np.zeros(N_ACTIONS)
    for _ in range(30000):
        a = random_policy(mask, rng)
        counts[a] += 1
    assert counts[~mask].sum() == 0
    freq = counts[mask] / 30000
    assert np.all(np.abs(freq - 1.0 / 114) < 5e-3)


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_random_policy_draws_what_rng_choice_draws(seed):
    # the random cells' golden digests rest on this stream
    masks = [action_mask(p) for p in range(N_PHASES)]
    masks += [np.ones(N_ACTIONS, dtype=bool), np.arange(N_ACTIONS) == 99,
              np.random.default_rng(seed).random(N_ACTIONS) < 0.1]
    ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in range(600):
        mask = masks[k % len(masks)]
        assert random_policy(mask, ours) == twin.choice(np.flatnonzero(mask))
    assert ours.random() == twin.random()


def test_random_policy_single_choice_and_rejections():
    mask = np.zeros(N_ACTIONS, dtype=bool)
    mask[99] = True
    assert random_policy(mask, np.random.default_rng(1)) == 99
    with pytest.raises(ValueError):
        random_policy(np.zeros(N_ACTIONS, dtype=bool), np.random.default_rng(1))
    with pytest.raises(ValueError):
        random_policy(np.ones(10, dtype=bool), np.random.default_rng(1))


# --------------------------------------------------------------- fixed time

def test_fixed_time_controller_cycles_phases():
    world = load_scenario(resolve_config(QUIET), seed=0)
    greens = [8, 9, 10, 11]
    ctrl = FixedTimeController(world, [greens] * world.net.n)
    seen = []

    def record(world):
        sc = world.controllers[0]
        if sc.trigger:
            seen.append(sc.phase)
            nxt = (sc.phase + 1) % 4
            assert decode_action(ctrl(world, [0])[0]) == (nxt, greens[nxt])

    drive(world, 200, ctrl, after_step=record)
    # initial phase 0 expires, then the plan serves 1, 2, 3, 0, ...
    assert seen[:5] == [0, 1, 2, 3, 0]


def test_fixed_time_controller_is_periodic_without_demand():
    world = load_scenario(resolve_config(QUIET), seed=0)
    stamps = []

    def record(world):
        if world.controllers[0].trigger:
            stamps.append((world.t, world.controllers[0].phase))

    drive(world, 400, FixedTimeController(world, [[8, 8, 8, 8]] * world.net.n),
          after_step=record)
    diffs = {stamps[k + 1][0] - stamps[k][0] for k in range(1, len(stamps) - 1)}
    assert diffs == {13}          # 8 s green + 5 s clearance


def test_fixed_time_controller_validation():
    world = load_scenario(resolve_config(QUIET), seed=0)
    n = world.net.n
    with pytest.raises(ValueError):
        FixedTimeController(world, [[8, 8, 8]] * n)
    with pytest.raises(ValueError):
        FixedTimeController(world, [[8, 8, 8, 50]] * n)
    with pytest.raises(ValueError):
        FixedTimeController(world, [[8] * 4] * 2)


def test_measure_flow_ratios_shape_and_range():
    ratios = measure_flow_ratios(1, seed=0)
    assert len(ratios) == 6
    assert all(len(r) == 4 for r in ratios)
    flat = [y for r in ratios for y in r]
    assert all(0.0 <= y <= 1.0 for y in flat)
    assert max(flat) > 0.0


def test_fswf_builds_one_plan_per_intersection():
    plans = fixed_time_fswf(1, seed=0)
    assert len(plans) == 6
    # each plan's greens fill the Webster cycle of its own measured ratios
    for greens, ratios in zip(plans, measure_flow_ratios(1, seed=0)):
        assert sum(greens) + LOST_TIME_S == webster_cycle(ratios)
