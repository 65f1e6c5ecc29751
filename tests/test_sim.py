"""Simulator contract tests: timing, kinematics, discharge, conservation."""

from pathlib import Path

import numpy as np
import pytest

from stdsh.baselines import random_policy
from stdsh.env import action_mask, drive
from stdsh.sim import (ConfigError, SimWorld, load_scenario, parse_config,
                       permits, resolve_config)
from stdsh.sim.world import DWELLING, EXITED, MOVING, QUEUED, TRAM, ArrivalTrace

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

QUIET = "[demand]\ncar_rate_veh_h = 0\nbus_headway_s = 0\ntram_headway_s = 0\n"


def quiet_world(extra: str = "", seed: int = 0) -> SimWorld:
    return load_scenario(QUIET + extra, seed=seed)


def inject_queued(world, node, arm, movement, count, occupancy=1, lane_index=None):
    """Place `count` vehicles directly at the stop line, all in one lane if
    `lane_index` is given (the credit meter is per lane). The world's own
    spawn, lane choice and queueing place them; a lane is forced by making
    the others look fully committed while the vehicle picks."""
    link = world.net.approach(node, arm)
    others = [lane.slot for lane in link.lanes
              if lane_index is not None and lane.index != lane_index]
    made = []
    for _ in range(count):
        for s in others:
            world.moving[s] += 10**6
        v = world._spawn_vehicle("car", occupancy, [(link, movement)])
        for s in others:
            world.moving[s] -= 10**6
        world._join_queue(v)
        made.append(v)
    return made


# ---------------------------------------------------------------- start state

def test_initial_state():
    world = load_scenario(1, seed=3)
    assert world.t == 0
    assert len(world.controllers) == 6
    for ctrl in world.controllers:
        assert ctrl.phase == 0
        assert ctrl.stage == "green"
        assert ctrl.remaining == 10
        assert ctrl.trigger is False
    assert len(world.log) == 0
    assert world.spawned_total == 0


def test_first_trigger_at_initial_green_expiry():
    world = quiet_world()
    for expect_t in range(10):
        assert world.controllers[0].trigger is False
        world.step()
    assert world.t == 10
    assert all(c.trigger for c in world.controllers)
    # expired green persists; stepping on is still legal
    world.step()
    assert world.controllers[0].stage == "green"


def test_zero_demand_stays_empty():
    world = quiet_world()
    world.run(200)
    assert world.spawned_total == 0
    assert world.exited_total == 0
    assert world.log.net_delayed.tolist() == [0] * 200
    assert world.log.net_queued.tolist() == [0] * 200


# ---------------------------------------------------------------- determinism

def test_same_seed_same_trace():
    a = load_scenario(3, seed=11)
    b = load_scenario(3, seed=11)
    for _ in range(600):
        a.step()
        b.step()
        assert (a.spawned_total, len(a.discharge_events)) == \
               (b.spawned_total, len(b.discharge_events))
    assert a.log.net_delayed.tolist() == b.log.net_delayed.tolist()
    assert a.log.int_queued.tolist() == b.log.int_queued.tolist()
    assert a.discharge_events == b.discharge_events
    assert a.spawned_total == b.spawned_total
    assert [(v, a.state[v], a.position(v)) for v in a.active.tolist()] == \
           [(v, b.state[v], b.position(v)) for v in b.active.tolist()]


def test_different_seed_different_trace():
    a = load_scenario(3, seed=11)
    b = load_scenario(3, seed=12)
    a.run(600)
    b.run(600)
    assert a.log.net_delayed.tolist() != b.log.net_delayed.tolist()


# ---------------------------------------------------------------- kinematics

def test_moving_vehicle_reaches_stop_line():
    # 100 m at 50 km/h is 7.2 s of travel, so the stop line is hit on step 8
    world = quiet_world("[network]\nlink_length_m = 100\nintersections = 1\n"
                        "tram_enabled = false\n")
    link = world.net.approach(0, "W")
    v = world._spawn_vehicle("car", 1, [(link, "through")])
    for step in range(1, 9):
        world.step()
        if step < 8:
            assert world.state[v] == MOVING
            assert world.position(v) == pytest.approx(step * 100.0 / 7.2)
        else:
            assert world.state[v] == QUEUED
            assert world.position(v) == link.length
    assert world.queues[world.slot[v]][0] == v
    assert world.waited(v) == 1    # queued during step 8's metrics row
    assert world.log.net_delayed[-1] == 1


def test_queued_vehicle_counts_as_delayed_with_occupancy():
    world = quiet_world("[network]\nintersections = 1\ntram_enabled = false\n")
    inject_queued(world, 0, "W", "through", 1, occupancy=4)
    world.step()
    assert world.log.net_delayed.tolist() == [4]
    assert world.log.net_queued.tolist() == [1]
    assert world.delayed_passengers("network") == 4
    assert world.delayed_passengers(0) == 4


# ---------------------------------------------------------------- discharge

def test_saturation_credit_releases_every_two_seconds():
    # P3 serves E-W through; credit 0.5/s means one release on every 2nd second
    world = quiet_world("[network]\nintersections = 1\ntram_enabled = false\n"
                        "[signal]\ninitial_phase = P3\ninitial_green_s = 45\n")
    inject_queued(world, 0, "W", "through", 3, lane_index=0)
    exits = []
    for _ in range(8):
        before = len(world.discharge_events)
        world.step()
        exits.append(len(world.discharge_events) - before)
    assert exits == [0, 1, 0, 1, 0, 1, 0, 0]
    assert world.exited_total == 3     # single-intersection route, one leg


@pytest.mark.parametrize("sat, released, credit", [
    # credit left when the queue empties (t=5) lasts into t=6 only, and
    # the vehicle queued at t=7 starts from 0
    (0.7, [0, 1, 1, 0, 1, 1, 0, 0], [0.7, 0.4, 0.1, 0.8, 0.5, 0.2, 0.0, 0.7]),
    # two releases from one lane in one second, then a whole unit left over
    (2.5, [2, 2, 0, 0, 0, 0, 0, 1], [0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.5]),
])
def test_credit_carries_over_only_from_the_second_before(sat, released, credit):
    world = quiet_world("[network]\nintersections = 1\ntram_enabled = false\n"
                        f"saturation_veh_s = {sat}\n"
                        "[signal]\ninitial_phase = P3\ninitial_green_s = 45\n")
    slot = world.net.approach(0, "W").lanes[0].slot
    inject_queued(world, 0, "W", "through", 4, lane_index=0)
    seen_released, seen_credit = [], []
    for t in range(8):
        if t == 7:
            inject_queued(world, 0, "W", "through", 1, lane_index=0)
        before = len(world.discharge_events)
        world.step()
        seen_released.append(len(world.discharge_events) - before)
        seen_credit.append(world.credit(slot))
    assert seen_released == released
    assert seen_credit == pytest.approx(credit, abs=1e-12)


def test_no_discharge_when_phase_does_not_permit():
    # P1 serves N-S; a W-arm through queue must sit still
    world = quiet_world("[network]\nintersections = 1\ntram_enabled = false\n"
                        "[signal]\ninitial_phase = P1\ninitial_green_s = 45\n")
    inject_queued(world, 0, "W", "through", 2)
    world.run(20)
    assert world.exited_total == 0
    lane = world.net.approach(0, "W").lanes[0]
    assert world.credit(lane.slot) == 0.0   # a blocked head accrues nothing


def test_blocked_head_blocks_lane():
    # left-turner at the head of the kerb lane holds back a through follower
    world = quiet_world("[network]\nintersections = 1\ntram_enabled = false\n"
                        "[signal]\ninitial_phase = P3\ninitial_green_s = 45\n")
    inject_queued(world, 0, "W", "left", 1)
    inject_queued(world, 0, "W", "through", 1, lane_index=0)   # both in the kerb lane
    world.run(10)
    # P3 permits E-W left and through, so both go; then repeat under P4
    assert world.exited_total == 2
    world2 = quiet_world("[network]\nintersections = 1\ntram_enabled = false\n"
                         "[signal]\ninitial_phase = P4\ninitial_green_s = 45\n")
    inject_queued(world2, 0, "W", "left", 1)
    inject_queued(world2, 0, "W", "through", 1, lane_index=0)
    world2.run(10)
    # P4 is E-W right only: the left head is blocked and pins the lane
    assert world2.exited_total == 0


def test_lane_choice_balances_and_respects_movements():
    world = quiet_world("[network]\nintersections = 1\ntram_enabled = false\n")
    link = world.net.approach(0, "W")
    lanes = world.net.all_lanes()
    a = world._spawn_vehicle("car", 1, [(link, "through")])
    b = world._spawn_vehicle("car", 1, [(link, "through")])
    assert lanes[world.slot[a]].index == 0     # tie broken toward the kerb lane
    assert lanes[world.slot[b]].index == 1
    left = world._spawn_vehicle("car", 1, [(link, "left")])
    right = world._spawn_vehicle("car", 1, [(link, "right")])
    assert lanes[world.slot[left]].index == 0
    assert lanes[world.slot[right]].index == 1


# ---------------------------------------------------------------- signalling

def test_apply_signal_timing():
    world = quiet_world("[signal]\ninitial_green_s = 0\n")
    assert world.controllers[0].trigger is True
    world.apply_signal(0, phase=1, green_s=10)
    stages = []
    for _ in range(16):
        ctrl = world.controllers[0]
        stages.append((world.t, ctrl.stage, ctrl.phase, ctrl.trigger))
        world.step()
    # amber 3 s, all-red 2 s, new green live from second 5
    assert stages[0][1:3] == ("amber", 0)
    assert stages[2][1:3] == ("amber", 0)
    assert stages[3][1:3] == ("all_red", 0)
    assert stages[4][1:3] == ("all_red", 0)
    assert stages[5][1:3] == ("green", 1)
    assert stages[14][1:3] == ("green", 1)
    assert [s[0] for s in stages if s[3]] == [15]  # trigger exactly at expiry
    assert world.t == 16
    assert world.controllers[0].trigger is True
    assert world.controllers[0].stage == "green"


def test_transition_blocks_discharge():
    world = quiet_world("[network]\nintersections = 1\ntram_enabled = false\n"
                        "[signal]\ninitial_phase = P3\ninitial_green_s = 0\n")
    inject_queued(world, 0, "W", "through", 6)
    world.apply_signal(0, phase=0, green_s=8)      # switch away from P3
    for _ in range(5):                             # amber + all-red
        world.step()
        assert world.discharge_events == []
    assert world.exited_total == 0
    for t, node, stage in world.discharge_events:
        assert stage == "green"


def test_apply_signal_rejections():
    world = quiet_world()
    with pytest.raises(ValueError):
        world.apply_signal(0, phase=1, green_s=10)     # trigger not raised
    world.run(10)                                      # now expired
    with pytest.raises(ValueError):
        world.apply_signal(0, phase=0, green_s=10)     # repeat phase
    with pytest.raises(ValueError):
        world.apply_signal(0, phase=1, green_s=7)
    with pytest.raises(ValueError):
        world.apply_signal(0, phase=1, green_s=46)
    with pytest.raises(ValueError):
        world.apply_signal(0, phase=1, green_s=10.5)
    with pytest.raises(ValueError):
        world.apply_signal(99, phase=1, green_s=10)
    world.apply_signal(0, phase=1, green_s=8)          # boundary values pass
    with pytest.raises(ValueError):
        world.apply_signal(0, phase=2, green_s=10)     # consumed the trigger


# ---------------------------------------------------------------- conservation

def test_conservation_under_demand_and_control():
    world = load_scenario(3, seed=5)
    rng = np.random.default_rng(0)
    for _ in range(600):
        world.step()
        for k, ctrl in enumerate(world.controllers):
            if ctrl.trigger:
                phase = int(rng.integers(0, 4))
                if phase == ctrl.phase:
                    phase = (phase + 1) % 4
                world.apply_signal(k, phase, int(rng.integers(8, 46)))
    assert world.spawned_total == len(world.active) + world.exited_total
    assert world.spawned_total > 500
    assert world.exited_total > 0
    for t, node, stage in world.discharge_events:
        assert stage == "green"


@pytest.mark.parametrize("corrupt", ["exit_counted_twice", "exit_not_counted"])
def test_drive_catches_broken_conservation(corrupt):
    world = load_scenario(3, seed=17)
    rng = np.random.default_rng(17)

    def decide(w, due):
        return [random_policy(action_mask(w.controllers[i].phase), rng) for i in due]

    drive(world, 300, decide)
    if corrupt == "exit_counted_twice":
        world.exited_total += 1
    else:   # the tail of the longest queue, which stays there past the drive
        v = max(world.queues, key=len)[-1]
        world.state[v] = world._state[v] = EXITED
    with pytest.raises(RuntimeError, match="conservation broken"):
        drive(world, 60, decide)
    if corrupt == "exit_not_counted":
        assert world._state[v] == EXITED


def test_delayed_recount_matches_log():
    world = load_scenario(3, seed=9)
    for _ in range(300):
        world.step()
        # brute-force recount straight off each vehicle's route leg
        per = [0] * world.net.n
        for v in world.active.tolist():
            link = world.routes[v][world.leg[v]][0]
            speed = link.speed_kmh if world.state[v] == MOVING else 0.0
            if world.state[v] == DWELLING or speed >= 5.0:
                continue
            per[link.node] += int(world.occupancy[v])
        assert per == world.log.int_delayed[-1].tolist()
        assert world.delayed_passengers("network") == sum(per)
        for k in range(world.net.n):
            assert world.delayed_passengers(k) == per[k]
    with pytest.raises(ValueError):
        world.delayed_passengers(-1)
    with pytest.raises(ValueError):
        world.delayed_passengers("everything")


@pytest.mark.parametrize("scenario", [3, 5])
def test_bookkeeping_matches_an_independent_recount(scenario):
    # every second of a randomly controlled drive: queue membership, the
    # per-lane moving counters and each vehicle's waiting seconds agree with
    # a recount that reads only states, routes and the previous second
    world = load_scenario(scenario, seed=17)
    rng = np.random.default_rng(17)
    thr = world.cfg.speed_threshold_kmh
    waited: dict[int, int] = {}
    last = {"active": set(), "completed": 0}
    seen = {"queued": 0, "dwelling": 0, "exited": 0}

    def check(world):
        active = world.active.tolist()
        assert active == sorted(set(active))
        where = {}
        for s, queue in enumerate(world.queues):
            for v in queue:
                assert v not in where          # in one deque, once
                where[v] = s
        moving = [0] * len(world.queues)
        for v in active:
            state = world.state[v]
            if state == QUEUED:
                assert where.pop(v) == world.slot[v]
                seen["queued"] += 1
            else:
                assert v not in where
                moving[world.slot[v]] += 1
            link = world.routes[v][world.leg[v]][0]
            speed = link.speed_kmh if state == MOVING else 0.0
            if state != DWELLING and speed < thr:
                waited[v] = waited.get(v, 0) + 1
            seen["dwelling"] += state == DWELLING
            assert world.waited(v) == waited.get(v, 0)
        assert not where                       # nothing queued that is not live
        assert moving == world.moving
        # the vehicles that left this second carry their waiting into the log
        gone = last["active"] - set(active)
        trips = world.log.completed[last["completed"]:]
        assert all(world.state[v] == EXITED for v in gone)
        assert sorted(c.waiting_s for c in trips) == sorted(waited.get(v, 0) for v in gone)
        seen["exited"] += len(gone)
        last["active"], last["completed"] = set(active), len(world.log.completed)

    drive(world, 900, lambda w, due: [random_policy(
        action_mask(w.controllers[i].phase), rng) for i in due], after_step=check)
    assert all(seen.values()), seen


@pytest.mark.parametrize("every", [1, 7, 60, None], ids=["1s", "7s", "60s", "end"])
def test_active_and_vehicle_arrays_follow_every_step(every):
    # read every `every` seconds (None: once, at the end of the drive),
    # active is the ascending live ids however many exits came between
    # reads, and the arrays observe() gathers from hold the lists' values
    world = load_scenario(3, seed=23)
    rng = np.random.default_rng(23)
    reads = []

    def check(world):
        n = world.spawned_total
        live = [v for v in range(n) if world.state[v] != EXITED]
        assert world.active.tolist() == live
        for name in ("slot", "mode", "state", "occupancy"):
            assert getattr(world, name)[:n].tolist() == getattr(world, f"_{name}")
        assert not world.state[n:].any()        # the unspawned tail reads EXITED
        reads.append(world.t)

    def after_step(world):
        if every and world.t % every == 0:
            check(world)

    drive(world, 600, lambda w, due: [random_policy(
        action_mask(w.controllers[i].phase), rng) for i in due], after_step=after_step)
    check(world)                        # again at the end: a read without a step between
    assert len(reads) == (600 // every if every else 0) + 1 and reads[-1] == 600
    assert world.exited_total > 0


@pytest.mark.parametrize("seed", [0, 1, 5, 11])
def test_buffered_draws_follow_a_fresh_generator(seed):
    # each op is a uniform draw (None) or a Poisson draw of that mean; the
    # trace's buffered draws must equal a fresh generator's, draw for draw.
    # A trace of its own: draws taken here would corrupt the shared one
    trace = ArrivalTrace(resolve_config(QUIET), seed)
    assert trace._draws.__length_hint__() == 0      # nothing drawn ahead yet
    twin = np.random.default_rng(seed)
    means = (0, 0.5, 3, 9.999, 10, 12, 55.5)
    ops = [None] * 1100 + [12]                      # two 512-draw blocks, 436 ahead
    ops += [None] * 511 + [55.5]                    # rewind one draw ahead
    ops += [None] * 512 + [10]                      # rewind at a block's end
    ops += [10, 12, 0, 0, None]                     # rewind with nothing ahead
    ops += [None if u < 0.4 else means[int(u * 100) % len(means)]
            for u in np.random.default_rng(1000 + seed).random(3000).tolist()]
    for k, mean in enumerate(ops):
        if mean is None:
            assert trace._random() == twin.random(), k
        else:
            assert trace._poisson(mean) == twin.poisson(mean), (k, mean)
    assert trace._random() == twin.random()


# ---------------------------------------------------------------- transit

def test_bus_and_tram_schedules():
    world = load_scenario("[demand]\ncar_rate_veh_h = 0\n", seed=0)
    world.run(1800)
    # buses: t=60, 660, 1260 from both corridor ends; trams: t=30..1530 step 300
    assert world.spawned_total == 6 + 6
    in_network = sum(1 for v in world.active if world.mode[v] == TRAM)
    done = sum(1 for c in world.log.completed if c.mode == "tram")
    assert in_network + done == 6


def test_tram_dwell_is_scheduled_not_delay():
    # two junctions, stop halfway down the second tram link
    text = ("[network]\nintersections = 2\ntram_stop_intersections = 1\n"
            "[demand]\ncar_rate_veh_h = 0\nbus_headway_s = 0\n"
            "tram_first_departure_s = 0\ntram_headway_s = 0\n"
            "[signal]\ninitial_phase = P3\ninitial_green_s = 45\n")
    world = load_scenario(text, seed=0)
    link = world.net.approach(0, "W", "tram")
    tram = world._spawn_vehicle("tram", 150, world.trace._route(link, "tram", "through"))
    dwell_seconds = 0
    for _ in range(400):
        world.step()
        if world.state[tram] == DWELLING:
            dwell_seconds += 1
            assert world.log.net_delayed[-1] == 0   # dwell is not delay
    assert dwell_seconds == 20
    assert world.state[tram] == EXITED
    # waiting accrued only at stop lines, well under the dwell length
    done = [c for c in world.log.completed if c.mode == "tram"]
    assert len(done) == 1
    assert 0 < done[0].waiting_s < 10


def test_tram_headway_zero_means_none():
    world = load_scenario("[demand]\ncar_rate_veh_h = 0\nbus_headway_s = 0\n"
                          "tram_headway_s = 0\n", seed=0)
    world.run(400)
    assert world.spawned_total == 0


# ---------------------------------------------------------------- config errors

def test_config_error_reporting():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("car_rate_veh_h = 1\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("[demand]\ncar_rate_veh_h = fast\n")
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config("[demand]\nwibble = 1\n")
    with pytest.raises(ConfigError, match="sum to 1"):
        parse_config("[demand]\nturn_left = 0.5\n")
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config("[demand]\ncar_rate_veh_h = 1\ncar_rate_veh_h = 2\n")
    with pytest.raises(ConfigError):
        parse_config("[signal]\ninitial_phase = P9\n")
    with pytest.raises(ConfigError):
        parse_config("[network]\nintersections = 0\n")


@pytest.mark.parametrize("line, field", [
    ("[network]\nfreeflow_kmh = nan", "freeflow_kmh"),
    ("[network]\nsaturation_veh_s = nan", "saturation_veh_s"),
    ("[demand]\ncar_rate_veh_h = inf", "car_rate_veh_h"),
    ("[demand]\nturn_left = nan", "turn_left"),
    ("[scenario]\nspeed_threshold_kmh = -inf", "speed_threshold_kmh"),
    ("[scenario]\nskew_multiplier = -1", "skew_multiplier"),
    ("[scenario]\nramp_to_veh_h = -5", "ramp_to_veh_h"),
    ("[demand]\ntram_occupancy = 0", "tram_occupancy"),
    ("[demand]\nbus_occupancy = 0", "bus_occupancy"),
    # one draw per entry and second: no more than 3600 veh/h at any entry
    ("[demand]\ncar_rate_veh_h = 5000", "car_rate_veh_h"),
    ("[scenario]\nid = 2\nramp_to_veh_h = 3601", "ramp_to_veh_h"),
    ("[demand]\ncar_rate_veh_h = 3000\n[scenario]\nid = 5\nskew_multiplier = 1.6",
     "skew_multiplier"),
])
def test_config_rejects_bad_values_naming_the_field(line, field):
    with pytest.raises(ConfigError, match=f"field '{field}'"):
        parse_config(line + "\n")


def test_resolve_config_validates_a_config_object():
    from stdsh.sim import ScenarioConfig
    with pytest.raises(ConfigError, match="field 'freeflow_kmh'"):
        resolve_config(ScenarioConfig(freeflow_kmh=float("nan")))
    with pytest.raises(ConfigError, match="field 'tram_occupancy'"):
        load_scenario(ScenarioConfig(tram_occupancy=0), seed=0)


def test_resolve_config_forms(tmp_path):
    from stdsh.sim import ScenarioConfig
    assert resolve_config(2).scenario_id == 2
    cfg = ScenarioConfig()
    assert resolve_config(cfg) is cfg
    p = tmp_path / "s.cfg"
    p.write_text(QUIET)
    assert resolve_config(p).car_rate_veh_h == 0.0
    assert resolve_config(str(p)).car_rate_veh_h == 0.0
    with pytest.raises(ConfigError, match="scenario must be in 1..5, got 9"):
        resolve_config(9)
    with pytest.raises(ConfigError, match="type bool"):
        resolve_config(True)


def test_a_path_holding_an_equals_sign_is_a_path(tmp_path):
    p = tmp_path / "rate=500" / "s.cfg"
    p.parent.mkdir()
    p.write_text((CONFIGS / "scenario3.cfg").read_text())
    assert resolve_config(str(p)) == resolve_config(p) == resolve_config(3)


@pytest.mark.parametrize("scenario_id", [1, 2, 3, 4, 5])
def test_shipped_config_file_matches_builtin(scenario_id):
    shipped = parse_config((CONFIGS / f"scenario{scenario_id}.cfg").read_text())
    assert shipped == resolve_config(scenario_id)


def test_phase_permission_table():
    # left-hand traffic: right turns cross and get their own protected stages
    assert permits(0, "N", "through") and permits(0, "S", "left")
    assert not permits(0, "N", "right") and not permits(0, "E", "through")
    assert permits(1, "N", "right") and permits(1, "S", "right")
    assert not permits(1, "N", "through")
    assert permits(2, "E", "through") and permits(2, "W", "left")
    assert not permits(2, "W", "right")
    assert permits(3, "W", "right") and permits(3, "E", "right")
    assert not permits(3, "E", "left")
