"""Observation, action codec, reward, and feature-window contracts."""

import numpy as np
import pytest

from stdsh.baselines import random_policy
from stdsh.env import (MODES, N_ACTIONS, CorridorEnv, FeatureWindow,
                       action_mask, compute_reward, decode_action, drive,
                       encode_action, feature_scales, obs_width, observe,
                       prepare_node_features)
from stdsh.metrics import MetricsLog
from stdsh.sim import load_scenario
from stdsh.sim.world import DWELLING, MOVING, QUEUED

QUIET = "[demand]\ncar_rate_veh_h = 0\nbus_headway_s = 0\ntram_headway_s = 0\n"
QUIET_NOTRAM = QUIET + "[network]\ntram_enabled = false\n"


def make_window(n, rows_local, rows_net_rest):
    """Rows where intersection 0 gets rows_local[k] and the remainder sits
    at intersection 1, so the network total is local + rest."""
    log = MetricsLog(n=n)
    for t, (loc, rest) in enumerate(zip(rows_local, rows_net_rest)):
        row = [0] * n
        row[0] = loc
        row[1] = rest
        log.append(t, row, [0] * n)
    return log


# ------------------------------------------------------------------- codec

def test_codec_examples_and_bijection():
    assert decode_action(0) == (0, 8)
    assert decode_action(45) == (1, 15)
    assert decode_action(151) == (3, 45)
    seen = set()
    for a in range(N_ACTIONS):
        phase, green = decode_action(a)
        assert 0 <= phase < 4 and 8 <= green <= 45
        assert encode_action(phase, green) == a
        seen.add((phase, green))
    assert len(seen) == 152


def test_codec_rejections():
    for bad in (-1, 152, 1000):
        with pytest.raises(ValueError):
            decode_action(bad)
    with pytest.raises(ValueError):
        encode_action(4, 10)
    with pytest.raises(ValueError):
        encode_action(0, 7)
    with pytest.raises(ValueError):
        encode_action(0, 46)


def test_action_mask_blocks_exactly_current_phase():
    for phase in range(4):
        mask = action_mask(phase)
        assert mask.dtype == bool and mask.shape == (152,)
        assert (~mask).sum() == 38
        blocked = np.flatnonzero(~mask)
        assert blocked.tolist() == list(range(phase * 38, phase * 38 + 38))
        for a in np.flatnonzero(mask):
            assert decode_action(int(a))[0] != phase
    with pytest.raises(ValueError):
        action_mask(4)


def test_action_masks_are_shared_and_read_only():
    # one cached mask per phase: no caller can change another's mask
    assert action_mask(np.int64(3)) is action_mask(3)
    with pytest.raises(ValueError):
        action_mask(1)[0] = False
    assert action_mask(1)[0]


def test_masked_sampling_never_repeats_phase():
    rng = np.random.default_rng(0)
    mask = action_mask(2)
    allowed = np.flatnonzero(mask)
    assert len(allowed) == 114
    draws = rng.choice(allowed, size=100_000, replace=True)
    phases = draws // 38
    assert not np.any(phases == 2)


# ------------------------------------------------------------- observations

def test_empty_network_observation():
    world = load_scenario(QUIET, seed=0)
    obs = observe(world)[0]
    assert obs.shape == (obs_width(9),) == (148,)
    L = 9
    for lane_i, lane in enumerate(world.net.lanes_of(0)):
        base = 16 * lane_i
        assert np.all(obs[base:base + 12] == 0.0)          # all counts zero
        assert np.all(obs[base + 12:base + 16] == lane.link.speed_kmh)
    onehot = obs[16 * L:]
    assert onehot.tolist() == [1.0, 0.0, 0.0, 0.0]          # P1 showing


def test_width_without_tram():
    world = load_scenario(QUIET_NOTRAM, seed=0)
    obs = observe(world)[0]
    assert obs.shape == (obs_width(8),) == (132,)


def test_queued_bus_slots():
    world = load_scenario(QUIET_NOTRAM, seed=0)
    link = world.net.approach(0, "N")         # obs lane 0 is the N kerb lane
    bus = world._spawn_vehicle("bus", 40, [(link, "through")])
    lane = link.lanes[0]
    assert world.slot[bus] == lane.slot
    world._join_queue(bus)
    obs = observe(world)[0]
    veh = obs[0:4]
    pax = obs[4:8]
    queue = obs[8:12]
    speed = obs[12:16]
    assert veh.tolist() == [1, 1, 0, 0]                     # total, bus, tram, car
    assert pax.tolist() == [40, 40, 0, 0]
    assert queue.tolist() == [1, 1, 0, 0]
    assert speed[0] == 0.0 and speed[1] == 0.0              # it is stationary
    assert speed[2] == speed[3] == link.speed_kmh           # empty mode slots
    # untouched lanes still read empty
    for lane_i in range(1, 8):
        base = 16 * lane_i
        assert np.all(obs[base:base + 12] == 0.0)
    assert observe(world)[0].tolist() == obs.tolist()       # pure function


def test_moving_car_counts_but_not_queued():
    world = load_scenario(QUIET_NOTRAM, seed=0)
    link = world.net.approach(0, "E")
    car = world._spawn_vehicle("car", 2, [(link, "through")])
    lane_i = [lane.slot for lane in world.net.lanes_of(0)].index(world.slot[car])
    obs = observe(world)[0]
    base = 16 * lane_i
    assert obs[base + 0] == 1.0 and obs[base + 3] == 1.0    # veh total / car
    assert obs[base + 4] == 2.0 and obs[base + 7] == 2.0    # pax with driver
    assert obs[base + 8] == 0.0                             # not queued
    assert obs[base + 12] == link.speed_kmh                 # moving at free-flow


def test_observation_matches_across_identical_worlds():
    a = load_scenario(3, seed=21)
    b = load_scenario(3, seed=21)
    for _ in range(120):
        a.step()
        b.step()
    for k in range(a.net.n):
        assert observe(a)[k].tolist() == observe(b)[k].tolist()


def recount(world):
    """Reference for observe(): bucket the live vehicles by lane in id
    order, filter each lane's bucket once per metric x mode, read queue
    membership from the lane's deque, take speeds from each vehicle's
    route leg and sum them left to right."""
    on_lane = {}
    for v in world.active.tolist():
        on_lane.setdefault(int(world.slot[v]), []).append(v)
    rows = []
    for i in range(world.net.n):
        row = []
        for lane in world.net.lanes_of(i):
            present = on_lane.get(lane.slot, [])
            queued = set(world.queues[lane.slot])
            for metric in ("veh", "pax", "queue", "speed"):
                for mode in (None,) + MODES:
                    sel = [v for v in present
                           if mode is None or MODES[world.mode[v] - 1] == mode]
                    if metric == "veh":
                        row.append(float(len(sel)))
                    elif metric == "pax":
                        row.append(float(sum(int(world.occupancy[v]) for v in sel)))
                    elif metric == "queue":
                        row.append(float(sum(v in queued for v in sel)))
                    elif sel:
                        acc = 0.0
                        for v in sel:
                            link = world.routes[v][world.leg[v]][0]
                            acc += link.speed_kmh if world.state[v] == MOVING else 0.0
                        row.append(acc / len(sel))
                    else:
                        row.append(lane.link.speed_kmh)
        row += [1.0 if p == world.controllers[i].phase else 0.0 for p in range(4)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("scenario", [3, 5])
def test_observe_equals_per_lane_recount(scenario):
    world = load_scenario(scenario, seed=13)
    rng = np.random.default_rng(13)
    seen = {"dwelling tram": 0, "queued bus": 0}

    def check(world):
        if world.t % 3 == 0:
            assert observe(world).tolist() == recount(world)
            for v in world.active:
                seen["dwelling tram"] += world.state[v] == DWELLING
                seen["queued bus"] += (MODES[world.mode[v] - 1] == "bus"
                                       and world.state[v] == QUEUED)

    check(world)
    drive(world, 900, lambda w, due: [random_policy(
        action_mask(w.controllers[i].phase), rng) for i in due], after_step=check)
    assert all(seen.values()), seen


def test_mixed_lane_speed_total_is_one_running_sum():
    # two buses and four cars at 30.1 km/h: the bus sum plus the car sum
    # differs from the running sum of all six, even after dividing by 6, so
    # the total slot must not be assembled from the mode slots
    world = load_scenario(QUIET + "[network]\ntram_enabled = false\n"
                          "freeflow_kmh = 30.1\n", seed=0)
    link = world.net.approach(0, "N")
    for mode in ("bus", "car", "bus", "car", "car", "car"):
        world._spawn_vehicle(mode, 1, [(link, "left")])   # kerb lane only
    obs = observe(world)
    assert obs[0, 0:4].tolist() == [6, 2, 0, 4]
    assert obs.tolist() == recount(world)


def test_feature_scales_layout():
    s = feature_scales(9)
    assert s.shape == (148,)
    assert s[0:4].tolist() == [0.1] * 4                     # vehicle counts / 10
    assert s[4:8].tolist() == [1 / 150.0] * 4               # passengers / 150
    assert s[8:12].tolist() == [0.1] * 4                    # queue / 10
    assert s[12:16].tolist() == [1 / 50.0] * 4              # speeds / 50
    assert s[16:32].tolist() == s[0:16].tolist()            # tiled per lane
    assert s[-4:].tolist() == [1.0] * 4                     # one-hot untouched


# ------------------------------------------------------------------- reward

def test_reward_example():
    # constant local 4 and network 10 over 10 s with equal halves gives -7
    log = make_window(2, [4] * 10, [6] * 10)
    assert compute_reward(log, 0) == -7.0


def test_reward_zero_and_rejections():
    log = make_window(2, [0] * 5, [0] * 5)
    assert compute_reward(log, 0) == 0.0
    with pytest.raises(ValueError):
        compute_reward(MetricsLog(n=2), 0)
    with pytest.raises(ValueError):
        compute_reward(log, 5)


def test_reward_oracle_random_windows():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 31))
        log = MetricsLog(n=n)
        rows = rng.integers(0, 50, size=(m, n))
        for t in range(m):
            log.append(t, rows[t].tolist(), [0] * n)
        i = int(rng.integers(0, n))
        got = compute_reward(log, i)
        want = -(0.5 * rows[:, i].sum() + 0.5 * rows.sum()) / m
        assert got == pytest.approx(want, abs=1e-12)


def test_reward_monotone_in_each_count():
    base = make_window(2, [4, 4, 4], [6, 6, 6])
    r0 = compute_reward(base, 0)
    bumped_local = make_window(2, [5, 4, 4], [6, 6, 6])
    assert compute_reward(bumped_local, 0) < r0
    bumped_far = make_window(2, [4, 4, 4], [7, 6, 6])
    assert compute_reward(bumped_far, 0) < r0


# ----------------------------------------------------------- feature window

def test_window_prefill_and_order():
    world = load_scenario(1, seed=4)
    win = FeatureWindow(world, depth=5, cadence_s=5)
    table = win.table()
    n = world.net.n
    assert table.shape == (5, n, 148)
    assert win.start() == 0
    X = table[win.start() + np.arange(5)].reshape(5 * n, 148)
    first = observe(world)
    for tau in range(5):
        for i in range(n):
            assert X[tau * n + i].tolist() == first[i].tolist()


def test_window_cadence_and_rotation():
    world = load_scenario(3, seed=4)
    win = FeatureWindow(world, depth=5, cadence_s=5)
    before = win.table()
    for _ in range(4):
        world.step()
        win.after_step(world)
    assert np.array_equal(win.table(), before)          # t=1..4: no snapshot
    world.step()
    win.after_step(world)                               # t=5 lands on the grid
    table = win.table()
    assert len(table) == 6 and win.start() == 1         # one entry appended
    assert np.array_equal(table[:5], before)            # earlier rows intact
    X = table[win.start() + np.arange(5)]
    now = observe(world)
    assert np.array_equal(X[4], now)                    # newest in last block
    assert np.array_equal(X[:4], before[1:])            # window slid by one
    with pytest.raises(ValueError):
        FeatureWindow(world, depth=0)


def test_prepare_node_features_scales_and_pads():
    world = load_scenario(1, seed=0)
    win = FeatureWindow(world, depth=5, cadence_s=5)
    X = prepare_node_features(win.table(), n_lanes=9, heads=4)
    assert X.shape == (5, 6, 148)                       # 148 already divides by 4
    raw = win.table()
    assert np.allclose(X, raw * feature_scales(9))
    Xp = prepare_node_features(win.table(), n_lanes=9, heads=5)
    assert Xp.shape == (5, 6, 150)
    assert np.all(Xp[..., 148:] == 0.0)


# ------------------------------------------------------------------- wrapper

def test_corridor_env_wiring():
    env = CorridorEnv(1, seed=8)
    world = env.world
    assert env.n_agents == 6

    def triggered():
        return [k for k, c in enumerate(world.controllers) if c.trigger]

    assert triggered() == []
    for _ in range(10):
        world.step()
        env.window.after_step(world)
    assert triggered() == [0, 1, 2, 3, 4, 5]
    assert (~action_mask(world.controllers[0].phase)).sum() == 38
    phase, green = decode_action(38)                    # first P2 action
    assert (phase, green) == (1, 8)
    world.apply_signal(0, phase, green)
    assert triggered() == [1, 2, 3, 4, 5]
    # during the transition the mask still reflects the old phase
    world.step()
    env.window.after_step(world)
    assert world.controllers[0].stage == "amber"
    assert not action_mask(world.controllers[0].phase)[:38].any()
    r = env.reward_between(0, 0, 10)
    assert r == compute_reward(env.world.log.window(0, 10), 0)
    assert env.window.table().shape == (7, 6, 148)      # 5 prefill + t=5, 10
    assert env.window.start() == 2


# --------------------------------------------------------------------- drive

T0 = QUIET + "[signal]\ninitial_green_s = 0\n"       # triggers raised at t=0


def next_phase(world, due):
    return [encode_action((world.controllers[i].phase + 1) % 4, 8) for i in due]


def test_drive_serves_the_t0_trigger_first_and_nothing_after_the_last_step():
    world = load_scenario(T0, seed=0)
    calls = []

    def decide(world, due):
        calls.extend((world.t, i) for i in due)
        return next_phase(world, due)

    # one decision takes 3 s amber + 2 s all-red + 8 s green: the next
    # triggers rise with the 13th step, the last one of this call
    drive(world, 13, decide)
    assert calls == [(0, i) for i in range(6)]
    assert world.t == 13
    assert all(c.trigger for c in world.controllers)   # left for the next call
    drive(world, 1, decide)
    assert calls[6:] == [(13, i) for i in range(6)]


def test_drive_in_pieces_equals_one_call():
    logs = []
    for pieces in ((400,), (1, 150, 0, 249)):
        world = load_scenario(1, seed=4)
        calls = []

        def decide(world, due):
            calls.extend((world.t, i) for i in due)
            return next_phase(world, due)

        for seconds in pieces:
            drive(world, seconds, decide)
        logs.append((calls, world.log.net_delayed.tolist(), world.log.int_queued.tolist()))
    assert logs[0] == logs[1]
    assert len(logs[0][0]) > 6


def test_drive_calls_after_step_once_per_second_before_serving():
    world = load_scenario(QUIET, seed=0)
    events = []

    def decide(world, due):
        events.extend(("decide", world.t) for _ in due)
        return next_phase(world, due)

    drive(world, 11, decide, after_step=lambda w: events.append(("after", w.t)))
    # the initial 10 s green expires with step 10; its triggers are served
    # after that step's hook and before step 11
    assert events == ([("after", t) for t in range(1, 11)]
                      + [("decide", 10)] * 6 + [("after", 11)])


def test_drive_serves_each_seconds_triggers_in_one_call():
    world = load_scenario(3, seed=5)
    rng = np.random.default_rng(5)
    calls = []
    raised = [(0, [i for i, c in enumerate(world.controllers) if c.trigger])]

    def decide(world, due):
        calls.append((world.t, list(due)))
        return [random_policy(action_mask(world.controllers[i].phase), rng) for i in due]

    def record(world):
        raised.append((world.t, [i for i, c in enumerate(world.controllers) if c.trigger]))

    drive(world, 600, decide, after_step=record)
    # every second that starts with raised triggers is served by one call
    # with them in controller order; the last step's are left for later
    assert calls == [(t, due) for t, due in raised[:-1] if due]
    assert all(due for _, due in calls)
    assert max(len(due) for _, due in calls) >= 2


@pytest.mark.parametrize("extra", [-1, 1], ids=["one short", "one over"])
def test_drive_rejects_a_wrong_number_of_actions(extra):
    world = load_scenario(T0, seed=0)

    def decide(world, due):
        actions = next_phase(world, due)
        return actions[:extra] if extra < 0 else actions + actions[:extra]

    with pytest.raises(ValueError):
        drive(world, 1, decide)


def test_applying_a_signal_leaves_the_seconds_observation_and_masks(monkeypatch):
    # the invariant that lets drive serve a second's triggers from one
    # observation: a signal applied only stages amber at its intersection
    world = load_scenario(3, seed=9)
    rng = np.random.default_rng(9)
    seen = {}
    checked = []
    apply_signal = type(world).apply_signal

    def masks(world, due):
        return [action_mask(world.controllers[i].phase).tobytes() for i in due]

    def decide(world, due):
        seen.update(t=world.t, due=due, obs=observe(world).tobytes(), masks=masks(world, due))
        return [random_policy(action_mask(world.controllers[i].phase), rng) for i in due]

    def checked_apply(world, i, phase, green):
        apply_signal(world, i, phase, green)
        if world.t == seen["t"] and len(seen["due"]) >= 2:
            assert observe(world).tobytes() == seen["obs"]
            assert masks(world, seen["due"]) == seen["masks"]
            checked.append(i)

    monkeypatch.setattr(type(world), "apply_signal", checked_apply)
    drive(world, 900, decide)
    assert len(checked) > 20
