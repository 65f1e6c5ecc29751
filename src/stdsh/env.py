"""Learning-facing adapter over the simulator.

Observations are lane-level: 16 reals per approaching lane, four metrics
(vehicle count, passenger count, queue length, mean speed in km/h) each
broken down as total/bus/tram/car, concatenated over the intersection's
lanes in network order, then a 4-wide one-hot of the phase currently (or
last) shown green. Empty mode slots report the lane's free-flow speed so
an empty lane never reads as congested. observe(world) returns every
intersection's row at once, (n, 16*L + 4), in raw units; the matching
per-slot scale vector is applied only inside the networks.

Actions index a 4 x 38 grid: a // 38 is the next phase, 8 + a % 38 its
green seconds. The mask forbids exactly the 38 entries that repeat the
running phase.

Every controller, learned or not, runs through drive(): a
(world, intersection) -> action callable consulted only when that
intersection's green expires.

Reward over one decision window of m seconds averages the intersection's
own delayed-passenger count and the network count, weighted and negated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import MetricsLog
from .sim.network import N_PHASES
from .sim.world import MAX_GREEN_S, MIN_GREEN_S, MODES, QUEUED, SimWorld

FEATURES_PER_LANE = 16
GREENS_PER_PHASE = MAX_GREEN_S - MIN_GREEN_S + 1     # 38
N_ACTIONS = N_PHASES * GREENS_PER_PHASE              # 152


def obs_width(n_lanes: int) -> int:
    return FEATURES_PER_LANE * n_lanes + N_PHASES


def observe(world: SimWorld) -> np.ndarray:
    """Raw observations of every intersection, one row each: (n, 16*L + 4).

    Each slot, a lane's total or one mode's share of it (mode code k in
    slot k), is a bincount over `world.active`, which accumulates in
    ascending id order, so it equals a per-lane running sum bit for bit.
    """
    ids = world.active
    slot = world.slot[ids]
    n_lanes = len(world.lane_node)
    # each vehicle counts once in its lane's total slot, once in its mode slot
    cell = np.concatenate([4 * slot, 4 * slot + world.mode[ids]])

    def tally(per_vehicle=None):
        w = None if per_vehicle is None else np.concatenate([per_vehicle, per_vehicle])
        return np.bincount(cell, w, 4 * n_lanes).reshape(n_lanes, 4)

    veh = tally()
    pax = tally(world.occupancy[ids].astype(float))
    state = world.state[ids]
    queue = tally((state == QUEUED).astype(float))
    speed_sum = tally(world.speed_kmh(state, slot))
    freeflow = world.lane_speed_kmh[:, None]
    speed = np.where(veh > 0, speed_sum / np.maximum(veh, 1), freeflow)
    n = world.net.n
    per_lane = np.concatenate([veh, pax, queue, speed], axis=1).reshape(n, -1)
    phase = np.eye(N_PHASES)[[c.phase for c in world.controllers]]
    return np.concatenate([per_lane, phase], axis=1)


def feature_scales(n_lanes: int) -> np.ndarray:
    """Per-slot divisor-inverses used on the network input path."""
    per_lane = np.repeat([1 / 10.0, 1 / 150.0, 1 / 10.0, 1 / 50.0], 4)
    return np.concatenate([np.tile(per_lane, n_lanes), np.ones(N_PHASES)])


# ------------------------------------------------------------------ actions

def decode_action(a: int) -> tuple[int, int]:
    if not (0 <= a < N_ACTIONS):
        raise ValueError(f"action must be in [0,{N_ACTIONS}), got {a}")
    return a // GREENS_PER_PHASE, MIN_GREEN_S + a % GREENS_PER_PHASE


def encode_action(phase: int, green_s: int) -> int:
    if not (0 <= phase < N_PHASES):
        raise ValueError(f"phase must be in [0,{N_PHASES}), got {phase}")
    if not (MIN_GREEN_S <= green_s <= MAX_GREEN_S):
        raise ValueError(f"green must be in [{MIN_GREEN_S},{MAX_GREEN_S}], got {green_s}")
    return phase * GREENS_PER_PHASE + (green_s - MIN_GREEN_S)


def action_mask(current_phase: int) -> np.ndarray:
    """True where allowed; the current phase's 38 entries are forbidden."""
    if not (0 <= current_phase < N_PHASES):
        raise ValueError(f"phase must be in [0,{N_PHASES}), got {current_phase}")
    mask = np.ones(N_ACTIONS, dtype=bool)
    lo = current_phase * GREENS_PER_PHASE
    mask[lo:lo + GREENS_PER_PHASE] = False
    return mask


def drive(world: SimWorld, seconds: int, decide, after_step=None) -> None:
    """Step `world` for `seconds`; each agent acts when its green expires.

    Before every step, each raised trigger is served with the action
    `decide(world, i)` returns for intersection i; `after_step(world)`, if
    given, runs after every step. A trigger the last step raises is left
    for the next call, so drive(w, a) then drive(w, b) is drive(w, a + b).
    """
    for _ in range(seconds):
        for i, ctrl in enumerate(world.controllers):
            if ctrl.trigger:
                world.apply_signal(i, *decode_action(decide(world, i)))
        world.step()
        if after_step is not None:
            after_step(world)


# ------------------------------------------------------------------- reward

@dataclass
class RewardConfig:
    w1: float = 0.5          # weight on the agent's own intersection
    w2: float = 0.5          # weight on the whole network

    def __post_init__(self):
        if self.w1 < 0 or self.w2 < 0:
            raise ValueError("reward weights must be >= 0")


def compute_reward(window: MetricsLog, intersection: int, cfg: RewardConfig) -> float:
    """-( (w1/m) sum N^i_t + (w2/m) sum N_hat_t ) over the window's m seconds."""
    m = len(window)
    if m == 0:
        raise ValueError("reward window is empty")
    if not (0 <= intersection < window.n):
        raise ValueError(f"unknown intersection {intersection}")
    local = int(window.int_delayed[:, intersection].sum())
    network = int(window.net_delayed.sum())
    return -(cfg.w1 * local + cfg.w2 * network) / float(m)


# ----------------------------------------------------- critic feature window

class FeatureWindow:
    """Rolling stack of the `depth` most recent observation snapshots.

    Snapshots are taken every `cadence_s` seconds of world time; the buffer
    starts full of the initial observation so the stacked matrix always has
    depth * n rows. Row node_index(i, tau) is intersection i at snapshot
    tau, tau = 0 the oldest.
    """

    def __init__(self, world: SimWorld, depth: int = 5, cadence_s: int = 5):
        if depth < 1 or cadence_s < 1:
            raise ValueError("window depth and cadence must be >= 1")
        self.depth = depth
        self.cadence_s = cadence_s
        first = observe(world)
        self.buf = [first.copy() for _ in range(depth)]

    def after_step(self, world: SimWorld) -> None:
        """Call once after every world.step(); samples on the cadence grid."""
        if world.t % self.cadence_s == 0:
            self.buf.pop(0)
            self.buf.append(observe(world))

    def stacked(self) -> np.ndarray:
        return np.concatenate(self.buf, axis=0)


def prepare_node_features(stacked: np.ndarray, n_lanes: int, heads: int) -> np.ndarray:
    """Scale raw snapshot rows and zero-pad width to a multiple of `heads`."""
    x = stacked * feature_scales(n_lanes)
    pad = (-x.shape[1]) % heads
    if pad:
        x = np.concatenate([x, np.zeros((x.shape[0], pad))], axis=1)
    return x


class CorridorEnv:
    """World plus the bookkeeping the trainer needs: masks, per-window
    rewards and, for the hypergraph critic, snapshots on a 5 s grid taken
    by drive(env.world, ..., after_step=env.window.after_step)."""

    def __init__(self, config, seed: int, window_depth: int = 5,
                 window_cadence_s: int = 5):
        from .sim.world import load_scenario
        self.world = load_scenario(config, seed)
        self.reward_cfg = RewardConfig()
        self.window = FeatureWindow(self.world, window_depth, window_cadence_s)
        self.n_lanes = len(self.world.net.lanes_of(0))

    @property
    def n_agents(self) -> int:
        return self.world.net.n

    def mask_for(self, intersection: int) -> np.ndarray:
        return action_mask(self.world.controllers[intersection].phase)

    def reward_between(self, intersection: int, start_t: int, stop_t: int) -> float:
        return compute_reward(self.world.log.window(start_t, stop_t),
                              intersection, self.reward_cfg)

    def node_features(self, heads: int) -> np.ndarray:
        return prepare_node_features(self.window.stacked(), self.n_lanes, heads)
