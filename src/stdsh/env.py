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
(world, due) -> actions callable consulted once in each second in which
some greens have expired, with those intersections in controller order.

A decision's reward averages, over the m seconds until its agent's next
decision, the intersection's own delayed-passenger count and the network
count, weighted and negated; compute_rewards prices a whole rollout's
decisions at once from its metrics log.
"""

from __future__ import annotations

import numpy as np

from .metrics import MetricsLog
from .sim.network import N_PHASES
from .sim.world import MAX_GREEN_S, MIN_GREEN_S, MODES, QUEUED, SimWorld

FEATURES_PER_LANE = 16
GREENS_PER_PHASE = MAX_GREEN_S - MIN_GREEN_S + 1     # 38
N_ACTIONS = N_PHASES * GREENS_PER_PHASE              # 152
_PHASE_ROWS = np.eye(N_PHASES)                       # one-hot row per phase


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
    phase = _PHASE_ROWS[[c.phase for c in world.controllers]]
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


# per current phase, True where allowed: that phase's 38 entries are forbidden
_MASKS = tuple(np.repeat(np.arange(N_PHASES) != p, GREENS_PER_PHASE)
               for p in range(N_PHASES))
for _mask in _MASKS:
    _mask.flags.writeable = False


def action_mask(current_phase: int) -> np.ndarray:
    """True where allowed; the current phase's 38 entries are forbidden.
    The mask is shared and read-only."""
    if not (0 <= current_phase < N_PHASES):
        raise ValueError(f"phase must be in [0,{N_PHASES}), got {current_phase}")
    return _MASKS[current_phase]


def drive(world: SimWorld, seconds: int, decide, after_step=None) -> None:
    """Step `world` for `seconds`; each agent acts when its green expires.

    Before every step that finds triggers raised, `decide(world, due)` is
    called once with the due intersections in controller order and returns
    one action each. A signal applied only stages amber at its own
    intersection, so every agent of a second decides on the same world.
    `after_step(world)`, if given, runs after every step. A trigger the
    last step raises is left for the next call, so drive(w, a) then
    drive(w, b) is drive(w, a + b). The call ends by reading
    `world.active`, which checks conservation.
    """
    for _ in range(seconds):
        due = [i for i, ctrl in enumerate(world.controllers) if ctrl.trigger]
        if due:
            for i, a in zip(due, decide(world, due), strict=True):
                world.apply_signal(i, *decode_action(a))
        world.step()
        if after_step is not None:
            after_step(world)
    world.active                        # the read checks conservation


# ------------------------------------------------------------------- reward

W_LOCAL, W_NETWORK = 0.5, 0.5    # reward weights: own intersection, whole network


def compute_rewards(log: MetricsLog, agent, start, stop) -> np.ndarray:
    """Each decision's -( (w1/m) sum N^i_t + (w2/m) sum N_hat_t ) over the
    m logged seconds start <= t < stop, w1 = W_LOCAL and w2 = W_NETWORK,
    from one integer cumsum of the log: the sums stay exact, and only the
    weighting and the average are floating point."""
    agent = np.asarray(agent)
    lo, hi = np.searchsorted(log.seconds, [start, stop])
    m = hi - lo
    if np.any(m <= 0):
        raise ValueError("reward window is empty")
    if np.any((agent < 0) | (agent >= log.n)):
        raise ValueError(f"unknown intersection: each must be in [0, {log.n})")
    sums = np.zeros((len(log) + 1, 1 + log.n), dtype=np.int64)
    np.cumsum(log.table[:, [1, *range(3, 3 + log.n)]], axis=0, out=sums[1:])
    network = sums[hi, 0] - sums[lo, 0]
    local = sums[hi, 1 + agent] - sums[lo, 1 + agent]
    return -(W_LOCAL * local + W_NETWORK * network) / m


# ----------------------------------------------------- critic feature window

# the critic's window: this many snapshots, one every this many seconds
WINDOW_DEPTH, WINDOW_CADENCE_S = 5, 5


class FeatureWindow:
    """Episode table of observation snapshots behind the critic's windows.

    A snapshot is taken every WINDOW_CADENCE_S seconds of world time and
    appended once. The table starts with WINDOW_DEPTH copies of the initial
    observation, so the current window, the WINDOW_DEPTH latest snapshots
    oldest first, is always table rows start() .. start() + WINDOW_DEPTH - 1.
    """

    def __init__(self, world: SimWorld):
        self.buf = [observe(world)] * WINDOW_DEPTH

    def after_step(self, world: SimWorld) -> None:
        """Call once after every world.step(); samples on the cadence grid."""
        if world.t % WINDOW_CADENCE_S == 0:
            self.buf.append(observe(world))

    def start(self) -> int:
        """Table row of the current window's oldest snapshot."""
        return len(self.buf) - WINDOW_DEPTH

    def table(self) -> np.ndarray:
        """(S, n, 16*L + 4) raw snapshots, oldest first."""
        return np.stack(self.buf)


def prepare_node_features(raw: np.ndarray, n_lanes: int, heads: int) -> np.ndarray:
    """Scale raw observations (last axis) and zero-pad it to a multiple of `heads`."""
    x = raw * feature_scales(n_lanes)
    pad = (-x.shape[-1]) % heads
    if pad:
        x = np.concatenate([x, np.zeros(x.shape[:-1] + (pad,))], axis=-1)
    return x
