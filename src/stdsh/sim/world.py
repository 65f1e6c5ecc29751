"""Discrete-time corridor world: spawning, movement, queues, signals.

One step() call simulates one second, in this order: spawn arrivals, move
free-flow vehicles (enqueueing those that reach the stop line, handling
tram dwell), discharge permitted head-of-queue vehicles under green,
advance the signal staging timers, then record the per-second metrics row.

Discharge uses a saturation-credit meter per lane: every green second with
a permitted head vehicle adds `saturation_veh_s` of credit and each whole
unit of credit releases one vehicle; the credit resets whenever the lane
is not being served (amber, all-red, empty, or blocked head). Nothing ever
discharges outside green.

A green that expires raises the controller trigger and then simply keeps
running until a new decision is applied, so step() is total: a world with
no controlling agent is still well defined.

State is laid out as arrays. A vehicle is an id, its spawn order, into
per-vehicle arrays grown by doubling: `slot` (its lane's index in
net.all_lanes(), which also fixes its link), `mode` (1 + index in MODES),
`state` (MOVING, QUEUED, DWELLING, EXITED), `pos` in meters along the
link, `leg` (index into `routes[v]`, its list of (Link, movement) legs),
`occupancy`, `waiting` seconds, `dwell` seconds left and `spawn_t`.
`active`, the ascending array of live ids, is a view that steps rewrite
in place (copy it to keep it). Per lane slot the world keeps a deque of
queued ids (head first), a count of vehicles still rolling toward the
stop line and a credit meter, plus constant arrays of node, speed, length
and tram stop. Movement, the metrics row and observations are array
expressions over `active`; spawning and discharge stay scalar, in the
order that fixes the random draws and lane choices.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..metrics import MetricsLog
from .network import N_PHASES, Network, exit_arm, permits
from .scenario import ScenarioConfig, resolve_config

AMBER_S = 3
ALL_RED_S = 2
MIN_GREEN_S = 8
MAX_GREEN_S = 45

MODES = ("bus", "tram", "car")
TRAM = MODES.index("tram") + 1
MOVING, QUEUED, DWELLING, EXITED = range(4)
# `_live` is the buffer `active` views: live ids never outnumber spawned ones
_VEHICLE_ARRAYS = (("slot", np.intp), ("mode", np.int8), ("state", np.int8),
                   ("pos", float), ("leg", np.intp), ("occupancy", np.int64),
                   ("waiting", np.int64), ("dwell", np.int64), ("spawn_t", np.int64),
                   ("_live", np.intp))


class SignalController:
    """Per-intersection staging: green -> amber(3) -> all_red(2) -> green."""

    __slots__ = ("intersection", "phase", "stage", "remaining", "trigger", "_pending")

    def __init__(self, intersection: int, phase: int, green_s: int):
        self.intersection = intersection
        self.phase = int(phase)
        self.stage = "green"
        self.remaining = int(green_s)
        self.trigger = green_s == 0
        self._pending = None

    def apply(self, phase: int, green_s: int) -> None:
        if not self.trigger:
            raise ValueError(
                f"intersection {self.intersection}: no decision due (trigger is false)")
        if int(phase) == self.phase:
            raise ValueError(
                f"intersection {self.intersection}: repeating phase P{self.phase + 1} "
                "is prohibited")
        if int(green_s) != green_s or not (MIN_GREEN_S <= int(green_s) <= MAX_GREEN_S):
            raise ValueError(
                f"green must be an integer in [{MIN_GREEN_S},{MAX_GREEN_S}] s, "
                f"got {green_s}")
        self._pending = (int(phase), int(green_s))
        self.stage = "amber"
        self.remaining = AMBER_S
        self.trigger = False

    def advance(self) -> None:
        if self.stage == "green":
            if self.remaining > 0:
                self.remaining -= 1
                if self.remaining == 0:
                    self.trigger = True
            return
        self.remaining -= 1
        if self.remaining > 0:
            return
        if self.stage == "amber":
            self.stage = "all_red"
            self.remaining = ALL_RED_S
        else:  # all_red finished, start the scheduled green
            phase, green = self._pending
            self._pending = None
            self.phase = phase
            self.stage = "green"
            self.remaining = green


class SimWorld:
    def __init__(self, cfg: ScenarioConfig, seed: int):
        self.cfg = cfg
        self.seed = int(seed)
        self.rng = np.random.default_rng(seed)
        self.net = Network(cfg)
        self.controllers = [SignalController(k, cfg.initial_phase, cfg.initial_green_s)
                            for k in range(cfg.intersections)]
        self.t = 0
        self.spawned_total = 0
        self.exited_total = 0
        self.log = MetricsLog(n=cfg.intersections)
        self.discharge_events: list[tuple[int, int, str]] = []
        self._node_lanes = [self.net.lanes_of(k) for k in range(self.net.n)]
        # per intersection and phase: (slot, movements it lets go) of each
        # lane allowing a movement the phase permits; a vehicle only ever
        # joins a lane that allows its movement, so no other lane can go
        self.served = [[[(lane.slot, goes) for lane in lanes
                          if (goes := frozenset(mv for mv in lane.allowed
                                                if permits(phase, lane.link.arm, mv)))]
                         for phase in range(N_PHASES)] for lanes in self._node_lanes]
        lanes = self.net.all_lanes()
        self.lane_entry_counts = {lane.key: 0 for lane in lanes}
        for name in ("node", "speed_kmh", "length", "stop_pos", "stop_dwell"):
            setattr(self, f"lane_{name}", np.array([getattr(l.link, name) for l in lanes]))
        self.lane_speed_mps = self.lane_speed_kmh / 3.6
        self.queues = [deque() for _ in lanes]
        self.moving = [0] * len(lanes)
        self.credit = [0.0] * len(lanes)
        self.routes: list[list] = []
        for name, dtype in _VEHICLE_ARRAYS:
            setattr(self, name, np.zeros(64, dtype=dtype))
        self.active = self._live[:0]

    # ------------------------------------------------------------- spawning

    def _draw_movement(self) -> str:
        u = self.rng.random()
        if u < self.cfg.turn_left:
            return "left"
        if u < self.cfg.turn_left + self.cfg.turn_through:
            return "through"
        return "right"

    def _route(self, entry_link, kind: str = "road", movement: str | None = None):
        """(link, movement) legs to the network edge, each leg `movement` or a draw."""
        route, link = [], entry_link
        while link is not None:
            mv = movement or self._draw_movement()
            route.append((link, mv))
            link = self.net.next_link(link.node, exit_arm(link.arm, mv), kind)
        return route

    def _assign_lane(self, v: int, link, movement: str) -> None:
        # least committed lane (queued or still rolling), kerb lane on ties
        best, best_load = None, 0
        for lane in link.lanes:
            load = len(self.queues[lane.slot]) + self.moving[lane.slot]
            if movement in lane.allowed and (best is None or load < best_load):
                best, best_load = lane, load
        self.slot[v] = best.slot
        self.moving[best.slot] += 1
        self.lane_entry_counts[best.key] += 1

    def _spawn_vehicle(self, mode: str, occupancy: int, route) -> int:
        """Add a vehicle at the start of its first leg; returns its id."""
        v = len(self.routes)
        if v == len(self.pos):
            for name, _ in _VEHICLE_ARRAYS:
                old = getattr(self, name)
                setattr(self, name, np.concatenate([old, np.zeros_like(old)]))
        self.routes.append(route)
        self.mode[v] = MODES.index(mode) + 1
        self.occupancy[v] = occupancy
        self.spawn_t[v] = self.t
        link, mv = route[0]
        self._assign_lane(v, link, mv)
        self._live[len(self.active)] = v
        self.active = self._live[:len(self.active) + 1]
        self.spawned_total += 1
        return v

    def _due(self, first_s: int, headway_s: int) -> bool:
        return headway_s > 0 and self.t >= first_s and (self.t - first_s) % headway_s == 0

    def _spawn_arrivals(self) -> int:
        cfg = self.cfg
        count = 0
        for entry_id, link in self.net.entries:
            if self.rng.random() < cfg.rate_veh_h(entry_id, self.t) / 3600.0:
                occ = 1 + int(self.rng.poisson(cfg.car_occupancy_poisson_mean))
                self._spawn_vehicle("car", occ, self._route(link))
                count += 1
        if self._due(cfg.bus_first_departure_s, cfg.bus_headway_s):
            for entry in (self.net.approach(0, "W"), self.net.approach(self.net.n - 1, "E")):
                self._spawn_vehicle("bus", cfg.bus_occupancy,
                                    self._route(entry, "road", "through"))
                count += 1
        if self.net.tram_enabled and self._due(cfg.tram_first_departure_s, cfg.tram_headway_s):
            entry = self.net.approach(0, "W", "tram")
            self._spawn_vehicle("tram", cfg.tram_occupancy, self._route(entry, "tram", "through"))
            count += 1
        return count

    # ------------------------------------------------------------- dynamics

    def _move_vehicles(self) -> None:
        ids = self.active
        state = self.state[ids]
        dwelling = ids[state == DWELLING]
        if len(dwelling):
            self.dwell[dwelling] -= 1
            self.state[dwelling[self.dwell[dwelling] <= 0]] = MOVING
        moving = ids[state == MOVING]
        slot = self.slot[moving]
        pos = self.pos[moving]
        newpos = pos + self.lane_speed_mps[slot]
        # only tram links have a stop (inf elsewhere); a tram is short of it
        # until it dwells there and sits exactly on it afterwards, so it
        # serves each stop once
        stop = self.lane_stop_pos[slot]
        stops = (pos < stop) & (newpos >= stop)
        if stops.any():
            newpos[stops] = stop[stops]
            dwellers = moving[stops]
            self.state[dwellers] = DWELLING
            self.dwell[dwellers] = self.lane_stop_dwell[slot[stops]]
        length = self.lane_length[slot]
        arrives = newpos >= length
        self.pos[moving] = np.minimum(newpos, length)
        if arrives.any():
            arrived = moving[arrives]
            self.state[arrived] = QUEUED
            for v, s in zip(arrived.tolist(), slot[arrives].tolist()):
                self.moving[s] -= 1
                self.queues[s].append(v)

    def _heading(self, v: int) -> str:
        return self.routes[v][self.leg[v]][1]

    def _discharge(self) -> int:
        sat = self.cfg.saturation_veh_s
        credit = self.credit
        released = 0
        for ctrl in self.controllers:
            if ctrl.stage != "green":
                for lane in self._node_lanes[ctrl.intersection]:
                    credit[lane.slot] = 0.0
                continue
            # a lane the phase cannot serve holds no credit: amber zeroed
            # it, and a head that may not go adds none
            for s, goes in self.served[ctrl.intersection][ctrl.phase]:
                queue = self.queues[s]
                if not (queue and self._heading(queue[0]) in goes):
                    credit[s] = 0.0
                    continue
                credit[s] += sat
                while credit[s] >= 1.0:
                    credit[s] -= 1.0
                    v = queue.popleft()
                    self.discharge_events.append((self.t, ctrl.intersection, ctrl.stage))
                    self._advance_leg(v)
                    released += 1
                    if not (queue and self._heading(queue[0]) in goes):
                        break
        return released

    def _advance_leg(self, v: int) -> None:
        self.leg[v] += 1
        route = self.routes[v]
        if self.leg[v] >= len(route):
            self.state[v] = EXITED
            self.exited_total += 1
            self.log.complete(MODES[self.mode[v] - 1], int(self.waiting[v]),
                              int(self.spawn_t[v]), self.t)
            return
        link, mv = route[self.leg[v]]
        self.pos[v] = 0.0
        self.state[v] = MOVING
        self._assign_lane(v, link, mv)

    def speed_kmh(self, state: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Speeds by state and lane slot: link free-flow while moving, else 0."""
        return np.where(state == MOVING, self.lane_speed_kmh[slot], 0.0)

    def _delayed(self, state: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Sub-threshold vehicles; a dwelling tram is scheduled, not delayed."""
        return ((state != DWELLING)
                & (self.speed_kmh(state, slot) < self.cfg.speed_threshold_kmh))

    def _record_metrics(self) -> None:
        ids, n = self.active, self.net.n
        state, slot = self.state[ids], self.slot[ids]
        slow = self._delayed(state, slot)
        self.waiting[ids] += slow
        node = self.lane_node[slot]
        road_queued = slow & (state == QUEUED) & (self.mode[ids] != TRAM)
        self.log.append(self.t, np.bincount(node, slow * self.occupancy[ids], n),
                        np.bincount(node, road_queued, n))

    # ------------------------------------------------------------- public API

    def step(self) -> dict:
        """Simulate one second; returns a small event record for this second."""
        spawned = self._spawn_arrivals()
        self._move_vehicles()
        released = self._discharge()
        if released:
            live = self.active[self.state[self.active] != EXITED]
            self._live[:len(live)] = live
            self.active = self._live[:len(live)]
        for ctrl in self.controllers:
            ctrl.advance()
        self._record_metrics()
        if self.spawned_total != len(self.active) + self.exited_total:
            raise RuntimeError(
                f"conservation broken at t={self.t}: spawned {self.spawned_total} "
                f"!= active {len(self.active)} + exited {self.exited_total}")
        record = {
            "t": self.t,
            "spawned": spawned,
            "discharged": released,
            "delayed": int(self.log.net_delayed[-1]),
        }
        self.t += 1
        return record

    def run(self, seconds: int) -> None:
        for _ in range(seconds):
            self.step()

    def apply_signal(self, intersection: int, phase: int, green_s: int) -> None:
        if not (0 <= intersection < self.net.n):
            raise ValueError(f"unknown intersection {intersection}")
        self.controllers[intersection].apply(phase, green_s)

    def delayed_passengers(self, scope="network") -> int:
        """Occupancy total of sub-threshold vehicles, network-wide or at one
        intersection (dwelling trams excluded: scheduled service)."""
        network = isinstance(scope, str) and scope == "network"
        if not (network or isinstance(scope, (int, np.integer)) and 0 <= scope < self.net.n):
            raise ValueError(f"unknown intersection {scope!r}")
        ids = self.active
        slow = self._delayed(self.state[ids], self.slot[ids])
        if not network:
            slow &= self.lane_node[self.slot[ids]] == scope
        return int(self.occupancy[ids[slow]].sum())


def load_scenario(config, seed: int) -> SimWorld:
    """Build a deterministic world from a scenario id, config path, or text."""
    return SimWorld(resolve_config(config), seed)
