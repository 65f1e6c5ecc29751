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

Movement is event-driven: a leg starts at 0.0 m and advances by its
lane's free-flow step each second, so the seconds at which a vehicle
reaches its tram stop, ends its dwell and reaches the stop line are fixed
at lane entry. `leg_positions` runs that recurrence (the floats of a
per-second model) once per kind of lane; a calendar maps each second to
the ids due then, handled in id order. The metrics row is two running
counters per intersection, changed only at transitions: the occupancy of
delayed vehicles (queued, or moving slower than `speed_threshold_kmh`)
and the number of queued road vehicles.

A vehicle is an id, its spawn order. numpy arrays grown by doubling hold
`slot` (lane index in net.all_lanes()), `mode` (1 + index in MODES),
`state` (MOVING, QUEUED, DWELLING, EXITED) and `occupancy`; `active`, the
ascending live ids, is a view that steps rewrite in place (copy it to
keep it); scalars read one at a time are lists. Per lane slot the world
keeps a deque of queued ids, a count still rolling and a credit meter.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice, repeat

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
                   ("occupancy", np.int64), ("_live", np.intp))
# entered: the second before the leg's first move; due: its next event;
# since: start of the open delayed spell (None: none), added to waiting at its end
_VEHICLE_LISTS = ("routes", "leg", "entered", "due", "since", "waiting", "spawn_t")


def leg_positions(speed_mps: float, length: float, stop: float, dwell: int):
    """Position at the end of each second of a leg, from 0.0 before its
    first move to the stop line: pos += speed each second, clamped at the
    tram stop (inf: none) and held there for the dwell."""
    pos = 0.0
    yield pos
    while pos < length:
        if pos < stop <= pos + speed_mps:
            pos = stop
            yield from repeat(stop, dwell)
        else:
            pos = min(pos + speed_mps, length)
        yield pos


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
        self._draws = iter(())          # uniforms drawn ahead from rng, in order
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
        links = [lane.link for lane in lanes]
        self.lane_node = np.array([l.node for l in links])
        self.lane_speed_kmh = np.array([l.speed_kmh for l in links])
        self.leg_args = [(l.speed_kmh / 3.6, l.length, l.stop_pos, l.stop_dwell)
                         for l in links]
        # per lane, seconds after a leg's entry of its first event (the tram
        # stop, else the stop line), the dwell there, and the stop line
        plans = {}
        for args in set(self.leg_args):
            _, length, stop, dwell = args
            at = [j for j, pos in enumerate(leg_positions(*args)) if pos in (stop, length)]
            plans[args] = at[0], dwell, at[-1]
        self.plan = [plans[args] for args in self.leg_args]
        self.lane_slow = (self.lane_speed_kmh < cfg.speed_threshold_kmh).tolist()
        self.queues = [deque() for _ in lanes]
        self.moving = [0] * len(lanes)
        self.credit = [0.0] * len(lanes)
        self.calendar: dict[int, list[int]] = {}
        self.delayed_pax = [0] * self.net.n
        self.queued_road = [0] * self.net.n
        for name in _VEHICLE_LISTS:
            setattr(self, name, [])
        for name, dtype in _VEHICLE_ARRAYS:
            setattr(self, name, np.zeros(64, dtype=dtype))
        self.active = self._live[:0]

    # ------------------------------------------------------------- spawning

    def _random(self) -> float:
        """The next self.rng.random(), from blocks of 512 drawn in order."""
        try:
            return next(self._draws)
        except StopIteration:
            self._draws = iter(self.rng.random(512).tolist())
            return next(self._draws)

    def _poisson(self, mean: float) -> int:
        """self.rng.poisson(mean) on the same stream: numpy's multiplication
        method below a mean of 10, numpy itself once the draws ahead are
        rewound (one PCG64 step each) from 10 on."""
        if mean >= 10:
            self.rng.bit_generator.advance(2**128 - self._draws.__length_hint__())
            self._draws = iter(())
            return int(self.rng.poisson(mean))
        k, prod, floor = 0, 1.0, math.exp(-mean)
        while mean and (prod := prod * self._random()) > floor:
            k += 1
        return k

    def _draw_movement(self) -> str:
        u = self._random()
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

    def _enter(self, v: int, link, movement: str, entered: int) -> None:
        """Start v's leg on `link`; its first move comes in second entered + 1."""
        # least committed lane (queued or still rolling), kerb lane on ties
        best, best_load = None, 0
        for lane in link.lanes:
            load = len(self.queues[lane.slot]) + self.moving[lane.slot]
            if movement in lane.allowed and (best is None or load < best_load):
                best, best_load = lane, load
        s = best.slot
        self.slot[v] = s
        self.state[v] = MOVING
        self.moving[s] += 1
        self.lane_entry_counts[best.key] += 1
        self.entered[v] = entered
        self._schedule(v, entered + self.plan[s][0])
        self._delay(v, self.lane_slow[s])

    def _spawn_vehicle(self, mode: str, occupancy: int, route) -> int:
        """Add a vehicle at the start of its first leg; returns its id."""
        v = len(self.routes)
        if v == len(self.slot):
            for name, _ in _VEHICLE_ARRAYS:
                old = getattr(self, name)
                setattr(self, name, np.concatenate([old, np.zeros_like(old)]))
        for name, value in zip(_VEHICLE_LISTS, (route, 0, 0, None, None, 0, self.t)):
            getattr(self, name).append(value)
        self.mode[v] = MODES.index(mode) + 1
        self.occupancy[v] = occupancy
        link, mv = route[0]
        self._enter(v, link, mv, self.t - 1)
        self._live[len(self.active)] = v
        self.active = self._live[:len(self.active) + 1]
        self.spawned_total += 1
        return v

    def _due(self, first_s: int, headway_s: int) -> bool:
        return headway_s > 0 and self.t >= first_s and (self.t - first_s) % headway_s == 0

    def _spawn_arrivals(self) -> None:
        cfg = self.cfg
        if self.t <= cfg.rates_settle_s:        # the rates still change with t
            self._arrival_p = [cfg.rate_veh_h(entry_id, self.t) / 3600.0
                               for entry_id, _ in self.net.entries]
        for (_, link), p in zip(self.net.entries, self._arrival_p):
            if self._random() < p:
                occ = 1 + self._poisson(cfg.car_occupancy_poisson_mean)
                self._spawn_vehicle("car", occ, self._route(link))
        if self._due(cfg.bus_first_departure_s, cfg.bus_headway_s):
            for entry in (self.net.approach(0, "W"), self.net.approach(self.net.n - 1, "E")):
                self._spawn_vehicle("bus", cfg.bus_occupancy,
                                    self._route(entry, "road", "through"))
        if self.net.tram_enabled and self._due(cfg.tram_first_departure_s, cfg.tram_headway_s):
            entry = self.net.approach(0, "W", "tram")
            self._spawn_vehicle("tram", cfg.tram_occupancy, self._route(entry, "tram", "through"))

    # ------------------------------------------------------------- dynamics

    def _schedule(self, v: int, t: int) -> None:
        self.due[v] = t
        self.calendar.setdefault(t, []).append(v)

    def _delay(self, v: int, on: bool) -> None:
        """Open or close v's delayed spell (a no-op if it already is so);
        its occupancy counts at its lane's node while the spell is open."""
        if (self.since[v] is not None) == on:
            return
        if not on:
            self.waiting[v] += self.t - self.since[v]
        self.since[v] = self.t if on else None
        occ = int(self.occupancy[v])
        self.delayed_pax[self.lane_node[self.slot[v]]] += occ if on else -occ

    def _move_vehicles(self) -> None:
        """Handle this second's due events in id order."""
        t = self.t
        for v in sorted(self.calendar.pop(t, ())):
            if self.due[v] != t:        # placed in its queue ahead of time
                continue
            s = self.slot[v]
            _, dwell, line = self.plan[s]
            if self.state[v] == DWELLING:       # dwell over: rolls on next second
                self.state[v] = MOVING
                self._delay(v, self.lane_slow[s])
                self._schedule(v, self.entered[v] + line)
            elif t - self.entered[v] < line:    # at the tram stop
                self.state[v] = DWELLING        # scheduled service, not delay
                self._delay(v, False)
                self._schedule(v, t + dwell)
            else:
                self._join_queue(v)

    def _join_queue(self, v: int) -> None:
        """v reaches its lane's stop line now and queues there, delayed."""
        s = self.slot[v]
        self.due[v] = None
        self.state[v] = QUEUED
        self.moving[s] -= 1
        self.queues[s].append(v)
        self._delay(v, True)
        if self.mode[v] != TRAM:
            self.queued_road[self.lane_node[s]] += 1

    def position(self, v: int) -> float:
        """Meters along a live vehicle's current link."""
        args = self.leg_args[self.slot[v]]
        if self.state[v] == QUEUED:
            return args[1]
        return next(islice(leg_positions(*args), self.t - 1 - self.entered[v], None))

    def waited(self, v: int) -> int:
        """Seconds v has counted as delayed so far, the open spell included."""
        since = self.since[v]
        return self.waiting[v] + (0 if since is None else self.t - since)

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
        self._delay(v, False)
        if self.mode[v] != TRAM:
            self.queued_road[self.lane_node[self.slot[v]]] -= 1
        self.leg[v] += 1
        route = self.routes[v]
        if self.leg[v] >= len(route):
            self.state[v] = EXITED
            self.exited_total += 1
            self.log.complete(MODES[self.mode[v] - 1], self.waiting[v],
                              self.spawn_t[v], self.t)
            return
        self._enter(v, *route[self.leg[v]], self.t)

    def speed_kmh(self, state: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Speeds by state and lane slot: link free-flow while moving, else 0."""
        return np.where(state == MOVING, self.lane_speed_kmh[slot], 0.0)

    def _record_metrics(self) -> None:
        self.log.append(self.t, self.delayed_pax, self.queued_road)

    # ------------------------------------------------------------- public API

    def step(self) -> None:
        """Simulate one second and append its row to the metrics log."""
        self._spawn_arrivals()
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
        self.t += 1

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
        return sum(self.delayed_pax) if network else self.delayed_pax[scope]


def load_scenario(config, seed: int) -> SimWorld:
    """Build a deterministic world from a scenario id, config path, or text."""
    return SimWorld(resolve_config(config), seed)
