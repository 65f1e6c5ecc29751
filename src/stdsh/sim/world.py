"""Discrete-time corridor world: spawning, movement, queues, signals.

One step() call simulates one second, in this order: replay this second's
arrivals from the (scenario, seed) trace, move free-flow vehicles
(enqueueing those that reach the stop line, handling tram dwell),
discharge permitted head-of-queue vehicles under green, advance the signal
staging timers, then record the per-second metrics row.

Discharge uses a saturation-credit meter per lane: every green second with
a permitted head vehicle adds `saturation_veh_s` of credit and each whole
unit of credit releases one vehicle. Credit carries over only from a
second in which the lane accrued; after any second that did not serve it
(amber, all-red, empty, or blocked head) the lane starts again from 0. So
each second visits only the queued lanes its greens serve, and a meter is
never reset. Nothing ever discharges outside green.

A green that expires raises the controller trigger and then simply keeps
running until a new decision is applied, so step() is total: a world with
no controlling agent is still well defined.

Movement is event-driven: a leg starts at 0.0 m and advances by its
lane's free-flow step each second, so the seconds at which a vehicle
reaches its tram stop, ends its dwell and reaches the stop line are fixed
at lane entry. `leg_positions` runs that recurrence (the floats of a
per-second model) once per kind of lane; a calendar maps each second to
the ids due then, handled in id order. A vehicle holds one entry at most:
it gets one on entering a lane and when the entry just handled was its
own, never while another is pending. The metrics row is two running
counters per intersection, changed only at transitions: the occupancy of
delayed vehicles (queued, or moving slower than `speed_threshold_kmh`)
and the number of queued road vehicles.

A vehicle is an id, its spawn order; the hot path reads its values one
at a time from lists. The statement that sets `_slot` (lane index in
net.all_lanes()), `_mode` (1 + index in MODES), `_state` (EXITED, MOVING,
QUEUED, DWELLING) or `_occupancy` also sets the numpy array of the same
name without the underscore, grown by doubling; only gathers over many
ids read those. `active`, the ascending live ids, is the nonzero entries
of `state`, found when read, never by a step, and each read checks that
every spawned vehicle is live or counted as exited. Per lane slot the
world keeps a deque of queued ids, a count still rolling, a credit meter
and a count of entries.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import astuple
from itertools import repeat

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
# EXITED is 0 so that the array's unspawned zeros read as exited: a scan
# over its whole length, which only doubles, finds the live ids
EXITED, MOVING, QUEUED, DWELLING = range(4)
_VEHICLE_ARRAYS = (("slot", np.intp), ("mode", np.int8), ("state", np.int8),
                   ("occupancy", np.int64))
# entered: the second before the leg's first move; since: start of the open
# delayed spell (None: none), added to waiting at its end; heading: the current
# leg's movement; _slot.._occupancy: the arrays' values
_VEHICLE_LISTS = ("routes", "leg", "entered", "since", "waiting", "spawn_t",
                  "heading", "_slot", "_mode", "_state", "_occupancy")


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


class ArrivalTrace:
    """One (scenario, seed)'s arrivals, the only reader of its seed: per second,
    the (mode, occupancy, route) of each spawn in order, drawn on first ask."""

    def __init__(self, cfg: ScenarioConfig, seed: int):
        self.key = (astuple(cfg), int(seed))
        self.cfg = cfg
        self.net = Network(cfg)
        self.rng = np.random.default_rng(seed)
        self._draws = iter(())          # uniforms drawn ahead from rng, in order
        self.seconds: list[list[tuple]] = []

    def at(self, t: int) -> list[tuple]:
        while len(self.seconds) <= t:
            self.seconds.append(self._arrivals(len(self.seconds)))
        return self.seconds[t]

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
        return tuple(route)

    def _arrivals(self, t: int) -> list[tuple]:
        cfg, net, out = self.cfg, self.net, []
        if t <= cfg.rates_settle_s:             # the rates still change with t
            self._arrival_p = [rate / 3600.0 for rate in cfg.rates_veh_h(
                [entry_id for entry_id, _ in net.entries], t)]
        for (_, link), p in zip(net.entries, self._arrival_p):
            if self._random() < p:
                occ = 1 + self._poisson(cfg.car_occupancy_poisson_mean)
                out.append(("car", occ, self._route(link)))
        if self._due(t, cfg.bus_first_departure_s, cfg.bus_headway_s):
            for entry in (net.approach(0, "W"), net.approach(net.n - 1, "E")):
                out.append(("bus", cfg.bus_occupancy, self._route(entry, "road", "through")))
        if net.tram_enabled and self._due(t, cfg.tram_first_departure_s, cfg.tram_headway_s):
            entry = net.approach(0, "W", "tram")
            out.append(("tram", cfg.tram_occupancy, self._route(entry, "tram", "through")))
        return out

    def _due(self, t: int, first_s: int, headway_s: int) -> bool:
        return headway_s > 0 and t >= first_s and (t - first_s) % headway_s == 0


_last_trace: ArrivalTrace | None = None     # the one trace kept: the last one asked for


class SimWorld:
    def __init__(self, cfg: ScenarioConfig, seed: int):
        global _last_trace
        self.cfg = cfg
        self.seed = int(seed)
        if _last_trace is None or _last_trace.key != (astuple(cfg), self.seed):
            _last_trace = ArrivalTrace(cfg, seed)
        self.trace = _last_trace
        self.net = self.trace.net
        self.controllers = [SignalController(k, cfg.initial_phase, cfg.initial_green_s)
                            for k in range(cfg.intersections)]
        self.t = 0
        self.spawned_total = 0
        self.exited_total = 0
        self.log = MetricsLog(n=cfg.intersections)
        self.discharge_events: list[tuple[int, int, str]] = []
        # per intersection and phase: (slot, movements it lets go) of each
        # lane allowing a movement the phase permits; a vehicle only ever
        # joins a lane that allows its movement, so no other lane can go
        self.served = [[[(lane.slot, goes) for lane in lanes
                          if (goes := frozenset(mv for mv in lane.allowed
                                                if permits(phase, lane.link.arm, mv)))]
                         for phase in range(N_PHASES)]
                        for lanes in map(self.net.lanes_of, range(self.net.n))]
        lanes = self.net.all_lanes()
        self.lane_entry_counts = [0] * len(lanes)
        links = [lane.link for lane in lanes]
        self.lane_node = [l.node for l in links]
        self.lane_speed_kmh = np.array([l.speed_kmh for l in links])
        leg_args = [(l.speed_kmh / 3.6, l.length, l.stop_pos, l.stop_dwell)
                    for l in links]
        # per lane, seconds after a leg's entry of its first event (the tram
        # stop, else the stop line), the dwell there, and the stop line
        plans = {}
        for args in set(leg_args):
            _, length, stop, dwell = args
            at = [j for j, pos in enumerate(leg_positions(*args)) if pos in (stop, length)]
            plans[args] = at[0], dwell, at[-1]
        self.plan = [plans[args] for args in leg_args]
        self.lane_slow = (self.lane_speed_kmh < cfg.speed_threshold_kmh).tolist()
        self.queues = [deque() for _ in lanes]
        self.moving = [0] * len(lanes)
        # a lane's credit counts only if it accrued in the second before
        self._credit = [0.0] * len(lanes)
        self._accrued = [-1] * len(lanes)
        self.calendar: dict[int, list[int]] = {}
        self.delayed_pax = [0] * self.net.n
        self.queued_road = [0] * self.net.n
        for name in _VEHICLE_LISTS:
            setattr(self, name, [])
        for name, dtype in _VEHICLE_ARRAYS:
            setattr(self, name, np.zeros(64, dtype=dtype))

    # ------------------------------------------------------------- spawning

    def _enter(self, v: int, link, movement: str, entered: int) -> None:
        """Start v's leg on `link`; its first move comes in second entered + 1."""
        # least committed lane (queued or still rolling), kerb lane on ties
        best, best_load = None, 0
        for lane in link.lanes:
            s = lane.slot
            load = len(self.queues[s]) + self.moving[s]
            if movement in lane.allowed and (best is None or load < best_load):
                best, best_load = lane, load
        s = self._slot[v] = self.slot[v] = best.slot
        self._state[v] = self.state[v] = MOVING
        self.heading[v] = movement
        self.moving[s] += 1
        self.lane_entry_counts[s] += 1
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
        code = MODES.index(mode) + 1
        self.routes.append(route)
        self.leg.append(0)
        self.entered.append(0)
        self.since.append(None)
        self.waiting.append(0)
        self.spawn_t.append(self.t)
        self.heading.append(None)
        self._slot.append(0)
        self._state.append(MOVING)
        self._mode.append(code)
        self._occupancy.append(occupancy)
        self.mode[v] = code
        self.occupancy[v] = occupancy
        link, mv = route[0]
        self._enter(v, link, mv, self.t - 1)
        self.spawned_total += 1
        return v

    # ------------------------------------------------------------- dynamics

    def _schedule(self, v: int, t: int) -> None:
        self.calendar.setdefault(t, []).append(v)

    def _delay(self, v: int, on: bool) -> None:
        """Open or close v's delayed spell (a no-op if it already is so);
        its occupancy counts at its lane's node while the spell is open."""
        if (self.since[v] is not None) == on:
            return
        if not on:
            self.waiting[v] += self.t - self.since[v]
        self.since[v] = self.t if on else None
        occ = self._occupancy[v]
        self.delayed_pax[self.lane_node[self._slot[v]]] += occ if on else -occ

    def _move_vehicles(self) -> None:
        """Handle this second's due events in id order."""
        t = self.t
        for v in sorted(self.calendar.pop(t, ())):
            s = self._slot[v]
            _, dwell, line = self.plan[s]
            if self._state[v] == DWELLING:      # dwell over: rolls on next second
                self._state[v] = self.state[v] = MOVING
                self._delay(v, self.lane_slow[s])
                self._schedule(v, self.entered[v] + line)
            elif t - self.entered[v] < line:    # at the tram stop
                self._state[v] = self.state[v] = DWELLING    # scheduled service, not delay
                self._delay(v, False)
                self._schedule(v, t + dwell)
            else:
                self._join_queue(v)

    def _join_queue(self, v: int) -> None:
        """v reaches its lane's stop line now and queues there, delayed."""
        s = self._slot[v]
        self._state[v] = self.state[v] = QUEUED
        self.moving[s] -= 1
        self.queues[s].append(v)
        self._delay(v, True)
        if self._mode[v] != TRAM:
            self.queued_road[self.lane_node[s]] += 1

    def credit(self, s: int) -> float:
        """Lane slot s's saturation credit going into the next second."""
        return self._credit[s] if self._accrued[s] == self.t - 1 else 0.0

    def _discharge(self) -> None:
        t, sat, heading = self.t, self.cfg.saturation_veh_s, self.heading
        for ctrl in self.controllers:
            if ctrl.stage != "green":
                continue
            # a lane the phase cannot serve did not accrue last second:
            # amber came between, or its head may not go
            for s, goes in self.served[ctrl.intersection][ctrl.phase]:
                queue = self.queues[s]
                if not (queue and heading[queue[0]] in goes):
                    continue
                credit = self.credit(s) + sat
                self._accrued[s] = t
                while credit >= 1.0:
                    credit -= 1.0
                    v = queue.popleft()
                    self.discharge_events.append((t, ctrl.intersection, ctrl.stage))
                    self._advance_leg(v)
                    if not (queue and heading[queue[0]] in goes):
                        break
                self._credit[s] = credit

    def _advance_leg(self, v: int) -> None:
        self._delay(v, False)
        if self._mode[v] != TRAM:
            self.queued_road[self.lane_node[self._slot[v]]] -= 1
        leg = self.leg[v] = self.leg[v] + 1
        route = self.routes[v]
        if leg >= len(route):
            self._state[v] = self.state[v] = EXITED
            self.exited_total += 1
            self.log.complete(MODES[self._mode[v] - 1], self.waiting[v],
                              self.spawn_t[v], self.t)
            return
        self._enter(v, *route[leg], self.t)

    def speed_kmh(self, state: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Speeds by state and lane slot: link free-flow while moving, else 0."""
        return np.where(state == MOVING, self.lane_speed_kmh[slot], 0.0)

    # ------------------------------------------------------------- public API

    def step(self) -> None:
        """Simulate one second and append its row to the metrics log."""
        for mode, occupancy, route in self.trace.at(self.t):
            self._spawn_vehicle(mode, occupancy, route)
        self._move_vehicles()
        self._discharge()
        for ctrl in self.controllers:
            ctrl.advance()
        self.log.append(self.t, self.delayed_pax, self.queued_road)
        self.t += 1

    @property
    def active(self) -> np.ndarray:
        """The ascending ids of live vehicles; raises if any spawned vehicle
        is neither live nor counted as exited."""
        ids = np.flatnonzero(self.state)
        if self.spawned_total != len(ids) + self.exited_total:
            raise RuntimeError(
                f"conservation broken at t={self.t}: spawned {self.spawned_total} "
                f"!= active {len(ids)} + exited {self.exited_total}")
        return ids

    def apply_signal(self, intersection: int, phase: int, green_s: int) -> None:
        if not (0 <= intersection < self.net.n):
            raise ValueError(f"unknown intersection {intersection}")
        self.controllers[intersection].apply(phase, green_s)


def load_scenario(config, seed: int) -> SimWorld:
    """Build a deterministic world from anything resolve_config accepts: a
    scenario id, a config path, config text, or a ScenarioConfig."""
    return SimWorld(resolve_config(config), seed)
