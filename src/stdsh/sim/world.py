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
"""

from __future__ import annotations

import numpy as np

from ..metrics import MetricsLog
from .network import ARMS, Network, exit_arm, permits
from .scenario import ScenarioConfig, resolve_config

AMBER_S = 3
ALL_RED_S = 2
MIN_GREEN_S = 8
MAX_GREEN_S = 45


class Vehicle:
    __slots__ = ("vid", "mode", "occupancy", "route", "leg", "state", "pos",
                 "lane", "spawn_t", "waiting", "dwell_left", "dwelled")

    def __init__(self, vid: int, mode: str, occupancy: int, route, spawn_t: int):
        self.vid = vid
        self.mode = mode
        self.occupancy = int(occupancy)
        self.route = route            # list of (Link, movement)
        self.leg = 0
        self.state = "moving"
        self.pos = 0.0
        self.lane = None
        self.spawn_t = spawn_t
        self.waiting = 0
        self.dwell_left = 0
        self.dwelled = False

    @property
    def speed_kmh(self) -> float:
        if self.state == "moving":
            return self.route[self.leg][0].speed_kmh
        return 0.0


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
        self.net = Network(
            n=cfg.intersections,
            link_length=cfg.link_length_m,
            side_length=cfg.side_link_length_m,
            freeflow_kmh=cfg.freeflow_kmh,
            tram_kmh=cfg.tram_freeflow_kmh,
            tram_enabled=cfg.tram_enabled,
            tram_stop_nodes=set(cfg.tram_stop_intersections),
            tram_dwell=cfg.tram_stop_dwell_s,
        )
        self.controllers = [
            SignalController(k, cfg.initial_phase, cfg.initial_green_s)
            for k in range(cfg.intersections)
        ]
        self.t = 0
        self.active: list[Vehicle] = []
        self.spawned_total = 0
        self.exited_total = 0
        self.log = MetricsLog(n=cfg.intersections)
        self.discharge_events: list[tuple[int, int, str]] = []
        self.lane_entry_counts = {lane.key: 0 for lane in self.net.all_lanes()}
        self._next_vid = 0

    # ------------------------------------------------------------- spawning

    def _draw_movement(self) -> str:
        u = self.rng.random()
        if u < self.cfg.turn_left:
            return "left"
        if u < self.cfg.turn_left + self.cfg.turn_through:
            return "through"
        return "right"

    def _car_route(self, entry_link):
        route = []
        link = entry_link
        while link is not None:
            mv = self._draw_movement()
            route.append((link, mv))
            link = self.net.next_link(link.node, exit_arm(link.arm, mv), "road")
        return route

    def _through_route(self, entry_link, kind: str):
        route = []
        link = entry_link
        while link is not None:
            route.append((link, "through"))
            link = self.net.next_link(link.node, exit_arm(link.arm, "through"), kind)
        return route

    def _assign_lane(self, v: Vehicle, link, movement: str) -> None:
        candidates = [lane for lane in link.lanes if movement in lane.allowed]
        lane = min(candidates, key=lambda l: (l.occupancy_load(), l.index))
        v.lane = lane
        lane.moving_count += 1
        self.lane_entry_counts[lane.key] += 1

    def _spawn_vehicle(self, mode: str, occupancy: int, route) -> Vehicle:
        v = Vehicle(self._next_vid, mode, occupancy, route, self.t)
        self._next_vid += 1
        link, mv = route[0]
        self._assign_lane(v, link, mv)
        self.active.append(v)
        self.spawned_total += 1
        return v

    def _spawn_arrivals(self) -> int:
        cfg = self.cfg
        count = 0
        for entry_id, link in self.net.entries:
            p = cfg.rate_veh_h(entry_id, self.t) / 3600.0
            if self.rng.random() < p:
                occ = 1 + int(self.rng.poisson(cfg.car_occupancy_poisson_mean))
                self._spawn_vehicle("car", occ, self._car_route(link))
                count += 1
        if cfg.bus_headway_s > 0 and self.t >= cfg.bus_first_departure_s \
                and (self.t - cfg.bus_first_departure_s) % cfg.bus_headway_s == 0:
            west = self.net.approach(0, "W")
            east = self.net.approach(self.net.n - 1, "E")
            for entry in (west, east):
                self._spawn_vehicle("bus", cfg.bus_occupancy,
                                    self._through_route(entry, "road"))
                count += 1
        if self.net.tram_enabled and cfg.tram_headway_s > 0 \
                and self.t >= cfg.tram_first_departure_s \
                and (self.t - cfg.tram_first_departure_s) % cfg.tram_headway_s == 0:
            self._spawn_vehicle("tram", cfg.tram_occupancy,
                                self._through_route(self.net.approach(0, "W", "tram"),
                                                    "tram"))
            count += 1
        return count

    # ------------------------------------------------------------- dynamics

    def _move_vehicles(self) -> None:
        for v in self.active:
            if v.state == "dwelling":
                v.dwell_left -= 1
                if v.dwell_left <= 0:
                    v.state = "moving"
                continue
            if v.state != "moving":
                continue
            link = v.route[v.leg][0]
            newpos = v.pos + link.speed_mps
            if (v.mode == "tram" and link.stop_pos is not None and link.stop_dwell > 0
                    and not v.dwelled and newpos >= link.stop_pos):
                v.pos = link.stop_pos
                v.state = "dwelling"
                v.dwell_left = link.stop_dwell
                v.dwelled = True
                continue
            if newpos >= link.length:
                v.pos = link.length
                v.state = "queued"
                v.lane.moving_count -= 1
                v.lane.queue.append(v)
            else:
                v.pos = newpos

    def _head_permitted(self, lane, phase: int) -> bool:
        head = lane.queue[0]
        return permits(phase, lane.link.arm, head.route[head.leg][1])

    def _discharge(self) -> int:
        sat = self.cfg.saturation_veh_s
        released = 0
        for ctrl in self.controllers:
            lanes = self.net.lanes_of(ctrl.intersection)
            if ctrl.stage != "green":
                for lane in lanes:
                    lane.credit = 0.0
                continue
            for lane in lanes:
                if lane.queue and self._head_permitted(lane, ctrl.phase):
                    lane.credit += sat
                    while (lane.credit >= 1.0 and lane.queue
                           and self._head_permitted(lane, ctrl.phase)):
                        lane.credit -= 1.0
                        v = lane.queue.popleft()
                        self.discharge_events.append(
                            (self.t, ctrl.intersection, ctrl.stage))
                        self._advance_leg(v)
                        released += 1
                else:
                    lane.credit = 0.0
        return released

    def _advance_leg(self, v: Vehicle) -> None:
        v.leg += 1
        if v.leg >= len(v.route):
            v.state = "exited"
            v.lane = None
            self.exited_total += 1
            self.log.complete(v.mode, v.waiting, v.spawn_t, self.t)
            return
        link, mv = v.route[v.leg]
        v.pos = 0.0
        v.state = "moving"
        v.dwelled = False
        self._assign_lane(v, link, mv)

    def _record_metrics(self) -> None:
        thr = self.cfg.speed_threshold_kmh
        n = self.net.n
        delayed = [0] * n
        queued = [0] * n
        for v in self.active:
            if v.state == "dwelling":
                continue  # scheduled stop service, not signal delay
            if v.speed_kmh < thr:
                node = v.route[v.leg][0].node
                delayed[node] += v.occupancy
                v.waiting += 1
                if v.state == "queued" and v.mode != "tram":
                    queued[node] += 1
        self.log.append(self.t, delayed, queued)

    # ------------------------------------------------------------- public API

    def step(self) -> dict:
        """Simulate one second; returns a small event record for this second."""
        spawned = self._spawn_arrivals()
        self._move_vehicles()
        released = self._discharge()
        if released:
            self.active = [v for v in self.active if v.state != "exited"]
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
            "delayed": self.log.net_delayed[-1],
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
        if scope == "network":
            wanted = None
        else:
            if not (isinstance(scope, (int, np.integer)) and 0 <= scope < self.net.n):
                raise ValueError(f"unknown intersection {scope!r}")
            wanted = int(scope)
        thr = self.cfg.speed_threshold_kmh
        total = 0
        for v in self.active:
            if v.state == "dwelling" or v.speed_kmh >= thr:
                continue
            if wanted is None or v.route[v.leg][0].node == wanted:
                total += v.occupancy
        return total


def load_scenario(config, seed: int) -> SimWorld:
    """Build a deterministic world from a scenario id, config path, or text."""
    return SimWorld(resolve_config(config), seed)
