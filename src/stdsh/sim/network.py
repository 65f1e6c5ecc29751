"""Static corridor geometry: arms, movements, phases, lanes, links.

The corridor runs west to east through n signalized intersections. Every
intersection receives four road approaches (N, E, S, W arms, two lanes
each) and, when the tram is enabled, one dedicated tram lane on the W arm
(the tram track is one-way eastbound through all intersections). Traffic
drives on the left: the kerb lane (index 0) serves left + through, the
median lane (index 1) serves through + right, and the crossing "right"
turns get the protected phases.

Phases:
    P1  N-S through + left         P3  E-W through + left (trams move here)
    P2  N-S protected right        P4  E-W protected right
"""

from __future__ import annotations

import math

from .scenario import ScenarioConfig

ARMS = ("N", "E", "S", "W")
N_PHASES = 4

_NS = frozenset(("N", "S"))
_EW = frozenset(("E", "W"))

# exit arm by (approach arm, movement); independent of handedness
_EXIT = {
    ("W", "left"): "N", ("W", "through"): "E", ("W", "right"): "S",
    ("E", "left"): "S", ("E", "through"): "W", ("E", "right"): "N",
    ("N", "left"): "E", ("N", "through"): "S", ("N", "right"): "W",
    ("S", "left"): "W", ("S", "through"): "N", ("S", "right"): "E",
}


def permits(phase: int, arm: str, movement: str) -> bool:
    """Is `movement` from `arm` allowed to discharge under `phase`?"""
    if phase == 0:
        return arm in _NS and movement in ("through", "left")
    if phase == 1:
        return arm in _NS and movement == "right"
    if phase == 2:
        return arm in _EW and movement in ("through", "left")
    if phase == 3:
        return arm in _EW and movement == "right"
    raise ValueError(f"unknown phase {phase}")


def exit_arm(arm: str, movement: str) -> str:
    return _EXIT[(arm, movement)]


class Lane:
    """One incoming lane; the world keeps its queue, moving count and credit
    meter under `slot`, the lane's position in Network.all_lanes()."""

    __slots__ = ("link", "index", "allowed", "slot")

    def __init__(self, link: "Link", index: int, allowed):
        self.link = link
        self.index = index
        self.allowed = frozenset(allowed)
        self.slot = -1


class Link:
    """Directed approach link feeding exactly one intersection."""

    __slots__ = ("id", "node", "arm", "kind", "length", "speed_kmh",
                 "lanes", "stop_pos", "stop_dwell")

    def __init__(self, link_id: str, node: int, arm: str, kind: str,
                 length: float, speed_kmh: float):
        self.id = link_id
        self.node = node
        self.arm = arm
        self.kind = kind           # "road" or "tram"
        self.length = float(length)
        self.speed_kmh = float(speed_kmh)
        self.lanes: list[Lane] = []
        self.stop_pos = math.inf    # tram stop position, meters; inf: none
        self.stop_dwell = 0


class Network:
    """All links of an n-intersection corridor plus entry bookkeeping."""

    def __init__(self, cfg: ScenarioConfig):
        n = cfg.intersections
        if n < 1:
            raise ValueError(f"need at least one intersection, got {n}")
        self.n = n
        self.tram_enabled = bool(cfg.tram_enabled)
        self._approach: dict[tuple, Link] = {}

        for k in range(n):
            for arm in ARMS:
                length = cfg.link_length_m if arm in _EW else cfg.side_link_length_m
                link = Link(f"L{k}{arm}", k, arm, "road", length, cfg.freeflow_kmh)
                link.lanes = [
                    Lane(link, 0, ("left", "through")),
                    Lane(link, 1, ("through", "right")),
                ]
                self._approach[(k, arm, "road")] = link
            if self.tram_enabled:
                tlink = Link(f"T{k}", k, "W", "tram", cfg.link_length_m, cfg.tram_freeflow_kmh)
                tlink.lanes = [Lane(tlink, 0, ("through",))]
                if k in cfg.tram_stop_intersections and cfg.tram_stop_dwell_s > 0:
                    tlink.stop_pos = tlink.length / 2.0
                    tlink.stop_dwell = int(cfg.tram_stop_dwell_s)
                self._approach[(k, "W", "tram")] = tlink

        # road entries in fixed spawn order: corridor ends, then side arms
        self.entries: list[tuple[str, Link]] = [("W", self._approach[(0, "W", "road")]),
                                                ("E", self._approach[(n - 1, "E", "road")])]
        for k in range(n):
            self.entries.append((f"N{k}", self._approach[(k, "N", "road")]))
            self.entries.append((f"S{k}", self._approach[(k, "S", "road")]))
        for slot, lane in enumerate(self.all_lanes()):
            lane.slot = slot

    def approach(self, node: int, arm: str, kind: str = "road") -> Link:
        return self._approach[(node, arm, kind)]

    def next_link(self, node: int, out_arm: str, kind: str = "road") -> Link | None:
        """Approach link a vehicle enters after leaving `node` via `out_arm`.

        None means the vehicle has left the network (side streets and the
        corridor ends are not simulated beyond the stop line).
        """
        if out_arm == "E" and node + 1 < self.n:
            return self._approach[(node + 1, "W", kind)]
        if out_arm == "W" and node - 1 >= 0:
            return self._approach[(node - 1, "E", kind)]
        return None

    def lanes_of(self, node: int) -> list[Lane]:
        """Observation order: N, E, S, W road lanes (kerb first), tram last."""
        out = []
        for arm in ARMS:
            out.extend(self._approach[(node, arm, "road")].lanes)
        if self.tram_enabled:
            out.extend(self._approach[(node, "W", "tram")].lanes)
        return out

    def all_lanes(self) -> list[Lane]:
        out = []
        for k in range(self.n):
            out.extend(self.lanes_of(k))
        return out
