"""Per-second metric bookkeeping and the summary metrics computed from it.

A MetricsLog accumulates one row per simulated second: network and
per-intersection delayed-passenger counts, queued road-vehicle counts
(trams excluded), plus one completion record per vehicle that leaves the
network (mode, accumulated waiting seconds, spawn and exit times). The
summary metrics are pure functions of a log:

    anp  - average delayed passengers per second over a horizon
    aql  - time-average queued road vehicles
    awt  - mean waiting of completed vehicles of one mode (None if none)
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass
class CompletedTrip:
    mode: str
    waiting_s: int
    spawn_t: int
    exit_t: int


class MetricsLog:
    """Integer table, one row per second, with the columns of the metrics
    CSV: t, network delayed, network queued, then delayed and queued per
    intersection. `table` is the filled part of a buffer grown by doubling;
    the named fields are its columns and `window` is a run of its rows,
    all views."""

    def __init__(self, n: int):
        self.n = n
        self._rows = self.table = np.zeros((0, 3 + 2 * n), dtype=np.int64)
        self.completed: list[CompletedTrip] = []

    seconds = property(lambda self: self.table[:, 0])
    net_delayed = property(lambda self: self.table[:, 1])
    net_queued = property(lambda self: self.table[:, 2])
    int_delayed = property(lambda self: self.table[:, 3:3 + self.n])
    int_queued = property(lambda self: self.table[:, 3 + self.n:])

    def append(self, t: int, int_delayed, int_queued) -> None:
        k = len(self.table)
        if k and t <= self.table[-1, 0]:
            raise ValueError(f"seconds must increase: {t} after {self.table[-1, 0]}")
        if k == len(self._rows):     # a window's buffer is its parent's: copy
            self._rows = np.concatenate([self.table, np.zeros((max(64, k), 3 + 2 * self.n),
                                                              dtype=np.int64)])
        self.table = self._rows[:k + 1]
        self.table[k] = (t, sum(int_delayed), sum(int_queued), *int_delayed, *int_queued)

    def complete(self, mode: str, waiting_s: int, spawn_t: int, exit_t: int) -> None:
        self.completed.append(CompletedTrip(mode, waiting_s, spawn_t, exit_t))

    def window(self, start: int, stop: int) -> "MetricsLog":
        """Seconds with start <= t < stop; completion records are not sliced."""
        lo, hi = np.searchsorted(self.seconds, (start, stop))
        out = MetricsLog(n=self.n)
        out._rows = out.table = self.table[lo:max(lo, hi)]
        return out

    def __len__(self) -> int:
        return len(self.table)


def anp(log: MetricsLog, horizon: int) -> float:
    """Average delayed passengers per second: sum of network counts / horizon."""
    if len(log) == 0:
        raise ValueError("anp: empty log")
    if horizon < 1:
        raise ValueError(f"anp: horizon must be >= 1, got {horizon}")
    return int(log.net_delayed.sum()) / float(horizon)


def aql(log: MetricsLog) -> float:
    """Time-average queued road vehicles (trams never enter the counts)."""
    if len(log) == 0:
        raise ValueError("aql: empty log")
    return int(log.net_queued.sum()) / float(len(log))


def awt(log: MetricsLog, mode: str) -> float | None:
    """Mean waiting of completed vehicles of `mode`; None when none completed."""
    waits = [c.waiting_s for c in log.completed if c.mode == mode]
    if not waits:
        return None
    return sum(waits) / float(len(waits))


def write_metrics_csv(log: MetricsLog, path) -> None:
    """Per-second log: t,delayed_passengers,queue_veh,<per-intersection columns>."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        head = ["t", "delayed_passengers", "queue_veh"]
        head += [f"delayed_i{k + 1}" for k in range(log.n)]
        head += [f"queue_i{k + 1}" for k in range(log.n)]
        w.writerow(head)
        w.writerows(log.table.tolist())


def write_heatmap_csv(log: MetricsLog, path) -> None:
    """Long-format per-second series: t,metric,i1..i{n},network."""
    n = log.n
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "metric"] + [f"i{k + 1}" for k in range(n)] + ["network"])
        for t, delayed, queued, *per in log.table.tolist():
            w.writerow([t, "delayed_passengers"] + per[:n] + [delayed])
            w.writerow([t, "queue_veh"] + per[n:] + [queued])
