"""Per-second metric bookkeeping and the summary metrics computed from it.

A MetricsLog accumulates one row per simulated second: network and
per-intersection delayed-passenger counts, queued road-vehicle counts
(trams excluded), plus one completion record per vehicle that leaves the
network (mode, accumulated waiting seconds, spawn and exit times). The
summary metrics are pure functions of a log:

    anp  - average delayed passengers per second over a horizon
    aql  - time-average queued road vehicles
    awt  - mean waiting of completed vehicles of one mode (None if none)

The two CSV writers emit the bytes of `csv.writer`'s default dialect:
comma-separated, unquoted, every line ending in "\\r\\n". Each writes its
header line, then its whole body from one %-format over the table's
integers: the metrics file one row per second, the heatmap file a
delayed_passengers row and a queue_veh row per second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CompletedTrip:
    mode: str
    waiting_s: int
    spawn_t: int
    exit_t: int


# append writes its buffered rows into the table every this many rows: a log
# read only when its episode ends (a training rollout's) would otherwise hold
# an episode of Python tuples, which raised a training's peak RSS
FLUSH_ROWS = 64


class MetricsLog:
    """Integer table, one row per second, with the columns of the metrics
    CSV: t, network delayed, network queued, then delayed and queued per
    intersection. `append` buffers its rows; every FLUSH_ROWS rows, and
    whenever `table` is read, they are written into the filled part of a
    buffer grown by doubling. The named fields are the table's columns,
    all views."""

    def __init__(self, n: int):
        self.n = n
        self._rows = self._table = np.zeros((0, 3 + 2 * n), dtype=np.int64)
        self._pending: list[tuple] = []
        self.completed: list[CompletedTrip] = []

    seconds = property(lambda self: self.table[:, 0])
    net_delayed = property(lambda self: self.table[:, 1])
    net_queued = property(lambda self: self.table[:, 2])
    int_delayed = property(lambda self: self.table[:, 3:3 + self.n])
    int_queued = property(lambda self: self.table[:, 3 + self.n:])

    def append(self, t: int, int_delayed, int_queued) -> None:
        last = self._pending[-1][0] if self._pending else \
            self._table[-1, 0] if len(self._table) else None
        if last is not None and t <= last:
            raise ValueError(f"seconds must increase: {t} after {last}")
        self._pending.append((t, sum(int_delayed), sum(int_queued), *int_delayed, *int_queued))
        if len(self._pending) == FLUSH_ROWS:
            self.table      # reading the table writes the buffered rows

    @property
    def table(self) -> np.ndarray:
        if self._pending:
            k, m = len(self._table), len(self._pending)
            if k + m > len(self._rows):
                self._rows = np.concatenate([self._table, np.zeros(
                    (max(64, k + m), 3 + 2 * self.n), dtype=np.int64)])
            self._rows[k:k + m] = self._pending
            self._table = self._rows[:k + m]
            self._pending = []
        return self._table

    def complete(self, mode: str, waiting_s: int, spawn_t: int, exit_t: int) -> None:
        self.completed.append(CompletedTrip(mode, waiting_s, spawn_t, exit_t))

    def __len__(self) -> int:
        return len(self._table) + len(self._pending)


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


def _write_csv(path, head: list[str], row: str, values: list, rows: int) -> None:
    """A header line, then the body as one %-format: `row` once per row."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(head) + "\r\n")
        fh.write((row * rows) % tuple(values))


def write_metrics_csv(log: MetricsLog, path) -> None:
    """Per-second log: t,delayed_passengers,queue_veh,<per-intersection columns>."""
    n, table = log.n, log.table
    head = ["t", "delayed_passengers", "queue_veh"]
    head += [f"delayed_i{k + 1}" for k in range(n)]
    head += [f"queue_i{k + 1}" for k in range(n)]
    _write_csv(path, head, ",".join(["%d"] * (3 + 2 * n)) + "\r\n",
               table.ravel().tolist(), len(table))


def write_heatmap_csv(log: MetricsLog, path) -> None:
    """Long-format per-second series: t,metric,i1..i{n},network, one
    delayed_passengers and one queue_veh row per second."""
    n, table = log.n, log.table
    cols = [0, *range(3, 3 + n), 1, 0, *range(3 + n, 3 + 2 * n), 2]
    tail = ",%d" * (n + 1) + "\r\n"
    _write_csv(path, ["t", "metric"] + [f"i{k + 1}" for k in range(n)] + ["network"],
               "%d,delayed_passengers" + tail + "%d,queue_veh" + tail,
               table[:, cols].ravel().tolist(), len(table))
