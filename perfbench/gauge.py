"""Reference seconds: wall time corrected for the speed of a shared core.

On a shared virtual machine the same stdsh operation can take twice as
long in one second as in the next, because other tenants slow the core it
runs on. A probe run on another core does not see this; a probe run on the
same thread, in the middle of the operation, does. `SpeedGauge` runs a
fixed probe of about 1.5 ms from a SIGALRM handler every `interval_s`
while it is active, so the probe interleaves with whatever the program is
doing.

The probe mixes three kinds of work: interpreter loops over a dict, 8x8
array operations and a pass over a 4 MB array. Alone, the first two slow
down more than stdsh does when the host is busy and the last one less;
together they moved with `train_run` episodes and evaluation cells at a
log-log slope of 0.9-1.15 on a shared 2-vCPU machine.

An interval of wall time converts to reference seconds as

    (wall - probe time inside it) * REFERENCE_PROBE_S / median probe time

where the median is over the probes that ran inside the interval. On a
quiet core the probe takes about REFERENCE_PROBE_S, so reference seconds
read close to wall seconds there. The probe lives here, not in stdsh, so a
change to the program moves the wall time and not the scale.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_PROBE_S = 0.0015
_MATRIX = np.linspace(0.0, 1.0, 64).reshape(8, 8)
_BLOCK = np.ones(1 << 19)


def probe() -> float:
    """Fixed work in the program's mix: loops, small arrays, a memory pass."""
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(1500):
        k = i % 31
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += k * 1.5
    a = _MATRIX
    for _ in range(120):
        a = np.tanh(a @ a.T * 0.1) + 0.01
    for _ in range(3):
        acc += float(_BLOCK.sum())
    return acc + float(a[0, 0])


def probe_s() -> float:
    """Wall seconds of one probe."""
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


class SpeedGauge:
    """Probes the current core while active; converts intervals to reference s."""

    def __init__(self, interval_s: float = 0.05, calibration: int = 5):
        self.interval_s = interval_s
        self.calibration = calibration
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._busy = False

    def _sample(self, *_) -> None:
        if self._busy:          # a stalled probe outlived the interval
            return
        self._busy = True
        t0 = time.perf_counter()
        probe()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self) -> "SpeedGauge":
        for _ in range(self.calibration):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _inside(self, t0: float, t1: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return self.durations[lo:hi]

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1].

        An interval too short to hold a probe takes the median of all
        probes so far.
        """
        inside = self._inside(t0, t1)
        scale = REFERENCE_PROBE_S / statistics.median(inside or self.durations)
        return (t1 - t0 - sum(inside)) * scale


def wall_s(t0: float, t1: float) -> float:
    """Plain wall seconds: the clock used where no gauge runs."""
    return t1 - t0
