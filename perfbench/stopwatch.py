"""Operation timing that holds steady on a host whose speed drifts.

On a shared virtual machine the same single-threaded work can take from 1.0
to 1.8 times as long from one second to the next, as other guests contend
for the physical core.  While a Stopwatch runs, a SIGALRM handler times a
fixed pure-Python loop every PERIOD_S, and each interval of wall time is
scaled by the loop speed measured at its two ends.  ``norm`` is the
region's duration at the speed where that loop takes REF_LOOP_S (about an
uncontended 2.1 GHz Xeon core), without the loop's own time; ``wall`` is
the plain wall time, loop included (under 1%).

Signal handlers run in the main thread only, so use it there.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.01
LOOP = 1000
REF_LOOP_S = 60e-6


def _loop_seconds() -> float:
    start = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i
    return time.perf_counter() - start


class Stopwatch:
    def __init__(self):
        self.wall = 0.0
        self.norm = 0.0

    def __enter__(self):
        self._loop = _loop_seconds()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum=None, frame=None):
        now = time.perf_counter()
        loop = _loop_seconds()
        self.norm += (now - self._mark) * 2.0 * REF_LOOP_S / (self._loop + loop)
        self._loop = loop
        self._mark = time.perf_counter()

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._tick()
        self.wall += self._mark - self._start
        signal.signal(signal.SIGALRM, self._previous)
        return False
