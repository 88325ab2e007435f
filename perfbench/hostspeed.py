"""Host-speed probe: scales wall times to a fixed reference speed.

On a shared 2-core virtual machine the same unit of work ran 4.4 to
7.9 s, and a fixed Python loop switched between ~72 and ~110 ms every 1
to 3 s, with slower stretches lasting minutes.  Medians within a 30 s run cannot
average that away.  So a fixed reference computation (the probe: small
numpy products plus interpreter work, like the package's hot loops) is
timed every ``PERIOD`` seconds from a ``SIGALRM`` handler while units of
work run, and each unit's wall time is scaled by ``NOMINAL_MS`` over the
mean probe time around it.  A reported second is thus a second on a host
where the probe takes ``NOMINAL_MS``.  The probe touches no growrbm code
and costs about 0.5% of the run, on every commit alike.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

import numpy as np

PERIOD = 0.25
NOMINAL_MS = 1.0
WINDOW_S = 1.0


class HostProbe:
    """Timestamped probe durations, sampled on a timer while entered."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((8, 8))
        self._v = rng.random(8)
        self.ends = array("d")
        self.durations = array("d")

    def sample(self, *_):
        t0 = time.perf_counter()
        x = self._v
        for i in range(300):
            x = np.tanh(self._a @ x) + 0.5
            sum(range(20))
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def burst(self, n=10):
        for _ in range(n):
            self.sample()

    def __enter__(self):
        self.burst()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.burst()
        return False

    def factor(self, start, end) -> float:
        """``NOMINAL_MS`` ÷ mean probe time within ``WINDOW_S`` of the
        interval; probes are recorded in time order."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        window = self.durations[lo:hi]
        if not window:
            raise RuntimeError("no host-speed probe near a timed interval")
        return NOMINAL_MS / (1000.0 * statistics.fmean(window))

    def median_ms(self) -> float:
        return 1000.0 * statistics.median(self.durations)
