"""Host-speed probe: scales measured times to a fixed reference speed.

The benchmark runs on a core it shares with other tenants of the host, and
that core's speed changes by up to 1.8x over seconds to minutes.  On a
2-vCPU Xeon host the same pass of small_model_sweep took 2.2 s in one minute
and 3.9 s in another, while the reference loop below, timed between its
queries, went from 1.0 ms to 1.85 ms in step with it; timed on the other
core at the same moments, the loop did not follow.  So the probe runs in the
benchmark's own process: every ``INTERVAL`` seconds SIGALRM interrupts the
work, and the handler times one reference loop.

A timed region's duration, less the probe time inside it, is multiplied by
``REF_S`` over the mean time of the reference loops run inside the region
and of the last one before it.  The result reads as seconds on a core that
runs the reference loop in ``REF_S``.  The speed moves within a second, so
a wider window of probes gives worse figures, not better: per-query times
of identify_sweep spread by 0.15 across passes with two seconds of probes
before each query, and by 0.05 with only the nearest ones.  The loop is plain interpreter work (dict
lookups, string hashing, integer arithmetic) and never calls ``selid``, so a
change to the program cannot change the loop.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.02  # seconds between probes
REF_S = 0.001  # what one reference loop counts as, in seconds


# The loop allocates no object the cycle collector tracks, so probing does
# not move the points where the program's own garbage collections fall.
WORDS = tuple(f"v{i}" for i in range(64))
INDEX = {w: i for i, w in enumerate(WORDS)}


def reference_loop():
    acc = 0
    for i in range(3000):
        w = WORDS[i & 63]
        acc += INDEX[w] * (i % 13)
        acc ^= hash(w + str(i & 7)) & 0xFFFF
        acc %= 1000003
    return acc


class SpeedProbe:
    """Reference-loop timings taken on a timer while it is entered."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stamps = []  # start of each reference loop, ascending
        self.durations = []  # its duration
        self.stolen = 0.0  # total time spent in the probe
        self._busy = False
        self._previous = None

    def tick(self, *_):
        if self._busy:  # a signal that arrives during a probe is dropped
            return
        self._busy = True
        try:
            start = self.clock()
            reference_loop()
            end = self.clock()
            self.stamps.append(start)
            self.durations.append(end - start)
            self.stolen += self.clock() - start
        finally:
            self._busy = False

    def __enter__(self):
        self.tick()  # so that every region has a probe before it
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """``REF_S`` over the mean time of the probes in [start, end] and the
        last probe before ``start``."""
        i = bisect.bisect_left(self.stamps, start)
        j = bisect.bisect_right(self.stamps, end)
        return REF_S / statistics.fmean(self.durations[max(0, i - 1):j])

    def summary(self) -> str:
        q = statistics.quantiles(self.durations, n=10) if len(self.durations) > 1 else self.durations * 9
        return (
            f"host speed: {len(self.durations)} reference loops, p10 {q[0] * 1e3:.3f} ms, "
            f"median {statistics.median(self.durations) * 1e3:.3f} ms, p90 {q[-1] * 1e3:.3f} ms "
            f"(counted as {REF_S * 1e3:g} ms each); probe time {self.stolen:.3f} s"
        )
