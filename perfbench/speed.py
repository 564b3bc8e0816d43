"""The speed of the CPU a worker runs on, sampled while it runs.

On a shared virtual machine a vCPU switches between a fast and a slow state
every few tens of milliseconds to several seconds; the slow state runs the
same code about 1.4 to 1.8 times slower, and the share of time spent in it
drifts over minutes.  So the raw wall time of the same pass moves by a
quarter or more from run to run, which says nothing about the program.

A SIGALRM handler runs a fixed probe, a loop of PROBE_ITERATIONS integer
additions, every INTERVAL seconds of wall time and times it.  The probe uses
nothing of riccati3d and touches almost no memory, so neither a change to
the program nor the caches the program leaves behind change its time; only
the CPU's speed does.  The median of five probe times around a sample
stands for the speed of the stretch of work up to the next sample; the
median keeps a probe that the host happened to interrupt from counting as a
slow stretch.  A sample taken while other Python threads are alive gives no
speed, because the probe would then also time their turns at the
interpreter lock; its stretch keeps its raw wall time.  ``Sampler.span``
cuts a timed stretch into those pieces, with the sampling itself taken
out, and ``reference_seconds`` scales each piece by REFERENCE_PROBE_S / its
probe time: the time the stretch would take on a CPU that runs the probe in
REFERENCE_PROBE_S.

REFERENCE_PROBE_S is a fixed constant, the probe's time in the fast state of
the 2-vCPU virtual machine the benchmark was tuned on.  A reference taken
from each run's own probe times (a low quantile) was tried and spread more,
because it moves with the share of fast time in the run.
"""

from __future__ import annotations

import signal
import statistics
import threading
import time
from bisect import bisect_left

INTERVAL = 0.02             # seconds of wall time between samples
SMOOTH = 5                  # samples in the median that gives a piece's speed
PROBE_ITERATIONS = 1000
REFERENCE_PROBE_S = 40e-6   # probe time at the reference speed


def probe() -> int:
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i
    return total


class Sampler:
    """Probe times sampled on a wall-clock timer in the main thread."""

    def __init__(self):
        self.starts: list[float] = []
        self.probes: list[float] = []
        self.alone: list[bool] = []   # no other Python thread was alive

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.probes.append(time.perf_counter() - start)
        self.alone.append(threading.active_count() == 1)
        self.starts.append(start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def span(self, begin: float, end: float) -> list:
        """[begin, end) as [seconds, probe seconds] pieces, sampling excluded.

        The handler runs to completion in the main thread, so a sample that
        started before ``end`` was read also ended before it.  A stretch too
        short to hold a sample is one piece with no probe time.
        """
        starts = self.starts[:]
        probes, alone = self.probes[:len(starts)], self.alone[:len(starts)]
        i, j = bisect_left(starts, begin), bisect_left(starts, end)
        if i == j:
            return [[end - begin, None]]

        def speed(k):
            if not alone[k]:
                return None
            near = range(max(0, k - SMOOTH // 2), min(len(starts), k + SMOOTH // 2 + 1))
            return statistics.median(probes[n] for n in near if alone[n])

        pieces = [[starts[i] - begin, speed(i)]]
        for k in range(i, j):
            stop = starts[k + 1] if k + 1 < j else end
            pieces.append([stop - starts[k] - probes[k], speed(k)])
        return pieces


def reference_seconds(pieces) -> float:
    """The time the pieces would take at the reference speed."""
    return sum(seconds if p is None else seconds * REFERENCE_PROBE_S / p
               for seconds, p in pieces)


def raw_seconds(pieces) -> float:
    """The wall time of the pieces, sampling excluded."""
    return sum(seconds for seconds, _ in pieces)
