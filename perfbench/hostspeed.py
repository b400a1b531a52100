"""The speed of the core a worker runs on, sampled while it runs.

On a shared host each core runs at one of a few speeds, up to about 1.7x
apart, for seconds to minutes at a time, and the cores change speed
independently. A time summed over one run then depends on how long the
core spent at each speed, and two sets of runs of the same code can differ
by more than a regression bound.

Sampler pins the process to one core. A second thread wakes every PERIOD_S
and times LOOP_N iterations of a fixed pure-Python loop. The loop holds the
GIL, so it runs on that core between the program's own steps and sees the
speed the program sees. `scale(start, end)` is REF_LOOP_S over the median
loop time of the samples taken in [start, end]: a time measured over that
interval times its scale is the time at the reference speed. Only the
interpreter and the stdlib are needed, so sampling starts before the
program's imports.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD_S = 0.15       # one sample per 0.15 s costs the program about 1%
LOOP_N = 15_000
REF_LOOP_S = 1.25e-3  # median loop time on the 2-core development host


class Sampler:
    """Loop timings [(start, seconds)] on the pinned core, by perf_counter."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def _sample(self):
        t0 = time.perf_counter()
        x = 0
        for i in range(LOOP_N):
            x += i * i
        self.samples.append((t0, time.perf_counter() - t0))

    def scale(self, start, end):
        """REF_LOOP_S over the median loop time in [start, end]; over every
        sample so far when none fell in the interval (a solve that failed
        at once), after taking one when there is none yet."""
        if not self.samples:
            self._sample()
        inside = [dt for t, dt in self.samples if start <= t <= end]
        return REF_LOOP_S / statistics.median(
            inside or [dt for _, dt in self.samples])
