"""The speed of the CPU that a run is on, sampled while the run goes on.

On a shared host, the vCPU that a run gets switches between speed levels
every few seconds to minutes, whatever the run does; the levels are 1.5x
to 2x apart. A Probe samples that speed: while it is active, a SIGALRM
timer interrupts the run every `interval` seconds and times two fixed
pieces of work that need no import: a pure-Python loop, as interpreted
code, and a 4 MiB memory copy, as array code. The sample's speed is the
geometric mean of their two speeds relative to the reference times
REF_LOOP_S and REF_COPY_S. `scaled(a, b)` gives the duration of the
interval [a, b] without the probe's own time, with each stretch between
two samples multiplied by its speed: the time the stretch would have taken
at the reference speed.

This assumes that a workload slows in proportion to that mean. On the
reference machine (2 vCPUs of a shared Xeon host), over six runs of 15 to
20 s per workload, the spread of throughput (quartile distance over
median) was 15-18% by the wall clock, 6-10% scaled by the loop alone, and
4-9% scaled by the mean of loop and copy.
"""
from __future__ import annotations

import bisect
import math
import signal
import time

LOOP_N = 1500          # iterations of the loop: about 0.1 ms
REF_LOOP_S = 1.0e-4    # their time at the reference speed
COPY_BYTES = 4 << 20   # bytes copied: more than a core's own caches hold
REF_COPY_S = 5.0e-4    # their copy time at the reference speed
REPEATS = 3            # loops per sample; the sample takes their median


def _loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s


class Probe:
    """Speed samples, taken on a timer while active.

    samples[i] is (start, end, speed): the probe ran from start to end and
    measured there the given speed relative to the reference (2.0: the
    work took half the reference time).
    """

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []
        self._src = bytes(COPY_BYTES)
        self._dst = memoryview(bytearray(COPY_BYTES))
        self._saved = None
        self._sampling = False

    def sample(self) -> None:
        clock = time.perf_counter
        self._sampling = True
        try:
            start = clock()
            loops = []
            for _ in range(REPEATS):
                t = clock()
                _loop(LOOP_N)
                loops.append(clock() - t)
            loops.sort()
            t = clock()
            self._dst[:] = self._src
            copy_s = clock() - t
            speed = math.sqrt(REF_LOOP_S / loops[REPEATS // 2]
                              * REF_COPY_S / copy_s)
            self.samples.append((start, clock(), speed))
        finally:
            self._sampling = False

    def _on_alarm(self, signum, frame) -> None:
        # an alarm that arrives during a sample is dropped: a stall longer
        # than the interval must not start samples inside samples
        if not self._sampling:
            self.sample()

    def __enter__(self) -> "Probe":
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.sample()

    def probe_s(self, a: float, b: float) -> float:
        """Time inside [a, b] that the probe itself took."""
        return sum(max(0.0, min(e, b) - max(s, a))
                   for s, e, _ in self.samples)

    def scaled(self, a: float, b: float) -> float:
        """Duration of [a, b] at the reference speed, probe time left out.

        The stretch between two samples runs at the mean of their two
        speeds; time before the first or after the last sample at that
        sample's speed.
        """
        samples = self.samples
        if not samples:
            raise ValueError("no speed samples")
        total = 0.0
        if a < samples[0][0]:
            total += (min(b, samples[0][0]) - a) * samples[0][2]
        first = max(0, bisect.bisect_right(samples, (a,)) - 1)
        for i in range(first, len(samples)):
            gap_start, speed = samples[i][1], samples[i][2]
            if gap_start >= b:
                break
            if i + 1 < len(samples):
                gap_end = samples[i + 1][0]
                speed = (speed + samples[i + 1][2]) / 2
            else:
                gap_end = b
            total += max(0.0, min(gap_end, b) - max(gap_start, a)) * speed
        return total
