"""Step times that do not move with the speed swings of a shared host.

On the 2-vCPU guest the benchmark was written on, each vCPU switches,
several times a second, between a fast state and one about 1.6 times slower.
The same code then takes 0.07 s or 0.11 s, and the share of slow time drifts
from minute to minute, so neither the fastest nor the median wall time of a
step repeats between runs.

A Clock therefore times a short fixed probe (a loop of small numpy calls,
the kind of work segembed does) just before and just after each step, and
every PERIOD_S during it from a SIGALRM handler. The wall time between two
probes is divided by the mean of their two durations, so each slice of the
step is measured in probe units at the speed the machine had during that
slice. The sum, times PROBE_S, is the step's time in seconds on a machine
where the probe takes PROBE_S. The probes' own time is not counted.

The handler runs only numpy calls on its own array, between two bytecodes
of the program; segembed installs no signal handlers.
"""

import signal
import statistics
import time

import numpy as np

# Seconds one probe takes in the fast state of the 2-vCPU host (Intel Xeon,
# 2.0 GHz) the benchmark was written on.
PROBE_S = 0.0002
PERIOD_S = 0.01

_X = np.full((16, 16), 0.5)


def probe():
    acc = 0.0
    for _ in range(60):
        acc += float(np.tanh(_X @ _X)[0, 0])
    return acc


def _normalized(t0, t1, marks):
    """Probe units between t0 and t1, from the (start, seconds) of the probes
    run in that window, the first before t0 and the last after t1."""
    units = 0.0
    for (s0, d0), (s1, d1) in zip(marks, marks[1:]):
        gap = min(s1, t1) - max(s0 + d0, t0)
        if gap > 0:
            units += gap / ((d0 + d1) / 2)
    return units


class Clock:
    """Times steps as (wall seconds, normalized seconds). With sampling off,
    only the probes before and after a step run, and no signal handler is
    installed; the traced run uses that, so no probe lands inside a span.
    Steps may nest: set-up times its commands and itself."""

    def __init__(self, sampling=True):
        self.sampling = sampling
        self.marks = []  # (start, seconds) of every probe, in order
        self._depth = 0
        self._probing = False

    def _probe(self):
        if self._probing:
            return
        self._probing = True
        t0 = time.perf_counter()
        probe()
        self.marks.append((t0, time.perf_counter() - t0))
        self._probing = False

    def _on_alarm(self, _signum, _frame):
        self._probe()

    def time(self, body):
        """Run body() -> (wall seconds, normalized seconds, its result)."""
        if self._depth == 0 and self.sampling:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._depth += 1
        first = len(self.marks)
        try:
            self._probe()
            t0 = time.perf_counter()
            result = body()
            t1 = time.perf_counter()
            self._probe()
        finally:
            self._depth -= 1
            if self._depth == 0 and self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        units = _normalized(t0, t1, self.marks[first:])
        return t1 - t0, units * PROBE_S, result

    def summary(self):
        seconds = [d for _, d in self.marks]
        return {"probes": len(seconds), "probe_s_median": statistics.median(seconds)}
