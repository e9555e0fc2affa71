"""Host time converted to reference time, so that the host's drifting
speed cancels out of the benchmark's timings.

The benchmark runs on shared virtual machines whose speed changes in
phases: on a 2-vCPU Xeon guest the same pure-Python loop alternates
between about 23 ms and 34 ms per lap, in phases of a fraction of a
second to minutes, as other tenants' load comes and goes.  A replay's
host time is the integral of that speed over the replay, so two runs of
the same code minutes apart can differ by a third.

:class:`HostSpeed` measures the host's speed *during* the timed work.
While it is active, a real-time interval timer interrupts the process
every ``INTERVAL_S`` and runs :func:`probe`, a fixed few-dozen-
microsecond piece of pure-Python work, timing it.  The probe's speed,
``PROBE_REFERENCE_S / duration``, is the host's speed at that moment
relative to the reference host.  :meth:`HostSpeed.reference_s` then
converts a timed region into reference seconds: each stretch of the
region between two probes counts at the mean speed of those two probes,
and the probes' own time is left out.  A slow phase slows the probe and
the program alike and cancels; a change to the program moves only the
program's time and shows in full.

The probe imports nothing from the simulator, so no change there can
move it; its result is checked on every call.
"""

from __future__ import annotations

import heapq
import signal
from bisect import bisect_left
from time import perf_counter
from typing import List

#: How often the timer interrupts the timed work to probe the host.
INTERVAL_S = 0.004

#: Duration of one probe on the reference host, a 2-vCPU Xeon virtual
#: machine in its faster phase.  Only ratios of reference times matter;
#: the constant makes them read as seconds on that host.
PROBE_REFERENCE_S = 30e-6


def probe() -> int:
    """A fixed piece of work in the simulator's idiom: heap, dict, tuples."""
    heap: list = []
    table = {}
    for i in range(40):
        heapq.heappush(heap, ((i * 7919) % 97, i))
        table[i] = i
    total = 0
    while heap:
        _, key = heapq.heappop(heap)
        total += table[key]
    return total


#: What every probe returns.
PROBE_RESULT = probe()


class HostSpeed:
    """Probes the host's speed while active; converts host time to
    reference time afterwards.

    Use as a context manager around the timed loop.  It owns the
    process's ``SIGALRM`` handler and ``ITIMER_REAL`` timer while
    active and restores both on exit.
    """

    def __init__(self):
        self._starts: List[float] = []  # perf_counter at each probe's start
        self._ends: List[float] = []  # ... and end
        self.wrong_results = 0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        result = probe()
        end = perf_counter()
        self._starts.append(start)
        self._ends.append(end)
        if result != PROBE_RESULT:
            self.wrong_results += 1

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def probes(self) -> int:
        return len(self._starts)

    def _speed(self, index: int) -> float:
        return PROBE_REFERENCE_S / (self._ends[index] - self._starts[index])

    def reference_s(self, start: float, end: float) -> float:
        """Reference seconds of the host interval ``[start, end]``
        (``perf_counter`` readings), probes excluded.

        Needs a probe before ``start`` or after ``end`` to judge the
        host's speed by; raises ``ValueError`` when there is none.
        """
        starts, ends = self._starts, self._ends
        if not starts:
            raise ValueError("no probe was taken")
        count = len(starts)
        index = bisect_left(starts, start)  # the first probe inside
        total = 0.0
        mark = start
        while True:
            stop = min(starts[index], end) if index < count else end
            before = max(index - 1, 0)
            after = min(index, count - 1)
            speed = (self._speed(before) + self._speed(after)) / 2.0
            total += (stop - mark) * speed
            if index >= count or starts[index] >= end:
                return total
            mark = min(ends[index], end)
            index += 1
