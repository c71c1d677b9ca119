"""Machine-speed calibration for the timings the benchmark reports.

On a shared VM, other tenants slow this process down by up to 2x for
seconds at a time, and the wall and CPU clocks move together.  That moves
a raw timing between identical runs by far more than any bound in
``BENCHMARK.json``.  So while a run is measured, an interval timer runs a
fixed pure-Python reference loop every :data:`SAMPLE_EVERY_S`, and every
timing is reported at *reference speed*: each stretch of raw time between
two samples is multiplied by ``REFERENCE_NS / (loop time)``, the loop
time taken from the samples around the stretch (each the median of its
five nearest).  Time spent in the samples themselves is left out.  Sampling works the same inside a
long engine call, such as a reopen with recovery, as between short ones.

The reference loop belongs to the benchmark and never calls the engine,
so a change to the engine moves only the raw time.  REFERENCE_NS is the
loop's time on the 2-vCPU development VM (Python 3.11.7) in the fastest
state seen there.  A scaled time therefore approximates that VM's speed
when no other tenant competes.  The report prints the raw times and the
observed speed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import Any, Callable

REFERENCE_NS = 80_000
SAMPLE_EVERY_S = 0.02
_LOOP = 500
_RUNS = 3


def reference_work() -> int:
    """The fixed loop: dict reads and writes, string building and list
    appends, the interpreter operations the engine's own code is made of.
    It creates only two container objects, so sampling does not move the
    garbage collector's schedule in the work being timed."""
    table = dict.fromkeys(range(128), 0)
    items: list[str] = []
    for i in range(_LOOP):
        table[i & 127] = table.get(i & 127, 0) + i
        items.append(str(i))
    return len(items) + table[0]


class Speed:
    """Reference-loop samples taken through a run.

    Use as a context manager: inside it, SIGALRM samples the loop every
    :data:`SAMPLE_EVERY_S`.  Each mark is ``(started_ns, ended_ns,
    scale)`` with ``scale = REFERENCE_NS / loop time``.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[int, int, float]] = []
        self._previous = None

    def sample(self) -> None:
        """Time the loop now (median of three runs) and record a mark."""
        started = time.perf_counter_ns()
        runs = []
        for _ in range(_RUNS):
            begun = time.perf_counter_ns()
            reference_work()
            runs.append(time.perf_counter_ns() - begun)
        runs.sort()
        self.marks.append((started, time.perf_counter_ns(),
                           REFERENCE_NS / runs[_RUNS // 2]))

    def __enter__(self) -> "Speed":
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda signum, frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn: Callable[[], Any]) -> tuple[Any, int, float]:
        """Run ``fn``; returns its result and its raw and scaled times
        (ns, sampling excluded)."""
        started = time.perf_counter_ns()
        result = fn()
        ended = time.perf_counter_ns()
        self.sample()
        return (result, *self.scaled(started, ended))

    def scaled(self, start: int, end: int) -> tuple[int, float]:
        """Raw time in ``[start, end)`` without the samples in it, and the
        same time at reference speed.  Needs a mark after ``end``."""
        marks = self.marks
        raw = 0
        scaled = 0.0
        # Stretch k runs from the end of mark k to the start of mark k+1.
        k = max(bisect.bisect_right(marks, (start,)) - 1, 0)
        while k + 1 < len(marks) and marks[k][1] < end:
            low = max(start, marks[k][1])
            high = min(end, marks[k + 1][0])
            if high > low:
                raw += high - low
                scaled += (high - low) * (self._smoothed(k)
                                          + self._smoothed(k + 1)) / 2
            k += 1
        return raw, scaled

    def _smoothed(self, k: int) -> float:
        """Median scale of marks ``k - 2 .. k + 2``: one disturbed sample
        does not move it, and a change of machine state (which lasts
        0.2 s or more) does."""
        near = sorted(mark[2] for mark in self.marks[max(k - 2, 0):k + 3])
        return near[len(near) // 2]

    def median_scale(self, start: int = 0, end: int = 1 << 62) -> float:
        """Median scale of the marks between ``start`` and ``end`` (1.0 =
        reference speed, 0.5 = half speed)."""
        scales = sorted(s for begun, _, s in self.marks
                        if start <= begun <= end)
        return scales[len(scales) // 2]
