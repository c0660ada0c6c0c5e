"""A clock that factors out the machine's speed of the moment.

On a shared machine the same pure-Python code runs up to 1.8 times slower
from one second to the next, as other tenants load the core, and now and
then the process loses the CPU for milliseconds; runs of identical code
then differ by a quarter.  So the clock counts the thread's CPU time, which
leaves out the time the CPU was taken away (the library is single-threaded
and does not wait), and every 5 ms of it a profiling signal runs a fixed
reference loop, written here and sharing no code with the library, and
records how long it took.  An interval is reported as

    (CPU time - CPU time spent in the reference loop) * REFERENCE_S / r

where r is the median reference time sampled in and around the interval.
The result is the interval's length on a machine where the reference loop
takes ``REFERENCE_S``: a change to the library moves it in full, a change
of machine speed much less.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import thread_time

REFERENCE_S = 120e-6  # nominal: times read as if the reference loop took this long
_PERIOD_S = 0.005
_WINDOW_S = 0.025     # reference samples this close to an interval calibrate it (CPU s)
_MIN_SAMPLES = 5

_WORDS = [(i * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF for i in range(256)]


def reference_loop() -> int:
    """Fixed work in the style of the library: word popcounts, list
    indexing and a binary search per step."""
    words = _WORDS
    acc = 0
    for i in range(120):
        w = words[i & 255]
        acc += (w & ((1 << (i & 63)) - 1)).bit_count()
        key = acc & 0xFFFF
        lo, hi = 0, 255
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if words[mid] & 0xFFFF < key:
                lo = mid
            else:
                hi = mid - 1
        acc += lo
    return acc


class Clock:
    """Use as a context manager; ``mark()`` readings go to ``seconds``."""

    def __init__(self):
        self._at = array("d")      # end time of each reference sample
        self._took = array("d")    # its duration
        self._spent = 0.0          # total time inside the signal handler

    def __enter__(self) -> "Clock":
        self._old = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, _PERIOD_S, _PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)

    def _tick(self, _signum, _frame) -> None:
        t0 = thread_time()
        reference_loop()
        t1 = thread_time()
        self._at.append(t1)
        self._took.append(t1 - t0)
        self._spent += thread_time() - t0

    def mark(self) -> tuple[float, float]:
        """CPU time of this thread, and the part of it spent sampling."""
        return thread_time(), self._spent

    def seconds(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Calibrated length of the interval between two marks."""
        (a, spent_a), (b, spent_b) = start, end
        return ((b - a) - (spent_b - spent_a)) * self.factor(a, b)

    def factor(self, a: float, b: float) -> float:
        """What the clock multiplies CPU time in [a, b] by."""
        return REFERENCE_S / self.reference_near(a, b)

    def reference_near(self, a: float, b: float) -> float:
        at = self._at
        lo, hi = bisect_left(at, a - _WINDOW_S), bisect_right(at, b + _WINDOW_S)
        while hi - lo < _MIN_SAMPLES and (lo > 0 or hi < len(at)):
            lo, hi = max(0, lo - 1), min(len(at), hi + 1)
        if lo == hi:
            raise RuntimeError("no reference samples yet: time inside the clock")
        return statistics.median(self._took[lo:hi])
