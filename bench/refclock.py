"""A clock that ticks in reference seconds.

The 2-core box the benchmark was defined on changes speed by up to 1.8x
within a minute: a fixed Fraction loop, timed back to back, swings between
two speeds, and CPU time tracks wall time, so the cores themselves run
slower. Raw medians of one run then drift by 20-45% from the next run.

The reference clock removes that drift. While it samples, a SIGALRM handler
times a fixed calibration kernel every SAMPLE_INTERVAL_S. The clock then
advances at (REFERENCE_KERNEL_S / measured kernel time) times the raw rate,
so an interval reads as the time the work would take at the speed where the
kernel takes REFERENCE_KERNEL_S. Time spent in the handler is left out. The
library is never touched: the kernel uses only ``fractions.Fraction``, the
same arithmetic the library spends its time in.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

REFERENCE_KERNEL_S = 0.0004  # between the kernel's fast (0.29 ms) and slow (0.53 ms) times there
SAMPLE_INTERVAL_S = 0.05
SMOOTHING = 3  # the factor uses the median of this many latest samples


def kernel() -> Fraction:
    total = Fraction(0)
    for k in range(1, 150):
        total += Fraction(k % 89 + 1, k % 97 + 2)
    return total


def _time_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class ReferenceClock:
    """Call it for the time in reference seconds; ``sampling()`` keeps it calibrated."""

    def __init__(self):
        self.samples = [_time_kernel() for _ in range(2 * SMOOTHING)]
        # (reference time, raw time, factor) at the latest calibration; one
        # tuple, so that a tick between two reads cannot tear it
        self._state = (0.0, perf_counter(), self._current_factor())

    def _current_factor(self) -> float:
        return REFERENCE_KERNEL_S / statistics.median(self.samples[-SMOOTHING:])

    @property
    def factor(self) -> float:
        """Reference seconds per raw second at the latest calibration."""
        return self._state[2]

    def __call__(self) -> float:
        ref, raw, factor = self._state
        return ref + (perf_counter() - raw) * factor

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        ref, raw, factor = self._state
        kernel()
        end = perf_counter()
        self.samples.append(end - start)
        self._state = (ref + (start - raw) * factor, end, self._current_factor())

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
