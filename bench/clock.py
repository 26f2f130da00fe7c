"""Operation times in reference-speed seconds, for a box whose speed drifts.

On a shared 2 vCPU virtual machine the same pass took anywhere from 3.2
to 4.3 s in runs a minute apart, while the ratio of a pass to a small
pure-Python kernel run beside it moved about a quarter as much: the
neighbours that slow the program slow the kernel too.  So while a
``Clock`` runs, an interval timer runs ``kernel`` every ``PERIOD``
seconds, and an interval of program time is reported as

    sum over its pieces between kernel runs of
        piece length * NOMINAL / (mean duration of the two kernel runs
                                  around the piece)

Time spent in the kernel itself is left out.  ``NOMINAL`` is a fixed
constant near the kernel's duration on that box, so scaled seconds stay
close to wall seconds; the raw wall seconds are reported beside them.

The kernel is part of the benchmark, not of the program: a change to it
changes every recorded figure, so it must stay as it is.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter

PERIOD = 0.1
NOMINAL = 0.004


def kernel() -> int:
    """Big-integer multiply-add and rounding, plus a few Fraction sums:
    the operation mix of the package's scan and lattice-sum loops."""
    a0 = (1 << 83) // 3 + 12345
    a1 = (1 << 83) // 7 + 999
    T = 1 << 84
    T2 = T << 1
    acc = 0
    for x in range(-60, 61):
        for y in range(-60, 61, 3):
            s = x * a0 + y * a1
            n, _ = divmod(2 * s + T, T2)
            acc ^= s - n * T
    f = Fraction(0)
    for i in range(1, 80):
        f += Fraction(1, i * i + 1)
    return acc ^ f.denominator


class Clock:
    """Runs ``kernel`` on a timer and scales intervals by its speed."""

    def __init__(self):
        self.starts: list[float] = []  # kernel run start times, ascending
        self.ends: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def start(self) -> None:
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def kernel_seconds(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def scaled(self, a: float, b: float) -> float:
        """Program time in [a, b], in reference-speed seconds.  Needs a
        kernel run before ``a`` and one after ``b``."""
        durs = self.kernel_seconds()
        i = bisect.bisect_right(self.ends, a) - 1  # last run ended by a
        if i < 0 or self.starts[-1] < b:
            raise ValueError("interval not bracketed by kernel runs")
        total = 0.0
        lo = a
        while True:
            j = i + 1  # next kernel run, starting at or after lo
            hi = min(self.starts[j], b)
            speed = (durs[i] + durs[j]) / 2
            total += (hi - lo) * NOMINAL / speed
            if hi >= b:
                return total
            i, lo = j, self.ends[j]
