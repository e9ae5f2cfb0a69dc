"""A gauge of the host's speed, sampled while the program runs.

The machines this benchmark runs on share their cores with other tenants,
and their speed moves between regimes: the slow one is 1.3 to 1.5 times
slower than the fast one, lasts from seconds to more than ten minutes, and
slows process CPU time as much as wall time.  Raw times of two runs of the
same code therefore differ more than a worthwhile change would move them.

The gauge runs a fixed pure-Python reference (integer and ``Fraction``
arithmetic, like the library's) every INTERVAL_S of wall time, from a
SIGALRM handler in the measured process itself, so its samples come from
the same core and regime as the code around them.  A time is reported at
reference speed: the wall time minus the time the handler took
(``Gauge.spent``), times the mean over its pieces of at most PIECE_S of
REFERENCE_S over the median sample taken within WINDOW_S of the piece
(``Gauge.scale``).  The host changes speed within a long call, so one
median over the whole call would pick one regime; the mean over pieces
follows the changes.  The program cannot change the reference, so a faster
program still reads faster; a slower host does not.
"""

from __future__ import annotations

import bisect
import math
from array import array
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Wall time between two samples.  One sample takes 0.14-0.24 ms, so the
# handler takes 3-5 % of the time; Gauge.spent takes it out again.
INTERVAL_S = 0.005
# A piece of a call is scaled by the samples taken during it and up to
# WINDOW_S either side of it: about 40 samples for a short call, 90 for a
# whole piece.
PIECE_S = 0.25
WINDOW_S = 0.1
# Calls made before the first sample: Python specializes a function's code
# only after it has run a few times, and cold calls would read as a slow host.
WARM_CALLS = 10
# The reference's median in the fast regime of the 2-vCPU Xeon machine the
# figures in README.md come from: reported times are seconds there.
REFERENCE_S = 140e-6


def reference() -> tuple[int, Fraction]:
    total = 0
    for i in range(1000):
        total += i * i % 7
    x = Fraction(0)
    for i in range(1, 30):
        x += Fraction(i * i + 1, i + 3)
    return total, x


class Gauge:
    """Reference samples taken every INTERVAL_S while started."""

    def __init__(self) -> None:
        # Arrays rather than lists keep the gauge's share of the child's
        # peak RSS small: about 0.15 MB for a 45-s run.
        self.times = array("d")  # start of each sample
        self.samples = array("d")  # its duration
        self.created = perf_counter()
        for _ in range(WARM_CALLS):
            reference()
        # Seconds spent in the gauge, the warm-up and every sample included.
        self.spent = perf_counter() - self.created

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        reference()
        self.times.append(start)
        self.samples.append(perf_counter() - start)
        self.spent += perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, start: float, end: float) -> float:
        """The factor that brings a time spent from start to end to
        reference speed (see the module docstring)."""
        pieces = max(1, math.ceil((end - start) / PIECE_S))
        width = (end - start) / pieces
        return sum(
            self._piece_scale(start + k * width, start + (k + 1) * width)
            for k in range(pieces)
        ) / pieces

    def _piece_scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        # Every sample, if none fell near the piece (the handler runs only
        # between bytecodes, so a long call into C can hold it off).
        samples = self.samples[lo:hi] or self.samples
        if not samples:
            raise RuntimeError("the speed gauge has no samples yet")
        return REFERENCE_S / statistics.median(samples)
