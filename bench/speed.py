"""Host speed, sampled while the program runs, to scale its timings.

On a shared virtual machine the same Python code can take twice as
long from one minute to the next.  Comparing two versions of the
program by raw wall time then measures the host, not the program.  So
while a run is timed, a timer signal interrupts the program every
``INTERVAL`` seconds to time a fixed reference task: pure-Python
``Fraction`` and integer-set arithmetic like the program's, written in
``oracle`` and independent of the program.  A stretch of ``t`` program
seconds during which the reference task took ``r`` seconds is reported
as ``t * REFERENCE_S / r``: the time the same work takes on a host
where the reference task takes ``REFERENCE_S``.  Time spent in the
reference task is not counted in the program's time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import oracle

#: seconds between samples, and the reference task's seconds on the host
#: the scaled timings are stated for (a 2-vCPU shared Xeon VM, Python 3.11)
INTERVAL = 0.05
REFERENCE_S = 0.0025

_PIECES = [case.pieces for case in oracle.corpus(0, 12)]
_INTEGERS = tuple(range(21, 33))


def reference_task():
    for pieces in _PIECES:
        oracle.is_k_sum_free(pieces)
        oracle.measure(pieces)
    oracle.int_maximal(_INTEGERS, 40, 3)


class Probe:
    """Samples ``(start, seconds)`` of the reference task from SIGALRM
    while active (a context manager), and once on entry and on exit so
    that every span has a sample on each side.  The main thread runs
    the task at the next bytecode boundary, so a sample lies wholly
    inside or wholly outside any span the caller times."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.samples = []
        self._times = []
        self._busy = False

    def sample(self, *_):
        if self._busy:  # a tick that fell due during a sample
            return
        self._busy = True
        start = perf_counter()
        reference_task()
        self.samples.append((start, perf_counter() - start))
        self._busy = False

    def __enter__(self):
        self.sample()
        self._saved = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.sample()
        return False

    def net(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` not spent in the reference task."""
        return end - start - sum(s for t, s in self.samples if start <= t <= end)

    def scaled(self, start: float, end: float) -> float:
        """The program's seconds in ``[start, end]`` at reference speed.

        Between two samples the program ran at the speed of the median
        of the four samples around that gap (one sample can be hit by a
        preemption), so a span that crosses a change of host speed is
        scaled piece by piece.
        """
        if len(self._times) != len(self.samples):
            self._times = [t for t, _ in self.samples]
        times = self._times
        total = 0.0
        # gap g runs from the end of sample g to the start of sample g+1;
        # gap -1 is all time before the first sample
        for g in range(bisect.bisect_right(times, start) - 1, len(times)):
            lo = times[g] + self.samples[g][1] if g >= 0 else start
            hi = times[g + 1] if g + 1 < len(times) else end
            if lo >= end:
                break
            piece = min(end, hi) - max(start, lo)
            if piece > 0:
                near = [s for _, s in self.samples[max(g - 1, 0):g + 3]]
                total += piece * REFERENCE_S / statistics.median(near)
        return total
