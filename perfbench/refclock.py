"""Machine speed measured alongside the program, to state times in it.

The benchmark's machine is a few virtual CPUs of a shared host, and the
speed of plain Python on it swings by a third: in bursts of a fraction of
a second, and in phases that last minutes and move whole runs. So every
time the benchmark reports is measured against a small fixed reference
computation (exact elimination modulo a prime, written out below; never
``weylppav`` code) timed on the same CPU at the same moment. A time
divided by the reference's duration is a count of *refs*: how many
reference computations the machine could have done instead. Both slow
down together when the host is busy, so a count of refs moves when the
program does and far less when the host does. Counts are reported in
seconds of a nominal machine on which one ref takes ``NOMINAL_SECONDS``.

``RefClock`` times the reference from a SIGALRM handler every
``INTERVAL`` seconds while a workload runs. The handler runs between the
program's bytecodes in the same thread; its own time is subtracted from
the operation it interrupted. ``REFERENCE_SOURCE`` is plain source with
no imports, so that a fresh interpreter timing an import can time the
reference too without importing anything else first.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

REFERENCE_SOURCE = '''
def reference(n=10, p=(1 << 61) - 1):
    """Rank modulo p of a fixed n x n integer matrix, by Gauss-Jordan."""
    x, rows = 1, []
    for i in range(n):
        row = []
        for j in range(n):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(x % 19 - 9)
        rows.append(row)
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        pivot = rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(n):
            f = rows[r][col]
            if r != rank and f % p:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], pivot)]
        rank += 1
    return rank
'''
_namespace: dict = {}
exec(REFERENCE_SOURCE, _namespace)
reference = _namespace["reference"]

# One ref in seconds of the nominal machine: about the reference's median
# duration on the 2-vCPU Xeon virtual machine of BASELINE.json.
NOMINAL_SECONDS = 0.0006
INTERVAL = 0.02
# Samples within this many seconds of an operation's ends give its speed;
# the host's speed decorrelates over about half a second.
WINDOW = 0.1


class RefClock:
    """Samples the reference computation's duration while running."""

    def __init__(self):
        self.starts = []    # perf_counter at each sample's start
        self.seconds = []   # the sample's duration
        self.spent = 0.0    # handler time, to subtract from operation times
        self._previous = None

    def _sample(self) -> float:
        entered = perf_counter()
        reference()
        self.starts.append(entered)
        self.seconds.append(perf_counter() - entered)
        return entered

    def _tick(self, signum, frame):
        entered = self._sample()
        self.spent += perf_counter() - entered

    def __enter__(self):
        for _ in range(10):  # warm up
            reference()
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # so that even the shortest loop has samples at both ends
        return False

    def nominal(self, seconds: float, start: float, end: float) -> float:
        """Seconds measured over [start, end], in seconds of the nominal machine.

        The reference's duration is the median of the samples taken within
        WINDOW of the interval, or of the nearest three each side when
        fewer than three are.
        """
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, end + WINDOW)
        if hi - lo < 3:
            lo, hi = max(0, lo - 3), min(len(self.starts), hi + 3)
        return seconds / statistics.median(self.seconds[lo:hi]) * NOMINAL_SECONDS
