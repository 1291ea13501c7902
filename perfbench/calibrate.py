"""Machine-speed reference: a fixed pure-Python kernel timed throughout a run.

The host this benchmark was written on is shared, and its speed drifts by
25% and more over minutes while staying nearly constant over a second.  A
run therefore times, between its operations, a kernel that does the same
work in every run and never calls the library, and reports every time
scaled by ``REFERENCE_S / (kernel time around it)``: the time the
operation would take on the host when the kernel takes ``REFERENCE_S``.
A faster library lowers the scaled times exactly as it lowers the raw
ones; a slower moment of the host slows the kernel as much as the
operations, and cancels.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# Median kernel time on the 2-core x86-64 host, CPython 3.11.7, on which
# the benchmark was tuned; scaled times are in seconds of that host.
REFERENCE_S = 0.0145

# Seconds of timed work per kernel sample, and the most samples taken at once.
EVERY_S = 0.15
MAX_AT_ONCE = 4
# Kernel samples before and after an operation whose median scales it: one
# kernel sample varies by 10% and more, the host's speed over seconds.
WINDOW = 3

_COLS = ((1, 0, 2), (0, 1, 1), (1, 1, 0), (2, 0, 1))
_CAPS = (11, 11, 11)
_MATRIX = ((3, 1, 4, 1, 5, 0, 2), (2, 7, 1, 8, 2, 8, 1), (1, 4, 1, 4, 2, 1, 3),
           (0, 5, 2, 3, 0, 4, 4), (5, 0, 3, 2, 1, 1, 0))


def _rank(rows):
    """Rank by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for j in range(len(a[0])):
        pivot = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][j] / a[rank][j]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def kernel():
    """Tuple sums and set lookups, then rational elimination, as in the library's
    reachable sets and its polyhedral and solver linear algebra."""
    start = (0,) * len(_CAPS)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for c in _COLS:
                w = tuple(a + b for a, b in zip(v, c))
                if w not in seen and all(a <= m for a, m in zip(w, _CAPS)):
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    ranks = 0
    for shift in range(20):
        rows = [row[shift % 7:] + row[:shift % 7] for row in _MATRIX]
        ranks += _rank([[x + shift for x in row] for row in rows])
    return len(seen), ranks


class Clock:
    """Samples the kernel at the start, after every ``EVERY_S`` of timed work,
    and at the end.

    ``lap`` returns, for an operation just timed, the index of the first
    kernel sample taken after it; ``scale_at`` turns that index into the
    factor from this moment's seconds to reference seconds, from the median
    of the ``WINDOW`` kernel samples before and the ``WINDOW`` after the
    operation.
    """

    def __init__(self, every_s=EVERY_S):
        self.every_s = every_s
        self.kernel_s = []
        self._since = 0.0
        self.sample()

    def sample(self, count=1):
        gc.collect()
        for _ in range(count):
            start = perf_counter()
            kernel()
            self.kernel_s.append(perf_counter() - start)

    def lap(self, op_s):
        """Account ``op_s`` seconds of timed work; sample the kernel when due."""
        index = len(self.kernel_s)
        self._since += op_s
        due = min(MAX_AT_ONCE, int(self._since / self.every_s))
        if due:
            self._since = 0.0
            self.sample(due)
        return index

    def finish(self):
        """Take the sample that follows the last operation."""
        self.sample()

    def scale_at(self, index):
        window = self.kernel_s[max(0, index - WINDOW):index + WINDOW]
        return REFERENCE_S / statistics.median(window)

    def scale(self):
        """The factor over the whole run, for the record."""
        return REFERENCE_S / statistics.median(self.kernel_s)
