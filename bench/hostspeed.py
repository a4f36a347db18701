"""Host-speed correction of timed work.

The benchmark runs on a shared host whose speed moves by up to a factor of
two in phases of seconds to minutes, so a run's wall times read the
neighbours as much as the program.  A *probe* is a fixed stdlib-only
computation of the same kind as wittkit's (exact ``Fraction`` elimination,
integer set and dict work), timed with the garbage collector paused, so it
calls nothing in wittkit and its cost depends on the host alone.
``Corrector`` probes the host around and during timed items and scales
each item's time, less the probes run inside it, by ``REFERENCE_PROBE_S``
over the mean of the probes around and inside it: the item's time at the
reference host's speed.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from statistics import fmean
from time import perf_counter

# one probe's time on the reference machine (2-vCPU Xeon VM, Python
# 3.11.7), the median of 200 probes in a quiet phase of the host
REFERENCE_PROBE_S = 0.0104
PROBE_SIZE = 6
PROBE_REPEATS = 7


def _kernel() -> int:
    """Gauss-Jordan inverse of a fixed rational matrix, then integer work
    of the finite layer's kind: the multiples of a few vectors mod 9."""
    n = PROBE_SIZE
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5)
          for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    seen = {}
    for v in range(1, 60):
        vec = (v % 9, v * v % 9, v * 5 % 9)
        span = frozenset(tuple(k * x % 9 for x in vec) for k in range(9))
        seen[span] = seen.get(span, 0) + 1
    return len(seen) + sum(x.denominator for x in m[0])


def probe() -> float:
    """Seconds for one probe, with the collector paused so its cost does
    not depend on how many objects the program keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(PROBE_REPEATS):
            _kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Corrector:
    """Times items and scales their times to the reference host's speed.

    Wrap each item in ``start_item`` and ``end_item``.  Probes come from
    ``sample`` calls between items, or, inside ``sampling``, from a timer
    signal every `interval` seconds, which also probes inside long items;
    the time of a probe run inside an item is taken off that item.  Probes
    run one after another on the main thread, so each lies wholly inside
    or wholly outside every item."""

    def __init__(self):
        self.probe_start: list[float] = []
        self.probe_end: list[float] = []
        self.probes: list[float] = []
        self.items: list[tuple[float, float]] = []
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = perf_counter()
            seconds = probe()
            self.probe_start.append(t0)
            self.probe_end.append(perf_counter())
            self.probes.append(seconds)
        finally:
            self._busy = False

    @contextmanager
    def sampling(self, interval: float = 0.25):
        """Probe now, every `interval` seconds until the block ends, and
        once after it."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def start_item(self) -> None:
        self._start = perf_counter()

    def end_item(self) -> None:
        self.items.append((self._start, perf_counter()))

    def _inside(self, t0: float, t1: float) -> range:
        """Indices of the probes that ran inside [t0, t1]."""
        return range(bisect_left(self.probe_start, t0),
                     bisect_right(self.probe_end, t1))

    def raw(self) -> list:
        """Each item's wall time, less the probes run inside it."""
        return [t1 - t0 - sum(self.probe_end[k] - self.probe_start[k]
                              for k in self._inside(t0, t1))
                for t0, t1 in self.items]

    def factors(self) -> list:
        """For each item, the reference probe time over the mean of the
        last probe before it, the probes inside it and the first after it."""
        out = []
        for t0, t1 in self.items:
            inside = self._inside(t0, t1)
            window = self.probes[max(inside.start - 1, 0):inside.stop + 1]
            out.append(REFERENCE_PROBE_S / fmean(window))
        return out

    def scaled(self) -> list:
        """Each item's time at the reference host's speed."""
        return [r * f for r, f in zip(self.raw(), self.factors())]
