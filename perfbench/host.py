"""Host-speed reference sampled while the program runs.

The benchmark's host drifts between speeds by up to 2x within a fraction
of a second, so a raw time does not repeat from run to run.  While a
``HostSampler`` runs, an interval timer interrupts the program every
``PERIOD_S`` and times a fixed pure-Python reference loop in the signal
handler.  ``clock`` leaves the handler's time out, and ``factor`` turns
a raw interval into host-corrected time: ``raw * R_NOMINAL_MS / R_local``,
where ``R_local`` is the mean reference time sampled in and just around
the interval.  ``R_NOMINAL_MS`` only sets the scale, so corrected times
stay in ms.

Stdlib only and cheap to import: the set-up measurement imports this
module in a fresh interpreter before it imports the program.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import Any

ITERS = 250  # about 0.06 ms of reference loop per sample
R_NOMINAL_MS = 0.06
PERIOD_S = 0.002
NEIGHBOURS = 2  # samples on each side of an interval that also enter R_local


def reference() -> int:
    table: dict[tuple[int, int], int] = {}
    recent: list[tuple[int, int]] = []
    for k in range(ITERS):
        key = (k & 63, k >> 6 & 7)
        table[key] = table.get(key, 0) + 1
        recent.append(key)
        if len(recent) > 32:
            recent.clear()
    return len(table)


class HostSampler:
    """Reference-loop times, sampled by an interval timer between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.at: list[int] = []  # sample start, on ``clock``
        self.ns: list[int] = []  # reference duration
        self.spent_ns = 0  # time spent sampling, left out of ``clock``
        self._busy = False
        self._previous: Any = None

    def clock(self) -> int:
        """``perf_counter_ns`` without the time spent in the sampler."""
        return time.perf_counter_ns() - self.spent_ns

    def sample(self, *_: Any) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter_ns()
        reference()
        end = time.perf_counter_ns()
        self.at.append(start - self.spent_ns)
        self.ns.append(end - start)
        self.spent_ns += time.perf_counter_ns() - start
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def local_ms(self, start: int, end: int) -> float:
        """Mean reference time (ms) sampled in [start, end] of ``clock`` and just around it."""
        lo = max(0, bisect.bisect_left(self.at, start) - NEIGHBOURS)
        hi = min(len(self.at), bisect.bisect_right(self.at, end) + NEIGHBOURS)
        return sum(self.ns[lo:hi]) / (hi - lo) / 1e6

    def factor(self, start: int, end: int) -> float:
        """Correction for an interval of ``clock``: R_NOMINAL_MS / R_local."""
        return R_NOMINAL_MS / self.local_ms(start, end)
