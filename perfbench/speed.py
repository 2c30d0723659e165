"""Wall time corrected for how fast the shared machine runs at the moment.

The benchmark runs on a few cores of a shared host.  Other tenants change
how fast the same Python code runs here by up to 1.8x, within seconds and
for minutes at a time (measured on a 2-core box with a fixed loop: one-second
medians ranged from 1.2x to 1.9x its fastest sample).  A wall-clock median
then says more about the neighbours than about tltt.

So a run keeps a probe going beside the work: every INTERVAL seconds a timer
signal interrupts the program and times a fixed piece of work, probe_work,
that stresses what the kernel stresses (object allocation, attribute access
and pointer chasing, dict stores).  Every timing the benchmark reports is then

    program seconds * mean(REFERENCE_S / probe seconds)   over the samples
                                                          taken around it

that is, the time the measured work would have taken with the machine
running the probe in REFERENCE_S: seconds at the reference speed.  When the
machine is as fast as it was when REFERENCE_S was fixed, the factor is 1.
Program seconds leave out the time spent in the probe itself.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

INTERVAL = 0.005      # seconds between probes
WINDOW = 0.005        # probes this close to an interval count for it
PROBE_CELLS = 300     # size of the fixed work
# what probe_work takes on a 2-core x86-64 box (Python 3.11) in a quiet period;
# it only sets the unit, so that the reported times read as seconds
REFERENCE_S = 0.00009


class _Cell:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail) -> None:
        self.head = head
        self.tail = tail


def probe_work() -> int:
    """The fixed work: build a linked list with a side table, then walk it."""
    table = {}
    cell = None
    for i in range(PROBE_CELLS):
        cell = _Cell(i, cell)
        table[i & 255] = cell
    total = 0
    while cell is not None:
        total += cell.head & 1
        cell = cell.tail
    return total


class SpeedProbe:
    """Samples the machine's speed while the benchmark runs, and keeps a
    clock (`now`) that stops while a probe runs."""

    def __init__(self) -> None:
        self.at: list[float] = []     # program time of each sample
        self.speed: list[float] = []  # REFERENCE_S / probe seconds
        self.spent = 0.0              # wall seconds spent in probes so far
        self._previous = None

    def _sample(self, signum, frame) -> None:
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # the probe's garbage is freed by reference counting
        try:
            started = time.perf_counter()
            probe_work()
            took = time.perf_counter() - started
        finally:
            if collecting:
                gc.enable()
        self.at.append(entered - self.spent)
        self.speed.append(REFERENCE_S / took)
        self.spent += time.perf_counter() - entered

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def now(self) -> float:
        """Program time: wall time minus the time spent in probes."""
        while True:
            spent = self.spent
            wall = time.perf_counter()
            if spent == self.spent:  # no probe ran in between
                return wall - spent

    def factor(self, start: float, end: float) -> float:
        """Mean speed, relative to the reference, of the samples taken within
        WINDOW of the interval [start, end] of program time."""
        low = bisect.bisect_left(self.at, start - WINDOW)
        high = bisect.bisect_right(self.at, end + WINDOW)
        if low >= high:  # no probe ran near it: take the nearest one
            if not self.at:
                return 1.0
            low = min(max(low, 0), len(self.at) - 1)
            high = low + 1
        return sum(self.speed[low:high]) / (high - low)

    def seconds(self, start: float, end: float) -> float:
        """Seconds at the reference speed for the interval [start, end]."""
        return (end - start) * self.factor(start, end)
