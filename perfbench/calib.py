"""Core-speed sampling, to scale times to a nominal core speed.

The benchmark runs on a shared machine.  There the speed of a core changes
from moment to moment as other tenants come and go: a pure-Python loop runs
about twice as slow for stretches of a fraction of a second to a few
seconds, and how much of a run falls in such stretches changes from run to
run.  CPU time slows down with wall time, so the cause is the core and not
the scheduler, and no clock leaves it out.

While a run measures, a timer interrupts it every ``INTERVAL_S`` and times a
fixed pure-Python kernel that does the kind of work the package does (calls,
attribute reads, tuple building, short generators, dict lookups).  The
kernel's own time is kept out of every timed span (``Sampler.clock``).  A
span is then scaled by the kernel times taken during it, or next to it when
it is shorter than the interval:

    scaled time = measured time * NOMINAL_S / mean(kernel times at the span)

so every piece of work is scaled by the core speed of its own moment.  The
kernel never calls the package, so a faster package never speeds it up.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

# The kernel's time on an uncontended core of the machine the baseline was
# measured on.
NOMINAL_S = 0.31e-3
INTERVAL_S = 0.025


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


def kernel() -> int:
    table = {i: (i, _Cell(i & 1)) for i in range(64)}
    acc = 0
    for k in range(80):
        row = tuple(table[(k * 7 + j) & 63] for j in range(12))
        if any(r[1].value is None for r in row):
            acc -= 1
        acc += sum(r[0] & 3 for r in row) + len(row)
    return acc


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Sampler:
    """Times the kernel on a timer while active; ``clock`` leaves that time out."""

    def __init__(self) -> None:
        self.at: list[float] = []  # when each sample was taken, on ``clock``
        self.samples: list[float] = []
        self._paused_s = 0.0

    def clock(self) -> float:
        return perf_counter() - self._paused_s

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        self.at.append(t0 - self._paused_s)
        self.samples.append(dt)
        self._paused_s += perf_counter() - t0

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time during ``[start, end]``, or of the samples just
        before and after it when none fell inside."""
        i = bisect.bisect_left(self.at, start)
        j = bisect.bisect_right(self.at, end)
        near = self.samples[i:j] or self.samples[max(i - 1, 0) : i + 1]
        return sum(near) / len(near) if near else NOMINAL_S

    def scale(self, start: float, end: float, seconds: float) -> float:
        """``seconds`` of work done during ``[start, end]``, at nominal speed."""
        return seconds * NOMINAL_S / self.kernel_s(start, end)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
