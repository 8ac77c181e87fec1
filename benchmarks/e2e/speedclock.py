"""A clock that keeps time in units of a fixed reference kernel.

On a shared host the same code runs at two or more speeds: for seconds
or minutes at a time another tenant slows this CPU down (to ~0.55 of its
speed on the machine the README describes), so a wall-clock time mostly
reports how much of a run fell into slow stretches.  ``SpeedClock``
samples the speed while a run goes on: every ``period_s`` a SIGALRM
handler times a fixed reference kernel.  Between two samples the clock
advances by the elapsed wall time divided by the kernel's cost at the
earlier sample, so it counts *work units*, not nanoseconds.
``seconds()`` turns units into seconds at ``REFERENCE_NS`` per unit,
about the kernel's cost at full speed on that machine.  The correction
holds as far as a slow stretch slows the measured code and the kernel
alike; the README gives the spread that is left.

Time spent in the handler is left out of both the wall time and the
units.  The handler runs between bytecodes of the main thread and never
raises, so the measured code behaves as without it.
"""

from __future__ import annotations

import signal
import time
from array import array
from contextlib import contextmanager

#: Dictionary updates per reference-kernel call (~30 us at full speed).
KERNEL_ITERATIONS = 400
#: Seconds between speed samples.
PERIOD_S = 0.01
#: Nanoseconds per work unit in ``seconds()``.  A fixed number, not the
#: fastest call of a run: a run spent wholly in a slow stretch never
#: sees full speed.
REFERENCE_NS = 30_000


def _kernel() -> dict:
    """Fixed work in the style of the compiler: small-dict reads and writes."""
    table = {}
    for i in range(KERNEL_ITERATIONS):
        key = i & 63
        table[key] = table.get(key, 0) + i
    return table


class SpeedClock:
    """Work units done so far, sampled on SIGALRM; see the module docstring."""

    def __init__(self):
        #: Cost of every reference-kernel call, ns.
        self.samples = array("q")
        # (units at the last sample, handler-free wall ns of the last
        # sample, kernel ns then, handler ns so far), replaced as a whole
        # so that ``read()`` never sees half an update.
        self._state = (0.0, 0, 1, 0)
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        enter = time.perf_counter_ns()
        units, last, cost, handler_ns = self._state
        wall = enter - handler_ns
        if self.samples:
            units += (wall - last) / cost
        start = time.perf_counter_ns()
        _kernel()
        cost = time.perf_counter_ns() - start
        self.samples.append(cost)
        self._state = (units, wall, cost,
                       handler_ns + time.perf_counter_ns() - enter)

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop sampling.  Read only intervals that lie within one
        ``start()``/``stop()`` stretch."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @contextmanager
    def running(self):
        self.start()
        try:
            yield self
        finally:
            self.stop()

    def read(self) -> tuple:
        """(work units done so far, perf_counter_ns() without the time
        spent in the handler)."""
        while True:
            state = self._state
            wall = time.perf_counter_ns() - state[3]
            if state is self._state:
                return state[0] + (wall - state[1]) / state[2], wall

    def summary(self) -> dict:
        """How fast the machine ran while sampled: kernel costs, and the
        share of samples at least 30% slower than the fastest."""
        ordered = sorted(self.samples)
        return {
            "samples": len(ordered),
            "fastest_ns": ordered[0],
            "median_ns": ordered[len(ordered) // 2],
            "slow_share": sum(c > 1.3 * ordered[0] for c in ordered) / len(ordered),
        }


def seconds(units: float) -> float:
    return units * REFERENCE_NS / 1e9
