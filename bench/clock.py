"""A clock in reference seconds, steady while the machine's speed drifts.

On the small shared machines this benchmark runs on, the same pure-Python
loop can take 40% longer for seconds at a time, and no process-local
clock (wall or CPU time) removes that.  So the benchmark times a fixed
kernel of its own every few milliseconds, from a SIGALRM handler that runs
between the program's bytecodes, and scales the wall time since the last
tick by

    NOMINAL_KERNEL_S / (median of the last few kernel times).

A reference second is thus the time the work would take on a machine that
runs the kernel in NOMINAL_KERNEL_S.  The kernel is the benchmark's own
code, so a change to the program leaves it alone; the handler's own time is
left out of the clock.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

import oracle

# time of one kernel run on the machine the reference figures come from
NOMINAL_KERNEL_S = 0.00040
TICK_S = 0.02
SMOOTHING = 5
WARMUP = 10

# fixed inputs for the kernel: minimal-neighbourhood tables on 5 points
_TABLES = (
    (0b00001, 0b00011, 0b00111, 0b01111, 0b11111),
    (0b00001, 0b00010, 0b00111, 0b01011, 0b11111),
    (0b11111, 0b11110, 0b11100, 0b11000, 0b10000),
    (0b00011, 0b00011, 0b00100, 0b11100, 0b11100),
)


def kernel() -> int:
    return sum(len(oracle.upsets(oracle.alpha_table(U))) for U in _TABLES)


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Clock:
    def __init__(self) -> None:
        self.samples: deque[float] = deque(maxlen=SMOOTHING)
        # (reference seconds at the last tick, wall time of the last tick, factor)
        self._state = (0.0, time.perf_counter(), 1.0)
        self._wall0 = self._state[1]

    def start(self) -> None:
        for _ in range(WARMUP):  # let the interpreter specialise the kernel
            kernel()
        for _ in range(SMOOTHING):
            self.samples.append(time_kernel())
        self._state = (0.0, time.perf_counter(), self._factor())
        self._wall0 = self._state[1]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _factor(self) -> float:
        return NOMINAL_KERNEL_S / statistics.median(self.samples)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        ref, wall, factor = self._state
        ref += (t0 - wall) * factor
        self.samples.append(time_kernel())
        self._state = (ref, time.perf_counter(), self._factor())

    def now(self) -> float:
        """Reference seconds since start()."""
        ref, wall, factor = self._state
        return ref + (time.perf_counter() - wall) * factor

    def scale(self) -> float:
        """Reference seconds per wall second since start(), kernel time left out."""
        ref, wall, factor = self._state
        now = time.perf_counter()
        return (ref + (now - wall) * factor) / max(now - self._wall0, 1e-9)
