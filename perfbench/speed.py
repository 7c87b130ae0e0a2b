"""Machine-speed calibration of wall times.

The benchmark machine is a small virtual machine on a shared host. Other
tenants slow it by up to 1.7x, for seconds to minutes at a time, so raw wall
times of the same code spread by 10-45% between runs. A fixed kernel of
small-array numpy operations, the kind of work the package does, is timed
between operations. Each operation's time is rescaled by the kernel's median
duration within half a second of it, to the time it would take when the
kernel takes ``REFERENCE_S``. The raw times are printed next to the rescaled
ones.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Kernel duration taken as the reference speed: about its undisturbed
# duration on a 2-vCPU Xeon (Sapphire Rapids) guest with numpy 2.4.
REFERENCE_S = 1.2e-3
PERIOD_S = 0.05       # the kernel runs at most once per period
HALF_WINDOW_S = 0.5   # samples this close to an operation set its speed


class MachineSpeed:
    """Kernel timings taken between operations, and the rescaling they give."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._x = np.linspace(0.0, 1.0, 6000).reshape(2000, 3)
        self._next = 0.0

    def kernel(self) -> float:
        """Seconds taken by a fixed run of small-array numpy operations."""
        x = self._x
        t0 = time.perf_counter()
        for _ in range(60):
            x = np.tanh(x * 0.5 + 0.1)
        return time.perf_counter() - t0

    def sample(self) -> None:
        """Time the kernel, unless it ran less than ``PERIOD_S`` ago."""
        now = time.perf_counter()
        if now >= self._next:
            self.starts.append(now)
            self.durations.append(self.kernel())
            self._next = time.perf_counter() + PERIOD_S

    def scale(self, t: float) -> float:
        """``REFERENCE_S`` over the median kernel time within ``HALF_WINDOW_S`` of t."""
        lo = bisect.bisect_left(self.starts, t - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.starts, t + HALF_WINDOW_S)
        if lo == hi:  # no sample that close: take the nearest one
            lo = min(lo, len(self.starts) - 1)
            if lo > 0 and t - self.starts[lo - 1] < self.starts[lo] - t:
                lo -= 1
            hi = lo + 1
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def kernel_time(self, a: float, b: float) -> float:
        """Seconds of kernel runs that started in [a, b)."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        return sum(self.durations[lo:hi])

    def rescale(self, ops: list) -> tuple[list, float]:
        """Rescaled operation durations, and the rescaled wall time of the run.

        An operation's share of the wall time runs from its start to the next
        operation's start, less kernel time, so work between operations (time
        step, new episode, output check) is counted.
        """
        durations, wall = [], 0.0
        for i, (t0, t1) in enumerate(ops):
            s = self.scale(0.5 * (t0 + t1))
            end = ops[i + 1][0] if i + 1 < len(ops) else t1
            durations.append((t1 - t0) * s)
            wall += (end - t0 - self.kernel_time(t0, end)) * s
        return durations, wall
