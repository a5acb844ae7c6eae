"""Op times at a reference host speed.

On a shared host the speed of a process moves by up to 1.6x within
seconds, on all code alike, as neighbours come and go; process CPU time
moves with it.  So between ops, outside op time, a fixed kernel is timed
after every ``TICK_EVERY_NS`` of op time (a "tick").  Each op's time is
divided by the speed factor of its stretch of the run, the mean of the
ticks near it over ``CALIB_REF_NS``, which gives its time at the
reference speed.  The kernel never calls erstoll, so a change to the
program does not move it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

TICK_EVERY_NS = 50_000_000
# An op's speed factor also averages the ticks within this much op time
# of it: the host's speed changes within a second, and one tick is noisy.
TICK_SPAN_NS = 100_000_000
# The kernel's median time on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4)
# over minutes of runs: the reference speed.
CALIB_REF_NS = 2_300_000


def _kernel_step(a, x):
    return a * (1.0 + 0.15 * (x / 500.0) ** 4)


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def _kernel():
    """Fixed work in the mix of erstoll's own code: calls and float
    arithmetic, frozen-dataclass copies and sorting, small numpy arrays.
    Under a host whose speed moved over 1.6x, log op time against log
    kernel time had slopes of 0.93-1.07 for solve_row, toll_bands and a
    dynamics op; each of the three parts alone did worse."""
    seen = {}
    total = 0.0
    for i in range(2000):
        total += _kernel_step(10.0, float(i))
        seen[i & 63] = total
    rows = []
    p = _Pair(1.0, 2.0)
    for i in range(300):
        q = replace(p, a=p.a + i)
        rows.append((q.a, q.b, str(i)))
    rows.sort(key=lambda r: -r[0])
    for i in range(150):
        v = np.array([1.0, 2.0, 3.0, float(i)])
        total += float(np.sum(v * v)) + math.sqrt(i)
    return total


def calibrate(clock_ns=time.perf_counter_ns) -> int:
    """ns of one run of the calibration kernel."""
    t = clock_ns()
    _kernel()
    return clock_ns() - t


class OpClock:
    """Raw op times plus the host-speed ticks taken between them."""

    def __init__(self):
        self.raw = []  # ns per op
        self.segment = []  # index of the stretch between ticks, per op
        self.ticks = [calibrate()]
        self._since = 0

    def record(self, dt):
        self.raw.append(dt)
        self.segment.append(len(self.ticks) - 1)
        self._since += dt
        if self._since >= TICK_EVERY_NS:
            self.close()

    def close(self):
        """End the current stretch with a tick, if any op is in it."""
        if self._since:
            self.ticks.append(calibrate())
            self._since = 0

    def factors(self):
        """Speed factor per stretch between ticks: the mean of its two ticks
        and of the ticks within TICK_SPAN_NS of op time on either side,
        over CALIB_REF_NS (1 at the reference speed, 1.5 when the host is
        that much slower)."""
        t = self.ticks
        n = len(t) - 1
        dur = [0] * n
        for dt, k in zip(self.raw, self.segment):
            dur[k] += dt
        out = []
        for k in range(n):
            lo, acc = k, 0
            while lo > 0 and acc + dur[lo - 1] <= TICK_SPAN_NS:
                lo -= 1
                acc += dur[lo]
            hi, acc = k + 1, 0
            while hi < n and acc + dur[hi] <= TICK_SPAN_NS:
                acc += dur[hi]
                hi += 1
            near = t[lo : hi + 1]
            out.append(sum(near) / len(near) / CALIB_REF_NS)
        return out

    def normalized(self, start=0, stop=None):
        """Op times at the reference speed, in ns, for ops[start:stop]."""
        f = self.factors()
        return [dt / f[k] for dt, k in zip(self.raw[start:stop], self.segment[start:stop])]


