"""Machine-speed calibration: call times at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed swings by
±25% and more, in phases of 10 to 40 seconds, and all code slows down
together.  Wall times of two runs of the same code then differ by more than
any bound worth setting.  So the timed loop also runs a fixed reference
kernel, which uses nothing of lossnet, every CAL_EVERY_S seconds between
calls, and each call's wall time is scaled by KERNEL_NOMINAL_S over the
kernel's median time next to that call.  The result is the call's time at
the reference speed: the speed at which the kernel takes 1 ms, about that of
one core of a 2-core Intel Xeon virtual machine.  A change in lossnet moves
it as much as it moves wall time; the host's speed swings mostly cancel.

The kernel is a small copy of the kind of work lossnet does: numpy builds
an array, which is turned into Python floats and walked by an interpreted
loop with comparisons and list updates.  Of the kernels tried (an integer
loop, a float and tuple loop, random reads of a large list, and this one),
it followed the speed of the three workloads best overall.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Seconds between two calibration samples; a sample is taken only between calls.
CAL_EVERY_S = 0.1
#: A call is compared with the samples taken within this many seconds of it,
MIN_WINDOW_S = 0.5
#: or else with this many samples nearest to it.
MIN_SAMPLES = 5
#: Seconds the kernel takes at the reference speed.
KERNEL_NOMINAL_S = 1.0e-3

_GAPS = np.random.default_rng(0).exponential(1.0, 6000)


def kernel() -> int:
    """Fixed work: a busy/idle scan over 6000 arrival times."""
    busy = -1.0
    counts = [0, 0]
    accepted = 0
    for t, c in zip(np.cumsum(_GAPS).tolist(), range(len(_GAPS))):
        if t >= busy:
            busy = t + 0.5
            accepted += 1
            counts[c & 1] += 1
        else:
            counts[(c + 1) & 1] += 1
    return accepted


class Calibration:
    """The kernel's samples: midpoints and seconds, in time order."""

    def __init__(self) -> None:
        self.mids: list[float] = []
        self.secs: list[float] = []

    def sample(self) -> None:
        t = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.mids.append((t + t1) / 2)
        self.secs.append(t1 - t)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns wall seconds over [start, end] (perf_counter)
        into seconds at the reference speed."""
        lo = bisect.bisect_left(self.mids, start - MIN_WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + MIN_WINDOW_S)
        if hi - lo >= MIN_SAMPLES:
            local = self.secs[lo:hi]
        else:
            mid = (start + end) / 2
            nearest = sorted(range(len(self.mids)), key=lambda k: abs(self.mids[k] - mid))
            local = [self.secs[k] for k in nearest[:MIN_SAMPLES]]
        return KERNEL_NOMINAL_S / statistics.median(local)
