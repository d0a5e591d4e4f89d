"""Host-speed adjustment of measured times.

The benchmark runs on a share of a host whose speed drifts: the same
operation, timed minutes or even seconds apart, can take 0.7 to 1.4 times
its median.  Wall time alone then measures the host more than the program.
So every time the benchmark reports is adjusted by a fixed reference kernel,
pure Python like the program, timed beside it:

    adjusted = wall * REFERENCE_S / (kernel time measured beside it)

An adjusted time is the wall time the measured code would have taken on a
host where the kernel takes ``REFERENCE_S`` seconds.  The kernel is part of
the benchmark and shares no code with spikeflow, so a change to the program
moves the adjusted times by the same share as the wall times it would show
on a steady host.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# About the median kernel time on the 2-vCPU Intel Xeon host where the first
# trajectory point was measured; it fixes the scale of every adjusted time.
REFERENCE_S = 0.006
# Operations are grouped until their wall time reaches this many seconds, and
# the kernel is timed between groups.
GROUP_S = 0.1


def _kernel() -> int:
    """A fixed mix of what spikeflow's simulator and searches spend their
    time on: dict and set updates, sorting, small-int and Fraction arithmetic,
    attribute reads and calls."""
    n = 120
    leak = Fraction(1, 2)
    threshold = [2 + i % 5 for i in range(n)]
    fanout = [[(i * 7 + k * 13) % n for k in range(4)] for i in range(n)]
    potentials = dict.fromkeys(range(n), 0)
    pending: dict[int, dict[int, int]] = {0: {0: 3, 1: 3}}
    spikes = 0
    for t in range(30):
        fired: set[int] = set()
        for nid, weight in sorted(pending.pop(t, {}).items()):
            v = int(potentials[nid] * leak) + weight
            if v >= threshold[nid]:
                fired.add(nid)
                v = 0
                for post in fanout[nid]:
                    bucket = pending.setdefault(t + 1 + post % 3, {})
                    bucket[post] = bucket.get(post, 0) + 2
            potentials[nid] = v
        pending.setdefault(t + 1, {})[t % n] = 3
        spikes += len(fired)
    return spikes


def kernel_seconds() -> float:
    """Wall time of one kernel run (5 to 8 ms), garbage collection held off
    so that a collection owed by the measured code does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Adjuster:
    """Adjusts a stream of operation times in groups of about ``group_s``
    seconds.  The kernel is timed before the first group and after each;
    a group is adjusted by the median of the ``2 * window`` kernel times
    nearest it, half before and half after, which follows the host's drift
    over seconds without passing on the jitter of any one kernel run."""

    def __init__(self, group_s: float = GROUP_S, window: int = 3):
        self.group_s = group_s
        self.window = window
        self.kernel = [kernel_seconds()]
        self._groups: list[list[float]] = []
        self._open: list[float] = []
        self._open_s = 0.0

    def add(self, seconds: float) -> None:
        self._open.append(seconds)
        self._open_s += seconds
        if self._open_s >= self.group_s:
            self.flush()

    def flush(self) -> None:
        """Close the open group; call once more after the last operation."""
        if not self._open:
            return
        self._groups.append(self._open)
        self.kernel.append(kernel_seconds())
        self._open, self._open_s = [], 0.0

    def adjusted(self) -> list[float]:
        """Every closed group's times, adjusted, in the order they were added."""
        out = []
        for g, group in enumerate(self._groups):  # group g lies between kernel g and g + 1
            near = self.kernel[max(0, g + 1 - self.window) : g + 1 + self.window]
            factor = REFERENCE_S / statistics.median(near)
            out.extend(t * factor for t in group)
        return out
