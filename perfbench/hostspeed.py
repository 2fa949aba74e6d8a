"""Host-speed correction for timings taken on a shared, noisy machine.

On a machine shared with other tenants the host's speed drifts: on a
shared 2-vCPU Xeon VM (2.1 GHz), one deterministic repeat of a workload
took anywhere from 3.7 s to 7.3 s within a few minutes.  The harness
therefore runs :func:`calibrate` between slices, outside the timed slices,
and multiplies every host time of a run by :func:`factor` of the run's
calibration samples.

The calibration loop is fixed code that never calls the program, so a
change to the program moves the scaled times exactly as it moves the raw
ones; only the host's drift is taken out.  The simulator's time follows
the loop's time to the power :data:`EXPONENT`, not 1: the loop suffers
more from a slow host than the simulator does.  Over ten runs per
workload on that VM, scaling with this exponent cut the spread of
``sim_speed`` across runs (interquartile range over median) from 0.11,
0.12 and 0.20 raw to 0.07, 0.09 and 0.03 on ``paper_b_vbr``,
``crowd_flash_4096`` and ``fed_8x32``.  :data:`NOMINAL_S` is about the
loop's time on that VM when it ran fast, so scaled times stay close to
raw ones there.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter
from typing import Any, Callable, List, Sequence

__all__ = ["EXPONENT", "EVERY_S", "NOMINAL_S", "calibrate", "factor"]

#: Calibration loop time, seconds, at which the factor is 1.
NOMINAL_S = 0.006
#: Power of the loop's slowdown that the simulator's time follows.
EXPONENT = 0.6
#: Host seconds of slices between two calibration samples.
EVERY_S = 0.1


class _Event:
    __slots__ = ("time", "seq", "fn")

    def __init__(self, time: float, seq: int, fn: Callable[[int], int]) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn

    def __lt__(self, other: "_Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class _Node:
    __slots__ = ("fwd", "hits")

    def __init__(self, i: int) -> None:
        self.fwd = {g: (i + g) % 64 for g in range(8)}
        self.hits = 0

    def receive(self, group: int) -> int:
        self.hits += 1
        return self.fwd.get(group, 0)


_NODES = [_Node(i) for i in range(64)]
_EVENTS = [_Event((i * 7919) % 997 * 0.001, i, _NODES[i % 64].receive) for i in range(4000)]


def calibrate() -> float:
    """Host seconds of one fixed event-heap loop (garbage collection off)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        heap: List[Any] = []
        for ev in _EVENTS:
            heapq.heappush(heap, ev)
        acc = 0
        while heap:
            ev = heapq.heappop(heap)
            acc += ev.fn(ev.seq & 7)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(samples: Sequence[float]) -> float:
    """Multiplier that brings host times taken alongside ``samples`` to the
    nominal host speed (1.0 when there are no samples)."""
    if not samples:
        return 1.0
    return (NOMINAL_S / statistics.median(samples)) ** EXPONENT
