"""The machine's current speed, from a fixed piece of work timed in between
the program's operations.

The benchmark shares a few cores with other tenants, and whole stretches
of a minute or more run up to 2x slower than others.  That slowdown hits
the program's operations and this calibration kernel alike, so every time
a run reports is divided by the run's slowdown: the kernel's time over the
run relative to REFERENCE_S.  The times are then seconds at the speed the
machine has when it is quiet.  The kernel mixes what lipext spends its
time on: a pure-Python Dijkstra over dicts and a heap, and small numpy
array operations.  It runs no lipext code, so a change to the program
cannot move it.
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

# The kernel's time (as `slowdown` averages it) on this 2-CPU machine when
# it is quiet.  Changing it rescales every reported time; the ratios
# between runs stay the same.
REFERENCE_S = 1.0e-3

_N = 200
_ADJ = [[((7 * i + 13 * j) % _N, 1.0 + (i * j) % 5) for j in range(1, 5)] for i in range(_N)]
_A = np.linspace(0.0, 1.0, 24).reshape(8, 3)


def kernel() -> float:
    """The fixed work: a Dijkstra over 200 vertices and 100 small array updates."""
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _ADJ[u]:
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    a = _A
    for _ in range(100):
        a = np.sqrt(a * a + 1.0) / np.linalg.norm(a, axis=1, keepdims=True)
    return sum(dist.values()) + float(a.sum())


def sample() -> float:
    """One timed run of the kernel, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def burst(seconds: float) -> list[float]:
    """Samples taken back to back for about `seconds`."""
    out = []
    deadline = time.perf_counter() + seconds
    while not out or time.perf_counter() < deadline:
        out.append(sample())
    return out


def slowdown(samples: list[float]) -> float:
    """How much slower than quiet the machine ran while `samples` were taken.

    The machine flips between a fast and a slow state many times a second,
    so an operation's time follows the average speed: the mean of the
    samples, without the slowest tenth (a sample the scheduler paused)."""
    kept = sorted(samples)[:max(1, len(samples) * 9 // 10)]
    return statistics.fmean(kept) / REFERENCE_S
