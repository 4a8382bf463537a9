"""A host-speed meter that runs beside the benchmark's child processes.

On a shared host the speed of one core drifts by up to a factor of two
within seconds: a fixed amount of pure-Python work costs the same in wall
time and in CPU time, and both move together.  The drift is per core; the
other core's speed hardly follows it.  So the benchmark pins itself and its
children to one core, and a thread of its own (the meter) runs a small fixed
kernel on that same core every ``INTERVAL_S``, timing it with the thread's
CPU clock.

An operation's reference time is its child CPU time times the core's mean
speed during the operation, where a sample's speed is ``REFERENCE_NS`` over
the kernel's cost: the time the operation would take on a core that runs
the kernel in ``REFERENCE_NS``.  The kernel is the benchmark's own code, so
a change to the program does not change it; only the host's speed does.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

# A round figure near the kernel's cost on a 2.1 GHz Xeon core; it fixes only
# the scale of reference times.
REFERENCE_NS = 1_000_000
INTERVAL_S = 0.04
MIN_SAMPLES = 5

# A table of 20,000 big-int entries keyed by triples: a working set of a
# few MB, like the program's memoized tables.
TABLE = {(i, i * 7 % 13, i % 5): 10**20 + i for i in range(20_000)}
TABLE_KEYS = sorted(TABLE, key=lambda key: (key[0] * 7919) % 20_011)[:500]
FACTOR = {(i, j): (i * 31 + j) ** 3 for i in range(12) for j in range(12)}
TERMS = list(FACTOR.items())[:5]
ALLOC_ROUNDS = 36


def kernel():
    """A fixed piece of interpreter work shaped like the program's.

    About a quarter of it is lookups in a large table and a sparse product
    of dicts keyed by exponent pairs; the rest builds and drops small
    polynomial-like dicts of big ints.  Either part alone follows the
    program's speed less well than the mix: the first slows less than the
    program, the second more."""
    total = 0
    for key in TABLE_KEYS:
        total += TABLE[key] * 3
    product = {}
    for (i, j), c in FACTOR.items():
        for (k, l), d in TERMS:
            key = (i + k, j + l)
            product[key] = product.get(key, 0) + c * d
    made = []
    for r in range(ALLOC_ROUNDS):
        poly = {(i, j, r % 3): 10**19 + i * j + r for i in range(6) for j in range(6)}
        shifted = {}
        for (i, j, k), c in poly.items():
            key = (i + 1, j, k)
            shifted[key] = shifted.get(key, 0) - c * 7
        made.append(shifted)
    return total, product, made


def pin_one_core():
    """Pin the calling thread, and the threads and processes it starts later,
    to one allowed core; returns the previous mask (None if unsupported)."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def restore(mask):
    if mask is not None:
        os.sched_setaffinity(0, mask)


class Meter:
    """Samples the kernel's cost from a background thread until stopped."""

    def __init__(self):
        self.times = []  # perf_counter at the middle of each sample
        self.costs = []  # thread CPU ns of each sample
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-meter", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while not self._stop.is_set():
            begin = time.perf_counter()
            cpu = time.thread_time_ns()
            kernel()
            cost = time.thread_time_ns() - cpu
            self.times.append((begin + time.perf_counter()) / 2)
            self.costs.append(cost)
            self._stop.wait(INTERVAL_S)

    def scale(self, start, end):
        """Factor that turns CPU seconds spent in [start, end] into
        reference seconds: the mean of ``REFERENCE_NS`` over the kernel's
        cost, over the samples taken in [start, end] (or the
        ``MIN_SAMPLES`` nearest its middle), dropping the lowest and highest
        tenth."""
        n = min(len(self.times), len(self.costs))
        times, costs = self.times[:n], self.costs[:n]
        if not n:
            return 1.0
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(times, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, n - MIN_SAMPLES))
            hi = min(n, lo + MIN_SAMPLES)
        speeds = sorted(REFERENCE_NS / cost for cost in costs[lo:hi])
        cut = len(speeds) // 10
        return statistics.fmean(speeds[cut : len(speeds) - cut])
