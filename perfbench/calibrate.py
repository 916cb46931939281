"""Host-speed calibration for the in-process workloads.

The shared host this benchmark was written on slows all work on a core
by a factor that wanders between about 1 and 2 within seconds, and the
slowest stretches last longer than a run: a fixed compile loop timed in
30 s windows spreads by about 10% (standard deviation over mean), while
process CPU time tracks wall time, so it is not time the process waits.
A run's plain timings move with the host, not with the program.

A fixed piece of pure-Python work — the same kind of work the analyzer
does: small objects, tuples, dicts, strings, recursion, a sort — timed
on the same thread right next to each unit slows with it (correlation
0.82 per compile on that host).  A unit's time scaled by
``REFERENCE_MS`` over the calibration time beside it is the unit's time
at the speed where the calibration takes ``REFERENCE_MS``: it moves
when the program changes and hardly when the host does (the same 30 s
windows spread by 1–2%).  The calibration is the benchmark's own code,
fixed, and never timed as part of a unit.
"""

from __future__ import annotations

import gc
import time

#: the calibration's time (ms) at the reference speed that normalized
#: timings are expressed at: a round figure between its best (about
#: 2.3 ms) and its usual time (about 4.2 ms) on a 2-core x86-64 VM
REFERENCE_MS = 3.0

#: where units are too short to calibrate beside each one (campaign
#: items, daemon requests), calibrate before one at most this often
INTERVAL_S = 0.1


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key: int, kids: tuple) -> None:
        self.key = key
        self.kids = kids


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _work() -> int:
    table: dict = {}
    for i in range(3000):
        key = ("v", i % 97, str(i))
        table[key] = table.get(key, 0) + i
    nodes = [_Node(i, tuple(range(i % 5))) for i in range(2000)]
    total = sum(len(n.kids) for n in nodes) + _fib(16)
    return total + len(sorted(table.values(), reverse=True))


def calibrate() -> float:
    """Seconds one run of the fixed work takes now.

    The cyclic garbage collector is off meanwhile: a collection would
    walk the caller's heap, which varies, and the work makes no cycles,
    so reference counting frees all of it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(calibration_s: float) -> float:
    """Factor that turns a time measured beside *calibration_s* into
    the time at the reference speed."""
    return REFERENCE_MS / 1000.0 / calibration_s
