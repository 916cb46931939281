"""Profiling and cache-observability layer for the symbolic kernels.

See :mod:`repro.perf.profiler` for the instruments and
:mod:`repro.perf.metrics` for the declared counter groups.  This
package must stay dependency-free within :mod:`repro` — the symbolic
substrate imports it, never the other way round.
"""

from .profiler import (
    COUNTERS,
    MISS,
    BoundedCache,
    Counters,
    Probe,
    add_time,
    caches,
    clear_caches,
    delta,
    disable,
    enable,
    hit_rate,
    is_enabled,
    probe,
    reset,
    reset_timers,
    resize_caches,
    snapshot,
    timed,
    timers,
)

__all__ = [
    "BoundedCache",
    "COUNTERS",
    "Counters",
    "MISS",
    "Probe",
    "add_time",
    "caches",
    "clear_caches",
    "delta",
    "disable",
    "enable",
    "hit_rate",
    "is_enabled",
    "probe",
    "reset",
    "reset_timers",
    "resize_caches",
    "snapshot",
    "timed",
    "timers",
]
