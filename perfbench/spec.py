"""What the benchmark measures, beyond what BENCHMARK.json declares.

``BENCHMARK.json`` at the repository root is the one declaration of the
workloads, the metric names, units and bounds; :func:`declared` reads
it.  This module holds only what that file has no field for — which
end-to-end metric and workload each per-layer metric should move, and
the reserved seed — and the constants of a run.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: seed kept out of development runs, for confirming a later claim on
#: inputs the change was not written against
RESERVED_SEED = 9173

#: the timed phase runs past --seconds until this many units are timed,
#: so the p95 latency has at least ten samples beyond it
MIN_TIMED_UNITS = 200

#: the timed phase runs at most this many seconds past --seconds to meet
#: its floors, so a much slower program reports a regression instead of
#: timing out
PHASE_OVERRUN_S = 60

#: set-up samples per run (fresh processes); setup_s is their median
SETUP_SAMPLES = 7

PERFECT_PROGRAMS = ("ARC2D", "MDG", "OCEAN", "TRACK", "TRFD")


def declared() -> dict:
    """The BENCHMARK.json document of this checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def phase_deadline(seconds: float) -> float:
    """Seconds after which a timed phase stops, floors met or not."""
    return seconds + PHASE_OVERRUN_S


def child_timeout(seconds: float) -> float:
    """Seconds a worker process or client thread may take before the run
    gives up on it: the capped timed phase plus set-up and checks."""
    return 2 * phase_deadline(seconds) + 120


_PC, _CA, _DM = "perfect-cold", "campaign", "daemon-mixed"

#: per-layer metric -> the end-to-end metric and workload it should move.
#: ``*_ms`` layer times are self time per timed unit (compile, item or
#: request); counts and ratios come from the run's deterministic first
#: pass over its inputs
MOVES = {
    "fortran.parse_ms": f"throughput_per_s on {_CA}",
    "fortran.semantics_ms": f"throughput_per_s on {_CA}",
    "fortran.lines_per_s": f"throughput_per_s on {_CA}",
    "hsg.build_ms": f"throughput_per_s on {_CA}",
    "hsg.nodes": f"throughput_per_s on {_CA}",
    "contents.infer_ms": f"latency_ms_p50 on {_DM}",
    "contents.facts": f"latency_ms_p50 on {_DM}",
    "deptest.screen_ms": f"throughput_per_s on {_CA}",
    "deptest.screen_resolved_share": f"throughput_per_s on {_CA}",
    "parallelize.classify_ms": f"latency_ms_p50/p95 on {_PC}",
    "parallelize.loops_classified": f"latency_ms_p50/p95 on {_PC}",
    "dataflow.sum_loop_ms": f"latency_ms_p95 on {_PC}",
    "dataflow.sum_call_ms": f"latency_ms_p95 on {_PC}",
    "dataflow.sum_loop_calls": f"latency_ms_p95 on {_PC}",
    "dataflow.sum_call_calls": f"latency_ms_p95 on {_PC}",
    "dataflow.nodes_visited": f"latency_ms_p95 on {_PC}",
    "dataflow.peak_gar_list": f"latency_ms_p95 on {_PC}",
    "privatize.copy_out_ms": f"latency_ms_p50 on {_PC}",
    "regions.gar_simplify_ms": f"latency_ms_p50 on {_PC}",
    "regions.gar_simplify_calls": f"latency_ms_p50 on {_PC}",
    "regions.gar_emptiness_checks": f"latency_ms_p50 on {_PC}",
    "symbolic.prove_calls": f"latency_ms_p50 on {_PC}",
    "symbolic.prove_fm_share": f"latency_ms_p50 on {_PC}",
    "symbolic.fm_eliminations": f"latency_ms_p50 on {_PC}",
    "symbolic.fm_bailouts": f"latency_ms_p50 on {_PC}",
    "symbolic.cache_hit_rate": f"latency_ms_p50 on {_PC}",
    "symbolic.cache_evictions": "peak_rss_mb on all",
    "machine.model_ms": f"throughput_per_s on {_CA}",
    "audit.ms": f"latency_ms_p95 on {_DM}",
    "audit.findings": f"latency_ms_p95 on {_DM}",
    "engine.plan_ms": f"throughput_per_s on {_CA}",
    "engine.fingerprint_ms": f"throughput_per_s on {_CA}",
    "engine.cache_hooks_ms": f"throughput_per_s on {_CA}",
    "engine.cache_get_ms": f"throughput_per_s on {_CA}",
    "engine.cache_put_ms": f"throughput_per_s on {_CA}",
    "engine.serialize_ms": f"throughput_per_s on {_CA}",
    "engine.cache_hit_rate": f"throughput_per_s on {_CA}",
    "engine.cache_stores": f"throughput_per_s on {_CA}",
    "server.service_ms": f"latency_ms_p95 on {_DM}",
    "server.queue_wait_ms": f"latency_ms_p95 on {_DM}",
    "server.rejected": f"latency_ms_p95 on {_DM}",
    "server.request_hit_rate": f"latency_ms_p95 on {_DM}",
    "server.watch_reused_share": f"latency_ms_p95 on {_DM}",
    **{
        f"program.{name}.compile_ms": f"latency_ms_p50 on {_PC}"
        for name in PERFECT_PROGRAMS
    },
    "fig4.analysis_over_frontend": f"latency_ms_p50 on {_PC}",
    "trace.overhead_share": "none: tracing cost, per workload",
    "trace.coverage_share": "none: share of the timed interval the layer "
                            "spans cover",
}
