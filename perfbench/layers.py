"""Per-layer metrics from a traced window and a counting pass.

Layer times are self times per timed unit, taken from the spans of the
traced window.  Counts and ratios come from the counting pass — the
run's first pass over its inputs, which does the same work on every
run with the same seed — so they repeat exactly and two commits can be
compared on them.
"""

from __future__ import annotations

from typing import Any, Iterable

from spec import declared
from tracing import ATTRS, END, NAME, ROOTS, START, has_ancestor, self_times

#: layer time metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "fortran.parse_ms": ("fortran.parse",),
    "fortran.semantics_ms": ("fortran.semantics",),
    "hsg.build_ms": ("hsg.build",),
    "contents.infer_ms": ("contents.infer",),
    "deptest.screen_ms": ("deptest.screen",),
    "parallelize.classify_ms": ("parallelize.classify",),
    "privatize.copy_out_ms": ("privatize.below_summary", "privatize.copy_out"),
    "machine.model_ms": ("machine.model",),
    "audit.ms": ("audit.audit",),
    "engine.plan_ms": ("engine.plan",),
    "engine.fingerprint_ms": ("engine.fingerprint",),
    "engine.cache_hooks_ms": ("engine.hooks_attach", "engine.hooks_finish"),
    "engine.cache_get_ms": ("engine.cache_get",),
    "engine.cache_put_ms": ("engine.cache_put",),
    "engine.serialize_ms": ("engine.serialize",),
}

#: profiler phase timers (on only in the traced window)
TIMER_METRICS = {
    "dataflow.sum_loop_ms": "sum_loop",
    "dataflow.sum_call_ms": "sum_call",
    "regions.gar_simplify_ms": "gar_simplify",
}

FRONTEND = ("fortran.parse", "fortran.semantics", "hsg.build")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_summary(spans: list[list]) -> dict[str, Any]:
    """Self and frontend totals of one traced window (seconds)."""
    own = self_times(spans)
    by_name: dict[str, float] = {}
    for s, t in zip(spans, own):
        by_name[s[NAME]] = by_name.get(s[NAME], 0.0) + t
    covered = sum(t for s, t in zip(spans, own) if s[NAME] not in ROOTS)
    compile_s = sum(
        s[END] - s[START] for s in spans if s[NAME] == "driver.compile")
    frontend_s = sum(
        t for i, (s, t) in enumerate(zip(spans, own))
        if s[NAME] in FRONTEND and has_ancestor(spans, i, "driver.compile")
    )
    lines = sum(
        (s[ATTRS] or {}).get("lines", 0) for s in spans
        if s[NAME] == "fortran.parse")
    return {
        "self": by_name,
        "covered": covered,
        "compile": compile_s,
        "frontend": frontend_s,
        "lines": lines,
    }


def counting_summary(
    spans: list[list],
    perf: dict[str, float],
    stats: Iterable[dict[str, int]],
    rows: Iterable[dict],
    cache: dict[str, int],
) -> dict[str, Any]:
    """The deterministic counts of a counting pass.

    *perf* is the ``repro.perf`` snapshot delta over the pass, *stats*
    the per-compile ``AnalysisStats`` dicts, *rows* the verdict rows,
    *cache* the summary-cache counter delta.
    """
    stats = list(stats)
    rows = list(rows)
    hits = sum(v for k, v in perf.items()
               if k.startswith("cache.") and k.endswith(".hits"))
    misses = sum(v for k, v in perf.items()
                 if k.startswith("cache.") and k.endswith(".misses"))
    prove = perf.get("counter.prove_calls", 0)
    return {
        "hsg.nodes": sum((s[ATTRS] or {}).get("nodes", 0) for s in spans
                         if s[NAME] == "hsg.build"),
        "contents.facts": sum(s.get("content_facts", 0) for s in stats),
        "deptest.screen_resolved_share": _ratio(
            sum(1 for r in rows if not r["used_dataflow"]), len(rows)),
        "parallelize.loops_classified": sum(
            1 for s in spans if s[NAME] == "parallelize.classify"),
        "dataflow.sum_loop_calls": perf.get("counter.sum_loop_calls", 0),
        "dataflow.sum_call_calls": perf.get("counter.sum_call_calls", 0),
        "dataflow.nodes_visited": sum(s.get("nodes_visited", 0) for s in stats),
        "dataflow.peak_gar_list": max(
            (s.get("peak_gar_list", 0) for s in stats), default=0),
        "regions.gar_simplify_calls": perf.get("counter.gar_simplify_calls", 0),
        "regions.gar_emptiness_checks": perf.get(
            "counter.gar_emptiness_checks", 0),
        "symbolic.prove_calls": prove,
        "symbolic.prove_fm_share": _ratio(
            perf.get("counter.prove_fm_queries", 0), prove),
        "symbolic.fm_eliminations": perf.get("counter.fm_eliminations", 0),
        "symbolic.fm_bailouts": perf.get("counter.fm_var_limit_bailouts", 0)
        + perf.get("counter.fm_constraint_limit_bailouts", 0),
        "symbolic.cache_hit_rate": _ratio(hits, hits + misses),
        "symbolic.cache_evictions": sum(
            v for k, v in perf.items()
            if k.startswith("cache.") and k.endswith(".evictions")),
        "audit.findings": sum((s[ATTRS] or {}).get("findings", 0)
                              for s in spans if s[NAME] == "audit.audit"),
        "engine.cache_hit_rate": _ratio(
            cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)),
        "engine.cache_stores": cache.get("stores", 0),
    }


def span_shares(spans: list[list], root: str,
                groups: dict[str, tuple[str, ...]]) -> dict[str, float]:
    """Share of the time in *root* spans that each group of spans takes:
    self time, except a group named after a span's whole duration
    (``"name+"``), which counts that span with its children."""
    own = self_times(spans)
    total = sum(s[END] - s[START] for s in spans if s[NAME] == root)
    out = {}
    for label, names in groups.items():
        t = 0.0
        for s, self_t in zip(spans, own):
            if s[NAME] in names:
                t += self_t
            elif s[NAME] + "+" in names:
                t += s[END] - s[START]
        out[label] = _ratio(t, total)
    return out


#: counts the determinism check compares across two runs of one seed
DETERMINISTIC = (
    "symbolic.prove_calls",
    "symbolic.fm_eliminations",
    "regions.gar_simplify_calls",
    "dataflow.sum_loop_calls",
    "engine.cache_stores",
    "hsg.nodes",
)


def layer_metrics(
    traced_spans: list[list],
    units: int,
    interval: float,
    timers: dict[str, float],
    counts: dict[str, Any],
    extra: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric BENCHMARK.json declares.

    *units* units were timed over *interval* seconds in the traced
    window; *timers* is the ``repro.perf`` delta over that window (phase
    timers on), *counts* a :func:`counting_summary`, *extra* the
    workload's own figures (server, per-program, tracing overhead);
    metrics a workload does not exercise read 0.
    """
    summary = span_summary(traced_spans)
    per_unit = 1000.0 / units if units else 0.0
    out: dict[str, float] = {m["name"]: 0.0 for m in declared()["per_layer"]}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(summary["self"].get(n, 0.0) for n in names) * per_unit
    for metric, phase in TIMER_METRICS.items():
        out[metric] = timers.get(f"time.{phase}.seconds", 0.0) * per_unit
    out["fortran.lines_per_s"] = _ratio(
        summary["lines"], summary["self"].get("fortran.parse", 0.0))
    out["fig4.analysis_over_frontend"] = _ratio(
        summary["compile"] - summary["frontend"], summary["frontend"])
    out["trace.coverage_share"] = _ratio(summary["covered"], interval)
    out.update(counts)
    out.update(extra)
    return out
