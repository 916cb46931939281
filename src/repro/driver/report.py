"""Plain-text table formatting for the experiment harnesses."""

from __future__ import annotations

from typing import Iterable, Sequence

from ..perf import profiler


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Monospace table with auto-sized columns."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(sep))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(
            " | ".join(
                cell.ljust(w) for cell, w in zip(row, widths)
            )
        )
    return "\n".join(lines)


def yes_no(flag: bool) -> str:
    """Render a flag as ``"Yes"``/``"No"``."""
    return "Yes" if flag else "No"


def fmt(value: float, digits: int = 1) -> str:
    """Format a float with fixed digits."""
    return f"{value:.{digits}f}"


def format_stats(stats, timings=None, cache_backend=None, symbolic=None) -> str:
    """One-line rendering of the analyzer's cost counters.

    *stats* is an :class:`~repro.dataflow.context.AnalysisStats`;
    *timings* (optional) a :class:`~repro.driver.panorama.StageTimings`
    whose dataflow share contextualizes the counters; *cache_backend*
    (optional) names the active durable summary tier, leading the line;
    *symbolic* (optional) is a ``repro.perf`` snapshot delta whose
    cache gauges and prove calls close the line.
    """
    line = "analysis cost: "
    if cache_backend:
        line = f"cache backend: {cache_backend}\n" + line
    line += (
        f"{stats.nodes_visited} HSG nodes visited, "
        f"{stats.gar_ops} GAR ops, peak GAR list {stats.peak_gar_list}, "
        f"{stats.routines_summarized} routine / "
        f"{stats.loops_summarized} loop summaries"
    )
    if timings is not None and timings.total > 0:
        share = timings.dataflow / timings.total * 100.0
        line += f" ({share:.0f}% of time in dataflow)"
    rate = profiler.hit_rate(symbolic) if symbolic else None
    if rate is not None:
        hits, misses = profiler.hit_counts(symbolic)
        proves = symbolic.get("counter.prove_calls", 0)
        line += (
            f"; symbolic caches: {int(hits)} hit(s) / "
            f"{int(misses)} miss(es) ({rate * 100.0:.0f}% hit rate), "
            f"{int(proves)} prove call(s)"
        )
    return line


def format_perf(symbolic: dict) -> str:
    """Render a ``repro.perf`` snapshot delta (``--profile`` output).

    Three sections: per-phase wall-clock timers, hot-path call counters,
    and per-cache hit/miss/eviction gauges.  Keys follow the flat
    ``repro.perf.profiler.snapshot`` naming scheme.
    """
    sections: list[str] = []
    phases = sorted(
        {k[5:].rsplit(".", 1)[0] for k in symbolic if k.startswith("time.")}
    )
    if phases:
        rows = [
            (
                p,
                int(symbolic.get(f"time.{p}.calls", 0)),
                f"{symbolic.get(f'time.{p}.seconds', 0.0) * 1000:.1f}",
            )
            for p in phases
        ]
        sections.append(
            format_table(["phase", "calls", "ms"], rows, title="phase timers")
        )
    counters = sorted(k for k in symbolic if k.startswith("counter."))
    if counters:
        rows = [(k.split(".", 1)[1], int(symbolic[k])) for k in counters]
        sections.append(
            format_table(["counter", "count"], rows, title="hot-path counters")
        )
    # cache names themselves contain dots ("monomial.intern"), so strip
    # the "cache." prefix and the final ".hits"/".misses"/… component
    names = sorted(
        {k[6:].rsplit(".", 1)[0] for k in symbolic if k.startswith("cache.")}
    )
    if names:
        rows = []
        for n in names:
            hits = int(symbolic.get(f"cache.{n}.hits", 0))
            misses = int(symbolic.get(f"cache.{n}.misses", 0))
            total = hits + misses
            rate = f"{hits / total * 100.0:.0f}%" if total else "-"
            rows.append(
                (n, hits, misses, int(symbolic.get(f"cache.{n}.evictions", 0)), rate)
            )
        sections.append(
            format_table(
                ["cache", "hits", "misses", "evictions", "hit rate"],
                rows,
                title="symbolic caches",
            )
        )
    if not sections:
        return "no profiling data recorded"
    return "\n\n".join(sections)
