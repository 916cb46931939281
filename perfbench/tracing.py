"""Outside-in tracing: spans recorded around the program's public calls.

No file of the program changes.  :class:`Tracer` swaps each public
function at a layer boundary (the table :data:`BOUNDARIES`) for a
wrapper that records a span, and puts the originals back on
:meth:`Tracer.uninstall`.  A function imported by name into another
module is patched where it is looked up, so one boundary may name
several sites.

Spans stay in memory as ``[name, start, end, parent, unit, attrs]``
lists and are written out when the run ends; *unit* is the index of the
span that opened the unit (compile, batch item or request) it belongs
to.  Times come from ``time.monotonic`` so spans recorded inside the
daemon compare with the phase marks the client process takes.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Any, Callable

#: span name -> sites ``"module:attr"`` or ``"module:Class.method"``
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "fortran.parse": (
        "repro.driver.panorama:parse_program",
        "repro.engine.scheduler:parse_program",
    ),
    "fortran.semantics": (
        "repro.driver.panorama:analyze",
        "repro.engine.scheduler:analyze",
    ),
    "hsg.build": ("repro.driver.panorama:build_hsg",),
    "contents.infer": ("repro.contents:infer_program",),
    "deptest.screen": ("repro.driver.panorama:screen_loop",),
    "parallelize.classify": ("repro.driver.panorama:classify_loop",),
    "privatize.below_summary": (
        "repro.dataflow.analyzer:SummaryAnalyzer.below_summary",
    ),
    "privatize.copy_out": ("repro.driver.panorama:copy_out_needed",),
    "machine.model": ("repro.machine.costmodel:CostModel.program_cost",),
    "audit.audit": ("repro.audit:audit_compilation",),
    "engine.plan": ("repro.engine.batch:plan_schedule",),
    "engine.fingerprint": (
        "repro.engine.cache:fingerprint_program",
        "repro.engine.scheduler:fingerprint_program",
    ),
    "engine.cache_get": ("repro.engine.cache:SummaryCache.get",),
    "engine.cache_put": ("repro.engine.cache:SummaryCache.put",),
    "engine.hooks_attach": ("repro.engine.cache:CachingHooks.attach",),
    "engine.hooks_finish": ("repro.engine.cache:CachingHooks.finish",),
    "engine.serialize": (
        "repro.engine.batch:result_to_dict",
        "repro.server.service:result_to_dict",
    ),
    "server.analyze": ("repro.server.service:AnalysisService.analyze",),
    "server.watch_submit": ("repro.server.service:AnalysisService.watch_submit",),
    # unit roots: what one timed unit is, not a layer of its own
    "driver.compile": ("repro.driver.panorama:Panorama.compile",),
    "engine.item": ("repro.engine.batch:_analyze_item",),
    "engine.run": ("repro.engine.batch:BatchEngine.run",),
}

#: spans that delimit units; their self time is glue no layer claims
ROOTS = frozenset(
    {"driver.compile", "engine.item", "engine.run", "server.analyze",
     "server.watch_submit"}
)

#: roots that start a unit (a compile, a batch item, a request); a
#: campaign pass (engine.run) holds many units and is not one
UNIT_ROOTS = ROOTS - {"engine.run"}

NAME, START, END, PARENT, UNIT, ATTRS = range(6)


def _resolve(site: str) -> tuple[Any, str]:
    module_name, _, path = site.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def hsg_nodes(hsg) -> int:
    """IR size: HSG nodes over every routine, loop bodies included."""

    def count(graph) -> int:
        total = len(graph.nodes)
        for node in graph.nodes:
            body = getattr(node, "body", None)
            if body is not None and hasattr(body, "nodes"):
                total += count(body)
        return total

    return sum(count(g) for g in hsg.graphs.values())


def _source_lines(args: tuple, kwargs: dict, result: Any) -> dict:
    source = args[0] if args else kwargs.get("source", "")
    return {"lines": source.count("\n")}


def _hsg_size(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"nodes": hsg_nodes(result)}


def _findings(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"findings": len(result.findings)}


#: span name -> attribute recorder run after the span closes
ATTRIBUTES: dict[str, Callable[[tuple, dict, Any], dict]] = {
    "fortran.parse": _source_lines,
    "hsg.build": _hsg_size,
    "audit.audit": _findings,
}


class Tracer:
    """Records spans around the boundary functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, sites in BOUNDARIES.items():
            for site in sites:
                owner, attr = _resolve(site)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def clear(self) -> None:
        self.spans = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        record_attrs = ATTRIBUTES.get(name)
        tracer = self

        def span(*args, **kwargs):
            stack = tracer._stack()
            spans = tracer.spans
            index = len(spans)
            parent = stack[-1] if stack else -1
            unit = spans[parent][UNIT] if stack else index
            if stack and name in UNIT_ROOTS and spans[unit][NAME] not in UNIT_ROOTS:
                unit = index
            rec = [name, 0.0, 0.0, parent, unit, None]
            stack.append(index)
            spans.append(rec)
            rec[START] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.monotonic()
                stack.pop()
            if record_attrs is not None:
                rec[ATTRS] = record_attrs(args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children run on the parent's thread inside its interval, so they
    never overlap one another and their durations add up.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def has_ancestor(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def reindex(spans: list[list], keep) -> list[list]:
    """The spans passing *keep*, with parent and unit links renumbered
    (a link to a dropped span becomes -1)."""
    index: dict[int, int] = {}
    out: list[list] = []
    for i, s in enumerate(spans):
        if keep(s):
            index[i] = len(out)
            out.append(list(s))
    for s in out:
        s[PARENT] = index.get(s[PARENT], -1)
        s[UNIT] = index.get(s[UNIT], -1)
    return out
