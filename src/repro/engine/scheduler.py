"""Call-graph-topology-aware batch scheduling.

Batch items are not independent: the campaign corpus (and any real
project sweep) contains *library* items — bare routines analyzed on
their own — and *app* items whose drivers call those same routines.
Because summary fingerprints are content-addressed
(:func:`~repro.engine.cache.fingerprint_program`), an identical routine
carries the identical fingerprint in every item that embeds it, so the
first item to analyze it warms the cache for all the others.

This module plans the order that makes that reuse systematic: analyze
*providers* before *consumers*, so callers hit warm summaries instead
of recomputing them.  The inter-item edge is deliberately asymmetric:

* ``provides(X)`` — fingerprints of X's units with **no in-item
  caller**: X analyzes them standalone, so their summaries land in the
  cache at full fidelity;
* ``consumes(Y)`` — fingerprints of Y's units that **have an in-item
  caller**: Y would otherwise recompute them on the way to its drivers.

``X → Y`` iff ``provides(X) ∩ consumes(Y) ≠ ∅``.  Symmetric overlap
(two items embedding the same library) creates no edge — only a
provider/consumer relationship does — which keeps the graph a DAG for
caller-heavy corpora instead of collapsing into one giant clique.
Genuine cycles are still possible in adversarial corpora, so the
planner condenses strongly connected components first (arbitrary, but
stable, order inside an SCC) and is therefore cycle-safe by
construction.

Scheduling is a pure perf lever: analysis is deterministic given
(source, options) and cached summaries are bit-identical to recomputed
ones, so the verdicts of a topology-scheduled run are identical to an
arbitrary-order run (property-tested in
``tests/property/test_prop_schedule.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..dataflow.context import AnalysisOptions
from ..fortran.callgraph import build_call_graph
from ..fortran.parser import parse_program
from ..fortran.semantics import analyze
from ..perf.metrics import KEEP, MetricGroup
from .cache import fingerprint_program

#: recognized --schedule spellings
SCHEDULE_MODES = ("auto", "topo", "arbitrary")


@dataclass
class ItemTopology:
    """Provider/consumer fingerprints of one batch item."""

    #: fingerprints of units with no in-item caller (analyzed standalone)
    provides: frozenset[str] = frozenset()
    #: fingerprints of units some other in-item unit calls
    consumes: frozenset[str] = frozenset()
    #: True when the item could not be parsed/fingerprinted (isolated)
    opaque: bool = False


@dataclass
class ScheduleStats(MetricGroup):
    """The scheduler's counters: the telemetry ``sched`` group."""

    #: "topo" or "arbitrary"
    mode: str = field(default="arbitrary", metadata=KEEP)
    #: inter-item provider→consumer edges discovered
    edges: int = 0
    #: items that wait on at least one provider
    gated_items: int = 0
    #: items living inside multi-item SCCs (ordered arbitrarily there)
    cyclic_items: int = 0
    #: items that could not be fingerprinted (scheduled, ungated)
    opaque_items: int = 0
    #: cache hits landed by gated items once their providers finalized
    #: (filled by the engine after the run: the plan's payoff)
    topo_hits: int = 0


@dataclass
class SchedulePlan(ScheduleStats):
    """A dispatch order plus the dependency structure behind it."""

    #: item indices in dispatch order (covers every item exactly once)
    order: list[int] = field(default_factory=list)
    #: per-item indices that should finalize first (cross-SCC only, so
    #: gating on them can never deadlock)
    deps: dict[int, set[int]] = field(default_factory=dict)


def item_topology(
    source: str, options: AnalysisOptions, sizes: Mapping[str, int] | None = None
) -> ItemTopology:
    """Fingerprint one item's units and split provider/consumer sets.

    Runs only the cheap front of the pipeline (parse, symbol tables,
    call graph) — no dataflow analysis.  Unparseable sources come back
    ``opaque`` and are scheduled without constraints; the analysis
    proper will produce the real (typed) error for them.
    """
    del sizes  # problem sizes don't enter fingerprints
    try:
        analyzed = analyze(parse_program(source))
        call_graph = build_call_graph(analyzed)
        fps = fingerprint_program(analyzed.program, call_graph, options)
    except Exception:
        return ItemTopology(opaque=True)
    called: set[str] = set()
    for name in fps:
        called |= call_graph.calls(name)
    provides = frozenset(fps[n] for n in fps if n not in called)
    consumes = frozenset(fps[n] for n in fps if n in called)
    return ItemTopology(provides=provides, consumes=consumes)


def resolve_schedule_mode(
    mode: str,
    item_count: int,
    jobs: int,
    cache_dir: Optional[str],
) -> str:
    """Collapse ``auto`` to a concrete mode.

    Topology ordering only pays when warm summaries can actually flow
    between items: in-process runs share the memory tier, pool runs
    need a durable tier (``cache_dir``).  A pool with no cache directory
    has nothing to warm, so ordering would be pure overhead.
    """
    if mode not in SCHEDULE_MODES:
        raise ValueError(
            f"unknown schedule mode {mode!r} (expected one of {SCHEDULE_MODES})"
        )
    if mode != "auto":
        return mode
    if item_count < 2:
        return "arbitrary"
    if jobs <= 1 or cache_dir is not None:
        return "topo"
    return "arbitrary"


def plan_schedule(
    items: Sequence, options: AnalysisOptions, mode: str = "topo"
) -> SchedulePlan:
    """Plan the dispatch order for *items* (objects with ``.source``).

    ``arbitrary`` preserves input order with no gating.  ``topo``
    computes provider→consumer edges, condenses SCCs, and emits a
    stable topological order: ties (and members within an SCC) keep
    their input order, so the plan is deterministic for a given corpus.
    """
    n = len(items)
    if mode == "arbitrary" or n < 2:
        return SchedulePlan(order=list(range(n)), deps={i: set() for i in range(n)})

    topos = [item_topology(item.source, options) for item in items]

    # invert provides: fingerprint -> providing items
    providers: dict[str, list[int]] = {}
    for i, topo in enumerate(topos):
        for fp in topo.provides:
            providers.setdefault(fp, []).append(i)

    succ: dict[int, set[int]] = {i: set() for i in range(n)}
    pred: dict[int, set[int]] = {i: set() for i in range(n)}
    edges = 0
    for i, topo in enumerate(topos):
        for fp in topo.consumes:
            for j in providers.get(fp, ()):
                if j != i and i not in succ[j]:
                    succ[j].add(i)
                    pred[i].add(j)
                    edges += 1

    # Tarjan SCC condensation (iterative: corpora reach 10^4+ items)
    scc_of = _condense(succ, n)

    # stable topological sort of the condensation, tie-broken by the
    # smallest original index in each SCC so the plan is deterministic
    scc_members: dict[int, list[int]] = {}
    for i in range(n):
        scc_members.setdefault(scc_of[i], []).append(i)
    scc_pred: dict[int, set[int]] = {c: set() for c in scc_members}
    for j, outs in succ.items():
        for i in outs:
            if scc_of[j] != scc_of[i]:
                scc_pred[scc_of[i]].add(scc_of[j])
    indegree = {c: len(p) for c, p in scc_pred.items()}
    heap = [
        (min(scc_members[c]), c) for c, d in indegree.items() if d == 0
    ]
    heapq.heapify(heap)
    scc_succ: dict[int, set[int]] = {c: set() for c in scc_members}
    for j, outs in succ.items():
        for i in outs:
            if scc_of[j] != scc_of[i]:
                scc_succ[scc_of[j]].add(scc_of[i])
    order: list[int] = []
    while heap:
        _, c = heapq.heappop(heap)
        order.extend(sorted(scc_members[c]))
        for d in scc_succ[c]:
            indegree[d] -= 1
            if indegree[d] == 0:
                heapq.heappush(heap, (min(scc_members[d]), d))

    deps = {
        i: {j for j in pred[i] if scc_of[j] != scc_of[i]} for i in range(n)
    }
    return SchedulePlan(
        order=order,
        deps=deps,
        mode="topo",
        edges=edges,
        gated_items=sum(1 for d in deps.values() if d),
        cyclic_items=sum(
            len(m) for m in scc_members.values() if len(m) > 1
        ),
        opaque_items=sum(1 for t in topos if t.opaque),
    )


def _condense(succ: dict[int, set[int]], n: int) -> list[int]:
    """Iterative Tarjan: node index -> SCC id."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    scc_of = [-1] * n
    counter = 0
    sccs = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            outs = sorted(succ[v])
            for k in range(pi, len(outs)):
                w = outs[k]
                if index_of[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index_of[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc_of[w] = sccs
                    if w == v:
                        break
                sccs += 1
    return scc_of
