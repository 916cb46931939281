"""Span arithmetic and the outside-in wrappers."""

import pytest
import repro.driver.panorama as panorama
from repro import Panorama
from repro.kernels import KERNELS

from layers import span_shares, span_summary
from tracing import BOUNDARIES, Tracer, reindex, self_times


def span(name, start, end, parent, unit):
    return [name, start, end, parent, unit, None]


# compile 0..10 holds parse 1..4 and classify 5..9; parse holds build
# 2..3; a second compile 11..12 is its own unit
TREE = [
    span("driver.compile", 0.0, 10.0, -1, 0),
    span("fortran.parse", 1.0, 4.0, 0, 0),
    span("hsg.build", 2.0, 3.0, 1, 0),
    span("parallelize.classify", 5.0, 9.0, 0, 0),
    span("driver.compile", 11.0, 12.0, -1, 4),
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(TREE) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_span_summary_coverage_and_frontend():
    summary = span_summary(TREE)
    # roots are glue: covered = parse 2 + build 1 + classify 4
    assert summary["covered"] == 7.0
    assert summary["compile"] == 11.0
    assert summary["frontend"] == 3.0
    assert summary["self"]["driver.compile"] == 4.0


def test_span_shares_self_and_whole_duration():
    shares = span_shares(TREE, "driver.compile", {
        "parse": ("fortran.parse",),
        "parse_whole": ("fortran.parse+",),
        "classify": ("parallelize.classify",),
    })
    # compile spans total 11; parse self 2, whole 3; classify 4
    assert shares == pytest.approx(
        {"parse": 2 / 11, "parse_whole": 3 / 11, "classify": 4 / 11})


def test_reindex_drops_spans_and_renumbers_parents():
    kept = reindex(TREE, lambda s: s[0] != "fortran.parse")
    assert [s[0] for s in kept] == [
        "driver.compile", "hsg.build", "parallelize.classify", "driver.compile"]
    assert [s[3] for s in kept] == [-1, -1, 0, -1]
    assert [s[4] for s in kept] == [0, 0, 0, 3]


def test_tracer_records_nested_spans_and_restores_originals():
    original = panorama.parse_program
    kernel = KERNELS[0]
    tracer = Tracer()
    tracer.install()
    try:
        assert panorama.parse_program is not original
        Panorama(sizes=kernel.sizes).compile(kernel.source)
    finally:
        tracer.uninstall()
    assert panorama.parse_program is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "driver.compile"
    assert {"fortran.parse", "hsg.build", "parallelize.classify"} <= set(names)
    root = tracer.spans[0]
    assert all(s[3] >= 0 for s in tracer.spans[1:])
    assert all(s[4] == 0 for s in tracer.spans)
    assert all(root[1] <= s[1] <= s[2] <= root[2] for s in tracer.spans)
    assert sum(self_times(tracer.spans)) == pytest.approx(root[2] - root[1])


def test_units_follow_items_not_batch_runs():
    from repro.engine.batch import BatchEngine, BatchItem

    items = [BatchItem(name=k.loop_id, source=k.source, sizes=k.sizes)
             for k in KERNELS[:2]]
    tracer = Tracer()
    tracer.install()
    try:
        BatchEngine(jobs=1).run(items)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    items_at = [i for i, s in enumerate(spans) if s[0] == "engine.item"]
    assert len(items_at) == 2 and spans[0][0] == "engine.run"
    for i, s in enumerate(spans):
        owner = max((j for j in items_at if j <= i and s[2] <= spans[j][2]),
                    default=0)
        assert s[4] == owner, s


def test_every_boundary_site_is_wrapped():
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = len(tracer._saved)
    finally:
        tracer.uninstall()
    assert wrapped == sum(len(sites) for sites in BOUNDARIES.values())
