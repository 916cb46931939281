"""The metrics vocabulary: each counter is declared once.

``AnalysisStats``, ``StageTimings`` and ``CacheStats`` are
:mod:`repro.perf.metrics` groups.  Every export and every fold is
derived from their ``dataclasses.fields``, so a new field must reach
each surface and merge by its declared rule without another edit.
These tests hold every surface to that: the per-item payload, the
engine roll-up, the campaign rollup and ``/v1/stats``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.dataflow.context import AnalysisStats
from repro.driver.panorama import Panorama, StageTimings
from repro.engine.cache import CacheStats
from repro.engine.campaign import merge_rollups
from repro.engine.telemetry import EngineTelemetry, result_to_dict
from repro.kernels.figure1 import FIGURE_1A, FIGURE_1B
from repro.perf import metrics
from repro.server.service import AnalysisService, ServerConfig

#: each group's attribute on EngineTelemetry (and key in its export)
GROUPS = {AnalysisStats: "stats", StageTimings: "timings", CacheStats: "cache"}
FIELDS = [(cls, f) for cls in GROUPS for f in dataclasses.fields(cls)]
IDS = [f"{cls.__name__}.{f.name}" for cls, f in FIELDS]


def merged(f: dataclasses.Field, a, b):
    """What folding *b* into *a* must give under *f*'s declared rule."""
    return max(a, b) if f.metadata.get("merge") == "max" else a + b


def two_groups(cls):
    """Two instances whose fields differ, so sum and max disagree."""
    names = [f.name for f in dataclasses.fields(cls)]
    first = cls(**{n: 3 + i for i, n in enumerate(names)})
    second = cls(**{n: 40 + i for i, n in enumerate(names)})
    return first, second


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """A disk-backed daemon after two requests, and their payloads."""
    service = AnalysisService(
        ServerConfig(cache_dir=str(tmp_path_factory.mktemp("cache")))
    )
    payloads = [service.analyze({"source": src}) for src in (FIGURE_1A, FIGURE_1B)]
    return service.stats(), payloads


@pytest.mark.parametrize("cls,f", FIELDS, ids=IDS)
def test_field_reaches_the_item_export(cls, f, daemon):
    if cls is CacheStats:  # per request: the summary-cache delta
        _, payloads = daemon
        assert f.name in payloads[0]["request"]["summary_cache"]
    else:
        payload = result_to_dict(Panorama().compile(FIGURE_1A))
        assert f.name in payload[GROUPS[cls]]


@pytest.mark.parametrize("cls,f", FIELDS, ids=IDS)
def test_engine_rollup_folds_by_declared_rule(cls, f):
    first, second = two_groups(cls)
    tele = EngineTelemetry()
    for group in (first, second):
        if cls is CacheStats:
            tele.note_cache(group)
        else:
            tele.note_result({GROUPS[cls]: metrics.as_dict(group)})
    got = tele.as_dict()[GROUPS[cls]][f.name]
    assert got == merged(f, getattr(first, f.name), getattr(second, f.name))


@pytest.mark.parametrize("cls,f", FIELDS, ids=IDS)
def test_campaign_rollup_folds_by_declared_rule(cls, f):
    shards = []
    for group in two_groups(cls):
        tele = EngineTelemetry()
        setattr(tele, GROUPS[cls], group)
        shards.append(tele.as_dict())
    got = merge_rollups(shards)[GROUPS[cls]][f.name]
    expected = merged(f, *(s[GROUPS[cls]][f.name] for s in shards))
    assert got == expected


@pytest.mark.parametrize("cls,f", FIELDS, ids=IDS)
def test_daemon_stats_fold_by_declared_rule(cls, f, daemon):
    stats, payloads = daemon
    if cls is CacheStats:  # lifetime counters = the per-request deltas
        got = stats["summary_cache"][f.name]
        parts = [p["request"]["summary_cache"][f.name] for p in payloads]
    else:
        got = stats["telemetry"][GROUPS[cls]][f.name]
        parts = [p[GROUPS[cls]][f.name] for p in payloads]
    assert got == pytest.approx(merged(f, *parts))


@pytest.mark.parametrize("cls", list(GROUPS), ids=lambda c: c.__name__)
def test_dict_form_round_trips_and_deltas(cls):
    first, second = two_groups(cls)
    assert metrics.from_dict(cls, metrics.as_dict(first)) == first
    total = metrics.fold(dataclasses.replace(first), second)
    assert metrics.delta(total, first) == dataclasses.replace(
        second,
        **{
            f.name: getattr(total, f.name)
            for f in dataclasses.fields(cls)
            if f.metadata.get("merge") == "max"
        },
    )
