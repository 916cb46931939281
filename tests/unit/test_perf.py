"""Unit tests for the profiling substrate (repro.perf.profiler)."""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import repro
import repro.regions  # noqa: F401  (registers the region-layer tables)
from repro.perf import profiler
from repro.perf.profiler import MISS, BoundedCache
from repro.symbolic import Monomial, Predicate, Relation, RelOp, SymExpr


def _cache(name: str, maxsize: int = 4) -> BoundedCache:
    # unregistered so tests cannot pollute the global registry
    return BoundedCache(name, maxsize=maxsize, register=False)


class TestBoundedCache:
    def test_miss_then_hit(self):
        c = _cache("t")
        assert c.get("k") is MISS
        c.put("k", 42)
        assert c.get("k") == 42
        assert (c.hits, c.misses) == (1, 1)

    def test_none_is_a_legitimate_value(self):
        c = _cache("t")
        c.put("k", None)
        assert c.get("k") is None
        assert c.hits == 1

    def test_put_returns_value(self):
        c = _cache("t")
        assert c.put("k", "v") == "v"

    def test_lru_eviction_order(self):
        c = _cache("t", maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")  # refresh a; b is now LRU
        c.put("c", 3)
        assert c.get("b") is MISS
        assert c.get("a") == 1
        assert c.get("c") == 3
        assert c.evictions == 1

    def test_clear_keeps_counters(self):
        c = _cache("t")
        c.put("a", 1)
        c.get("a")
        c.clear()
        assert len(c) == 0
        assert c.hits == 1
        assert c.get("a") is MISS

    def test_resize_evicts_down(self):
        c = _cache("t", maxsize=4)
        for i in range(4):
            c.put(i, i)
        c.resize(2)
        assert len(c) == 2
        assert c.evictions == 2
        # the most recently used entries survive
        assert c.get(3) == 3 and c.get(2) == 2

    def test_stats_shape(self):
        c = _cache("t")
        c.put("a", 1)
        c.get("a")
        c.get("b")
        assert c.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1,
        }


class TestRegistryAndSnapshot:
    def test_symbolic_caches_registered(self):
        names = set(profiler.caches())
        # the tentpole tables must all report through the registry
        for expected in (
            "monomial.intern",
            "symexpr.intern",
            "relation.intern",
            "comparer.prove",
            "fm.unsat",
            "predicate.intern",
            "disjunction.intern",
            "gar.intern",
        ):
            assert expected in names

    def test_snapshot_delta_is_flat_and_numeric(self):
        before = profiler.snapshot()
        # force some traffic
        SymExpr.var("snapshot_test") + 1
        after = profiler.snapshot()
        d = profiler.delta(before, after)
        assert all(isinstance(v, (int, float)) for v in d.values())
        assert all(isinstance(k, str) for k in d)
        # delta drops zero entries
        assert profiler.delta(after, after) == {}

    def test_counters_reset(self):
        profiler.COUNTERS.prove_calls += 5
        profiler.reset()
        assert profiler.COUNTERS.prove_calls == 0


class TestProbe:
    def test_probe_captures_only_scoped_activity(self):
        SymExpr.var("probe_warmup")  # traffic before the scope
        with profiler.probe() as pr:
            SymExpr.var("probe_scoped") * 2 + 1
        assert pr.delta  # the scoped expression work registered
        assert all(v > 0 for v in pr.delta.values())
        # keys are flat snapshot keys, subtractable and JSON-ready
        assert all(isinstance(k, str) for k in pr.delta)

    def test_quiet_scope_has_empty_delta(self):
        with profiler.probe() as pr:
            pass
        assert pr.delta == {}

    def test_finish_returns_and_stores(self):
        pr = profiler.probe()
        SymExpr.var("probe_finish") + 1
        returned = pr.finish()
        assert returned is pr.delta

    def test_probe_survives_exceptions(self):
        pr = profiler.probe()
        try:
            with pr:
                SymExpr.var("probe_exc") + 1
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert pr.delta  # __exit__ still closed the scope


class TestHitRate:
    def test_empty_slice_is_none_not_zero(self):
        assert profiler.hit_rate({}) is None
        assert profiler.hit_rate({"counter.prove_calls": 5}) is None

    def test_aggregates_across_caches(self):
        snap = {
            "cache.a.hits": 3.0,
            "cache.a.misses": 1.0,
            "cache.b.hits": 1.0,
            "cache.b.misses": 3.0,
            "cache.a.evictions": 99.0,  # not a lookup, ignored
            "counter.prove_calls": 7.0,  # wrong prefix, ignored
        }
        assert profiler.hit_rate(snap) == 0.5

    def test_prefix_narrows_the_slice(self):
        snap = {
            "cache.a.hits": 1.0,
            "cache.a.misses": 0.0,
            "cache.b.hits": 0.0,
            "cache.b.misses": 1.0,
        }
        assert profiler.hit_rate(snap, prefix="cache.a.") == 1.0
        assert profiler.hit_rate(snap, prefix="cache.b.") == 0.0

    def test_accepts_live_snapshot(self):
        SymExpr.var("hit_rate_traffic") + 1
        rate = profiler.hit_rate(profiler.snapshot())
        assert rate is not None and 0.0 <= rate <= 1.0


class TestTimers:
    def test_disabled_records_nothing(self):
        profiler.reset_timers()
        calls = []

        @profiler.timed("unit_test_phase")
        def work():
            calls.append(1)
            return 7

        profiler.disable()
        assert work() == 7
        assert "unit_test_phase" not in profiler.timers()

        profiler.enable()
        try:
            assert work() == 7
            t = profiler.timers()["unit_test_phase"]
            assert t["calls"] == 1 and t["seconds"] >= 0
        finally:
            profiler.disable()
            profiler.reset_timers()
        assert calls == [1, 1]


class TestInternedPickling:
    """Interned symbolic objects must unpickle through their interning
    constructors — never by mutating a shared instance's slots."""

    def test_monomial_roundtrip_is_interned(self):
        m = Monomial.var("i", 2) * Monomial.var("j")
        clone = pickle.loads(pickle.dumps(m))
        assert clone == m
        # same process, live intern table: identical object
        assert clone is Monomial(m.factors)

    def test_unit_monomial_not_corrupted(self):
        unit = Monomial.unit()
        factors_before = unit.factors
        pickle.loads(pickle.dumps(Monomial.var("k")))
        assert Monomial.unit().factors == factors_before == ()

    def test_symexpr_roundtrip(self):
        e = SymExpr.var("i") * 3 + SymExpr.var("j") - 7
        clone = pickle.loads(pickle.dumps(e))
        assert clone == e and hash(clone) == hash(e)

    def test_relation_roundtrip(self):
        r = Relation(SymExpr.var("i") - SymExpr.var("n"), RelOp.LE)
        clone = pickle.loads(pickle.dumps(r))
        assert clone == r and clone.op is r.op

    def test_predicate_roundtrip(self):
        p = Predicate.le("i", "n") & Predicate.ge("i", 1)
        clone = pickle.loads(pickle.dumps(p))
        assert clone == p

    def test_guard_algebra_roundtrip_is_interned(self):
        from repro.regions import GAR, Range, RegularRegion

        p = Predicate.le("i", "n") & Predicate.ge("i", 1)
        gar = GAR(p, RegularRegion("a", [Range("i", "n")]))
        for value in (p, next(iter(p.clauses)), gar, gar.region, gar.region.dims[0]):
            assert pickle.loads(pickle.dumps(value)) is value


_SRC = str(Path(repro.__file__).resolve().parents[1])

#: builds one value of every pickled guard-algebra type; run in fresh
#: interpreters so each side has its own string-hash seed
_BUILD = """
from repro.regions import GAR, GARList, Range, RegularRegion
from repro.symbolic import BoolAtom, Disjunction, Predicate, Relation

def build():
    guard = (Predicate.le("i", "n") & Predicate.ge("i", 1)) | Predicate.boolvar("p")
    region = RegularRegion("a", [Range("i", "n"), Range(1, "m", 2)])
    gar = GAR(guard, region)
    other = GAR(Predicate.boolvar("q", False), region, exact=False)
    return {
        "clause": Disjunction([Relation.le("i", "n"), BoolAtom("p")]),
        "tautology": Disjunction([Relation.le("i", "n"), Relation.gt("i", "n")]),
        "predicate": guard,
        "range": region.dims[1],
        "region": region,
        "gar": gar,
        "gar_list": GARList([gar, other]),
    }
"""

_WRITE = _BUILD + """
import pickle, sys
with open(sys.argv[1], "wb") as fh:
    pickle.dump(build(), fh)
"""

_CHECK = _BUILD + """
import json, pickle, sys
with open(sys.argv[1], "rb") as fh:
    loaded = pickle.load(fh)
fresh = build()
report = {}
for name, value in fresh.items():
    clone = loaded[name]
    report[name] = [clone == value, hash(clone) == hash(value), clone in {value}]
print(json.dumps(report))
"""


def _run(script: str, seed: int, *args: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=_SRC)
    out = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout


class TestCrossProcessPickling:
    """Pickled guards (the disk/shared summary tiers, ``--resume``) must
    equal freshly built ones in a process with another hash seed."""

    def test_guards_survive_a_hash_seed_change(self, tmp_path):
        path = str(tmp_path / "guards.pickle")
        _run(_WRITE, 1, path)
        report = json.loads(_run(_CHECK, 2, path))
        assert report == {name: [True, True, True] for name in report}
        assert len(report) == 7


_COUNT = """
import json
from repro import Panorama
from repro.kernels import KERNELS
from repro.perf import profiler

programs = {}
for k in KERNELS:
    programs.setdefault(k.program, (k.source, dict(k.sizes)))
profiler.reset()
for name in sorted(programs):
    profiler.clear_caches()
    source, sizes = programs[name]
    Panorama(sizes=sizes).compile(source)
print(json.dumps(profiler.COUNTERS.as_dict()))
"""


def test_registry_counters_do_not_depend_on_hash_seed():
    """Work counters (fm_eliminations included) over a cold registry pass
    are machine-independent regression signals: string hashing must not
    decide which Fourier–Motzkin systems get built."""
    first, second = (json.loads(_run(_COUNT, seed)) for seed in (1, 2))
    assert first == second
    assert first["fm_eliminations"] > 0
