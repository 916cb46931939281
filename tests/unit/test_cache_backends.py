"""Unit tests for the pluggable durable cache tiers (engine/backends.py).

Covers backend selection (arg, env, factory errors), disk-layout
compatibility with pre-split caches, the shared SQLite tier under
concurrent writer processes, corrupt-row quarantine, and contention
accounting.
"""

from __future__ import annotations

import multiprocessing
import os
import sqlite3

import pytest

from repro.engine import (
    CACHE_FORMAT_VERSION,
    CacheStats,
    RoutineCacheEntry,
    SummaryCache,
)
from repro.engine.backends import (
    BACKEND_KINDS,
    DiskBackend,
    SharedSQLiteBackend,
    make_backend,
)


def fp(i: int) -> str:
    return f"{i:064x}"


def entry(i: int) -> RoutineCacheEntry:
    return RoutineCacheEntry(fingerprint=fp(i), routine=f"r{i}")


# --------------------------------------------------------------------------- #
# selection
# --------------------------------------------------------------------------- #


class TestSelection:
    def test_memory_only_without_cache_dir(self):
        assert make_backend("shared", None) is None
        assert SummaryCache().backend_name == "memory"

    def test_kind_argument_wins(self, tmp_path):
        assert isinstance(make_backend("disk", tmp_path), DiskBackend)
        assert isinstance(make_backend("shared", tmp_path), SharedSQLiteBackend)

    def test_default_is_disk(self, tmp_path):
        assert isinstance(make_backend(None, tmp_path), DiskBackend)
        assert SummaryCache(tmp_path).backend_name == "disk"

    def test_unknown_kind_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown cache backend"):
            make_backend("memcached", tmp_path)

    def test_kinds_are_wired_everywhere(self):
        assert set(BACKEND_KINDS) == {"disk", "shared"}

    def test_backend_instance_accepted(self, tmp_path):
        backend = SharedSQLiteBackend(tmp_path)
        cache = SummaryCache(tmp_path, backend=backend)
        assert cache.backend is backend
        assert backend.stats is cache.stats  # rebound to the cache's sink


# --------------------------------------------------------------------------- #
# disk tier compatibility
# --------------------------------------------------------------------------- #


class TestDiskCompatibility:
    def test_pre_split_layout_still_readable(self, tmp_path):
        """A cache directory written before the backend split (same v3
        container format) must be served verbatim by DiskBackend."""
        old = SummaryCache(tmp_path, backend="disk")
        old.put(entry(1))
        path = old._path(fp(1))
        assert path is not None and path.exists()
        assert path.parent.name == fp(1)[:2]  # unchanged sharding

        fresh = SummaryCache(tmp_path, backend="disk")
        got = fresh.get(fp(1))
        assert got is not None and got.routine == "r1"
        assert fresh.stats.disk_hits == 1

    def test_backends_share_the_fingerprint_keyspace(self, tmp_path):
        """Switching backends relocates entries, never invalidates keys:
        the same fingerprint round-trips through either tier."""
        disk = SummaryCache(tmp_path / "d", backend="disk")
        shared = SummaryCache(tmp_path / "s", backend="shared")
        disk.put(entry(7))
        shared.put(entry(7))
        disk.clear_memory()
        shared.clear_memory()
        a, b = disk.get(fp(7)), shared.get(fp(7))
        assert a is not None and b is not None
        assert a.fingerprint == b.fingerprint == fp(7)


# --------------------------------------------------------------------------- #
# the shared SQLite tier
# --------------------------------------------------------------------------- #


class TestSharedBackend:
    def test_roundtrip_and_counters(self, tmp_path):
        stats = CacheStats()
        backend = SharedSQLiteBackend(tmp_path, stats)
        backend.put(entry(3))
        assert backend.contains(fp(3))
        assert not backend.contains(fp(4))
        got = backend.get(fp(3))
        assert got is not None and got.routine == "r3"
        assert stats.shared_hits == 1
        assert backend.get(fp(4)) is None
        assert stats.shared_misses == 1

    def test_upsert_overwrites(self, tmp_path):
        backend = SharedSQLiteBackend(tmp_path)
        backend.put(entry(5))
        richer = entry(5)
        richer.routine = "renamed"
        backend.put(richer)
        assert backend.entry_count() == 1
        assert backend.get(fp(5)).routine == "renamed"

    def test_corrupt_payload_quarantined(self, tmp_path):
        stats = CacheStats()
        backend = SharedSQLiteBackend(tmp_path, stats)
        backend.put(entry(9))
        conn = sqlite3.connect(backend.db_path)
        conn.execute(
            "UPDATE summaries SET payload = ? WHERE fingerprint = ?",
            (b"\x00garbage", fp(9)),
        )
        conn.commit()
        conn.close()
        assert backend.get(fp(9)) is None  # never served
        assert stats.quarantined == 1
        assert backend.quarantined_rows() == [(fp(9), "checksum")]
        assert backend.entry_count() == 0  # removed from the live table
        assert backend.get(fp(9)) is None  # and not re-quarantined
        assert stats.quarantined == 1

    def test_wrong_version_quarantined(self, tmp_path):
        import hashlib
        import pickle

        stats = CacheStats()
        backend = SharedSQLiteBackend(tmp_path, stats)
        payload = pickle.dumps((CACHE_FORMAT_VERSION + 1, entry(11)))
        digest = hashlib.sha256(payload).digest()
        conn = sqlite3.connect(backend.db_path)
        backend._connection()  # create schema
        conn.execute(
            "INSERT INTO summaries (fingerprint, digest, payload, stored_at)"
            " VALUES (?, ?, ?, 0)",
            (fp(11), digest, payload),
        )
        conn.commit()
        conn.close()
        assert backend.get(fp(11)) is None
        assert backend.quarantined_rows() == [(fp(11), "version")]

    def test_contention_retry_counted(self, tmp_path):
        stats = CacheStats()
        backend = SharedSQLiteBackend(
            tmp_path, stats, max_retries=3, retry_sleep_s=0.0
        )
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert backend._with_retry(flaky) == "ok"
        assert stats.contention_retries == 2
        assert stats.disk_errors == 0

    def test_exhausted_retries_degrade_not_raise(self, tmp_path):
        stats = CacheStats()
        backend = SharedSQLiteBackend(
            tmp_path, stats, max_retries=2, retry_sleep_s=0.0
        )

        def always_locked():
            raise sqlite3.OperationalError("database is locked")

        assert backend._with_retry(always_locked, default="d") == "d"
        assert stats.contention_retries == 2
        assert stats.disk_errors == 1

    def test_pickles_without_connection(self, tmp_path):
        import pickle

        backend = SharedSQLiteBackend(tmp_path)
        backend.put(entry(13))  # opens the handle
        clone = pickle.loads(pickle.dumps(backend))
        assert clone._conn is None
        assert clone.get(fp(13)) is not None  # reopens lazily

    def test_close_then_reuse(self, tmp_path):
        backend = SharedSQLiteBackend(tmp_path)
        backend.put(entry(15))
        backend.close()
        assert backend.get(fp(15)) is not None


def _writer(cache_dir: str, base: int, count: int) -> None:
    backend = SharedSQLiteBackend(cache_dir, retry_sleep_s=0.001)
    for i in range(base, base + count):
        backend.put(
            RoutineCacheEntry(fingerprint=f"{i:064x}", routine=f"r{i}")
        )
    backend.close()
    os._exit(0)


class TestConcurrentWriters:
    def test_n_processes_one_database(self, tmp_path):
        """Four writer processes race on one tier; every row must land
        and verify (WAL + busy retries absorb the contention)."""
        writers, per = 4, 25
        procs = [
            multiprocessing.Process(
                target=_writer, args=(str(tmp_path), w * per, per)
            )
            for w in range(writers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        backend = SharedSQLiteBackend(tmp_path)
        assert backend.entry_count() == writers * per
        for i in range(writers * per):
            got = backend.get(f"{i:064x}")
            assert got is not None and got.routine == f"r{i}"
        assert backend.quarantined_rows() == []


# --------------------------------------------------------------------------- #
# quarantine growth cap
# --------------------------------------------------------------------------- #


def corrupt_disk_entry(backend: DiskBackend, i: int) -> None:
    path = backend.path(fp(i))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"not a cache container")


class TestQuarantineCap:
    def test_disk_quarantine_evicts_oldest_beyond_cap(self, tmp_path):
        from repro.resilience import CircuitBreaker

        backend = DiskBackend(
            tmp_path,
            quarantine_cap=3,
            # a lenient breaker: this test is about the cap, and six
            # consecutive corrupt reads would trip the default breaker
            breaker=CircuitBreaker(failure_threshold=1000),
        )
        for i in range(6):
            corrupt_disk_entry(backend, i)
            assert backend.get(fp(i)) is None
        qdir = tmp_path / "quarantine"
        kept = [p for p in qdir.iterdir() if p.is_file()]
        assert len(kept) == 3
        assert backend.stats.quarantined == 6
        assert backend.stats.quarantine_evicted == 3

    def test_shared_quarantine_table_capped(self, tmp_path):
        from repro.resilience import CircuitBreaker

        backend = SharedSQLiteBackend(
            tmp_path,
            quarantine_cap=2,
            breaker=CircuitBreaker(failure_threshold=1000),
        )
        conn = backend._connection()
        for i in range(5):
            conn.execute(
                "INSERT INTO summaries (fingerprint, digest, payload,"
                " stored_at) VALUES (?, zeroblob(32), ?, 0)",
                (fp(i), b"garbage"),
            )
            assert backend.get(fp(i)) is None  # verification fails
        assert len(backend.quarantined_rows()) == 2
        assert backend.stats.quarantined == 5
        assert backend.stats.quarantine_evicted == 3
        # newest evidence survives, oldest was dropped
        kept = {row[0] for row in backend.quarantined_rows()}
        assert kept == {fp(3), fp(4)}


# --------------------------------------------------------------------------- #
# circuit breaker integration
# --------------------------------------------------------------------------- #


class TestBackendBreaker:
    @pytest.fixture(autouse=True)
    def clean_faults(self, monkeypatch):
        from repro.resilience import faults

        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.reset()
        yield monkeypatch
        faults.reset()

    def test_persistent_busy_trips_then_short_circuits(
        self, clean_faults, tmp_path
    ):
        from repro.resilience import CircuitBreaker, faults

        clean_faults.setenv(faults.ENV_VAR, "backend.busy")
        faults.reset()
        backend = SharedSQLiteBackend(
            tmp_path,
            max_retries=1,
            retry_sleep_s=0.0,
            breaker=CircuitBreaker(failure_threshold=3, probe_after=4, seed=0),
        )
        for _ in range(3):  # three busy-exhausted ops trip the breaker
            assert backend.contains(fp(1)) is False
        assert backend.stats.breaker_trips == 1
        before = backend.stats.disk_errors
        backend.contains(fp(1))  # short-circuited: no retry ladder runs
        assert backend.stats.breaker_skipped == 1
        assert backend.stats.disk_errors == before

    def test_probe_recovery_reenables_shared_tier(
        self, clean_faults, tmp_path
    ):
        from repro.resilience import CircuitBreaker, faults

        # exactly three busy faults, then the database is healthy again
        clean_faults.setenv(
            faults.ENV_VAR,
            "backend.busy@1;backend.busy@2;backend.busy@3",
        )
        faults.reset()
        backend = SharedSQLiteBackend(
            tmp_path,
            max_retries=1,
            retry_sleep_s=0.0,
            breaker=CircuitBreaker(failure_threshold=3, probe_after=2, seed=0),
        )
        backend.put(entry(7))  # dropped: ops 1..3 fail and trip
        backend.put(entry(7))
        backend.put(entry(7))
        assert backend.stats.breaker_trips == 1
        # short-circuit window, then the half-open probe succeeds
        got = None
        for _ in range(20):
            got = backend.get(fp(7))
            if backend.stats.breaker_recoveries:
                break
        assert backend.stats.breaker_recoveries == 1
        assert backend.stats.breaker_skipped >= 1
        # recovered for real: a store now lands durably
        backend.put(entry(8))
        assert backend.get(fp(8)) is not None

    def test_read_write_fault_sites_degrade_not_raise(
        self, clean_faults, tmp_path
    ):
        from repro.resilience import faults

        backend = SharedSQLiteBackend(tmp_path)
        backend.put(entry(1))
        clean_faults.setenv(
            faults.ENV_VAR, f"backend.read:{fp(1)[:12]}@1"
        )
        faults.reset()
        assert backend.get(fp(1)) is None  # injected read error = miss
        assert backend.stats.disk_errors >= 1
        assert backend.get(fp(1)) is not None  # next read is healthy

        clean_faults.setenv(faults.ENV_VAR, f"backend.write:{fp(2)[:12]}")
        faults.reset()
        backend.put(entry(2))  # dropped store, no exception
        assert backend.get(fp(2)) is None
        assert backend.entry_count() == 1
