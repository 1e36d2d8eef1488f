"""Tests for the shared artifact plane behind the pre-fork fleet.

Covers the raw-buffer arena trace format (round-trips, digest identity
with the pickle format, mmap aliasing with read-only maps asserted),
the zero-copy allocation guard, the multi-writer duplicate-write
counter, store-generation invalidation of resident engine LRUs, the
queue-debris prune, and the per-worker identity the server stamps on
every response.
"""

from __future__ import annotations

import os
import time
from collections import Counter

import numpy as np
import pytest

import repro.workloads.engine as engine_mod
from repro.experiments.store import SCHEMA_VERSION, ProfileStore
from repro.lru import LRUCache
from repro.service.client import ServiceClient
from repro.service.engine import PredictionEngine
from repro.service.server import BackgroundServer
from repro.workloads import kernels as k
from repro.workloads.builder import WorkloadBuilder
from repro.workloads.engine import (
    is_arena_payload,
    load_trace_arena,
    pack_trace,
    pack_trace_arena,
    unpack_trace,
)
from repro.workloads.spec import EpochSpec


@pytest.fixture()
def store(tmp_path):
    return ProfileStore(tmp_path / "cache")


def _epoch(n: int) -> EpochSpec:
    return EpochSpec(
        n=n,
        mix=dict(k.GENERIC),
        mean_dep=3.0,
        branch=k.BR_BIASED,
        mem=(k.working_set(256, hot_lines=256, hot_frac=1.0),),
        code_region=1,
    )


def _trace(n: int):
    """Two-thread barrier workload: same *structure* at every ``n``."""
    b = WorkloadBuilder("fleet.alloc", 2, seed=7)
    b.spawn_workers(_epoch(n))
    b.barrier_phases(2, _epoch(n))
    return engine_mod.expand(b.join_all(final_spec=_epoch(n // 2)))


def _first_block(trace):
    for t in trace.threads:
        for seg in t.segments:
            if seg.block.n_instructions:
                return seg.block
    raise AssertionError("trace has no non-empty block")


class TestArenaFormat:
    def test_round_trip_digest_identity(self, small_trace):
        meta, back = load_trace_arena(pack_trace_arena(small_trace))
        assert back.content_digest() == small_trace.content_digest()
        assert meta == {}

    def test_digest_identity_with_pickle_format(self, small_trace):
        """Arena and pickle-columnar loads are bit-identical."""
        _, via_arena = load_trace_arena(pack_trace_arena(small_trace))
        via_pickle = unpack_trace(pack_trace(small_trace))
        assert (
            via_arena.content_digest() == via_pickle.content_digest()
        )

    def test_meta_rides_along_verbatim(self, small_trace):
        meta = {"schema": SCHEMA_VERSION, "digest": "abc"}
        got, _ = load_trace_arena(
            pack_trace_arena(small_trace, meta=meta)
        )
        assert got == meta

    def test_magic_detection(self, small_trace):
        assert is_arena_payload(pack_trace_arena(small_trace))
        assert not is_arena_payload(b"\x80\x05not an arena")

    def test_bad_magic_raises(self):
        with pytest.raises(ValueError):
            load_trace_arena(b"NOTARENA" + b"\x00" * 64)

    def test_truncation_raises(self, small_trace):
        buf = pack_trace_arena(small_trace)
        with pytest.raises(ValueError):
            load_trace_arena(buf[: len(buf) - 129])
        with pytest.raises(ValueError):
            load_trace_arena(buf[:12])

    def test_columns_are_views_over_the_buffer(self, small_trace):
        _, back = load_trace_arena(pack_trace_arena(small_trace))
        block = _first_block(back)
        for name in ("op", "dep", "addr", "taken", "iline"):
            arr = getattr(block, name)
            assert not arr.flags["OWNDATA"]
            # ``bytes`` buffers are immutable, so views over them must
            # come out read-only — same contract as the mmap path.
            assert not arr.flags["WRITEABLE"]

    def test_columns_are_64_byte_aligned_in_the_buffer(
        self, small_trace
    ):
        """Column starts sit at 64-byte file offsets, so an mmap (page
        -aligned by the kernel) yields 64-byte-aligned arrays."""
        buf = pack_trace_arena(small_trace)
        base = np.frombuffer(buf, dtype=np.uint8).ctypes.data
        _, back = load_trace_arena(buf)
        first = back.threads[0].segments[0].block
        for name in ("op", "dep", "addr", "taken", "iline"):
            arr = getattr(first, name)
            if arr.size:
                assert (arr.ctypes.data - base) % 64 == 0


class _CountingNumpy:
    """``numpy`` proxy counting array-constructing calls by name.

    Mirrors the fused-ILP regression guard: functions that *copy data
    into fresh arrays* are the allocation proxy.  ``frombuffer`` is
    deliberately absent — it is the zero-copy view the arena loader is
    allowed (required) to use.
    """

    CONSTRUCTORS = frozenset({
        "zeros", "empty", "ones", "full", "arange", "array",
        "asarray", "ascontiguousarray", "concatenate", "stack",
        "copy", "zeros_like", "empty_like", "ones_like", "full_like",
    })

    def __init__(self, real):
        object.__setattr__(self, "real", real)
        object.__setattr__(self, "calls", Counter())

    def __getattr__(self, name):
        attr = getattr(self.real, name)
        if callable(attr) and not isinstance(attr, type):
            calls = self.calls

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return attr(*args, **kwargs)

            return wrapped
        return attr

    def constructor_calls(self) -> Counter:
        return Counter({
            name: count
            for name, count in self.calls.items()
            if name in self.CONSTRUCTORS
        })


class TestZeroCopyLoad:
    """The arena load path must not copy column data — guarded by an
    allocation counter so a regression to copying loads fails loudly,
    not slowly."""

    def _count_load(self, buf, monkeypatch) -> Counter:
        proxy = _CountingNumpy(np)
        monkeypatch.setattr(engine_mod, "np", proxy)
        _, trace = load_trace_arena(buf)
        # Touch the columns so lazy paths (if any appeared) would run
        # under the proxy too.
        _first_block(trace).op[:1]
        return proxy.constructor_calls()

    def test_load_makes_zero_copying_calls(self, monkeypatch):
        buf = pack_trace_arena(_trace(400))
        assert self._count_load(buf, monkeypatch) == Counter()

    def test_allocation_count_independent_of_trace_size(
        self, monkeypatch
    ):
        """Quadrupling the instruction count must not add a single
        array-constructing call on load."""
        small = self._count_load(
            pack_trace_arena(_trace(400)), monkeypatch
        )
        big = self._count_load(
            pack_trace_arena(_trace(1600)), monkeypatch
        )
        assert big == small


class TestMmapAliasing:
    KEY = "ab" * 32

    def test_store_load_is_readonly_view(self, store, small_trace):
        store.save_trace(self.KEY, small_trace)
        loaded = store.load_trace(self.KEY)
        assert loaded is not None
        block = _first_block(loaded)
        assert not block.op.flags["WRITEABLE"]
        assert not block.op.flags["OWNDATA"]

    def test_mutating_a_view_cannot_corrupt_the_mapping(
        self, store, small_trace
    ):
        """The aliasing contract: N processes share the page-cache
        copy, so a consumer scribbling on a view must raise instead of
        corrupting what everyone else mapped."""
        store.save_trace(self.KEY, small_trace)
        first = store.load_trace(self.KEY)
        block = _first_block(first)
        with pytest.raises((ValueError, OSError)):
            block.op[0] = 255
        second = store.load_trace(self.KEY)
        assert (
            second.content_digest() == small_trace.content_digest()
        )

    def test_corrupt_arena_quarantined(self, store, small_trace):
        path = store.save_trace(self.KEY, small_trace)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one column byte: digest must catch it
        path.write_bytes(bytes(raw))
        assert store.load_trace(self.KEY) is None
        assert store.health()["quarantined"] == 1


class TestDuplicateWrites:
    def test_duplicate_publish_is_counted(self, store, small_trace):
        store.save_trace("ab" * 32, small_trace)
        store.save_trace("ab" * 32, small_trace)
        health = store.health()
        assert health["writes"] == 2
        assert health["duplicate_writes"] == 1

    def test_distinct_keys_are_not_duplicates(self, store, small_trace):
        store.save_trace("ab" * 32, small_trace)
        store.save_trace("cd" * 32, small_trace)
        assert store.health()["duplicate_writes"] == 0


class TestGenerationStamp:
    def test_unstamped_store_reads_zero(self, store):
        assert store.generation() == 0

    def test_bump_is_monotonic(self, store):
        assert store.bump_generation() == 1
        assert store.bump_generation() == 2
        assert store.generation() == 2

    def test_health_exposes_generation(self, store):
        store.bump_generation()
        assert store.health()["generation"] == 1

    def test_artifact_prune_bumps_generation(self, store, small_trace):
        store.save_trace("ab" * 32, small_trace)
        store.prune()
        assert store.generation() == 1

    def test_empty_prune_does_not_bump(self, store):
        store.prune()
        assert store.generation() == 0

    def test_queue_prune_does_not_bump(self, store):
        done = store.root / "queue" / "done"
        done.mkdir(parents=True)
        marker = done / "abc.json"
        marker.write_text("{}")
        old = time.time() - 7200
        os.utime(marker, (old, old))
        out = store.prune(kinds=["queue"], older_than_s=3600)
        assert out["queue/done"]["removed"] == 1
        # Queue debris is coordination state, not artifacts: nothing
        # resident derives from it, so no invalidation.
        assert store.generation() == 0


class TestEngineInvalidation:
    def _stale(self, engine):
        """Push the engine's TTL throttle into the past so the next
        check actually consults the store."""
        engine._gen_checked_at = time.monotonic() - 10.0

    def test_bump_drops_resident_caches(self, store):
        engine = PredictionEngine(store=store)
        engine.results.put("k", "v")
        engine._profiles.put("p", ("label", object()))
        store.bump_generation()
        self._stale(engine)
        engine._check_generation()
        assert engine.results.get("k") is None
        assert engine._profiles.get("p") is None
        assert engine.stats.invalidations == 1

    def test_check_is_ttl_throttled(self, store):
        engine = PredictionEngine(store=store)
        engine.results.put("k", "v")
        store.bump_generation()
        # Within the TTL the check is a no-op by design — one stat()
        # per request would put the store on the hot path.
        engine._check_generation()
        assert engine.results.get("k") == "v"
        self._stale(engine)
        engine._check_generation()
        assert engine.results.get("k") is None

    def test_same_generation_is_not_an_invalidation(self, store):
        engine = PredictionEngine(store=store)
        engine.results.put("k", "v")
        self._stale(engine)
        engine._check_generation()
        assert engine.results.get("k") == "v"
        assert engine.stats.invalidations == 0

    def test_storeless_engine_never_invalidates(self):
        engine = PredictionEngine(store=None)
        engine.results.put("k", "v")
        engine._check_generation()
        assert engine.results.get("k") == "v"


class TestQueuePrune:
    @pytest.fixture()
    def qroot(self, store):
        root = store.root / "queue"
        for sub in ("jobs", "leases", "done", "events"):
            (root / sub).mkdir(parents=True)
        return root

    @staticmethod
    def _age(path, seconds):
        old = time.time() - seconds
        os.utime(path, (old, old))

    def test_aged_done_markers_swept(self, store, qroot):
        old = qroot / "done" / "aged.json"
        old.write_text("{}")
        self._age(old, 7200)
        fresh = qroot / "done" / "fresh.json"
        fresh.write_text("{}")
        out = store.prune_queue(older_than_s=3600)
        assert out["queue/done"]["removed"] == 1
        assert not old.exists()
        assert fresh.exists()

    def test_orphaned_lease_swept(self, store, qroot):
        orphan = qroot / "leases" / "deadkey.lease"
        orphan.write_text("{}")
        self._age(orphan, 7200)
        out = store.prune_queue(older_than_s=3600)
        assert out["queue/leases"]["removed"] == 1
        assert not orphan.exists()

    def test_lease_with_live_job_kept(self, store, qroot):
        (qroot / "jobs" / "p5-livekey.json").write_text("{}")
        lease = qroot / "leases" / "livekey.lease"
        lease.write_text("{}")
        self._age(lease, 7200)
        out = store.prune_queue(older_than_s=3600)
        assert out["queue/leases"]["removed"] == 0
        assert lease.exists()

    def test_young_orphan_lease_survives_min_age_guard(
        self, store, qroot
    ):
        """A just-acquired lease whose job file we raced must never be
        swept — the guard is one full lease period, not the caller's
        (possibly zero) cutoff."""
        orphan = qroot / "leases" / "racing.lease"
        orphan.write_text("{}")
        out = store.prune_queue(older_than_s=0)
        assert out["queue/leases"]["removed"] == 0
        assert orphan.exists()

    def test_aged_tmp_debris_swept(self, store, qroot):
        tmp = qroot / "jobs" / "p5-k.json.tmp-owner-123"
        tmp.write_text("{}")
        self._age(tmp, 7200)
        out = store.prune_queue()
        assert out["queue/tmp"]["removed"] == 1
        assert not tmp.exists()

    def test_dry_run_removes_nothing(self, store, qroot):
        old = qroot / "done" / "aged.json"
        old.write_text("{}")
        self._age(old, 7200)
        out = store.prune_queue(older_than_s=3600, dry_run=True)
        assert out["queue/done"]["removed"] == 1
        assert old.exists()

    def test_stats_count_queue_debris(self, store, qroot):
        (qroot / "done" / "a.json").write_text("{}")
        stats = store.stats()
        assert stats["queue/done"]["artifacts"] == 1


class TestWorkerIdentity:
    def test_response_header_and_client_capture(self):
        engine = PredictionEngine(store=None)
        with BackgroundServer(engine=engine, worker_id=7) as srv:
            with ServiceClient(port=srv.port) as client:
                assert client.last_worker_id is None
                health = client.healthz()
                assert health["worker_id"] == 7
                assert client.last_worker_id == "7"
                metrics = client.metrics()
        assert 'repro_worker_requests_total{worker="7"}' in metrics


class TestLRUClear:
    def test_clear_drops_entries_keeps_stats(self):
        cache = LRUCache(maxsize=8)
        for i in range(3):
            cache.put(i, i)
        assert cache.get(0) == 0
        assert cache.get(99) is None
        hits, misses = cache.hits, cache.misses
        assert cache.clear() == 3
        assert cache.items() == []
        assert cache.get(0) is None
        assert (cache.hits, cache.misses) == (hits, misses + 1)
        cache.put("x", "y")
        assert cache.get("x") == "y"
