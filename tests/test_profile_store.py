"""Tests for the on-disk profile store and the parallel run pipeline."""

from __future__ import annotations

import json

import pytest

from repro.arch.presets import table_iv_config
from repro.experiments.store import (
    SCHEMA_VERSION,
    ProfileStore,
    config_fingerprint,
    fingerprint,
)
from repro.experiments.suites import BenchmarkRef, RunCache


@pytest.fixture()
def store(tmp_path):
    return ProfileStore(tmp_path / "cache")


@pytest.fixture(scope="module")
def ref():
    return BenchmarkRef("rodinia", "nw")


@pytest.fixture(scope="module")
def base_cfg():
    return table_iv_config("base")


class TestFingerprint:
    def test_deterministic(self, base_cfg):
        assert config_fingerprint(base_cfg) == config_fingerprint(base_cfg)

    def test_distinguishes_configs(self, base_cfg):
        other = table_iv_config("base", cores=2)
        assert config_fingerprint(base_cfg) != config_fingerprint(other)

    def test_dict_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_profile_key_components(self):
        base = ProfileStore.profile_key("x", 1, 1.0, 4096)
        assert ProfileStore.profile_key("x", 2, 1.0, 4096) != base
        assert ProfileStore.profile_key("x", 1, 2.0, 4096) != base
        assert ProfileStore.profile_key("x", 1, 1.0, 512) != base


class TestProfileRoundTrip:
    def test_save_load(self, store, small_profile):
        key = ProfileStore.profile_key("test", 1, 1.0, 4096)
        store.save_profile(key, small_profile)
        loaded = store.load_profile(key)
        assert loaded is not None
        assert loaded.to_dict() == small_profile.to_dict()

    def test_missing_is_none(self, store):
        assert store.load_profile("0" * 64) is None

    def test_corrupt_is_none(self, store, small_profile):
        key = ProfileStore.profile_key("test", 1, 1.0, 4096)
        path = store.save_profile(key, small_profile)
        path.write_text("{ not json at all")
        assert store.load_profile(key) is None

    def test_truncated_is_none(self, store, small_profile):
        key = ProfileStore.profile_key("test", 1, 1.0, 4096)
        path = store.save_profile(key, small_profile)
        path.write_bytes(path.read_bytes()[: 40])
        assert store.load_profile(key) is None

    def test_stale_version_is_none(self, store, small_profile):
        key = ProfileStore.profile_key("test", 1, 1.0, 4096)
        path = store.save_profile(key, small_profile)
        payload = json.loads(path.read_text())
        payload["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert store.load_profile(key) is None


class TestRunCacheStore:
    SCALE = 0.15

    def test_second_cache_hits_disk(self, store, ref, monkeypatch):
        cache = RunCache(scale=self.SCALE, store=store)
        p1 = cache.profile(ref)

        # A fresh cache must satisfy the profile from disk without
        # recomputing.
        import repro.experiments.suites as suites_mod

        def boom(*a, **k):  # pragma: no cover - only on failure
            raise AssertionError("profile_workload should not run")

        monkeypatch.setattr(suites_mod, "profile_workload", boom)
        cache2 = RunCache(scale=self.SCALE, store=store)
        p2 = cache2.profile(ref)
        assert p2.to_dict() == p1.to_dict()

    def test_corrupt_entry_recomputes_and_heals(self, store, ref):
        cache = RunCache(scale=self.SCALE, store=store)
        p1 = cache.profile(ref)
        key = cache._profile_key(ref)
        store._path("profiles", key, "json").write_text("garbage")
        cache2 = RunCache(scale=self.SCALE, store=store)
        assert cache2.profile(ref).to_dict() == p1.to_dict()
        # The recompute re-saved a valid entry.
        assert store.load_profile(key) is not None

    def test_prediction_round_trip(self, store, ref, base_cfg):
        cache = RunCache(scale=self.SCALE, store=store)
        pred = cache.prediction(ref, base_cfg)
        cache2 = RunCache(scale=self.SCALE, store=store)
        pred2 = cache2.prediction(ref, base_cfg)
        assert pred2.total_cycles == pred.total_cycles
        assert pred2.workload == pred.workload


class TestPrefetch:
    SCALE = 0.15

    def test_serial_prefetch_fills_cache(self, base_cfg):
        refs = [BenchmarkRef("rodinia", n) for n in ("nw", "myocyte")]
        cache = RunCache(scale=self.SCALE)
        done = cache.prefetch(refs, configs=[base_cfg], workers=1)
        assert sorted(done) == sorted(r.label for r in refs)
        # Everything is now memoised; a second prefetch is a no-op.
        assert cache.prefetch(refs, configs=[base_cfg], workers=1) == []

    def test_parallel_matches_serial(self, store, base_cfg):
        from repro.experiments.workqueue import WorkQueue

        refs = [BenchmarkRef("rodinia", n) for n in ("nw", "myocyte")]
        par = RunCache(scale=self.SCALE, store=store)
        done = par.prefetch(refs, configs=[base_cfg], workers=2)
        assert sorted(done) == sorted(r.label for r in refs)
        # The work queue computed them: a profile and a prediction job
        # per benchmark, all completed.
        assert WorkQueue(store.root).done_count() == 2 * len(refs)
        ser = RunCache(scale=self.SCALE)
        for r in refs:
            assert par.profile(r).to_dict() == ser.profile(r).to_dict()
            assert (
                par.prediction(r, base_cfg).total_cycles
                == ser.prediction(r, base_cfg).total_cycles
            )

    def test_parallel_persists_to_store(self, store, base_cfg):
        refs = [BenchmarkRef("rodinia", n) for n in ("nw", "myocyte")]
        cache = RunCache(scale=self.SCALE, store=store)
        cache.prefetch(refs, configs=[base_cfg], workers=2)
        for r in refs:
            assert store.load_profile(cache._profile_key(r)) is not None
        # The content-addressed ILP tables persisted too — written by
        # the workers themselves (atomic renames make that safe), so
        # cross-run table sharing works on the parallel path as well.
        assert list((store.root / "ilptables").glob("*.json"))

    def test_incremental_config_uses_cached_artifacts(
        self, store, base_cfg
    ):
        """Adding one design point to a warm store only pays for the
        new point: the worker reads the satisfied profile/results back
        from disk instead of recomputing (and the merged results match
        an all-serial run)."""
        refs = [BenchmarkRef("rodinia", n) for n in ("nw", "myocyte")]
        small_cfg = table_iv_config("small")
        warm = RunCache(scale=self.SCALE, store=store)
        warm.prefetch(refs, configs=[base_cfg], workers=2,
                      simulate=True)

        cache = RunCache(scale=self.SCALE, store=store)
        done = cache.prefetch(
            refs, configs=[base_cfg, small_cfg], workers=2,
            simulate=True,
        )
        assert sorted(done) == sorted(r.label for r in refs)
        serial = RunCache(scale=self.SCALE)
        for ref in refs:
            for cfg in (base_cfg, small_cfg):
                assert (
                    cache.prediction(ref, cfg).total_cycles
                    == serial.prediction(ref, cfg).total_cycles
                )
                assert (
                    cache.simulation(ref, cfg).total_cycles
                    == serial.simulation(ref, cfg).total_cycles
                )

    def test_warm_store_prefetch_is_noop(
        self, store, base_cfg, monkeypatch
    ):
        """A fresh process with a warm disk store must satisfy profiles,
        predictions AND simulations from disk — no recompute, no worker
        dispatch."""
        refs = [BenchmarkRef("rodinia", "nw")]
        cache = RunCache(scale=self.SCALE, store=store)
        cache.prefetch(
            refs, configs=[base_cfg], workers=1, simulate=True
        )

        import repro.experiments.suites as suites_mod

        def boom(*a, **k):  # pragma: no cover - only on failure
            raise AssertionError("warm prefetch must not recompute")

        monkeypatch.setattr(suites_mod, "profile_workload", boom)
        monkeypatch.setattr(suites_mod, "predict", boom)
        monkeypatch.setattr(suites_mod, "simulate", boom)
        cache2 = RunCache(scale=self.SCALE, store=store)
        assert cache2.prefetch(
            refs, configs=[base_cfg], workers=2, simulate=True
        ) == []
        assert (refs[0].label, base_cfg) in cache2._predictions
        assert (refs[0].label, base_cfg) in cache2._simulations


class TestTraceKind:
    """The content-addressed ``traces`` kind behind the TraceCache."""

    def _spec(self, seed=3):
        from tests.conftest import barrier_workload
        return barrier_workload(seed=seed)

    def test_trace_key_tracks_spec_content(self):
        assert ProfileStore.trace_key(
            self._spec(seed=1)
        ) != ProfileStore.trace_key(self._spec(seed=2))
        assert ProfileStore.trace_key(
            self._spec(seed=1)
        ) == ProfileStore.trace_key(self._spec(seed=1))

    def test_save_load_roundtrip(self, store):
        from repro.workloads.engine import expand
        spec = self._spec()
        trace = expand(spec)
        key = ProfileStore.trace_key(spec)
        store.save_trace(key, trace)
        loaded = store.load_trace(key)
        assert loaded is not None
        assert loaded.content_digest() == trace.content_digest()

    def test_corrupt_trace_is_none(self, store):
        from repro.workloads.engine import expand
        spec = self._spec()
        key = ProfileStore.trace_key(spec)
        path = store.save_trace(key, expand(spec))
        path.write_bytes(b"garbage")
        assert store.load_trace(key) is None

    def test_stale_trace_is_none(self, store):
        # An arena from another schema version is quarantined as stale
        # and reads as a miss (the caller re-expands and re-saves).
        from repro.workloads.engine import expand, pack_trace_arena
        spec = self._spec()
        key = ProfileStore.trace_key(spec)
        trace = expand(spec)
        path = store.save_trace(key, trace)
        path.write_bytes(pack_trace_arena(trace, meta={
            "schema": SCHEMA_VERSION + 1,
            "digest": trace.content_digest(),
        }))
        assert store.load_trace(key) is None
        assert store.health()["schema_stale"] == 1
        assert not path.exists()
        assert (store.root / "quarantine" / "traces" / path.name).exists()


class TestStatsAndPrune:
    def _populate(self, store, small_profile):
        from repro.workloads.engine import expand
        from tests.conftest import barrier_workload
        store.save_profile(
            ProfileStore.profile_key("a", 1, 1.0, 4096), small_profile
        )
        store.save_profile(
            ProfileStore.profile_key("b", 2, 1.0, 4096), small_profile
        )
        spec = barrier_workload(seed=4)
        store.save_trace(ProfileStore.trace_key(spec), expand(spec))

    def test_stats_counts_and_bytes(self, store, small_profile):
        assert store.stats() == {}
        self._populate(store, small_profile)
        stats = store.stats()
        assert stats["profiles"]["artifacts"] == 2
        assert stats["traces"]["artifacts"] == 1
        assert stats["traces"]["bytes"] > 0

    def test_prune_all(self, store, small_profile):
        self._populate(store, small_profile)
        removed = store.prune()
        assert removed["profiles"]["removed"] == 2
        assert removed["traces"]["removed"] == 1
        assert store.stats()["profiles"]["artifacts"] == 0

    def test_prune_kind_restricted(self, store, small_profile):
        self._populate(store, small_profile)
        removed = store.prune(kinds=["traces"])
        assert list(removed) == ["traces"]
        assert store.stats()["profiles"]["artifacts"] == 2
        assert store.stats()["traces"]["artifacts"] == 0

    def test_prune_dry_run_removes_nothing(self, store, small_profile):
        self._populate(store, small_profile)
        removed = store.prune(dry_run=True)
        assert removed["profiles"]["removed"] == 2
        assert store.stats()["profiles"]["artifacts"] == 2

    def test_prune_stale_only(self, store, small_profile):
        self._populate(store, small_profile)
        key = ProfileStore.profile_key("stale", 9, 1.0, 4096)
        path = store.save_profile(key, small_profile)
        payload = json.loads(path.read_text())
        payload["schema"] = SCHEMA_VERSION - 1
        path.write_text(json.dumps(payload))
        removed = store.prune(stale_only=True)
        assert removed["profiles"]["removed"] == 1
        assert store.load_profile(
            ProfileStore.profile_key("a", 1, 1.0, 4096)
        ) is not None

    def test_prune_age_filter_keeps_young(self, store, small_profile):
        self._populate(store, small_profile)
        removed = store.prune(older_than_s=3600.0)
        assert all(v["removed"] == 0 for v in removed.values())
