"""Tests for the one bounded LRU memo (:mod:`repro.lru`)."""

import pytest

from repro.lru import LRUCache


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_eviction_order_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # re-put refreshes
        cache.put("c", 3)
        assert "b" not in cache and cache.get("a") == 10

    def test_maxsize_enforced(self):
        cache = LRUCache(3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_items_snapshot(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.items() == [("a", 1), ("b", 2)]

    def test_byte_bound_evicts_least_recent(self):
        cache = LRUCache(8, max_bytes=100)
        cache.put("a", 1, nbytes=40)
        cache.put("b", 2, nbytes=40)
        cache.get("a")  # b is now least recent
        cache.put("c", 3, nbytes=40)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats()["bytes"] == 80
        # Re-putting a key replaces its charge rather than adding to it.
        cache.put("a", 10, nbytes=10)
        assert cache.stats()["bytes"] == 50 and len(cache) == 2

    def test_evictions_counted_by_both_bounds_not_by_clear(self):
        cache = LRUCache(2, max_bytes=100)
        for i in range(4):
            cache.put(i, i, nbytes=10)
        assert cache.stats()["evictions"] == 2  # entry bound
        cache.put("big", 0, nbytes=95)  # one more by each bound
        assert [key for key, _ in cache.items()] == ["big"]
        assert cache.stats()["evictions"] == 4
        cache.clear()
        stats = cache.stats()
        assert stats["evictions"] == 4
        assert stats["entries"] == 0 and stats["bytes"] == 0

    def test_entry_larger_than_bound_is_not_kept(self):
        cache = LRUCache(4, max_bytes=100)
        cache.put("a", 1, nbytes=60)
        cache.put("huge", 2, nbytes=101)
        # The oversized value is dropped; it flushes nothing else.
        assert "huge" not in cache and cache.get("a") == 1
        assert cache.stats()["evictions"] == 1
        # Replacing a resident key with an oversized value drops the
        # old value too, so no stale entry outlives the put.
        cache.put("a", 3, nbytes=101)
        assert "a" not in cache and cache.stats()["bytes"] == 0

    def test_stats_shape(self):
        cache = LRUCache(4)
        assert set(cache.stats()) == {
            "hits", "misses", "entries", "bytes", "evictions",
        }
