"""The one bounded, thread-safe LRU memo behind every resident cache.

Traces, segment prep, branch statistics, expansion layouts and code
images, StatStack curves, Eq.-1 cost caches and the service's
profiles and payloads all keep their resident copies in an
:class:`LRUCache`.  Each owner decides *what* to key and whether a
value is reusable; this module alone decides what stays resident.

A leaf module: it imports nothing from ``repro``, so every layer can
use it without an import cycle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Tuple


class LRUCache:
    """Thread-safe LRU map bounded by entry count and, optionally, bytes.

    ``put(key, value, nbytes)`` charges ``nbytes`` against
    ``max_bytes``; least-recently-used entries are evicted until both
    bounds hold.  A value larger than ``max_bytes`` on its own is not
    stored (and evicts nothing else).  Every entry dropped by a bound
    counts in ``evictions``; :meth:`clear` does not.
    """

    def __init__(
        self, maxsize: int, max_bytes: Optional[int] = None
    ) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        #: key -> (value, nbytes)
        self._data: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            try:
                value, _ = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any, nbytes: int = 0) -> None:
        with self._lock:
            old = self._data.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            if self.max_bytes is not None and nbytes > self.max_bytes:
                self.evictions += 1
                return
            self._data[key] = (value, nbytes)
            self._bytes += nbytes
            while len(self._data) > self.maxsize or (
                self.max_bytes is not None and self._bytes > self.max_bytes
            ):
                _, (_, dropped) = self._data.popitem(last=False)
                self._bytes -= dropped
                self.evictions += 1

    def items(self) -> List[Tuple[Hashable, Any]]:
        """Snapshot, least- to most-recently used."""
        with self._lock:
            return [(key, value) for key, (value, _) in self._data.items()]

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped.

        Hit/miss/eviction counters survive — invalidation is not
        amnesia about past performance.
        """
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
            self._bytes = 0
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def stats(self) -> Dict[str, int]:
        """The one stats shape every resident cache reports."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._data),
                "bytes": self._bytes,
                "evictions": self.evictions,
            }
