"""One cache plane for the whole pipeline: :class:`Session`.

The paper's premise is that profiling is a one-time cost amortized
across a design-space sweep.  Each amortizable artifact has its own
cache; a :class:`Session` bundles them behind one object, so callers
pass one handle instead of one per layer:

* :attr:`traces` — content-addressed expanded traces
  (:class:`~repro.experiments.store.TraceCache`: LRU -> store ->
  expansion engine),
* :attr:`ilp` — content-addressed per-pool ILP tables
  (:class:`~repro.profiler.ilp_batch.ILPTableCache`),
* :attr:`branches` — content-addressed branch statistics
  (:class:`~repro.profiler.branchprof.BranchStatsCache`),
* :attr:`prep` — static per-segment profiling precompute keyed by the
  engine's static-artifact identity
  (:class:`~repro.profiler.profiler.SegmentPrepCache`),
* :meth:`cost_cache` — resident Eq.-1 memos per (profile, config)
  (:class:`~repro.core.epoch_model.EpochCostCache`),

plus usage counters and one consolidated :meth:`health` snapshot for
the serving plane.  Construct with :meth:`Session.from_store` (durable
artifacts under the default cache root) or :meth:`Session.ephemeral`
(in-memory only); pass the instance as ``session=`` to
:func:`~repro.profiler.profiler.profile_workload`,
:func:`~repro.core.rppm.predict`,
:func:`~repro.simulator.multicore.simulate` and the experiment
harnesses.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.arch.config import MulticoreConfig
from repro.core.epoch_model import EpochCostCache
from repro.lru import LRUCache
from repro.profiler.branchprof import BranchStatsCache
from repro.profiler.ilp_batch import KERNEL_STATS, ILPTableCache
from repro.profiler.profile import WorkloadProfile
from repro.profiler.profiler import SegmentPrepCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.store import ProfileStore
    from repro.workloads.engine import ExpansionEngine

#: Resident Eq.-1 memos per session, LRU over (profile, config) pairs;
#: read at construction.
COST_CACHE_MAX_ENTRIES = 128

# The store layer (repro.experiments) imports back into the harnesses
# that accept ``session=``, so pulling it in at module-import time
# would close an import cycle whenever a caller imports this module
# before ``repro.experiments`` has finished initializing (e.g. the
# CLI).  The store types are therefore resolved lazily, inside the
# constructors that need them.


class Session:
    """Caches, memos and counters shared across one pipeline lifetime.

    Parameters
    ----------
    store:
        Optional :class:`~repro.experiments.store.ProfileStore` giving
        the trace and ILP caches durable backing.  ``None`` keeps every
        artifact in memory.
    engine:
        Optional :class:`~repro.workloads.engine.ExpansionEngine`; by
        default the process-wide engine (and its static-artifact memo)
        is shared.

    Thread-safe: every component cache carries its own lock.
    """

    def __init__(
        self,
        store: Optional["ProfileStore"] = None,
        *,
        engine: Optional["ExpansionEngine"] = None,
    ) -> None:
        from repro.experiments.store import TraceCache

        self.store = store
        self.traces = TraceCache(store=store, engine=engine)
        self.ilp = ILPTableCache(store)
        self.branches = BranchStatsCache()
        self.prep = SegmentPrepCache()
        #: (profile identity, config fingerprint) -> (profile, memo)
        self._costs = LRUCache(COST_CACHE_MAX_ENTRIES)
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_store(
        cls, root: Optional[os.PathLike] = None, **kwargs: Any
    ) -> "Session":
        """A session over the durable artifact store.

        ``root`` defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``
        (see :meth:`~repro.experiments.store.ProfileStore.open_default`);
        writes are best effort, so a broken cache directory degrades to
        in-memory caching instead of failing the run.
        """
        from repro.experiments.store import ProfileStore

        return cls(store=ProfileStore.open_default(root), **kwargs)

    @classmethod
    def ephemeral(cls, **kwargs: Any) -> "Session":
        """A session with in-memory caches only (tests, one-off runs)."""
        return cls(store=None, **kwargs)

    # -- Eq.-1 cost memos ---------------------------------------------------

    def cost_cache(
        self,
        profile: WorkloadProfile,
        config: MulticoreConfig,
        key: Optional[str] = None,
    ) -> EpochCostCache:
        """The resident Eq.-1 memo for ``(profile, config)``.

        ``key`` optionally names the profile with a stable identity (a
        store key); without it the profile *object* identifies the
        entry, so repeat predictions must pass the same instance to
        hit.  The memo is only valid for the exact profile object it
        was built from — if a caller re-loads a profile under the same
        ``key``, the stale entry is replaced, never reused.
        """
        from repro.experiments.store import config_fingerprint

        ident = key if key is not None else id(profile)
        ckey = (ident, config_fingerprint(config))
        entry = self._costs.get(ckey)
        if entry is not None and entry[0] is profile:
            return entry[1]
        cache = EpochCostCache(profile, config)
        self._costs.put(ckey, (profile, cache))
        return cache

    # -- accounting ---------------------------------------------------------

    def record(self, kind: str, by: int = 1) -> None:
        """Count one pipeline operation (``profiles``, ``predictions``,
        ``simulations``...) for the :meth:`health` snapshot."""
        with self._lock:
            self._counters[kind] = self._counters.get(kind, 0) + by

    @property
    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def health(self) -> Dict[str, Any]:
        """One consolidated snapshot of every cache the session holds.

        This is the ``session`` block of the service's ``/healthz``:
        trace cache occupancy and hit rates, ILP table and branch-stat
        memo effectiveness, segment-prep memo occupancy, resident
        Eq.-1 memos, expansion-engine and ILP-kernel counters, usage
        counters, and (when durable) the store's degradation counters.
        """
        out: Dict[str, Any] = {
            "trace_cache": self.traces.stats(),
            "ilp_cache": {"hits": self.ilp.hits, "misses": self.ilp.misses},
            "branch_cache": self.branches.stats(),
            "prep_cache": self.prep.stats(),
            "cost_caches": len(self._costs),
            "expand_engine": self.traces.engine.snapshot(),
            "ilp_kernel": KERNEL_STATS.snapshot(),
            "counters": self.counters,
            "durable": self.store is not None,
        }
        if self.store is not None:
            out["store"] = self.store.health()
        return out
