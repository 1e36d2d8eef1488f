"""Request coalescing for the prediction service.

:class:`Coalescer` is the asyncio front half of the serving data
path.  Concurrent requests are *deduplicated*: identical keys in
flight collapse onto one future (single-flight), so a stampede of
equal requests costs exactly one engine computation.  Each distinct
request goes straight to the engine's thread pool and waits in the
pool's own queue.

It knows nothing about HTTP or about the engine's semantics: it takes
an opaque ``compute`` callable and opaque request objects keyed by the
caller.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from typing import Any, Callable, Dict, Hashable, Tuple


class Coalescer:
    """Single-flight dedup in front of an executor.

    ``compute`` maps one request object to its result on ``executor``
    (a thread pool of ``max_workers``), never on the event loop; each
    distinct request is submitted at once and waits in the pool's
    queue.

    A request whose key equals one already in flight never reaches the
    engine: it awaits the in-flight future (``collapsed`` counts these
    — the single-flight guarantee the concurrency tests pin down).
    """

    def __init__(
        self,
        compute: Callable[[Any], Any],
        executor,
        max_workers: int = 1,
    ) -> None:
        self._compute = compute
        self._executor = executor
        self._max_workers = max(1, max_workers)
        #: key -> (executor future, its asyncio wrapper).
        self._inflight: Dict[
            Hashable, Tuple[concurrent.futures.Future, asyncio.Future]
        ] = {}
        #: key -> number of awaiting submitters (single-flight sharers).
        self._waiters: Dict[Hashable, int] = {}
        self._ewma_lock = threading.Lock()
        #: Requests that collapsed onto an identical in-flight one.
        self.collapsed = 0
        #: Total requests submitted.
        self.submitted = 0
        #: Queued requests dropped because every waiter went away
        #: (client disconnect / deadline) before the work started.
        self.abandoned = 0
        #: EWMA of per-request engine service time — the basis of the
        #: server's ``Retry-After`` estimate under overload.
        self.ewma_service_s = 0.0

    def depth(self) -> int:
        """Distinct requests admitted and not yet resolved."""
        return len(self._inflight)

    def inflight(self, key: Hashable) -> bool:
        """Whether a request with ``key`` is admitted and unresolved."""
        return key in self._inflight

    def estimate_wait_s(self, extra: int = 0) -> float:
        """Rough time until a request submitted now would finish."""
        per_request = self.ewma_service_s or 0.05
        workers = self._max_workers
        return (self.depth() + extra) * per_request / workers

    def _run(self, request: Any) -> Any:
        """Executor-side: compute one request, timing the service."""
        t0 = time.perf_counter()
        result = self._compute(request)
        elapsed = time.perf_counter() - t0
        with self._ewma_lock:
            self.ewma_service_s = (
                elapsed if self.ewma_service_s == 0.0
                else 0.8 * self.ewma_service_s + 0.2 * elapsed
            )
        return result

    async def submit(self, key: Hashable, request: Any) -> Any:
        """Resolve ``request``, sharing work with identical requests.

        Cancellation-aware: if every waiter on a key is cancelled (a
        client disconnected, a deadline fired) while the work is still
        queued, the executor future is cancelled before it ever
        reaches the engine.  Work already executing cannot be
        recalled — its result simply resolves a future nobody awaits.
        """
        self.submitted += 1
        entry = self._inflight.get(key)
        if entry is not None:
            self.collapsed += 1
        else:
            work = self._executor.submit(self._run, request)
            entry = (work, asyncio.wrap_future(work))
            self._inflight[key] = entry
            entry[1].add_done_callback(
                lambda fut: self._settle(key, entry)
            )
        self._waiters[key] = self._waiters.get(key, 0) + 1
        try:
            return await asyncio.shield(entry[1])
        except asyncio.CancelledError:
            self._abandon(key, entry)
            raise
        finally:
            self._waiters[key] -= 1
            if not self._waiters[key]:
                del self._waiters[key]

    def _settle(self, key: Hashable, entry: Tuple) -> None:
        """The work resolved: release the key for new computations."""
        if self._inflight.get(key) is entry:
            del self._inflight[key]
        fut = entry[1]
        if not fut.cancelled():
            fut.exception()  # retrieved: abandoned work may have failed

    def _abandon(self, key: Hashable, entry: Tuple) -> None:
        """A waiter was cancelled; reap the work if it was the last."""
        if self._waiters.get(key, 0) > 1:
            return  # other waiters still want the result
        if self._inflight.get(key) is not entry:
            return  # already resolved or superseded
        # Succeeds only while the work is still queued; once it runs,
        # its result resolves an unawaited future.
        if entry[0].cancel():
            del self._inflight[key]
            self.abandoned += 1

    def stats(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "collapsed": self.collapsed,
            "abandoned": self.abandoned,
            "inflight": len(self._inflight),
            "ewma_service_ms": round(self.ewma_service_s * 1e3, 3),
        }


__all__ = ["Coalescer", "LRUCache"]
