"""Phase 1 of RPPM's prediction (Fig. 3b): per-epoch active times.

Each dynamic segment's active execution time is its instruction count
times the Eq.-1 CPI of its pool on the target configuration, plus a
pipeline restart.  Costs are memoised per (pool, configuration) — this
is what makes RPPM "rapid": a workload with millions of dynamic
synchronization epochs still needs only one Eq.-1 evaluation per
static code region.

:func:`repro.core.rppm.predict` reads each pool's costs once and sums a
thread's segments in plain floats.  :func:`predict_epoch_cycles` is
the per-segment form of the same arithmetic; the baselines use it, and
the tests pin ``predict``'s sums to it bit for bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.arch.config import MulticoreConfig
from repro.core.cpi_stack import CPIStack
from repro.core.equation import EpochCosts, evaluate_equation
from repro.profiler.profile import SegmentRef, ThreadProfile, WorkloadProfile


class EpochCostCache:
    """Memoised Eq.-1 evaluations per (thread, pool key)."""

    def __init__(self, profile: WorkloadProfile, config: MulticoreConfig):
        self.profile = profile
        self.config = config
        self._cache: Dict[Tuple[int, int], EpochCosts] = {}

    def costs(self, thread: ThreadProfile, key: Optional[int]) -> Optional[
        EpochCosts
    ]:
        if key is None:
            return None
        cache_key = (thread.thread_id, key)
        if cache_key not in self._cache:
            self._cache[cache_key] = evaluate_equation(
                thread.pools[key], self.config
            )
        return self._cache[cache_key]


def segment_startup_cycles(config: MulticoreConfig) -> float:
    """Pipeline restart cost charged once per dynamic segment.

    A synchronization event (or a context break at a chunk boundary)
    drains the pipeline: the front-end refills (``frontend_depth``),
    the first instruction fetch resolves, and the last in-flight chain
    completes.  The reference simulator pays the same cost at every
    block restart.
    """
    return float(config.core.frontend_depth + config.l1i.latency + 4)


def predict_epoch_cycles(
    cache: EpochCostCache, thread: ThreadProfile, segment: SegmentRef
) -> Tuple[float, CPIStack]:
    """Predicted active cycles and CPI-stack contribution of a segment."""
    costs = cache.costs(thread, segment.key)
    if costs is None or segment.n_instructions == 0:
        return 0.0, CPIStack()
    n = segment.n_instructions
    startup = segment_startup_cycles(cache.config)
    stack = CPIStack(
        base=costs.cpi_base * n + startup,
        branch=costs.cpi_branch * n,
        icache=costs.cpi_icache * n,
        mem=costs.cpi_mem * n,
        instructions=n,
    )
    return costs.cpi_active * n + startup, stack
