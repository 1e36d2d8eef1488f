"""Event-driven multicore simulation.

Threads map to cores round-robin (thread count above the core count is
tolerated for workloads whose extra threads do negligible concurrent
work, mirroring the paper's Parsec setup).  Thread segments are
simulated chunk-by-chunk through the per-core scoreboards in
event-time order; the shared DES scheduler supplies runtime
synchronization semantics, so the simulator and RPPM's Algorithm 2
cannot diverge on sync *rules*, only on *timings* — as in the paper,
where both Sniper and RPPM honour pthread semantics.
"""

from __future__ import annotations

from typing import List, Union

from repro.arch.config import MulticoreConfig
from repro.branch.predictors import TournamentPredictor
from repro.core.cpi_stack import CPIStack
from repro.obs import span
from repro.runtime.chunking import chunk_trace
from repro.runtime.scheduler import run_schedule
from repro.simulator.caches import MemorySystem
from repro.simulator.core import CoreSim
from repro.simulator.results import SimulationResult, ThreadResult
from repro.workloads.engine import expand
from repro.workloads.ir import WorkloadTrace
from repro.workloads.spec import WorkloadSpec


class MulticoreSimulator:
    """Reusable simulator for one multicore configuration."""

    def __init__(self, config: MulticoreConfig):
        self.config = config

    def run(
        self,
        workload: Union[WorkloadSpec, WorkloadTrace],
        chunk: int = 4096,
        session=None,
    ) -> SimulationResult:
        if session is not None:
            session.record("simulations")
        if isinstance(workload, WorkloadSpec):
            trace = (
                session.traces.get(workload) if session is not None
                else expand(workload)
            )
        else:
            trace = workload
        ctrace = chunk_trace(trace, chunk)
        config = self.config
        n_threads = ctrace.n_threads
        memory = MemorySystem(config)
        # One predictor per thread: threads keep private branch history
        # even when round-robin-mapped onto the same core.
        cores = [
            CoreSim(
                config.core,
                memory,
                tid % config.cores,
                TournamentPredictor(config.branch_predictor),
            )
            for tid in range(n_threads)
        ]

        stacks = [CPIStack() for _ in range(n_threads)]
        branch_misses = [0] * n_threads
        fetch_misses = [0] * n_threads
        long_loads = [0] * n_threads

        def execute(tid: int, idx: int, start: float) -> float:
            block = ctrace.threads[tid].segments[idx].block
            if block.n_instructions == 0:
                return 0.0
            costs = cores[tid].run_block(block)
            stacks[tid].add(
                CPIStack(
                    base=costs.base,
                    branch=costs.branch,
                    icache=costs.icache,
                    mem=costs.mem,
                    instructions=block.n_instructions,
                )
            )
            branch_misses[tid] += costs.branch_misses
            fetch_misses[tid] += costs.fetch_misses
            long_loads[tid] += costs.long_loads
            return costs.cycles

        programs = [
            [seg.event for seg in t.segments] for t in ctrace.threads
        ]
        schedule = run_schedule(programs, execute)

        threads: List[ThreadResult] = []
        for tid in range(n_threads):
            stack = stacks[tid]
            stack.sync = schedule.idle[tid]
            threads.append(
                ThreadResult(
                    thread_id=tid,
                    instructions=stack.instructions,
                    active_cycles=schedule.active[tid],
                    idle_cycles=schedule.idle[tid],
                    stack=stack,
                    branch_misses=branch_misses[tid],
                    fetch_misses=fetch_misses[tid],
                    long_loads=long_loads[tid],
                )
            )
        return SimulationResult(
            workload=ctrace.name,
            config=config.name,
            total_cycles=schedule.end_time,
            threads=threads,
            timeline=schedule.timeline,
            invalidations=memory.invalidations,
        )


def simulate(
    workload: Union[WorkloadSpec, WorkloadTrace],
    config: MulticoreConfig,
    chunk: int = 4096,
    session=None,
) -> SimulationResult:
    """Simulate ``workload`` on ``config`` (convenience wrapper).

    A spec ``workload`` expands through ``session``'s trace cache when
    a :class:`~repro.core.session.Session` is given — so simulating
    after profiling the same spec reuses one expansion — and through
    the shared columnar engine otherwise.
    """
    with span("simulate", workload=workload.name, config=config.name):
        return MulticoreSimulator(config).run(workload, chunk, session)
