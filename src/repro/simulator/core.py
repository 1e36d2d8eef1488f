"""Cycle-accounting out-of-order core model.

Per trace block, a scoreboard computes dispatch, issue and completion
times per micro-op:

* dispatch is bounded by pipeline width, front-end readiness (branch
  redirects, instruction-cache misses) and ROB occupancy (an op cannot
  dispatch until the op ``rob_size`` earlier has committed — in-order
  commit),
* issue waits for the producer recorded in the trace's dependence
  array,
* loads/stores get their latency from the coherent memory system;
  branches consult the stateful tournament predictor; a mispredict
  redirects the front-end ``frontend_depth`` cycles after the branch
  completes.

Cycle attribution (for the Figure 5 CPI stacks): front-end stalls are
charged to their cause (branch/icache) at the moment they bind dispatch;
ROB-full stalls are charged to memory when the blocking op is a
long-latency load; everything else is base.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.arch.config import CoreConfig
from repro.branch.predictors import TournamentPredictor
from repro.simulator.caches import LEVEL_MEM, MemorySystem
from repro.workloads.ir import (
    OP_BRANCH,
    OP_LOAD,
    OP_STORE,
    TraceBlock,
    instruction_pcs,
)


@dataclass
class BlockCosts:
    """Timing outcome of one block on one core."""

    cycles: float
    base: float
    branch: float
    icache: float
    mem: float
    branch_misses: int
    fetch_misses: int
    long_loads: int


class CoreSim:
    """One core's execution engine (scoreboard + predictor state)."""

    def __init__(self, config: CoreConfig, memory: MemorySystem,
                 core_id: int, predictor: TournamentPredictor):
        self.config = config
        self.memory = memory
        self.core_id = core_id
        self.predictor = predictor
        self._op_lat = [
            config.op_latency[name]
            for name in ("ialu", "imul", "fp", "load", "store", "branch")
        ]

    def run_block(self, block: TraceBlock) -> BlockCosts:
        n = block.n_instructions
        if n == 0:
            return BlockCosts(0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0)
        cfg = self.config
        memory = self.memory
        core_id = self.core_id
        inv_width = 1.0 / cfg.dispatch_width
        rob = cfg.rob_size
        depth = cfg.frontend_depth
        lat_l1i = memory.lat_l1i
        op_lat = self._op_lat

        ops = block.op.tolist()
        deps = block.dep.tolist()
        addrs = block.addr.tolist()
        ilines = block.iline.tolist()

        br_idx = block.branch_indices()
        if len(br_idx):
            pcs = instruction_pcs(block)[br_idx]
            miss_mask = self.predictor.run(pcs, block.taken[br_idx])
            branch_miss = dict(zip(br_idx.tolist(), miss_mask.tolist()))
        else:
            branch_miss = {}

        comp = [0.0] * n  # completion time per op
        commit_ring = [0.0] * rob  # commit time of op (i - rob)
        long_ring = [False] * rob  # was that op a long-latency load
        # MSHR occupancy: completion times of outstanding memory-level
        # misses, FIFO (miss latency is constant so completions are in
        # issue order).  A full MSHR file delays the next miss until the
        # oldest outstanding one returns.
        mshrs = deque()
        mshr_cap = cfg.mshr_entries
        commit_prev = 0.0
        d_prev = -inv_width
        fe_ready = 0.0
        fe_cause = 0  # 1 = branch redirect, 2 = icache miss
        cur_line = -1

        branch_cycles = 0.0
        icache_cycles = 0.0
        mem_cycles = 0.0
        branch_misses = 0
        fetch_misses = 0
        long_loads = 0

        for i in range(n):
            # Front-end: instruction-cache behaviour on line change.
            line = ilines[i]
            if line != cur_line:
                cur_line = line
                flat = memory.fetch(core_id, line)
                if flat > lat_l1i:
                    fetch_misses += 1
                    stall_until = d_prev + inv_width + (flat - lat_l1i)
                    if stall_until > fe_ready:
                        fe_ready = stall_until
                        fe_cause = 2

            flow = d_prev + inv_width
            t_d = flow
            if fe_ready > t_d:
                if fe_cause == 1:
                    branch_cycles += fe_ready - t_d
                else:
                    icache_cycles += fe_ready - t_d
                t_d = fe_ready
            if i >= rob:
                slot = i % rob
                rc = commit_ring[slot]
                if rc > t_d:
                    if long_ring[slot]:
                        mem_cycles += rc - t_d
                    t_d = rc

            op = ops[i]
            d = deps[i]
            ready = comp[i - d] if 0 < d <= i else 0.0
            start = t_d if t_d > ready else ready

            is_long = False
            if op == OP_LOAD:
                lat, level = memory.load(core_id, addrs[i])
                if level == LEVEL_MEM:
                    is_long = True
                    long_loads += 1
                    while mshrs and mshrs[0] <= start:
                        mshrs.popleft()
                    if len(mshrs) >= mshr_cap:
                        start = mshrs.popleft()
                    mshrs.append(start + lat)
            elif op == OP_STORE:
                memory.store(core_id, addrs[i])
                lat = op_lat[OP_STORE]
            else:
                lat = op_lat[op]
            c = start + lat
            comp[i] = c

            if op == OP_BRANCH and branch_miss.get(i, False):
                branch_misses += 1
                redirect = c + depth
                if redirect > fe_ready:
                    fe_ready = redirect
                    fe_cause = 1

            cm = commit_prev if commit_prev > c else c
            commit_prev = cm
            slot = i % rob
            commit_ring[slot] = cm
            long_ring[slot] = is_long
            d_prev = t_d

        cycles = commit_prev
        base = cycles - branch_cycles - icache_cycles - mem_cycles
        if base < 0.0:
            base = 0.0
        return BlockCosts(
            cycles=cycles,
            base=base,
            branch=branch_cycles,
            icache=icache_cycles,
            mem=mem_cycles,
            branch_misses=branch_misses,
            fetch_misses=fetch_misses,
            long_loads=long_loads,
        )
