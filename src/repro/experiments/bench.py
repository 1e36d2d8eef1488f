"""Profiling-throughput benchmark (the BENCH trajectory).

Measures the components the paper's "rapid" claim rests on:

* the reuse-distance front-end — the *exact* chunk schedules the
  profiler records, replayed through the vectorized whole-trace engine
  (:mod:`repro.profiler.batch`) and the seed scalar collectors
  (:mod:`repro.profiler.reference`) on identical inputs;
* the ILP scoreboard — the *exact* per-pool micro-trace samples the
  profiler retains, replayed through the lockstep batch engine
  (:mod:`repro.profiler.ilp_batch`) and the scalar spec
  (:func:`repro.profiler.ilp.build_ilp_table`), with the resulting
  tables cross-checked for equivalence;
* spec keying — the content address of every freshly built spec
  (:meth:`~repro.experiments.store.TraceCache.key`), timed on its own
  and reported as a share of the cold pipeline;
* trace expansion — the full suite expanded through the columnar
  planner/executor engine (:mod:`repro.workloads.engine`) behind a
  content-addressed :class:`~repro.experiments.store.TraceCache`,
  against the preserved per-segment spec
  (:func:`repro.workloads.generator.expand`), with every trace
  cross-checked digest-identical;
* the whole profiler fast path
  (:func:`repro.profiler.profiler.profile_workload`) against the
  preserved per-chunk spec
  (:func:`~repro.profiler.profiler.profile_workload_reference`), with
  every profile cross-checked for equality;
* the end-to-end suite wall-clock through
  :func:`repro.profiler.profiler.profile_workload` with a warm
  :class:`~repro.core.session.Session` (trace + prep + branch + ILP
  memos — the "profile once, reuse everywhere" economy the cache
  plane buys), with the cold first pass reported alongside.

Results are written as machine-readable ``BENCH_profiler.json`` so the
speedup is tracked across PRs (``python -m repro bench``; the pytest
face lives in ``benchmarks/bench_profiler.py``).  ``python -m repro
bench --check`` additionally enforces the committed
:data:`CHECK_FLOORS` — CI's guard against a silent performance or
equivalence regression.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.session import Session
from repro.experiments.store import TraceCache
from repro.experiments.suites import (
    BenchmarkRef,
    build_workload,
    rodinia_suite,
)
from repro.obs.tracing import (
    enabled as obs_enabled,
    set_enabled as set_obs_enabled,
)
from repro.profiler.batch import replay_data, replay_fetch
from repro.profiler.histogram import RDHistogram
from repro.profiler.ilp import build_ilp_table
from repro.profiler.ilp_batch import (
    DISPATCHES_PER_STEP,
    KERNEL_STATS,
    build_ilp_tables,
)
from repro.profiler.locality import PoolLocality
from repro.profiler.profiler import (
    ILP_SAMPLES_PER_POOL,
    ilp_sample,
    profile_workload,
    profile_workload_reference,
)
from repro.profiler.reference import (
    ScalarFetchLocality,
    ScalarLocalityCollector,
)
from repro.runtime.chunking import chunk_trace
from repro.workloads.engine import EngineStats, ExpansionEngine
from repro.workloads.generator import expand
from repro.workloads.ir import OP_STORE, fetch_lines

#: 8: adds the ``keying`` section (``specs``, ``s``, ``frac_of_cold``:
#: fingerprinting freshly built specs, as a share of key + cold expand
#: + cold profile time) and commits its ceiling; ``expand.cold_s`` no
#: longer includes keying.
#: 7: drops the batched DES replay from the ``replay`` section
#: (``programs``, ``events``, ``strides``, ``batched_s``, ``spec_s``,
#: ``speedup``, ``digest_mismatches``) with its floor and digest check;
#: the section keeps the profiler fast path vs the per-chunk reference.
#: 5: adds the ``replay`` section (batched DES scheduler vs the
#: event-at-a-time spec with timeline-digest cross-check, and the
#: vectorized profiler fast path vs the per-chunk reference with a
#: profile-equality cross-check), routes the suite loop through a warm
#: :class:`~repro.core.session.Session`, reports the cold pass
#: separately, commits replay floors and raises the suite floor to
#: the session-warm level.
#: 4: adds the ``expand`` section (columnar arena engine + trace cache
#: vs the per-segment legacy spec: instr/s, memo / cache hit rates,
#: arena bytes, digest cross-check), commits an expand-speedup floor
#: and raises the suite floor to the warm-trace-cache level.
#: 3: adds the ``kernel`` section (fused flat-grid mega-batching:
#: width buckets, fill ratio, per-step dispatch counts, pools/s) and
#: raises the committed ILP floor to the fused-kernel level.
#: 6: adds the ``obs`` section (always-on span instrumentation vs
#: ``REPRO_OBS=off`` on the warm suite loop) and commits the
#: obs-overhead ceiling.
#: 2: added the ``ilp`` section (batched scoreboard vs scalar spec).
BENCH_SCHEMA = 8
#: Quick-mode subset: three locality personalities plus streamcluster,
#: whose sparse address space exercises the engine's fallback path.
QUICK_BENCHMARKS = ("hotspot", "bfs", "srad", "streamcluster")

#: Committed performance/equivalence floors for ``bench --check``.
#: Conservative relative to measured numbers (collector ~10-14x, fused
#: ILP ~13-16x, warm-cache expand >100x, profiler fast path ~2-3x
#: over the per-chunk reference, suite ~10-14 M instr/s session-warm
#: on a developer-class core) to absorb noisy shared runners.
CHECK_FLOORS: Dict[str, float] = {
    "collector_speedup": 5.0,
    "ilp_speedup": 9.0,
    "ilp_max_rel_err": 0.0,
    "expand_speedup": 3.0,
    "profiler_speedup": 1.5,
    "suite_min_ips": 4.0e6,
    #: Ceiling, not floor: always-on span instrumentation may cost at
    #: most this fraction of warm-suite wall clock vs REPRO_OBS=off.
    "obs_max_overhead": 0.05,
    #: Ceiling: keying fresh specs may cost at most this fraction of
    #: the cold pipeline (key + expand + profile).
    "key_max_frac": 0.05,
}

#: Committed serving floors: warm-cache ``/v1/predict`` throughput
#: through the real HTTP stack (req/s) and the end-to-end success
#: requirement.  Measured rates on a developer-class core are in the
#: thousands; 200 absorbs noisy shared CI runners.  The overload
#: floors are the robustness contract: under 4x admission overload,
#: every non-success is *explained* (a well-formed 429 shed, a 503
#: with the deadline echoed, or — only when the scenario kills the
#: server — a connection error), no worker hangs, and the server
#: still serves goodput while shedding.
SERVICE_FLOORS: Dict[str, float] = {
    "warm_rps": 200.0,
    "max_error_rate": 0.0,
    "max_unexplained_errors": 0,
    "max_malformed_sheds": 0,
    "max_hung_workers": 0,
    #: Pre-fork fleet floors, committed at a >=4-core reference and
    #: derated by ``min(4, cpus)/4`` (the ``cpus`` recorded in the
    #: fleet section): 4 workers cannot beat 1 on a 1-core host, so a
    #: shared CI runner is held to what its silicon can physically do
    #: (see :func:`_fleet_floor_scale`).  The cold-mix scaling ratio
    #: also never derates below 0.6 — whatever the host, adding
    #: workers must not *collapse* throughput.
    "fleet_cold_scaling_x": 2.5,
    "fleet_warm_rps": 6000.0,
    "fleet_min_cold_scaling_x": 0.6,
    "fleet_min_respawns": 1,
}


def _fleet_floor_scale(cpus: int) -> float:
    """Fraction of the 4-core reference floors this host is held to."""
    return min(4, max(1, int(cpus))) / 4.0

#: Committed work-queue robustness floors (``BENCH_work.json``): the
#: distributed-runner contract under chaos.  A SIGKILL'd worker's
#: leases must be re-claimed within two lease periods (one period of
#: remaining lease validity plus the survivors' scan cadence and CI
#: scheduler slack), nothing may be lost or double-computed, every
#: claim race must elect exactly one winner, a zombie owner must never
#: publish over a successor, and the fleet-built report must render
#: bit-identical to a single-process run.
WORK_FLOORS: Dict[str, float] = {
    "max_reclaim_lease_periods": 2.0,
    "max_lost_jobs": 0,
    "max_duplicate_effects": 0,
    "max_claim_winners": 1,
    "max_zombie_publications": 0,
    "min_report_identical": 1,
    "max_survivors_hung": 0,
}


class SuiteStreams:
    """The access streams of one benchmark, in profiler chunk order."""

    __slots__ = ("label", "n_threads", "data", "fetch")

    def __init__(self, label: str, n_threads: int) -> None:
        self.label = label
        self.n_threads = n_threads
        #: (tid, pool index, line addrs, store mask) per chunk.
        self.data: List[Tuple[int, int, np.ndarray, np.ndarray]] = []
        #: Per thread: (pool index, fetch lines) per chunk.
        self.fetch: List[List[Tuple[int, np.ndarray]]] = [
            [] for _ in range(n_threads)
        ]

    @property
    def n_accesses(self) -> int:
        return sum(len(c[2]) for c in self.data)

    @property
    def n_fetches(self) -> int:
        return sum(len(f[1]) for fs in self.fetch for f in fs)


def expand_suite(
    refs: Sequence[BenchmarkRef],
    scale: float,
    cache: Optional[TraceCache] = None,
) -> List:
    """Expand every benchmark's trace once, for reuse by extractors.

    Routed through ``cache`` (a content-addressed
    :class:`~repro.experiments.store.TraceCache`) when one is given,
    the columnar engine otherwise.
    """
    specs = [build_workload(ref, scale) for ref in refs]
    if cache is None:
        cache = TraceCache()
    return [cache.get(spec) for spec in specs]


def extract_streams(
    refs: Sequence[BenchmarkRef],
    scale: float,
    chunk: int = 4096,
    traces: Optional[Sequence] = None,
) -> List[SuiteStreams]:
    """Expand and chunk benchmarks into replayable access streams.

    Pool attribution is simplified to one pool per thread — the
    throughput of the engines depends on stream content, not on how
    many pools the counts land in.  Pass pre-expanded ``traces``
    (from :func:`expand_suite`) to avoid re-expanding.
    """
    if traces is None:
        traces = expand_suite(refs, scale)
    out = []
    for trace in traces:
        ctrace = chunk_trace(trace, chunk)
        streams = SuiteStreams(ctrace.name, ctrace.n_threads)
        for t in ctrace.threads:
            for seg in t.segments:
                block = seg.block
                mem = block.memory_indices()
                if len(mem):
                    streams.data.append((
                        t.thread_id, t.thread_id,
                        block.addr[mem], block.op[mem] == OP_STORE,
                    ))
                lines = fetch_lines(block)
                if len(lines):
                    streams.fetch[t.thread_id].append(
                        (t.thread_id, lines)
                    )
        out.append(streams)
    return out


def _run_vectorized(streams: List[SuiteStreams]) -> None:
    for s in streams:
        pools = [PoolLocality() for _ in range(s.n_threads)]
        replay_data(s.data, s.n_threads, pools)
        hists = [RDHistogram() for _ in range(s.n_threads)]
        for tid in range(s.n_threads):
            replay_fetch(s.fetch[tid], hists)


def _run_scalar(streams: List[SuiteStreams]) -> None:
    for s in streams:
        collector = ScalarLocalityCollector(s.n_threads)
        pools = [PoolLocality() for _ in range(s.n_threads)]
        for tid, pidx, addrs, stores in s.data:
            collector.process(tid, addrs, stores, pools[pidx])
        hists = [RDHistogram() for _ in range(s.n_threads)]
        for tid in range(s.n_threads):
            fetcher = ScalarFetchLocality()
            for pidx, lines in s.fetch[tid]:
                fetcher.process(lines, hists[pidx])


def extract_ilp_pools(
    refs: Sequence[BenchmarkRef],
    scale: float,
    chunk: int = 4096,
    traces: Optional[Sequence] = None,
) -> List[List[Tuple[np.ndarray, np.ndarray]]]:
    """Per-pool micro-trace samples, as the profiler retains them.

    Pools follow the profiler's (thread, code-region) keying; the
    retention policy itself (segment-length gate, truncation) is
    :func:`repro.profiler.profiler.ilp_sample` — shared with the
    profiler, so the ILP engines replay exactly the workload
    ``profile_workload`` would hand them.  Pass pre-expanded
    ``traces`` (from :func:`expand_suite`) to avoid re-expanding.
    """
    if traces is None:
        traces = expand_suite(refs, scale)
    pools: List[List[Tuple[np.ndarray, np.ndarray]]] = []
    for trace in traces:
        ctrace = chunk_trace(trace, chunk)
        per_pool: Dict[Tuple[int, int], List] = {}
        for t in ctrace.threads:
            for seg in t.segments:
                sample = ilp_sample(seg.block)
                if sample is None:
                    continue
                key = (t.thread_id, int(seg.block.iline[0]))
                samples = per_pool.setdefault(key, [])
                if len(samples) < ILP_SAMPLES_PER_POOL:
                    samples.append(sample)
        pools.extend(v for v in per_pool.values() if v)
    return pools


def _run_ilp_batch(pools) -> List:
    return build_ilp_tables(pools)


def _run_ilp_scalar(pools) -> List:
    return [build_ilp_table(samples) for samples in pools]


def _table_rel_err(batch_tables, scalar_tables) -> float:
    """Worst relative disagreement across all table fields."""
    worst = 0.0
    for b, s in zip(batch_tables, scalar_tables):
        for attr in ("ilp", "branch_loads", "load_par"):
            a = getattr(b, attr)
            r = getattr(s, attr)
            denom = np.maximum(np.abs(r), 1e-12)
            worst = max(worst, float(np.max(np.abs(a - r) / denom)))
    return worst


def _interleaved(fn_a, fn_b, reps: int) -> Tuple[float, float]:
    """Median times of two competitors measured back to back.

    Alternating the runs (instead of timing each in its own block)
    exposes both to the same background-load environment, and the
    median resists the one-off stalls that a min-of or a single
    measurement would turn into a skewed ratio.
    """
    times_a, times_b = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn_a()
        times_a.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        times_b.append(time.perf_counter() - t0)
    return (
        float(np.median(times_a)), float(np.median(times_b))
    )


def _kernel_delta(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Fused-kernel counter movement between two snapshots."""
    delta = {
        key: after[key] - before[key]
        for key in (
            "pools", "samples", "buckets", "batches", "steps",
            "dispatches", "grid_slots", "occupied_slots",
        )
    }
    delta["bucket_fill"] = (
        delta["occupied_slots"] / delta["grid_slots"]
        if delta["grid_slots"] else 1.0
    )
    return delta


def _write_profile_dump(profiler, path: str) -> None:
    """Write a cProfile top-20 (cumulative and self time) to ``path``.

    The CI perf-smoke job uploads this artifact so the next profiling
    hot spot is identified from CI output, not from a local rerun.
    """
    import pstats

    with open(path, "w") as fh:
        stats = pstats.Stats(profiler, stream=fh)
        stats.sort_stats("cumulative")
        fh.write("== suite profiling: top 20 by cumulative time ==\n")
        stats.print_stats(20)
        fh.write("\n== suite profiling: top 20 by self time ==\n")
        stats.sort_stats("tottime")
        stats.print_stats(20)


def run_profiler_bench(
    quick: bool = False,
    scale: float = 1.0,
    reps: Optional[int] = None,
    output: Optional[str] = None,
    profile_dump: Optional[str] = None,
) -> Dict:
    """Measure profiling throughput; optionally write the JSON record.

    ``quick`` restricts the suite to :data:`QUICK_BENCHMARKS` and
    lowers the repetition count — a smoke-test sized run for CI and
    the ``--quick`` CLI flag.  The full mode replays the entire
    Rodinia suite (the paper's Table II set).  ``profile_dump`` writes
    a cProfile summary of the end-to-end suite loop to the given path.
    """
    refs = rodinia_suite()
    if quick:
        keep = set(QUICK_BENCHMARKS)
        refs = [r for r in refs if r.name in keep]
    if reps is None:
        reps = 2 if quick else 3

    # -- trace expansion: columnar engine + cache vs legacy spec ------------
    # A private session (own engine, own caches, no store) so every
    # memo and hit-rate counter in the record reflects exactly this
    # run, not earlier process history or another run's disk cache.
    engine = ExpansionEngine(stats=EngineStats())
    session = Session(engine=engine)
    tcache = session.traces
    specs = [build_workload(ref, scale) for ref in refs]
    # Freshly built specs carry no memoized key: this is the full
    # fingerprinting cost, which the expansion below then reuses.
    t0 = time.perf_counter()
    for spec in specs:
        tcache.key(spec)
    keying_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    traces = [tcache.get(s) for s in specs]  # cold: arenas + memo fill
    expand_cold_s = time.perf_counter() - t0
    expand_instr = sum(t.n_instructions for t in traces)
    # Equivalence: every engine trace must digest-identical the
    # preserved per-segment spec (the expand analogue of the ILP
    # engines' max_rel_err cross-check).
    digest_mismatches = sum(
        1 for s, t in zip(specs, traces)
        if expand(s).content_digest() != t.content_digest()
    )
    expand_warm_s, expand_legacy_s = _interleaved(
        lambda: [tcache.get(s) for s in specs],  # content-addressed hits
        lambda: [expand(s) for s in specs],  # legacy re-expansion
        reps,
    )
    engine_stats = engine.snapshot()
    cache_stats = tcache.stats()

    streams = extract_streams(refs, scale, traces=traces)
    accesses = sum(s.n_accesses for s in streams)
    fetches = sum(s.n_fetches for s in streams)

    _run_vectorized(streams)  # warm-up: page in streams and code paths
    vec_s, scalar_s = _interleaved(
        lambda: _run_vectorized(streams),
        lambda: _run_scalar(streams),
        reps,
    )

    pools = extract_ilp_pools(refs, scale, traces=traces)
    n_samples = sum(len(p) for p in pools)
    del traces  # the suite loop below re-resolves through the cache
    kernel_before = KERNEL_STATS.snapshot()
    batch_tables = _run_ilp_batch(pools)  # warm-up + equivalence input
    kernel = _kernel_delta(kernel_before, KERNEL_STATS.snapshot())
    scalar_tables = _run_ilp_scalar(pools)
    ilp_err = _table_rel_err(batch_tables, scalar_tables)
    ilp_batch_s, ilp_scalar_s = _interleaved(
        lambda: _run_ilp_batch(pools),
        lambda: _run_ilp_scalar(pools),
        reps,
    )

    # -- end-to-end suite loop through the session cache plane --------------
    # Cold pass first: the trace cache is warm (expansion amortized
    # above) but the session's prep/branch/ILP memos are empty — the
    # cost of profiling a benchmark the first time.
    t0 = time.perf_counter()
    instructions = 0
    for spec in specs:
        trace = tcache.get(spec)
        profile = profile_workload(trace, session=session)
        instructions += profile.n_instructions
    suite_cold_s = time.perf_counter() - t0

    # Equivalence: the fast path must reproduce the per-chunk
    # reference profile exactly, benchmark for benchmark.
    profile_mismatches = sum(
        1 for spec in specs
        if profile_workload(tcache.get(spec), session=session).to_dict()
        != profile_workload_reference(tcache.get(spec)).to_dict()
    )

    # Steady state: every memo warm — the number the raised
    # suite_min_ips floor gates, and the regime every production call
    # site (service, suites, scaling curves) now runs in.  The
    # reference competitor is timed back to back on the same traces.
    def _suite_fast() -> None:
        for spec in specs:
            profile_workload(tcache.get(spec), session=session)

    suite_s, suite_reference_s = _interleaved(
        _suite_fast,
        lambda: [
            profile_workload_reference(tcache.get(s)) for s in specs
        ],
        reps,
    )
    prep_stats = session.prep.stats()
    prep_lookups = prep_stats["hits"] + prep_stats["misses"]

    # Observability overhead: the same warm suite loop with span
    # instrumentation on vs off (what ``REPRO_OBS=off`` disables).
    # The committed ceiling keeps always-on telemetry at <= 5% of
    # suite throughput — stage-granular spans, never per-chunk.
    obs_prev = obs_enabled()

    def _suite_obs_on() -> None:
        set_obs_enabled(True)
        _suite_fast()

    def _suite_obs_off() -> None:
        set_obs_enabled(False)
        _suite_fast()

    try:
        obs_on_s, obs_off_s = _interleaved(
            _suite_obs_on, _suite_obs_off, max(3, reps)
        )
    finally:
        set_obs_enabled(obs_prev)

    if profile_dump:
        # A *separate* instrumented rerun: cProfile tracing costs
        # ~20%, which must not contaminate the timed number the
        # suite_min_ips floor gates.
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        for spec in specs:
            profile_workload(tcache.get(spec), session=session)
        profiler.disable()
        _write_profile_dump(profiler, profile_dump)

    total = accesses + fetches
    result = {
        "schema": BENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "scale": scale,
        "benchmarks": [r.label for r in refs],
        "collector": {
            "data_accesses": int(accesses),
            "fetches": int(fetches),
            "vectorized_s": vec_s,
            "scalar_s": scalar_s,
            "vectorized_aps": total / vec_s,
            "scalar_aps": total / scalar_s,
            "speedup": scalar_s / vec_s,
        },
        "ilp": {
            "pools": len(pools),
            "samples": int(n_samples),
            "batch_s": ilp_batch_s,
            "scalar_s": ilp_scalar_s,
            "speedup": ilp_scalar_s / ilp_batch_s,
            "max_rel_err": ilp_err,
        },
        "kernel": {
            "buckets": int(kernel["buckets"]),
            "bucket_fill": kernel["bucket_fill"],
            "steps": int(kernel["steps"]),
            "dispatches": int(kernel["dispatches"]),
            "dispatches_per_step": DISPATCHES_PER_STEP,
            "pools_per_s": len(pools) / ilp_batch_s,
        },
        "keying": {
            "specs": len(specs),
            "s": keying_s,
            "frac_of_cold": keying_s / (
                keying_s + expand_cold_s + suite_cold_s
            ),
        },
        "expand": {
            "instructions": int(expand_instr),
            "legacy_s": expand_legacy_s,
            "cold_s": expand_cold_s,
            "warm_s": expand_warm_s,
            "legacy_ips": expand_instr / expand_legacy_s,
            "cold_ips": expand_instr / expand_cold_s,
            "warm_ips": expand_instr / expand_warm_s,
            "speedup": expand_legacy_s / expand_warm_s,
            "speedup_cold": expand_legacy_s / expand_cold_s,
            "memo_hit_rate": engine_stats["memo_hit_rate"],
            "cache_hit_rate": (
                cache_stats["hits"]
                / (cache_stats["hits"] + cache_stats["misses"])
                if cache_stats["hits"] + cache_stats["misses"] else 0.0
            ),
            "arena_bytes": int(engine_stats["arena_bytes"]),
            "digest_mismatches": int(digest_mismatches),
        },
        "replay": {
            "profiler_fast_s": suite_s,
            "profiler_reference_s": suite_reference_s,
            "profiler_speedup": suite_reference_s / suite_s,
            "profile_mismatches": int(profile_mismatches),
            "prep_hit_rate": (
                prep_stats["hits"] / prep_lookups if prep_lookups
                else 0.0
            ),
        },
        "suite": {
            "wall_clock_s": suite_s,
            "cold_s": suite_cold_s,
            "instructions": int(instructions),
            "ips": instructions / suite_s,
            "cold_ips": instructions / suite_cold_s,
        },
        "obs": {
            "instrumented_s": obs_on_s,
            "disabled_s": obs_off_s,
            "overhead_frac": obs_on_s / obs_off_s - 1.0,
            "max_overhead_frac": CHECK_FLOORS["obs_max_overhead"],
        },
    }
    if output:
        with open(output, "w") as fh:
            json.dump(result, fh, indent=2)
    return result


def run_service_bench(
    quick: bool = False,
    output: Optional[str] = "BENCH_service.json",
    duration_s: Optional[float] = None,
    concurrency: int = 8,
    scale: float = 0.5,
    overload: bool = True,
    fleet: bool = True,
) -> Dict:
    """Measure warm-cache serving throughput AND overload behavior.

    Boots the asyncio HTTP server on an ephemeral port (memory-only
    engine, so the record reflects this build, not a previous run's
    disk cache), drives it with the closed-loop load generator, runs
    the chaos/overload scenarios (stampede, slow engine, kill
    mid-burst) against dedicated servers, then the pre-fork fleet
    sweep (aggregate rps at N=1/2/4 over a shared store + the
    SIGKILL-respawn chaos scenario).  Writes the schema-3
    ``BENCH_service.json`` record:
    ``{"warm": ..., "overload": ..., "fleet": ...}``.

    The fleet sweep spawns real worker processes, so the caller's
    ``__main__`` module must be import-safe (pytest and ``python -m
    repro`` both are).
    """
    from repro.service.engine import PredictionEngine
    from repro.service.loadgen import (
        SERVICE_BENCH_SCHEMA, run_fleet_bench, run_loadgen,
        run_overload_scenarios,
    )
    from repro.service.server import BackgroundServer

    if duration_s is None:
        duration_s = 1.5 if quick else 4.0
    engine = PredictionEngine(store=None)
    with BackgroundServer(engine=engine, workers=2) as server:
        warm = run_loadgen(
            "127.0.0.1", server.port,
            benchmark="rodinia.nn", config="base", scale=scale,
            duration_s=duration_s, concurrency=concurrency,
        )
    record = {
        "schema": SERVICE_BENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "warm": warm,
        "overload": (
            run_overload_scenarios(quick=quick, scale=scale)
            if overload else {}
        ),
    }
    if fleet:
        record["fleet"] = run_fleet_bench(
            quick=quick, scale=scale, concurrency=concurrency,
        )
    if output:
        with open(output, "w") as fh:
            json.dump(record, fh, indent=2)
    return record


def _check_scenario(name: str, rec: Dict) -> List[str]:
    """Floors shared by every overload scenario record."""
    failures = []
    if rec["unexplained_errors"] > SERVICE_FLOORS[
        "max_unexplained_errors"
    ]:
        failures.append(
            f"{name}: {rec['unexplained_errors']} unexplained errors "
            f"(budget is 0 — every failure must be a typed shed, "
            f"deadline 503, or expected connection drop)"
        )
    malformed = rec["malformed_shed"] + rec["malformed_503"]
    if malformed > SERVICE_FLOORS["max_malformed_sheds"]:
        failures.append(
            f"{name}: {malformed} malformed refusals (429 without "
            f"Retry-After or 503 without a deadline/drain reason)"
        )
    if rec["hung_workers"] > SERVICE_FLOORS["max_hung_workers"]:
        failures.append(
            f"{name}: {rec['hung_workers']} loadgen workers failed "
            f"to join — a request hung instead of failing fast"
        )
    return failures


def check_service(record: Dict) -> List[str]:
    """Validate a serving record against :data:`SERVICE_FLOORS`."""
    failures = []
    warm = record["warm"]
    rps = warm["goodput_rps"]
    if rps < SERVICE_FLOORS["warm_rps"]:
        failures.append(
            f"service warm-cache throughput {rps:.0f} req/s below "
            f"committed floor {SERVICE_FLOORS['warm_rps']:.0f} req/s"
        )
    total = warm["attempts"]
    error_rate = warm["unexplained_errors"] / total if total else 1.0
    if error_rate > SERVICE_FLOORS["max_error_rate"]:
        failures.append(
            f"service error rate {error_rate:.2%} above tolerance "
            f"{SERVICE_FLOORS['max_error_rate']:.0%}"
        )
    failures.extend(_check_scenario("warm", warm))
    for name, rec in record.get("overload", {}).items():
        failures.extend(_check_scenario(name, rec))
    stampede = record.get("overload", {}).get("stampede")
    if stampede is not None:
        if stampede["shed"] == 0:
            failures.append(
                "stampede: admission control never shed under 4x "
                "overload — the queue bound is not being enforced"
            )
        if stampede["ok"] == 0:
            failures.append(
                "stampede: zero goodput while overloaded — shedding "
                "must protect service, not replace it"
            )
    slow = record.get("overload", {}).get("slow_engine")
    if slow is not None and slow["unavailable"] == 0:
        failures.append(
            "slow_engine: no deadline 503s despite the engine "
            "running ~10x past the deadline"
        )
    failures.extend(check_fleet(record.get("fleet")))
    return failures


def check_fleet(fleet: Optional[Dict]) -> List[str]:
    """Per-worker-scaling floors over the ``fleet`` record section.

    The scaling and aggregate-rps floors are committed at a 4-core
    reference and derated by the benched host's ``cpus`` — a 1-core
    runner cannot parallelize 4 processes, but it must still not
    *lose* throughput to the fleet machinery, and zero-unexplained /
    respawn floors hold everywhere.
    """
    if not fleet:
        return []
    failures = []
    scale_f = _fleet_floor_scale(fleet.get("cpus", 1))
    scaling_floor = max(
        SERVICE_FLOORS["fleet_min_cold_scaling_x"],
        SERVICE_FLOORS["fleet_cold_scaling_x"] * scale_f,
    )
    scaling = fleet.get("cold_scaling_x", 0.0)
    if scaling < scaling_floor:
        failures.append(
            f"fleet: cold-mix scaling {scaling:.2f}x below floor "
            f"{scaling_floor:.2f}x (reference "
            f"{SERVICE_FLOORS['fleet_cold_scaling_x']:.1f}x at >=4 "
            f"cores, derated for {fleet.get('cpus', 1)} cpu(s))"
        )
    warm_floor = SERVICE_FLOORS["fleet_warm_rps"] * scale_f
    warm_rps = fleet.get("warm_aggregate_rps", 0.0)
    if warm_rps < warm_floor:
        failures.append(
            f"fleet: warm aggregate {warm_rps:.0f} req/s below floor "
            f"{warm_floor:.0f} req/s (reference "
            f"{SERVICE_FLOORS['fleet_warm_rps']:.0f} at >=4 cores, "
            f"derated for {fleet.get('cpus', 1)} cpu(s))"
        )
    for n, rec in fleet.get("workers", {}).items():
        for profile in ("warm", "cold"):
            failures.extend(
                _check_scenario(f"fleet[N={n}] {profile}", rec[profile])
            )
            if rec[profile]["ok"] == 0:
                failures.append(
                    f"fleet[N={n}] {profile}: zero successful requests"
                )
    chaos = fleet.get("chaos")
    if chaos is not None:
        failures.extend(_check_scenario("fleet kill_worker", chaos))
        if chaos["respawns"] < SERVICE_FLOORS["fleet_min_respawns"]:
            failures.append(
                "fleet kill_worker: the supervisor never respawned "
                "the SIGKILL'd worker"
            )
        if not chaos.get("post_kill_ok"):
            failures.append(
                "fleet kill_worker: no successful request after the "
                "kill — the fleet did not keep serving"
            )
    return failures


def render_service(record: Dict) -> str:
    """Human-readable summary of a serving record."""
    warm = record["warm"]
    lat = warm["latency_ms"]
    lines = [
        f"service bench ({record.get('mode', '?')}, "
        f"{warm['benchmark']} on {warm['config']}, "
        f"concurrency={warm['concurrency']})",
        f"  warm /v1/predict     : {warm['goodput_rps']:8.0f} "
        f"req/s  (p50 {lat['p50']:.2f} ms, p99 {lat['p99']:.2f} ms, "
        f"{warm['unexplained_errors']} errors)",
        f"  result-cache hit rate: {warm['cache_hit_rate']:8.1%}  "
        f"({warm['single_flight_collapsed']} single-flight "
        f"collapses)",
    ]
    for name, rec in record.get("overload", {}).items():
        refused = (
            rec["shed"] + rec["unavailable"] + rec["malformed_shed"]
            + rec["malformed_503"]
        )
        lines.append(
            f"  overload {name:<12}: {rec['ok']:5d} ok, "
            f"{refused} refused, {rec['connection_errors']} conn "
            f"drops, {rec['unexplained_errors']} unexplained, "
            f"{rec['hung_workers']} hung"
        )
    fleet = record.get("fleet")
    if fleet:
        lines.append(
            f"  fleet ({fleet['cpus']} cpu(s), floors derated x"
            f"{_fleet_floor_scale(fleet['cpus']):.2f}):"
        )
        for n, rec in sorted(
            fleet.get("workers", {}).items(), key=lambda kv: int(kv[0])
        ):
            lines.append(
                f"    N={n}: warm {rec['warm']['goodput_rps']:7.0f} "
                f"req/s  cold {rec['cold']['goodput_rps']:7.0f} req/s"
                f"  ({len(rec['cold'].get('workers', {}))} worker(s) "
                f"served)"
            )
        lines.append(
            f"    cold scaling {fleet.get('cold_scaling_x', 0):.2f}x, "
            f"warm aggregate {fleet.get('warm_aggregate_rps', 0):.0f} "
            f"req/s"
        )
        chaos = fleet.get("chaos")
        if chaos:
            lines.append(
                f"    kill_worker: {chaos['ok']} ok, "
                f"{chaos['connection_errors']} conn drops, "
                f"{chaos['unexplained_errors']} unexplained, "
                f"{chaos['respawns']} respawn(s), post-kill "
                f"{'ok' if chaos.get('post_kill_ok') else 'FAILED'}"
            )
    return "\n".join(lines)


def run_work_bench(
    quick: bool = False,
    output: Optional[str] = "BENCH_work.json",
) -> Dict:
    """Run the work-queue chaos scenarios and record the results.

    Kill-mid-lease (real SIGKILL of a spawned worker holding live
    leases), stale-lease takeover, and the duplicate-claim race —
    the crash-safety substance behind ``repro work``.  Writes the
    schema-1 ``BENCH_work.json`` record.

    The kill scenario spawns real worker processes, so the caller's
    ``__main__`` module must be import-safe (pytest and ``python -m
    repro`` both are).
    """
    from repro.experiments.workqueue import (
        WORK_BENCH_SCHEMA, run_work_scenarios,
    )

    record = {
        "schema": WORK_BENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "scenarios": run_work_scenarios(quick=quick),
    }
    if output:
        with open(output, "w") as fh:
            json.dump(record, fh, indent=2)
    return record


def check_work(record: Dict) -> List[str]:
    """Validate a work-queue record against :data:`WORK_FLOORS`."""
    failures = []
    scenarios = record.get("scenarios", {})
    kill = scenarios.get("kill_mid_lease")
    if kill is not None:
        if not kill["killed"]:
            failures.append(
                "kill_mid_lease: the victim worker was never killed "
                "— the scenario did not exercise the crash path"
            )
        if kill["reclaim_lease_periods"] > WORK_FLOORS[
            "max_reclaim_lease_periods"
        ]:
            failures.append(
                f"kill_mid_lease: stolen leases re-claimed after "
                f"{kill['reclaim_lease_periods']:.2f} lease periods, "
                f"above the committed "
                f"{WORK_FLOORS['max_reclaim_lease_periods']:.1f}"
            )
        if kill["lost_jobs"] > WORK_FLOORS["max_lost_jobs"]:
            failures.append(
                f"kill_mid_lease: {kill['lost_jobs']} job(s) never "
                f"completed — a SIGKILL lost work"
            )
        if kill["duplicate_effects"] > WORK_FLOORS[
            "max_duplicate_effects"
        ]:
            failures.append(
                f"kill_mid_lease: {kill['duplicate_effects']} "
                f"double-computed key(s) — idempotence is broken"
            )
        if kill["report_identical"] < WORK_FLOORS[
            "min_report_identical"
        ]:
            failures.append(
                "kill_mid_lease: the fleet-built report differs from "
                "the single-process run (must be bit-identical)"
            )
        if kill["survivors_hung"] > WORK_FLOORS["max_survivors_hung"]:
            failures.append(
                f"kill_mid_lease: {kill['survivors_hung']} surviving "
                f"worker(s) failed to drain and exit"
            )
    stale = scenarios.get("stale_takeover")
    if stale is not None:
        if stale["takeover_claims"] < 1:
            failures.append(
                "stale_takeover: an expired lease was never "
                "re-claimed — takeover is broken"
            )
        if stale["zombie_published"] > WORK_FLOORS[
            "max_zombie_publications"
        ]:
            failures.append(
                "stale_takeover: a zombie owner published a "
                "completion over the new owner"
            )
        if stale["lost_jobs"] > WORK_FLOORS["max_lost_jobs"]:
            failures.append(
                f"stale_takeover: {stale['lost_jobs']} job(s) lost"
            )
    race = scenarios.get("duplicate_claim_race")
    if race is not None:
        if race["max_winners"] > WORK_FLOORS["max_claim_winners"]:
            failures.append(
                f"duplicate_claim_race: {race['max_winners']} "
                f"claimers won the same key in one round (exactly "
                f"one O_EXCL winner is the contract)"
            )
        if race["min_winners"] < 1:
            failures.append(
                "duplicate_claim_race: a round elected no winner — "
                "a claimable job was skipped by every claimer"
            )
    return failures


def render_work(record: Dict) -> str:
    """Human-readable summary of a work-queue chaos record."""
    scenarios = record.get("scenarios", {})
    lines = [f"work-queue chaos ({record.get('mode', '?')})"]
    kill = scenarios.get("kill_mid_lease")
    if kill is not None:
        lines.append(
            f"  kill mid-lease       : victim held "
            f"{kill['victim_held_leases']} lease(s), re-claimed in "
            f"{kill['reclaim_s']:.2f}s "
            f"({kill['reclaim_lease_periods']:.2f} lease periods); "
            f"{kill['done']}/{kill['jobs']} jobs done, "
            f"{kill['lost_jobs']} lost, "
            f"{kill['duplicate_effects']} duplicate effects, report "
            f"{'identical' if kill['report_identical'] else 'DIVERGED'}"
        )
    stale = scenarios.get("stale_takeover")
    if stale is not None:
        lines.append(
            f"  stale-lease takeover : {stale['takeover_claims']} "
            f"takeover(s), zombie published "
            f"{stale['zombie_published']}, survivor published "
            f"{stale['survivor_published']}"
        )
    race = scenarios.get("duplicate_claim_race")
    if race is not None:
        lines.append(
            f"  duplicate-claim race : {race['rounds']} rounds x "
            f"{race['claimers']} claimers, winners per round "
            f"{race['min_winners']}..{race['max_winners']}"
        )
    return "\n".join(lines)


def check_bench(result: Dict) -> List[str]:
    """Validate a bench record against :data:`CHECK_FLOORS`.

    Returns human-readable failure lines (empty when everything
    clears its floor) — the substance of ``bench --check``.
    """
    failures = []
    collector = result["collector"]["speedup"]
    if collector < CHECK_FLOORS["collector_speedup"]:
        failures.append(
            f"reuse-distance speedup {collector:.2f}x below committed "
            f"floor {CHECK_FLOORS['collector_speedup']:.1f}x"
        )
    ilp = result["ilp"]["speedup"]
    if ilp < CHECK_FLOORS["ilp_speedup"]:
        failures.append(
            f"fused ILP kernel speedup {ilp:.2f}x below committed "
            f"floor {CHECK_FLOORS['ilp_speedup']:.1f}x"
        )
    err = result["ilp"]["max_rel_err"]
    if err > CHECK_FLOORS["ilp_max_rel_err"]:
        failures.append(
            f"ILP batch/scalar divergence {err:.2e} breaks the "
            f"bit-identity contract (max_rel_err must be 0)"
        )
    exp = result["expand"]["speedup"]
    if exp < CHECK_FLOORS["expand_speedup"]:
        failures.append(
            f"warm-cache expand speedup {exp:.2f}x below committed "
            f"floor {CHECK_FLOORS['expand_speedup']:.1f}x"
        )
    mismatches = result["expand"]["digest_mismatches"]
    if mismatches > 0:
        failures.append(
            f"{mismatches} engine-expanded trace(s) diverge from the "
            f"legacy generator spec (digests must be identical)"
        )
    replay = result["replay"]
    if replay["profiler_speedup"] < CHECK_FLOORS["profiler_speedup"]:
        failures.append(
            f"profiler fast-path speedup {replay['profiler_speedup']:.2f}x "
            f"below committed floor "
            f"{CHECK_FLOORS['profiler_speedup']:.1f}x"
        )
    if replay["profile_mismatches"] > 0:
        failures.append(
            f"{replay['profile_mismatches']} fast-path profile(s) "
            f"diverge from the per-chunk reference (profiles must be "
            f"identical)"
        )
    # The suite floor is an absolute throughput: at toy --scale values
    # fixed per-workload costs dominate and would fail it spuriously,
    # so it is enforced only at the committed scale (CI runs 1.0).
    ips = result["suite"]["ips"]
    if result.get("scale", 1.0) >= 1.0 and ips < CHECK_FLOORS[
        "suite_min_ips"
    ]:
        failures.append(
            f"suite profiling throughput {ips / 1e6:.2f} M instr/s "
            f"below committed floor "
            f"{CHECK_FLOORS['suite_min_ips'] / 1e6:.1f} M instr/s"
        )
    # Keying cost tracks the plan count, which toy scales leave as is
    # while expansion and profiling shrink, so the ceiling (like the
    # suite floor) holds only at the committed scale.
    key_frac = result["keying"]["frac_of_cold"]
    if result.get("scale", 1.0) >= 1.0 and (
        key_frac > CHECK_FLOORS["key_max_frac"]
    ):
        failures.append(
            f"spec keying {key_frac:.1%} of the cold "
            f"pipeline above committed ceiling "
            f"{CHECK_FLOORS['key_max_frac']:.0%}"
        )
    # Obs overhead is a ratio of two timed loops: at toy --scale the
    # fixed span cost dominates a tiny workload, so (like the absolute
    # suite floor) it is enforced only at the committed scale.
    obs = result.get("obs")
    if obs is not None and result.get("scale", 1.0) >= 1.0:
        if obs["overhead_frac"] > CHECK_FLOORS["obs_max_overhead"]:
            failures.append(
                f"observability overhead {obs['overhead_frac']:+.1%} "
                f"(instrumented vs REPRO_OBS=off) above committed "
                f"ceiling {CHECK_FLOORS['obs_max_overhead']:.0%}"
            )
    return failures


def render_bench(result: Dict) -> str:
    """Human-readable summary of a bench record."""
    c = result["collector"]
    i = result["ilp"]
    k = result["kernel"]
    e = result["expand"]
    key = result["keying"]
    r = result["replay"]
    s = result["suite"]
    o = result["obs"]
    return "\n".join([
        f"profiler bench ({result['mode']}, scale={result['scale']}, "
        f"{len(result['benchmarks'])} benchmarks)",
        f"  reuse-distance engine: {c['vectorized_aps'] / 1e6:6.2f} M "
        f"accesses/s vectorized vs {c['scalar_aps'] / 1e6:5.2f} M "
        f"scalar  ({c['speedup']:.1f}x)",
        f"  fused ILP kernel     : {i['pools']} pools / {i['samples']} "
        f"samples in {i['batch_s']:.2f}s fused vs "
        f"{i['scalar_s']:.2f}s scalar  ({i['speedup']:.1f}x, "
        f"max rel err {i['max_rel_err']:.1e})",
        f"  mega-batching        : {k['buckets']} width buckets, "
        f"{k['bucket_fill']:.1%} fill, {k['steps']} steps x "
        f"{k['dispatches_per_step']} dispatches "
        f"({k['pools_per_s']:.0f} pools/s)",
        f"  spec keying          : {key['specs']} fresh specs in "
        f"{key['s'] * 1e3:.1f} ms ({key['frac_of_cold']:.1%} of cold "
        f"key + expand + profile)",
        f"  trace-arena expand   : {e['instructions']:,} micro-ops, "
        f"{e['warm_ips'] / 1e6:.1f} M instr/s warm cache vs "
        f"{e['legacy_ips'] / 1e6:.1f} M legacy  "
        f"({e['speedup']:.0f}x warm, {e['speedup_cold']:.1f}x cold, "
        f"memo {e['memo_hit_rate']:.0%}, "
        f"arenas {e['arena_bytes'] / 2**20:.0f} MiB, "
        f"{e['digest_mismatches']} digest mismatches)",
        f"  profiler fast path   : {r['profiler_fast_s']:.2f}s vs "
        f"{r['profiler_reference_s']:.2f}s per-chunk reference  "
        f"({r['profiler_speedup']:.1f}x, {r['profile_mismatches']} "
        f"profile mismatches, prep memo {r['prep_hit_rate']:.0%})",
        f"  suite profiling      : {s['instructions']:,} micro-ops in "
        f"{s['wall_clock_s']:.2f}s warm ({s['ips'] / 1e6:.2f} M "
        f"instr/s; cold {s['cold_ips'] / 1e6:.2f} M)",
        f"  obs overhead         : "
        f"{o['overhead_frac']:+.1%} instrumented vs REPRO_OBS=off "
        f"({o['instrumented_s']:.2f}s vs {o['disabled_s']:.2f}s, "
        f"ceiling {o['max_overhead_frac']:.0%})",
    ])
