"""Profiler-throughput benches (the BENCH trajectory).

Tracks the vectorized reuse-distance engine against the preserved seed
scalar implementation on identical Rodinia access streams, plus the
end-to-end suite profiling wall-clock.  The measurement logic lives in
:mod:`repro.experiments.bench` (also wired to ``python -m repro
bench``); this module is its pytest face, ``perf``-marked so plain
test runs skip it (``pytest benchmarks/bench_profiler.py`` or
``-m perf`` to run).
"""

from __future__ import annotations

import pytest

from repro.experiments.bench import (
    check_bench,
    extract_ilp_pools,
    extract_streams,
    render_bench,
    run_profiler_bench,
    _run_ilp_batch,
    _run_ilp_scalar,
    _run_scalar,
    _run_vectorized,
)
from repro.experiments.suites import rodinia_suite

pytestmark = pytest.mark.perf


@pytest.fixture(scope="module")
def streams():
    return extract_streams(rodinia_suite(), scale=1.0)


@pytest.fixture(scope="module")
def ilp_pools():
    return extract_ilp_pools(rodinia_suite(), scale=1.0)


def test_bench_vectorized_engine(benchmark, streams):
    benchmark.pedantic(
        _run_vectorized, args=(streams,), rounds=5, iterations=1
    )


def test_bench_scalar_reference(benchmark, streams):
    benchmark.pedantic(
        _run_scalar, args=(streams,), rounds=2, iterations=1
    )


def test_bench_ilp_batch_engine(benchmark, ilp_pools):
    benchmark.pedantic(
        _run_ilp_batch, args=(ilp_pools,), rounds=5, iterations=1
    )


def test_bench_ilp_megabatch_kernel(benchmark, ilp_pools):
    """The fused flat-grid path alone (no cache/digest overhead)."""
    from repro.profiler.ilp_batch import batch_scoreboard_pools

    benchmark.pedantic(
        batch_scoreboard_pools, args=(ilp_pools,), rounds=5,
        iterations=1,
    )


def test_bench_ilp_prediction_grid(benchmark, ilp_pools):
    """The aux=False per-op-latency replay the predictor issues."""
    from repro.profiler.ilp import hierarchy_ilp

    samples = [s for pool in ilp_pools[:20] for s in pool]

    def run():
        hierarchy_ilp(
            samples, 128, (0.3, 0.1, 0.05), (3, 10, 30), 200.0
        )

    benchmark.pedantic(run, rounds=5, iterations=1)


def test_bench_ilp_scalar_spec(benchmark, ilp_pools):
    benchmark.pedantic(
        _run_ilp_scalar, args=(ilp_pools,), rounds=2, iterations=1
    )


def test_bench_profiler_fast_path(benchmark):
    """Session-warm suite profiling — the steady state the
    suite_min_ips floor gates."""
    from repro.core.session import Session
    from repro.experiments.suites import build_workload
    from repro.profiler.profiler import profile_workload

    session = Session.ephemeral()
    specs = [build_workload(ref, 1.0) for ref in rodinia_suite()]
    for spec in specs:
        profile_workload(session.traces.get(spec), session=session)
    benchmark.pedantic(
        lambda: [
            profile_workload(session.traces.get(s), session=session)
            for s in specs
        ],
        rounds=5, iterations=1,
    )


def test_bench_profiler_reference(benchmark):
    """The preserved per-chunk profiler spec on the same traces."""
    from repro.experiments.store import TraceCache
    from repro.experiments.suites import build_workload
    from repro.profiler.profiler import profile_workload_reference

    cache = TraceCache()
    specs = [build_workload(ref, 1.0) for ref in rodinia_suite()]
    traces = [cache.get(spec) for spec in specs]
    benchmark.pedantic(
        lambda: [profile_workload_reference(t) for t in traces],
        rounds=2, iterations=1,
    )


def test_bench_expand_engine_cold(benchmark):
    """Columnar arena engine, fresh memo each round (worst case)."""
    from repro.experiments.suites import build_workload
    from repro.workloads.engine import EngineStats, ExpansionEngine

    specs = [build_workload(ref, 1.0) for ref in rodinia_suite()]
    benchmark.pedantic(
        lambda: ExpansionEngine(stats=EngineStats()).expand_many(specs),
        rounds=5, iterations=1,
    )


def test_bench_expand_trace_cache_warm(benchmark):
    """Content-addressed warm path every production call site runs."""
    from repro.experiments.store import TraceCache
    from repro.experiments.suites import build_workload

    specs = [build_workload(ref, 1.0) for ref in rodinia_suite()]
    cache = TraceCache()
    for spec in specs:
        cache.get(spec)
    benchmark.pedantic(
        lambda: [cache.get(spec) for spec in specs],
        rounds=5, iterations=1,
    )


def test_bench_expand_legacy_spec(benchmark):
    """The preserved per-segment generator spec."""
    from repro.experiments.suites import build_workload
    from repro.workloads.generator import expand

    specs = [build_workload(ref, 1.0) for ref in rodinia_suite()]
    benchmark.pedantic(
        lambda: [expand(spec) for spec in specs],
        rounds=2, iterations=1,
    )


def test_bench_speedup_record(tmp_path, report):
    """Full-suite record: asserts both engines' advantage and feeds
    the session report."""
    out = tmp_path / "BENCH_profiler.json"
    result = run_profiler_bench(quick=False, output=str(out))
    report("BENCH profiler", render_bench(result))
    assert out.exists()
    # Same committed floors as `bench --check` / the CI smoke job.
    assert check_bench(result) == []
