"""The Eq.-1 kernels on Python floats return the numpy oracles' bits.

``miss_rate``, ``ILPTable.lookup`` and ``ILPTable.lookup_branch_loads``
run on Python floats; ``tests/oracles/eq1_numpy.py`` keeps the numpy
versions they replaced.  ``predict`` sums each thread's stack in plain
floats; the per-segment ``predict_epoch_cycles`` + ``CPIStack.add``
form it replaced is rebuilt here.  Every comparison is exact: the
golden record pins model outputs bit for bit.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import predict, profile_workload
from repro.arch.presets import table_iv_config
from repro.core.cpi_stack import CPIStack
from repro.core.epoch_model import EpochCostCache, predict_epoch_cycles
from repro.core.session import Session
from repro.experiments.suites import BenchmarkRef, build_workload
from repro.profiler.histogram import NBINS, RDHistogram
from repro.profiler.profile import ILPTable
from repro.runtime.scheduler import run_schedule
from repro.statstack.statstack import expected_stack_distances, miss_rate
from tests.oracles import eq1_numpy as oracle


def bits(x: float) -> bytes:
    return struct.pack("<d", float(x))


# -- StatStack miss_rate ------------------------------------------------------

counts = st.one_of(
    st.integers(1, 10**6),
    st.floats(0.01, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def histograms(draw):
    bins = draw(st.dictionaries(st.integers(0, NBINS - 1), counts,
                                max_size=40))
    hist = RDHistogram(cold=draw(st.integers(0, 1000)),
                       inval=draw(st.integers(0, 1000)))
    for b, c in bins.items():
        hist.counts[b] = c
    return hist


@settings(max_examples=300, deadline=None)
@given(histograms(), st.data(), st.booleans(), st.booleans())
def test_miss_rate_matches_numpy_oracle(hist, data, cold, inval):
    _, _, sds = expected_stack_distances(hist)
    if len(sds) and data.draw(st.booleans()):
        # Land on, just below or just above a bin's stack distance:
        # the crossing bin's fractional inclusion.
        j = data.draw(st.integers(0, len(sds) - 1))
        lines = max(1, int(sds[j]) + data.draw(st.integers(-2, 2)))
    else:
        lines = data.draw(st.integers(1, 2**40))
    assert bits(miss_rate(hist, lines, cold, inval)) == bits(
        oracle.miss_rate(hist, lines, cold, inval)
    )


@pytest.mark.parametrize("lines", [1, 64, 2**40])
def test_miss_rate_empty_histogram(lines):
    assert bits(miss_rate(RDHistogram(), lines)) == bits(
        oracle.miss_rate(RDHistogram(), lines)
    )


def test_miss_rate_every_capacity_of_a_profiled_histogram(small_profile):
    pools = [p for t in small_profile.threads for p in t.pools.values()]
    for hist in [h for p in pools
                 for h in (p.data.private, p.data.shared, p.ifetch)]:
        for lines in range(1, 300):
            assert bits(miss_rate(hist, lines)) == bits(
                oracle.miss_rate(hist, lines)
            )


# -- ILP table lookups --------------------------------------------------------

def grid(low, high):
    return st.lists(st.integers(low, high), min_size=1, max_size=6,
                    unique=True).map(sorted).map(tuple)


@st.composite
def ilp_tables(draw):
    windows = draw(grid(1, 4096))
    load_lats = draw(grid(1, 400))
    positive = st.floats(0.01, 64.0)
    ilp = draw(st.lists(st.lists(positive, min_size=len(load_lats),
                                 max_size=len(load_lats)),
                        min_size=len(windows), max_size=len(windows)))
    loads = draw(st.lists(st.floats(0.0, 64.0), min_size=len(windows),
                          max_size=len(windows)))
    return ILPTable(windows=windows, load_lats=load_lats,
                    ilp=np.asarray(ilp), branch_loads=np.asarray(loads))


#: Queries run past both grid ends, so both clips are exercised.
windows_q = st.integers(0, 10_000)
lats_q = st.floats(-50.0, 1000.0, allow_nan=False)

ONE_BY_ONE = ILPTable(windows=(64,), load_lats=(4,), ilp=np.ones((1, 1)))
ONE_ROW = ILPTable(windows=(64,), load_lats=(2, 9, 40),
                   ilp=np.asarray([[3.0, 2.0, 0.7]]))
ONE_COLUMN = ILPTable(windows=(16, 64, 256), load_lats=(4,),
                      ilp=np.asarray([[1.5], [2.5], [3.25]]),
                      branch_loads=np.asarray([0.5, 1.25, 2.0]))
#: ``math.log2(1621)`` differs from ``np.log2(1621.0)`` in the last ulp.
WIDE = ILPTable(windows=(16, 4096), load_lats=(4, 40),
                ilp=np.asarray([[1.0, 0.5], [3.0, 1.75]]),
                branch_loads=np.asarray([0.5, 2.0]))


@settings(max_examples=300, deadline=None)
@given(ilp_tables(), windows_q, lats_q)
@example(ONE_BY_ONE, 1, 0.0)
@example(ONE_ROW, 64, 20.5)
@example(ONE_ROW, 8, 500.0)
@example(ONE_COLUMN, 100, 4.0)
@example(ONE_COLUMN, 4096, -3.0)
@example(WIDE, 1621, 10.0)
def test_ilp_lookup_matches_numpy_oracle(table, window, load_lat):
    assert bits(table.lookup(window, load_lat)) == bits(
        oracle.bilinear(table, table.ilp, window, load_lat)
    )


@settings(max_examples=300, deadline=None)
@given(ilp_tables(), windows_q)
@example(ONE_BY_ONE, 4096)
@example(ONE_COLUMN, 100)
@example(ONE_COLUMN, 1)
@example(WIDE, 1621)
def test_branch_loads_lookup_matches_numpy_oracle(table, window):
    assert bits(table.lookup_branch_loads(window)) == bits(
        oracle.window_interp(table, table.branch_loads, window)
    )


# -- predict's phase 1 --------------------------------------------------------

def per_segment_reference(profile, config):
    """Per-thread stacks and the end time, one CPIStack per segment."""
    cache = EpochCostCache(profile, config)
    stacks, durations = [], []
    for thread in profile.threads:
        stack = CPIStack()
        per_segment = []
        for segment in thread.segments:
            cycles, seg_stack = predict_epoch_cycles(cache, thread, segment)
            per_segment.append(float(cycles))
            stack.add(seg_stack)
        stacks.append(stack)
        durations.append(per_segment)
    programs = [[s.event for s in t.segments] for t in profile.threads]
    schedule = run_schedule(
        programs, lambda tid, idx, start: durations[tid][idx]
    )
    return stacks, schedule


@pytest.fixture(scope="module")
def suite_profiles():
    # Barriers (nn), condvar barriers + locks (facesim), producer/
    # consumer queues + locks (vips), and a profile whose stacks change
    # if the segment sums are reassociated (streamcluster, smallest).
    return [
        profile_workload(build_workload(BenchmarkRef(*label), 0.2),
                         session=Session.ephemeral())
        for label in (("rodinia", "nn"), ("parsec", "facesim"),
                      ("parsec", "vips"), ("parsec", "streamcluster"))
    ]


@pytest.mark.parametrize(
    "point", ["smallest", "small", "base", "big", "biggest"]
)
def test_predict_stacks_equal_per_segment_sums(suite_profiles, point):
    config = table_iv_config(point)
    for profile in suite_profiles:
        result = predict(profile, config)
        stacks, schedule = per_segment_reference(profile, config)
        assert bits(result.total_cycles) == bits(schedule.end_time)
        for thread, ref in zip(result.threads, stacks):
            for name in ("base", "branch", "icache", "mem"):
                assert bits(getattr(thread.stack, name)) == bits(
                    getattr(ref, name)
                ), (profile.name, thread.thread_id, name)
            assert thread.stack.instructions == ref.instructions
            assert bits(thread.stack.sync) == bits(
                schedule.idle[thread.thread_id]
            )
            assert bits(thread.active_cycles) == bits(
                schedule.active[thread.thread_id]
            )
