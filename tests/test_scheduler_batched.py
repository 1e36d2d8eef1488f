"""The DES replay's ``execute`` call order, as the profiler records it.

The profiler derives its chunk interleaving from the order in which
``run_schedule`` calls ``execute``, merging adjacent same-thread calls
into strides ``(tid, lo, hi)``.  That is only sound if the scheduler
calls ``execute`` once per segment and, per thread, in segment order —
properties pinned here over random synchronization programs.  The
timing semantics of every idiom live in ``test_scheduler.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.scheduler import run_schedule
from repro.workloads.ir import SyncKind, SyncOp

END = SyncOp(SyncKind.END)


def N(kind, **kw):
    return SyncOp(kind, **kw)


def callback_order(programs, durations):
    """``(tid, idx)`` of every ``execute`` call, in call order."""
    calls = []

    def execute(tid, idx, start):
        calls.append((tid, idx))
        return durations[tid][idx]

    run_schedule(programs, execute)
    return calls


# -- random sync programs ---------------------------------------------------


@st.composite
def sync_programs(draw):
    """Random well-formed multi-thread programs plus durations.

    Thread 0 creates every other thread up front, then all threads mix
    NONE runs with barriers over the full participant set and
    matched LOCK/UNLOCK pairs — the idioms whose handlers wake other
    threads mid-update, i.e. where the callback order interleaves.
    """
    n_threads = draw(st.integers(1, 4))
    n_barriers = draw(st.integers(0, 3))
    participants = tuple(range(n_threads))
    rnd_dur = st.integers(0, 20)

    programs, durations = [], []
    for tid in range(n_threads):
        events, durs = [], []
        if tid == 0:
            for child in range(1, n_threads):
                events.append(N(SyncKind.CREATE, obj=child))
                durs.append(draw(rnd_dur))
        for b in range(n_barriers):
            run_len = draw(st.integers(0, 4))
            for _ in range(run_len):
                events.append(N(SyncKind.NONE))
                durs.append(draw(rnd_dur))
            if draw(st.booleans()):
                events.append(N(SyncKind.LOCK, obj=0))
                durs.append(draw(rnd_dur))
                events.append(N(SyncKind.UNLOCK, obj=0))
                durs.append(draw(rnd_dur))
            events.append(
                N(SyncKind.BARRIER, obj=b, participants=participants)
            )
            durs.append(draw(rnd_dur))
        tail = draw(st.integers(0, 4))
        for _ in range(tail):
            events.append(N(SyncKind.NONE))
            durs.append(draw(rnd_dur))
        events.append(END)
        durs.append(draw(rnd_dur))
        programs.append(events)
        durations.append([float(d) for d in durs])
    return programs, durations


class TestIdioms:
    @given(sync_programs())
    @settings(max_examples=60, deadline=None)
    def test_order_covers_every_segment_once(self, case):
        programs, durations = case
        calls = callback_order(programs, durations)
        assert len(calls) == len(set(calls))
        assert set(calls) == {
            (tid, idx)
            for tid, prog in enumerate(programs)
            for idx in range(len(prog))
        }


class TestPropertyEquivalence:
    @given(sync_programs())
    @settings(max_examples=60, deadline=None)
    def test_order_is_a_permutation_in_fifo_time(self, case):
        """Each thread's calls come in its own segment-index order."""
        programs, durations = case
        per_thread = [[] for _ in programs]
        for tid, idx in callback_order(programs, durations):
            per_thread[tid].append(idx)
        assert per_thread == [list(range(len(p))) for p in programs]
