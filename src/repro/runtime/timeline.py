"""Execution timelines: per-thread active/idle intervals.

A :class:`Timeline` is the common currency between the scheduler, the
CPI-stack sync component and the bottlegraph construction: it records,
for every thread, when it was actively executing and when it sat idle
at a synchronization event (and why).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class Interval:
    """A half-open time interval [start, end).

    A slotted value type: a replay records one per executed segment.
    """

    __slots__ = ("start", "end", "duration")

    def __init__(self, start: float, end: float) -> None:
        if end < start:
            raise ValueError(
                f"interval ends before it starts: [{start}, {end})"
            )
        self.start = start
        self.end = end
        self.duration = end - start

    def __repr__(self) -> str:
        return f"Interval(start={self.start!r}, end={self.end!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return (self.start, self.end) == (other.start, other.end)

    def __hash__(self) -> int:
        return hash((self.start, self.end))


@dataclass
class Timeline:
    """Per-thread activity record of one (real or symbolic) execution."""

    n_threads: int
    active: List[List[Interval]] = field(default_factory=list)
    #: Idle intervals, tagged with the blocking cause (sync kind value).
    idle: List[List[Tuple[Interval, str]]] = field(default_factory=list)
    created_at: List[Optional[float]] = field(default_factory=list)
    ended_at: List[Optional[float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.active:
            self.active = [[] for _ in range(self.n_threads)]
        if not self.idle:
            self.idle = [[] for _ in range(self.n_threads)]
        if not self.created_at:
            self.created_at = [None] * self.n_threads
        if not self.ended_at:
            self.ended_at = [None] * self.n_threads

    def record_active(self, tid: int, start: float, end: float) -> None:
        if end > start:
            self.active[tid].append(Interval(start, end))

    def record_idle(self, tid: int, start: float, end: float,
                    cause: str) -> None:
        if end > start:
            self.idle[tid].append((Interval(start, end), cause))

    def active_time(self, tid: int) -> float:
        """Total time thread ``tid`` spent executing instructions."""
        return sum(iv.duration for iv in self.active[tid])

    def idle_time(self, tid: int) -> float:
        """Total time thread ``tid`` spent blocked at sync events."""
        return sum(iv.duration for iv, _ in self.idle[tid])

    def idle_by_cause(self, tid: int) -> Dict[str, float]:
        """Idle time of ``tid`` broken down by blocking cause."""
        out: Dict[str, float] = {}
        for iv, cause in self.idle[tid]:
            out[cause] = out.get(cause, 0.0) + iv.duration
        return out

    @property
    def end_time(self) -> float:
        """Completion time of the whole execution (last thread to end)."""
        ends = [e for e in self.ended_at if e is not None]
        return max(ends) if ends else 0.0

    def events(self) -> List[float]:
        """Sorted unique boundary times across all active intervals."""
        points = set()
        for ivs in self.active:
            for iv in ivs:
                points.add(iv.start)
                points.add(iv.end)
        return sorted(points)

    def parallelism_profile(self) -> List[Tuple[Interval, int]]:
        """Piecewise-constant count of concurrently *running* threads.

        Only actively-executing threads count (idle waiters do not),
        matching the bottlegraph definition of parallelism [13].
        Implemented as a sweep over interval boundaries so it stays
        linear in the number of intervals.
        """
        deltas: Dict[float, int] = {}
        for ivs in self.active:
            for iv in ivs:
                deltas[iv.start] = deltas.get(iv.start, 0) + 1
                deltas[iv.end] = deltas.get(iv.end, 0) - 1
        if not deltas:
            return []
        points = sorted(deltas)
        profile: List[Tuple[Interval, int]] = []
        count = 0
        for lo, hi in zip(points[:-1], points[1:]):
            count += deltas[lo]
            profile.append((Interval(lo, hi), count))
        return profile
