"""Core StatStack math (Eklov & Hagersten, ISPASS 2010).

StatStack estimates the *stack distance* (number of unique lines
between a reuse pair) from the much cheaper *reuse distance* (number of
accesses between the pair): each of the ``r`` intervening accesses of a
reuse with distance ``r`` contributes a unique line iff its own forward
reuse carries past the window end.  For an access ``k`` positions
before the window end that probability is ``P(RD > k)``, hence

    E[SD(r)] = sum_{k=1..r} P(RD > k)

The miss rate of a fully-associative LRU cache with ``S`` lines is then
the probability mass of reuses whose expected stack distance reaches
``S``, plus compulsory (cold) and coherence (invalidated) misses.

Forward and backward reuse-distance distributions coincide up to edge
effects (every finite backward reuse is a finite forward reuse of its
earlier partner), so the profiler's backward histograms are used
directly; cold/invalidated accesses play the role of never-reused
(infinite forward distance) accesses in the ccdf.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Tuple

import numpy as np

from repro.lru import LRUCache
from repro.profiler.histogram import RDHistogram

#: Entries kept in the stack-distance curve memo, one per distinct
#: histogram content.  The 26 half-scale suite profiles hold about 500
#: distinct histograms, and a design-space sweep hits each of them on
#: every config it predicts.
_SD_CACHE_MAX = 512

_sd_cache = LRUCache(_SD_CACHE_MAX)


def sd_cache_stats() -> dict:
    """Counters of the stack-distance memo (for tests/metrics)."""
    return _sd_cache.stats()


def sd_cache_clear() -> None:
    """Drop every memoized curve and reset the counters."""
    global _sd_cache
    _sd_cache = LRUCache(_SD_CACHE_MAX)


def _curve(hist: RDHistogram) -> tuple:
    """The memo entry of ``hist``'s content.

    ``(rds, counts, sds)`` as arrays, then the same curve as Python
    lists with ``suffix[j] == counts[j:].sum()`` (summed by numpy, so
    bit-identical for any counts), then ``hist.n_total``.
    """
    key = (hist.counts.tobytes(), hist.cold, hist.inval)
    entry = _sd_cache.get(key)
    if entry is None:
        rds, counts, sds = _compute_stack_distances(hist)
        suffix = [float(counts[j:].sum()) for j in range(len(counts))]
        entry = (
            rds, counts, sds,
            rds.tolist(), counts.tolist(), sds.tolist(), suffix,
            hist.n_total,
        )
        _sd_cache.put(key, entry)
    return entry


def expected_stack_distances(
    hist: RDHistogram,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected stack distance at each populated reuse-distance bin.

    Returns ``(rds, counts, sds)`` where ``sds[j] = E[SD(rds[j])]``.
    Arrays are sorted by reuse distance; ``sds`` is non-decreasing.

    The curve depends only on the histogram *content*, and different
    pools (and different hierarchy levels of the same pool) frequently
    share identical histograms, so results are memoized under a content
    key — callers receive shared arrays and must treat them as
    read-only.
    """
    return _curve(hist)[:3]


def _compute_stack_distances(
    hist: RDHistogram,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    rds, counts = hist.nonzero()
    if len(rds) == 0:
        return rds, counts, np.zeros(0)
    n_inf = float(hist.cold + hist.inval)
    total = counts.sum() + n_inf
    # ccdf_j = P(RD >= rds[j]) for k in the gap (rds[j-1], rds[j]]: the
    # bin's own mass is included because an intervening access with the
    # same binned distance carries past almost the whole gap.  (The
    # alternative half-count smoothing collapses for single-bin
    # streaming distributions, underestimating the stack distance right
    # at the capacity cliff.)
    tail = np.concatenate([np.cumsum(counts[::-1])[::-1][1:], [0.0]])
    ccdf = (n_inf + tail + counts) / total
    gaps = np.diff(np.concatenate([[0.0], rds]))
    sds = np.cumsum(ccdf * gaps)
    return rds, counts, sds


def miss_rate(
    hist: RDHistogram,
    cache_lines: int,
    include_cold: bool = True,
    include_inval: bool = True,
) -> float:
    """Per-access miss probability of a ``cache_lines``-line LRU cache.

    A reuse with expected stack distance >= capacity misses; the
    crossing bin is included fractionally (linear interpolation).  Cold
    accesses and coherence-invalidated reuses always miss; the flags let
    callers split the components for CPI-stack attribution.
    """
    if cache_lines <= 0:
        raise ValueError("cache capacity must be positive")
    _, _, _, rds, counts, sds, suffix, total = _curve(hist)
    if total == 0:
        return 0.0
    finite_misses = 0.0
    j = bisect_left(sds, cache_lines)
    if j < len(rds):
        finite_misses = suffix[j]
        # Fractional inclusion of the crossing bin: its mass is spread
        # over the bin's own (quarter-octave) width, with the local
        # SD-per-RD slope; mass whose stack distance falls below the
        # capacity still hits.
        prev_rd = rds[j - 1] if j > 0 else 0.0
        prev_sd = sds[j - 1] if j > 0 else 0.0
        gap = max(rds[j] - prev_rd, 1e-9)
        slope = (sds[j] - prev_sd) / gap
        width = min(gap, 0.19 * rds[j] + 1.0)
        lo_sd = sds[j] - slope * width
        if cache_lines > lo_sd and sds[j] > lo_sd:
            covered = (cache_lines - lo_sd) / (sds[j] - lo_sd)
            finite_misses -= counts[j] * min(max(covered, 0.0), 1.0)
    misses = finite_misses
    if include_cold:
        misses += hist.cold
    if include_inval:
        misses += hist.inval
    return min(max(misses / total, 0.0), 1.0)


def miss_ratio_curve(
    hist: RDHistogram, capacities: np.ndarray
) -> np.ndarray:
    """Miss rate at each capacity (lines); the classic MRC.

    The stack-distance curve is computed *once* and evaluated at every
    capacity with one ``np.searchsorted`` plus vectorized fractional
    interpolation, instead of re-deriving
    :func:`expected_stack_distances` per capacity.  Bit-identical to
    calling :func:`miss_rate` per capacity for the integer-valued
    histograms the profiler emits (suffix sums replace per-capacity
    slice sums, which for fractional counts may differ in the last
    ulp).
    """
    caps = np.asarray(capacities)
    # Match miss_rate's ``int(c)`` truncation semantics.
    caps = caps.astype(np.int64).astype(np.float64)
    if (caps <= 0).any():
        raise ValueError("cache capacity must be positive")
    total = hist.n_total
    if total == 0:
        return np.zeros(len(caps))
    rds, counts, sds = expected_stack_distances(hist)
    finite_misses = np.zeros(len(caps))
    if len(rds):
        j = np.searchsorted(sds, caps, side="left")
        crossing = j < len(rds)
        jj = j[crossing]
        # Suffix sums give counts[j:].sum() for every capacity at once.
        suffix = np.concatenate(
            [np.cumsum(counts[::-1])[::-1], [0.0]]
        )
        misses = suffix[j]
        # Fractional inclusion of the crossing bin, exactly as in
        # miss_rate: the bin's mass is spread over its quarter-octave
        # width with the local SD-per-RD slope.
        safe = np.maximum(jj - 1, 0)
        prev_rd = np.where(jj > 0, rds[safe], 0.0)
        prev_sd = np.where(jj > 0, sds[safe], 0.0)
        gap = np.maximum(rds[jj] - prev_rd, 1e-9)
        slope = (sds[jj] - prev_sd) / gap
        width = np.minimum(gap, 0.19 * rds[jj] + 1.0)
        lo_sd = sds[jj] - slope * width
        span = sds[jj] - lo_sd
        covered = np.zeros(len(jj))
        ok = (caps[crossing] > lo_sd) & (span > 0)
        covered[ok] = np.clip(
            (caps[crossing][ok] - lo_sd[ok]) / span[ok], 0.0, 1.0
        )
        misses[crossing] -= counts[jj] * covered
        finite_misses = misses
    misses = finite_misses + hist.cold + hist.inval
    return np.clip(misses / total, 0.0, 1.0)
