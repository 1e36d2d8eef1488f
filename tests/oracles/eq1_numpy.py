"""Numpy forms of the Eq.-1 lookup kernels, kept as test oracles.

``repro.statstack.statstack.miss_rate`` and ``ILPTable.lookup`` /
``lookup_branch_loads`` run on Python floats; these are the numpy
versions they replaced, verbatim but for taking the table as an
argument.  ``tests/test_eq1_kernels.py`` asserts that the production
kernels return exactly the same floats.
"""

from __future__ import annotations

import numpy as np

from repro.profiler.histogram import RDHistogram
from repro.profiler.profile import ILPTable
from repro.statstack.statstack import expected_stack_distances


def miss_rate(
    hist: RDHistogram,
    cache_lines: int,
    include_cold: bool = True,
    include_inval: bool = True,
) -> float:
    if cache_lines <= 0:
        raise ValueError("cache capacity must be positive")
    total = hist.n_total
    if total == 0:
        return 0.0
    rds, counts, sds = expected_stack_distances(hist)
    finite_misses = 0.0
    if len(rds):
        j = int(np.searchsorted(sds, cache_lines, side="left"))
        if j < len(rds):
            finite_misses = counts[j:].sum()
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
    return float(min(max(misses / total, 0.0), 1.0))


def bilinear(
    table: ILPTable, grid: np.ndarray, window: int, load_lat: float
) -> float:
    """Bilinear interpolation (log2 in window, linear in latency)."""
    w = float(np.clip(window, table.windows[0], table.windows[-1]))
    lat = float(np.clip(load_lat, table.load_lats[0], table.load_lats[-1]))
    wgrid = np.log2(np.asarray(table.windows, dtype=np.float64))
    lgrid = np.asarray(table.load_lats, dtype=np.float64)
    wi = int(np.searchsorted(wgrid, np.log2(w), side="right") - 1)
    wi = min(max(wi, 0), len(table.windows) - 2) if len(
        table.windows
    ) > 1 else 0
    li = int(np.searchsorted(lgrid, lat, side="right") - 1)
    li = min(max(li, 0), len(table.load_lats) - 2) if len(
        table.load_lats
    ) > 1 else 0
    if len(table.windows) == 1 and len(table.load_lats) == 1:
        return float(grid[0, 0])
    if len(table.windows) == 1:
        frac = (lat - lgrid[li]) / (lgrid[li + 1] - lgrid[li])
        return float(grid[0, li] * (1 - frac) + grid[0, li + 1] * frac)
    if len(table.load_lats) == 1:
        frac = (np.log2(w) - wgrid[wi]) / (wgrid[wi + 1] - wgrid[wi])
        return float(grid[wi, 0] * (1 - frac) + grid[wi + 1, 0] * frac)
    fw = (np.log2(w) - wgrid[wi]) / (wgrid[wi + 1] - wgrid[wi])
    fl = (lat - lgrid[li]) / (lgrid[li + 1] - lgrid[li])
    top = grid[wi, li] * (1 - fl) + grid[wi, li + 1] * fl
    bot = grid[wi + 1, li] * (1 - fl) + grid[wi + 1, li + 1] * fl
    return float(top * (1 - fw) + bot * fw)


def window_interp(table: ILPTable, values: np.ndarray, window: int) -> float:
    """Interpolate a per-window vector at ``window`` (log2-linear)."""
    w = float(np.clip(window, table.windows[0], table.windows[-1]))
    if len(table.windows) == 1:
        return float(values[0])
    wgrid = np.log2(np.asarray(table.windows, dtype=np.float64))
    wi = int(np.searchsorted(wgrid, np.log2(w), side="right") - 1)
    wi = min(max(wi, 0), len(table.windows) - 2)
    frac = (np.log2(w) - wgrid[wi]) / (wgrid[wi + 1] - wgrid[wi])
    return float(values[wi] * (1 - frac) + values[wi + 1] * frac)
