"""Fused flat-grid ILP scoreboard engine.

:func:`repro.profiler.ilp.scoreboard_replay` advances a dependence
scoreboard one op at a time, once per (sample, window, load-latency)
grid point — O(samples x windows x lats x len) Python-level steps, the
dominant profiling cost after the reuse-distance engine was vectorized.
This module stacks all micro-trace samples into lockstep arrays and
advances the *same* recurrence one instruction-step at a time across
the whole (samples x windows x lats) grid simultaneously, so the
Python loop is O(width) total:

* ``comp[i]  = max(commit[i - W], comp[i - dep[i]]) + lat[i]``
  evaluated as one flat-grid array step,
* ``commit[i] = max(commit[i - 1], comp[i])`` as a running maximum,
* the branch backward-slice load counts and the per-window load-chain
  depths of :func:`repro.profiler.ilp.load_parallelism` ride along in
  the same pass, so one loop yields the full
  :class:`~repro.profiler.profile.ILPTable`.

The kernel is *fused*: the (sample, window, latency) axes are kept as
one contiguous grid, every gather (producer completion, window
dispatch, slice loads, chain depth) is a single ``np.take`` driven by
index tables precomputed once per batch, invalid/out-of-reach lookups
are redirected to an all-zero sentinel row instead of masked with
``np.where``, and every per-step result lands in a preallocated
scratch row (``out=`` throughout) — :data:`DISPATCHES_PER_STEP` NumPy
dispatches per instruction step and **zero per-step allocations**
(regression-tested).  Chunk flushes and branch accumulation are
integer-valued, so they move out of the loop entirely and are reduced
exactly after it.

On top of the kernel, :func:`batch_scoreboard_pools` mega-batches an
entire suite: the samples of *many* pools are stacked into one
lockstep grid per width bucket (power-of-two widths bound padding
waste below 2x), so the Python-level loop is paid once per bucket
rather than once per pool.  ``profile_workload`` and
:class:`ILPTableCache` misses route through it, and the per-op-latency
prediction path (:func:`batch_hierarchy_ilp`) reuses the same fused
kernel with the auxiliary outputs disabled.

Samples of unequal length are padded with no-ops; every per-sample
readout (makespan, branch counts, chunk flushes) indexes the true
length, so padding never leaks into results and a sample's row is
independent of what it is batched with.  All arithmetic is the same
float64 max/add sequence as the scalar spec, in the same per-element
order, so tables agree to float64 exactness (tested against
:func:`repro.profiler.ilp.scoreboard_replay`, the preserved executable
spec, and pinned bit-identical across arbitrary bucketings).

Because the profiling grid is microarchitecture-*independent*, the
tables are also memoized: :class:`ILPTableCache` keys a pool's table
by a content digest of its samples and grids (in-process dict backed
by the on-disk :class:`~repro.experiments.store.ProfileStore`), so
design-space sweeps never rebuild a table for dependence structure
they have already profiled.  The digest is bucketing-independent, so
tables persisted before the fused kernel stay valid.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lru import LRUCache
from repro.obs import span
from repro.profiler.ilp import (
    CANONICAL_LAT,
    LOAD_LAT_GRID,
    WINDOW_GRID,
)
from repro.profiler.profile import ILPTable
from repro.workloads.ir import OP_BRANCH, OP_LOAD

#: One micro-trace sample: (op codes, backward dependence distances).
Sample = Tuple[np.ndarray, np.ndarray]

#: NumPy dispatches per instruction step in the fused ILP recurrence
#: (ready gather, dispatch gather, max, latency add, commit max).
CORE_DISPATCHES_PER_STEP = 5
#: Extra dispatches when the auxiliary branch-slice / load-chain
#: outputs are on (per history: sentinel gather, reach mask multiply,
#: load-increment add).
AUX_DISPATCHES_PER_STEP = 6
#: Total per-step dispatches of a full-table advance.
DISPATCHES_PER_STEP = CORE_DISPATCHES_PER_STEP + AUX_DISPATCHES_PER_STEP


class KernelStats:
    """Process-wide fused-kernel counters (monotonic, thread-safe).

    Surfaced by the serving subsystem's ``/healthz`` and diffed by the
    bench harness for the ``kernel`` section of ``BENCH_profiler.json``
    — the observability face of the mega-batching trajectory.
    """

    _FIELDS = (
        "pools", "samples", "buckets", "batches", "steps",
        "dispatches", "grid_slots", "occupied_slots",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self._FIELDS:
            setattr(self, name, 0)

    def record_batch(
        self, samples: int, steps: int, occupied: int, aux: bool
    ) -> None:
        per_step = DISPATCHES_PER_STEP if aux else CORE_DISPATCHES_PER_STEP
        with self._lock:
            self.samples += samples
            self.batches += 1
            self.steps += steps
            self.dispatches += steps * per_step
            self.grid_slots += samples * steps
            self.occupied_slots += occupied

    def record_pools(self, pools: int, buckets: int) -> None:
        with self._lock:
            self.pools += pools
            self.buckets += buckets

    def snapshot(self) -> Dict[str, float]:
        """Counter snapshot plus the derived bucket fill ratio."""
        with self._lock:
            out: Dict[str, float] = {
                name: getattr(self, name) for name in self._FIELDS
            }
        out["bucket_fill"] = (
            out["occupied_slots"] / out["grid_slots"]
            if out["grid_slots"] else 1.0
        )
        return out


#: The process-wide counter instance every kernel entry point feeds.
KERNEL_STATS = KernelStats()


class _Workspace:
    """Reusable buffers and static tables for one fused-grid shape.

    Everything that depends only on the grid *shape* — the history
    buffers, the dispatch index table, per-step scratch, and the
    per-step row views the loop walks — is built once and reused;
    per-call content (producer rows, reach/chunk masks, latencies) is
    recomputed into preallocated buffers.  Every history row is fully
    overwritten at its step before any gather reads it, so the
    histories never need wholesale zeroing — only the gather sentinel
    row and the running-max seed row are cleared per run.  Workspaces
    are cached per thread (keyed by grid shape and window grid), so
    repeated same-shape advances — the bench loop, serving cold
    paths, per-bucket suite replays — skip the allocation, the
    first-touch page faults and the index-table construction of
    ~100s of MB of state.
    """

    __slots__ = (
        "key", "nbytes", "steps", "comp", "commit", "disp_buf",
        "slice_hist", "chain_hist", "comp2d", "commit_cells",
        "slice2d", "chain2d", "prod_rows", "valid_t", "bool_ns",
        "lat_steps", "disp_idx", "imod", "reach", "chunk", "bool3",
        "load_step", "comp_rows", "comp_grids", "commit_rows",
        "lat_rows", "prod_list", "disp_list", "reach_list",
        "chunk_list", "srow_list", "hrow_list", "load_list",
    )

    #: Attributes owning distinct array storage (views excluded).
    _BUFFERS = (
        "comp", "commit", "disp_buf", "slice_hist", "chain_hist",
        "prod_rows", "valid_t", "bool_ns", "lat_steps", "disp_idx",
        "imod", "reach", "chunk", "bool3", "load_step",
    )

    def __init__(self, key: tuple) -> None:
        n, s, w, lats, aux, windows = key
        self.key = key
        w_arr = np.asarray(windows, dtype=np.int64)
        steps = np.arange(n, dtype=np.int64)
        self.steps = steps

        # Histories: (N + 1, S, grid...) rows; row N is the all-zero
        # gather sentinel, commit row 0 the pre-step running max.
        self.comp = np.empty((n + 1, s, w, lats))
        self.commit = np.empty((n + 1, s, w, lats))
        self.comp2d = self.comp.reshape((n + 1) * s, w * lats)
        self.commit_cells = self.commit.reshape((n + 1) * s * w, lats)
        self.disp_buf = np.empty((s, w, lats))

        # Dispatch index table: static — commit row i - w + 1 (row 0
        # while the window has not filled), at cell (row, s, w).
        open_rows = np.where(
            steps[:, None] >= w_arr[None, :],
            steps[:, None] - w_arr[None, :] + 1,
            0,
        )
        base_sw = np.arange(s, dtype=np.int64)[:, None] * w + np.arange(
            w, dtype=np.int64
        )
        self.disp_idx = (
            open_rows[:, None, :] * (s * w) + base_sw
        ).astype(np.intp, copy=False)  # (N, S, W)

        # Per-call content buffers.
        self.prod_rows = np.empty((n, s), dtype=np.intp)
        self.valid_t = np.empty((n, s), dtype=bool)
        self.bool_ns = np.empty((n, s), dtype=bool)
        self.lat_steps = np.empty((n, s, 1, lats))

        if aux:
            self.slice_hist = np.empty((n + 1, s, w))
            self.chain_hist = np.empty((n + 1, s, w))
            self.slice2d = self.slice_hist.reshape((n + 1) * s, w)
            self.chain2d = self.chain_hist.reshape((n + 1) * s, w)
            self.imod = steps[:, None] % w_arr[None, :]  # (N, W)
            self.reach = np.empty((n, s, w))
            self.chunk = np.empty((n, s, w))
            self.bool3 = np.empty((n, s, w), dtype=bool)
            self.load_step = np.empty((n, s, 1))
        else:
            self.slice_hist = self.chain_hist = None
            self.slice2d = self.chain2d = None
            self.imod = self.reach = self.chunk = None
            self.bool3 = self.load_step = None

        self.nbytes = sum(
            buf.nbytes
            for name in self._BUFFERS
            if (buf := getattr(self, name)) is not None
        )

        # Per-step row views, materialized once: the loop body then
        # performs no indexing-driven allocation at all.
        self.comp_rows = [
            self.comp[i].reshape(s, w * lats) for i in range(n)
        ]
        self.comp_grids = list(self.comp[:n])
        self.commit_rows = list(self.commit)
        self.lat_rows = list(self.lat_steps)
        self.prod_list = list(self.prod_rows)
        self.disp_list = list(self.disp_idx)
        if aux:
            self.reach_list = list(self.reach)
            self.chunk_list = list(self.chunk)
            self.srow_list = list(self.slice_hist[:n])
            self.hrow_list = list(self.chain_hist[:n])
            self.load_list = list(self.load_step)

    def reset(self) -> None:
        n = self.key[0]
        self.comp[n] = 0.0
        self.commit[0] = 0.0
        if self.slice_hist is not None:
            self.slice_hist[n] = 0.0
            self.chain_hist[n] = 0.0


_TLS = threading.local()
#: Workspaces kept per thread — covers a suite's width buckets plus
#: the aux=False prediction grid without thrashing.
_WORKSPACE_SLOTS = 6
#: Byte budget per thread for cached workspaces: a full-suite grid is
#: ~250 MB, so two large shapes plus change fit; a long-lived serving
#: worker that once profiled a huge workload does not pin gigabytes.
_WORKSPACE_MAX_BYTES = 768 * 2**20


def _workspace(
    n: int, s: int, w: int, lats: int, aux: bool, windows: tuple
) -> _Workspace:
    key = (n, s, w, lats, aux, windows)
    cache: Optional[LRUCache] = getattr(_TLS, "ws", None)
    if cache is None:
        cache = _TLS.ws = LRUCache(_WORKSPACE_SLOTS, _WORKSPACE_MAX_BYTES)
    ws = cache.get(key)
    if ws is None:
        ws = _Workspace(key)
        # One larger than the whole budget is used once, never pinned.
        cache.put(key, ws, ws.nbytes)
    ws.reset()
    return ws


def stack_samples(
    samples: Sequence[Sample],
    width: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad samples into lockstep ``(op, dep, lengths)`` arrays.

    Padding entries are no-ops (``op=0, dep=0``): they never produce
    loads, branches or valid dependences, and every readout below is
    gated on ``lengths``.  ``width`` pads to a caller-chosen grid
    width (the mega-batcher's bucket width) instead of the natural
    ``max(lengths)``; it must cover the longest sample.
    """
    n_samples = len(samples)
    lengths = np.array(
        [len(o) for o, _ in samples], dtype=np.int64
    ).reshape(n_samples)
    natural = int(lengths.max()) if n_samples else 0
    if width is None:
        width = natural
    elif width < natural:
        raise ValueError(
            f"stack width {width} below longest sample {natural}"
        )
    op = np.zeros((n_samples, width), dtype=np.int64)
    dep = np.zeros((n_samples, width), dtype=np.int64)
    for s, (o, d) in enumerate(samples):
        op[s, : lengths[s]] = np.asarray(o, dtype=np.int64)
        dep[s, : lengths[s]] = np.asarray(d, dtype=np.int64)
    return op, dep, lengths


def grid_latencies(
    op: np.ndarray, load_lats: Sequence[float]
) -> np.ndarray:
    """Per-op latencies for every grid latency: shape (S, N, L).

    Non-load classes take their canonical latency on every grid point;
    loads take the grid value.
    """
    canon = np.asarray(CANONICAL_LAT, dtype=np.float64)
    lat = np.repeat(
        canon[op][:, :, None], max(len(load_lats), 1), axis=2
    )
    lat[op == OP_LOAD] = np.asarray(load_lats, dtype=np.float64)
    return lat


def batch_scoreboard(
    op: np.ndarray,
    dep: np.ndarray,
    lengths: np.ndarray,
    windows: Sequence[int],
    lat: np.ndarray,
    aux: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the scoreboard recurrence for all grid points at once.

    Parameters mirror :func:`stack_samples` / :func:`grid_latencies`;
    ``lat`` has shape (S, N, L) where L is the latency-grid axis (1 for
    the per-op-latency prediction path).  With ``aux=False`` the
    branch-slice and load-chain bookkeeping is skipped entirely
    (placeholder zeros / ones are returned) — the per-op-latency
    prediction path only consumes the ILP grid.

    Returns ``(ilp, branch_loads, load_par)`` with shapes
    (S, W, L), (S, W) and (S, W) — per-sample values, aggregated by the
    caller exactly as the scalar :func:`~repro.profiler.ilp.
    build_ilp_table` aggregates its per-sample replays.

    The advance is the fused flat-grid kernel described in the module
    docstring: index tables are built once per batch, the O(width)
    loop issues :data:`DISPATCHES_PER_STEP` contiguous NumPy ops per
    step into preallocated scratch rows, and allocates nothing.
    """
    n_samples, width = op.shape
    w_arr = np.asarray(windows, dtype=np.int64)
    n_windows = len(w_arr)
    if lat.ndim == 2:
        lat = lat[:, :, None]
    n_lats = lat.shape[2]
    if n_samples == 0 or width == 0:
        return (
            np.ones((n_samples, n_windows, n_lats)),
            np.zeros((n_samples, n_windows)),
            np.ones((n_samples, n_windows)),
        )
    S, N, W, L = n_samples, width, n_windows, n_lats

    is_load = op == OP_LOAD
    steps_sn = np.arange(N, dtype=np.int64)[None, :]
    in_range = steps_sn < lengths[:, None]
    is_branch = (op == OP_BRANCH) & in_range

    # -- workspace: histories, static tables, scratch (thread-local) ----
    ws = _workspace(N, S, W, L, aux, tuple(int(w) for w in w_arr))
    steps = ws.steps
    comp = ws.comp  # row N: gather sentinel
    commit = ws.commit  # row 0: pre-step running max
    disp_buf = ws.disp_buf

    # -- per-call content tables, computed into reused buffers ----------
    # Histories are laid out (N + 1, S, ...grid): element (r, s) is one
    # contiguous row of the per-sample grid, so a producer gather is S
    # row copies instead of S * W * L element picks — the gather is
    # bandwidth- not latency-bound.  Row N is the all-zero sentinel
    # that invalid producers are redirected to, replacing per-step
    # ``np.where`` masking.  One shared table serves the comp, slice
    # and chain gathers (their gates all imply a valid producer; the
    # per-window reach/chunk gates become exact {0, 1} mask
    # multiplies — every masked value is a finite non-negative count).
    dep_t = dep.T  # (N, S) view
    valid_t = ws.valid_t
    np.greater(dep_t, 0, out=valid_t)
    np.less_equal(dep_t, steps[:, None], out=ws.bool_ns)
    np.logical_and(valid_t, ws.bool_ns, out=valid_t)
    prod_rows = ws.prod_rows  # (N, S) history rows r * S + s
    np.subtract(steps[:, None], dep_t, out=prod_rows)
    np.logical_not(valid_t, out=ws.bool_ns)
    prod_rows[ws.bool_ns] = N
    np.multiply(prod_rows, S, out=prod_rows)
    np.add(prod_rows, np.arange(S, dtype=np.intp), out=prod_rows)

    np.copyto(
        ws.lat_steps, lat.transpose(1, 0, 2)[:, :, None, :]
    )  # (N, S, 1, L)

    if aux:
        dep3 = dep_t[:, :, None]  # (N, S, 1)
        bool3 = ws.bool3
        np.less_equal(dep3, w_arr[None, None, :], out=bool3)
        np.logical_and(bool3, valid_t[:, :, None], out=bool3)
        np.copyto(ws.reach, bool3)  # (N, S, W) float {0, 1}
        np.less_equal(dep3, ws.imod[:, None, :], out=bool3)
        np.logical_and(bool3, valid_t[:, :, None], out=bool3)
        np.copyto(ws.chunk, bool3)
        np.copyto(ws.load_step, is_load.T[:, :, None])

    # The loop walks per-step row views materialized in the workspace —
    # no indexing-driven allocation, only ``out=`` dispatches.  Bound
    # ``.take`` methods skip the ``np.take`` wrapper, measurable at
    # ~3.5k gathers per advance.
    comp_rows = ws.comp_rows
    comp_grids = ws.comp_grids
    commit_rows = ws.commit_rows
    lat_rows = ws.lat_rows
    prod_list = ws.prod_list
    disp_list = ws.disp_list
    take_comp = ws.comp2d.take
    take_commit = ws.commit_cells.take
    maximum, add, multiply = np.maximum, np.add, np.multiply
    if aux:
        slice_hist = ws.slice_hist
        chain_hist = ws.chain_hist
        reach_list = ws.reach_list
        chunk_list = ws.chunk_list
        srow_list = ws.srow_list
        hrow_list = ws.hrow_list
        load_list = ws.load_list
        take_slice = ws.slice2d.take
        take_chain = ws.chain2d.take

    for i in range(N):
        grid = comp_grids[i]
        # comp[i] = max(producer completion, dispatch bound) + latency
        take_comp(prod_list[i], axis=0, out=comp_rows[i], mode="clip")
        take_commit(disp_list[i], axis=0, out=disp_buf, mode="clip")
        maximum(grid, disp_buf, out=grid)
        add(grid, lat_rows[i], out=grid)
        # commit[i] = max(commit[i - 1], comp[i]) (in-order commit)
        maximum(commit_rows[i], grid, out=commit_rows[i + 1])
        if aux:
            srow = srow_list[i]
            take_slice(prod_list[i], axis=0, out=srow, mode="clip")
            multiply(srow, reach_list[i], out=srow)
            add(srow, load_list[i], out=srow)
            hrow = hrow_list[i]
            take_chain(prod_list[i], axis=0, out=hrow, mode="clip")
            multiply(hrow, chunk_list[i], out=hrow)
            add(hrow, load_list[i], out=hrow)

    KERNEL_STATS.record_batch(
        samples=S, steps=N, occupied=int(lengths.sum()), aux=aux
    )

    # -- per-sample readouts at true lengths ----------------------------
    s_idx = np.arange(S)
    makespan = commit[lengths, s_idx]  # (S, W, L)
    n_f = lengths.astype(np.float64)[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ilp = np.where(makespan > 0, n_f / makespan, n_f)
    ilp = np.maximum(ilp, 1e-3)
    ilp[lengths == 0] = 1.0
    if not aux:
        return ilp, np.zeros((S, W)), np.ones((S, W))

    # Branch backward-slice load counts: every term is integer-valued,
    # so the exact per-step accumulation of the spec reduces to one
    # order-independent contraction after the loop.
    branch_count = is_branch.sum(axis=1).astype(np.float64)
    loads_sum = np.einsum(
        "isw,si->sw", slice_hist[:N], is_branch.astype(np.float64)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        branch_loads = np.where(
            branch_count[:, None] > 0,
            loads_sum / branch_count[:, None],
            0.0,
        )

    # Load-chain depth per window chunk: the spec's per-chunk running
    # max becomes one exact segmented reduction per chunk boundary
    # (integer-valued sums), gated on the chunk starting in-sample.
    depth_sum = np.zeros((S, W))
    max_buf = np.empty(S)
    gate_buf = np.empty(S, dtype=bool)
    for wi in range(W):
        w = int(w_arr[wi])
        col = depth_sum[:, wi]
        for c0 in range(0, N, w):
            seg = chain_hist[c0:min(c0 + w, N), :, wi]
            np.max(seg, axis=0, out=max_buf)
            np.maximum(max_buf, 1.0, out=max_buf)
            np.less(c0, lengths, out=gate_buf)
            np.multiply(max_buf, gate_buf, out=max_buf)
            np.add(col, max_buf, out=col)

    total_loads = (is_load & in_range).sum(axis=1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        load_par = np.where(
            total_loads[:, None] > 0,
            np.maximum(1.0, total_loads[:, None] / depth_sum),
            1.0,
        )
    return ilp, branch_loads, load_par


def default_bucket_width(n: int) -> int:
    """Mega-batch width bucket for a sample of ``n`` ops.

    The smallest power of two covering ``n`` (floor 16): padding waste
    is bounded below 2x while the number of distinct lockstep grids —
    and with it the Python-loop count — stays logarithmic in the
    sample-length spread.
    """
    if n <= 16:
        return 16
    return 1 << (n - 1).bit_length()


def batch_scoreboard_pools(
    pool_samples: Sequence[Sequence[Sample]],
    windows: Sequence[int] = WINDOW_GRID,
    load_lats: Sequence[int] = LOAD_LAT_GRID,
    bucket_fn: Optional[Callable[[int], int]] = None,
) -> List[ILPTable]:
    """Suite-wide mega-batch: many pools, one fused advance per bucket.

    Every pool's samples are stacked into a single lockstep grid per
    width bucket (``bucket_fn`` maps a sample length to its grid
    width; default :func:`default_bucket_width`), so the per-step
    Python loop is paid once per bucket for the *whole suite* instead
    of once per pool — and short samples never pad out to the longest
    sample in the suite.

    Per-sample kernel rows are independent of their co-batched
    neighbours, and per-pool aggregation runs over the samples in
    their original order, so the returned tables are bit-identical to
    per-pool :func:`batch_scoreboard` runs for *any* bucketing
    (hypothesis-tested).
    """
    if bucket_fn is None:
        bucket_fn = default_bucket_width
    windows = tuple(windows)
    load_lats = tuple(load_lats)
    n_w, n_l = len(windows), len(load_lats)
    counts = [len(samples) for samples in pool_samples]
    flat = [smp for samples in pool_samples for smp in samples]
    n_total = len(flat)

    if n_total:
        all_ilp = np.empty((n_total, n_w, n_l))
        all_bl = np.empty((n_total, n_w))
        all_lp = np.empty((n_total, n_w))
        buckets: Dict[int, List[int]] = {}
        for gi, (o, _) in enumerate(flat):
            bw = int(bucket_fn(len(o)))
            if bw < len(o):
                raise ValueError(
                    f"bucket width {bw} below sample length {len(o)}"
                )
            buckets.setdefault(bw, []).append(gi)
        for bw in sorted(buckets):
            idxs = buckets[bw]
            op, dep, lengths = stack_samples(
                [flat[gi] for gi in idxs], width=bw
            )
            lat = grid_latencies(op, load_lats)
            ilp, bl, lp = batch_scoreboard(
                op, dep, lengths, windows, lat
            )
            all_ilp[idxs] = ilp
            all_bl[idxs] = bl
            all_lp[idxs] = lp
        KERNEL_STATS.record_pools(
            pools=sum(1 for c in counts if c), buckets=len(buckets)
        )

    tables: List[ILPTable] = []
    offset = 0
    for count in counts:
        if count == 0:
            tables.append(_empty_table(windows, load_lats))
            continue
        lo, hi = offset, offset + count
        offset = hi
        tables.append(_aggregate_table(
            all_ilp[lo:hi], all_bl[lo:hi], all_lp[lo:hi],
            windows, load_lats,
        ))
    return tables


def batch_hierarchy_ilp(
    samples: Sequence[Sample],
    window: int,
    per_op_lats: Sequence[np.ndarray],
) -> float:
    """Harmonic-mean ILP with per-load latencies, via the fused kernel.

    ``per_op_lats[s]`` carries sample ``s``'s per-op latency vector
    (only load positions are read — non-loads take canonical
    latencies, as in the scalar spec's per-op mode).  Only the ILP
    grid is consumed, so the kernel's auxiliary branch/chain pass is
    skipped (``aux=False``).
    """
    if not samples:
        return 1.0
    op, dep, lengths = stack_samples(samples)
    canon = np.asarray(CANONICAL_LAT, dtype=np.float64)
    lat = canon[op]
    for s, per_op in enumerate(per_op_lats):
        mask = op[s, : lengths[s]] == OP_LOAD
        lat[s, : lengths[s]][mask] = np.asarray(
            per_op, dtype=np.float64
        )[mask]
    ilp, _, _ = batch_scoreboard(
        op, dep, lengths, (window,), lat[:, :, None], aux=False
    )
    return 1.0 / float(np.mean(1.0 / ilp[:, 0, 0]))


def _aggregate_table(
    ilp: np.ndarray,
    branch_loads: np.ndarray,
    load_par: np.ndarray,
    windows: Sequence[int],
    load_lats: Sequence[int],
) -> ILPTable:
    """Per-sample grids -> one pool table (rates average harmonically)."""
    return ILPTable(
        windows=tuple(windows),
        load_lats=tuple(load_lats),
        ilp=1.0 / np.mean(1.0 / ilp, axis=0),
        branch_loads=np.mean(branch_loads, axis=0),
        load_par=np.mean(load_par, axis=0),
    )


def _empty_table(
    windows: Sequence[int], load_lats: Sequence[int]
) -> ILPTable:
    return ILPTable(
        windows=tuple(windows),
        load_lats=tuple(load_lats),
        ilp=np.ones((len(windows), len(load_lats))),
        branch_loads=np.zeros(len(windows)),
        load_par=np.ones(len(windows)),
    )


class ILPTableCache:
    """Content-addressed memo for per-pool ILP tables.

    The profiling grid is configuration-independent, so a pool's table
    is a pure function of its micro-trace samples and the grids.  The
    cache layers an in-process dict over the optional on-disk
    :class:`~repro.experiments.store.ProfileStore`, sharing tables
    across design-space configurations, runs and processes.  Keys are
    independent of kernel batching, so entries persisted by earlier
    engine generations remain valid.
    """

    def __init__(self, store=None) -> None:
        self.store = store
        self._memo = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        samples: Sequence[Sample],
        windows: Sequence[int],
        load_lats: Sequence[int],
    ) -> str:
        digest = hashlib.sha256()
        digest.update(
            repr((tuple(windows), tuple(load_lats))).encode()
        )
        for o, d in samples:
            o = np.ascontiguousarray(np.asarray(o, dtype=np.int64))
            d = np.ascontiguousarray(np.asarray(d, dtype=np.int64))
            digest.update(len(o).to_bytes(8, "little"))
            digest.update(o.tobytes())
            digest.update(d.tobytes())
        return digest.hexdigest()

    def get(self, key: str) -> Optional[ILPTable]:
        table = self._memo.get(key)
        if table is None and self.store is not None:
            table = self.store.load_ilp_table(key)
            if table is not None:
                self._memo[key] = table
        if table is None:
            self.misses += 1
        else:
            self.hits += 1
        return table

    def put(self, key: str, table: ILPTable) -> None:
        self._memo[key] = table
        if self.store is not None:
            self.store.save_ilp_table(key, table)


def build_ilp_tables(
    pool_samples: Sequence[Sequence[Sample]],
    windows: Sequence[int] = WINDOW_GRID,
    load_lats: Sequence[int] = LOAD_LAT_GRID,
    cache: Optional[ILPTableCache] = None,
) -> List[ILPTable]:
    """All pools' ILP tables through the mega-batched fused kernel.

    Pools whose content the ``cache`` has seen before skip the replay
    entirely; the remaining pools run through
    :func:`batch_scoreboard_pools` — one fused lockstep advance per
    width bucket for the whole miss set.  Per-pool aggregation mirrors
    the scalar :func:`~repro.profiler.ilp.build_ilp_table` exactly.
    """
    with span("ilp.tables", pools=len(pool_samples)):
        return _build_ilp_tables(pool_samples, windows, load_lats, cache)


def _build_ilp_tables(
    pool_samples: Sequence[Sequence[Sample]],
    windows: Sequence[int],
    load_lats: Sequence[int],
    cache: Optional[ILPTableCache],
) -> List[ILPTable]:
    tables: List[Optional[ILPTable]] = [None] * len(pool_samples)
    keys: List[Optional[str]] = [None] * len(pool_samples)
    todo: List[int] = []
    alias: dict = {}  # pool index -> earlier pool with same content
    pending: dict = {}  # key -> first todo pool carrying it
    for pi, samples in enumerate(pool_samples):
        if not samples:
            tables[pi] = _empty_table(windows, load_lats)
            continue
        if cache is not None:
            keys[pi] = ILPTableCache.key(samples, windows, load_lats)
            if keys[pi] in pending:
                alias[pi] = pending[keys[pi]]
                continue
            hit = cache.get(keys[pi])
            if hit is not None:
                tables[pi] = hit
                continue
            pending[keys[pi]] = pi
        todo.append(pi)

    if todo:
        todo_tables = batch_scoreboard_pools(
            [pool_samples[pi] for pi in todo], windows, load_lats
        )
        for pi, table in zip(todo, todo_tables):
            tables[pi] = table
            if cache is not None:
                cache.put(keys[pi], table)
    for pi, src in alias.items():
        tables[pi] = tables[src]
    return tables


def build_ilp_table_batch(
    samples: Sequence[Sample],
    windows: Sequence[int] = WINDOW_GRID,
    load_lats: Sequence[int] = LOAD_LAT_GRID,
    cache: Optional[ILPTableCache] = None,
) -> ILPTable:
    """One pool's table via the batch engine (scalar-spec equivalent)."""
    return build_ilp_tables(
        [list(samples)], windows, load_lats, cache=cache
    )[0]
