"""Branch-history entropy profiling (De Pestel et al. [10]).

For each pool we estimate, at several global-history depths ``h``, the
*achievable* misprediction rate of an ideal table predictor indexed by
(branch PC, h history bits).  Two estimators are combined:

* the **in-sample floor** ``sum_ctx w_ctx * min(p_ctx, 1 - p_ctx)`` —
  the linear-branch-entropy statistic, which underestimates for sparse
  contexts (a context seen once has floor zero no matter how random the
  branch actually is);
* a **cross-validated floor**: the stream is split in half, a majority
  table is trained on the first half and evaluated on the second, with
  unseen contexts falling back to the per-PC majority and then the
  global majority.  This captures trainability: a deterministic loop
  pattern generalizes (low CV floor), i.i.d. noise does not (CV floor
  near ``min(p, 1-p)``), and noisy histories pay the fallback cost —
  exactly the costs a real history-based predictor pays.

Both statistics depend only on the branch stream, never on a concrete
predictor configuration, so they are microarchitecture-independent.
The distinct-context counts feed the aliasing term of the predictor
model in :mod:`repro.branch.entropy_model`.

Performance shape: one *suffix-packed* key — ``(pc << dmax) | rhist``
with the most recent outcome in the top history bit — is sorted once,
and every depth's context grouping falls out of the same sorted order
by a shift (a depth-``d`` context is a prefix of the depth-``dmax``
key).  The per-depth ``np.unique`` sorts this replaces were ~30% of
profiling wall-clock.  Group statistics are re-ordered to the legacy
per-depth key order before the floating-point reductions, so every
floor is bit-identical to the reference path
(:func:`_branch_stats_reference`, kept as the executable spec).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lru import LRUCache
from repro.profiler.profile import BranchStats

#: History depths profiled; the predictor model interpolates.
DEPTH_GRID = (0, 2, 4, 8, 12)


def _history_ints(taken: np.ndarray, depth: int) -> np.ndarray:
    """Global-history register value before each branch (depth bits)."""
    n = len(taken)
    if depth == 0 or n == 0:
        return np.zeros(n, dtype=np.int64)
    hist = np.zeros(n, dtype=np.int64)
    t = taken.astype(np.int64)
    # hist[i] = sum_{j=1..depth} taken[i-j] << (j-1); vectorized by
    # accumulating shifted copies of the outcome stream.
    for j in range(1, depth + 1):
        hist[j:] |= t[:-j] << (j - 1)
    return hist


def _packed_history(taken: np.ndarray, depth: int) -> np.ndarray:
    """Bit-reversed history register: the *most recent* outcome in the
    top bit, so the depth-``d`` context is the top ``d`` bits — a prefix
    of the full-depth value, which is what makes one sort serve every
    depth."""
    n = len(taken)
    if depth == 0 or n == 0:
        return np.zeros(n, dtype=np.int64)
    hist = np.zeros(n, dtype=np.int64)
    t = taken.astype(np.int64)
    for j in range(1, depth + 1):
        hist[j:] |= t[:-j] << (depth - j)
    return hist


def _majority(
    keys: np.ndarray, taken: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique keys and their majority outcome (ties -> taken)."""
    uniq, inverse, counts = np.unique(
        keys, return_inverse=True, return_counts=True
    )
    takens = np.bincount(inverse, weights=taken.astype(np.float64))
    return uniq, (2.0 * takens >= counts)


def _predict(
    keys: np.ndarray,
    table_keys: np.ndarray,
    table_pred: np.ndarray,
    fallback: np.ndarray,
) -> np.ndarray:
    """Majority-table lookup with per-branch fallback for unseen keys."""
    if len(table_keys) == 0:
        return fallback
    idx = np.searchsorted(table_keys, keys)
    idx_c = np.minimum(idx, len(table_keys) - 1)
    found = table_keys[idx_c] == keys
    return np.where(found, table_pred[idx_c], fallback)


def _cv_floor(
    pcs: np.ndarray, taken: np.ndarray, keys: np.ndarray
) -> float:
    """Split-half cross-validated miss rate of an ideal majority table.

    Trained on the first half of the stream, evaluated on the second;
    unseen (pc, history) contexts fall back to the training half's
    per-PC majority, then to the global majority.
    """
    n = len(keys)
    half = n // 2
    if half == 0:
        return 0.0
    global_maj = bool(2 * int(taken.sum()) >= n)

    pc_keys, pc_pred = _majority(pcs[:half], taken[:half])
    fallback = _predict(
        pcs[half:], pc_keys, pc_pred,
        np.full(n - half, global_maj, dtype=bool),
    )
    ctx_keys, ctx_pred = _majority(keys[:half], taken[:half])
    pred = _predict(keys[half:], ctx_keys, ctx_pred, fallback)
    return float(np.mean(pred != (taken[half:] > 0)))


def _in_sample_floor(keys: np.ndarray, taken: np.ndarray) -> float:
    """Weighted irreducible misprediction floor over observed contexts."""
    _, inverse, counts = np.unique(
        keys, return_inverse=True, return_counts=True
    )
    takens = np.bincount(inverse, weights=taken.astype(np.float64))
    p = takens / counts
    floors = np.minimum(p, 1.0 - p)
    return float((floors * counts).sum() / counts.sum())


def _empty_stats(depths: Sequence[int]) -> BranchStats:
    return BranchStats(
        n_branches=0, taken_rate=0.0, floors={d: 0.0 for d in depths},
        n_static=0, contexts={d: 0 for d in depths},
    )


def _concat_streams(
    streams: List[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    pcs = np.concatenate([p for p, _ in streams]).astype(np.int64)
    taken = np.concatenate([t for _, t in streams]).astype(np.int64)
    return pcs, taken


def _branch_stats_reference(
    streams: List[Tuple[np.ndarray, np.ndarray]],
    depths: Sequence[int] = DEPTH_GRID,
) -> BranchStats:
    """Per-depth ``np.unique`` reference — the seed implementation,
    preserved as the executable spec the shared-sort path is equivalence
    tested against (``tests/test_branch.py``)."""
    streams = [(p, t) for p, t in streams if len(p)]
    if not streams:
        return _empty_stats(depths)
    pcs, taken = _concat_streams(streams)
    n = len(pcs)

    floors: Dict[int, float] = {}
    contexts: Dict[int, int] = {}
    for depth in depths:
        keys = pcs << depth
        if depth:
            keys = keys | _history_ints(taken, depth)
        # The achievable rate is at least the in-sample floor (true
        # context randomness) and at least the CV rate (training and
        # generalization cost); take the max of the two lower bounds.
        floors[depth] = max(
            _in_sample_floor(keys, taken), _cv_floor(pcs, taken, keys)
        )
        contexts[depth] = int(len(np.unique(keys)))
    return BranchStats(
        n_branches=n,
        taken_rate=float(taken.sum()) / n,
        floors=floors,
        n_static=int(len(np.unique(pcs))),
        contexts=contexts,
    )


def _legacy_group_order(group_keys: np.ndarray, depth: int) -> np.ndarray:
    """Permutation putting suffix-packed groups in legacy key order.

    The legacy key stores the history with the most recent outcome in
    the *low* bit; the packed key stores it in the *top* bit.  The two
    encode the same (pc, outcome tuple), so bit-reversing the history
    field recovers the legacy key, whose sorted order fixed the
    floating-point summation order of the in-sample floor.
    """
    if depth == 0:
        return np.arange(len(group_keys))
    mask = (np.int64(1) << depth) - 1
    bits = group_keys & mask
    rev = np.zeros(len(group_keys), dtype=np.int64)
    for b in range(depth):
        rev |= ((bits >> b) & 1) << (depth - 1 - b)
    legacy = ((group_keys >> depth) << depth) | rev
    return np.argsort(legacy, kind="stable")


#: Resident entries of every :class:`BranchStatsCache`, read at
#: construction.
BRANCH_CACHE_MAX_ENTRIES = 8192


class BranchStatsCache(LRUCache):
    """Content-addressed memo of per-pool branch statistics.

    ``branch_stats`` is a pure function of the concatenated
    (pc, taken) stream, so re-profiling a trace the session has seen
    before can skip the shared-sort analysis entirely.  Keys hash the
    concatenated stream content — how the stream was split into chunk
    pieces does not matter, exactly as it does not matter to
    :func:`branch_stats` itself.  Returned :class:`BranchStats` objects
    are shared and must be treated as read-only (all consumers are).
    """

    def __init__(self) -> None:
        super().__init__(BRANCH_CACHE_MAX_ENTRIES)

    @staticmethod
    def key(pcs: np.ndarray, taken: np.ndarray) -> bytes:
        h = hashlib.sha256()
        h.update(f"branch|{len(pcs)}|".encode())
        h.update(np.ascontiguousarray(pcs).tobytes())
        h.update(np.ascontiguousarray(taken).tobytes())
        return h.digest()


def cached_branch_stats(
    streams: List[Tuple[np.ndarray, np.ndarray]],
    cache: Optional[BranchStatsCache] = None,
    depths: Sequence[int] = DEPTH_GRID,
) -> BranchStats:
    """:func:`branch_stats` through an optional content-addressed memo."""
    if cache is None:
        return branch_stats(streams, depths)
    pieces = [(p, t) for p, t in streams if len(p)]
    if not pieces:
        return branch_stats(pieces, depths)
    pcs, taken = _concat_streams(pieces)
    key = cache.key(pcs, taken)
    stats = cache.get(key)
    if stats is None:
        stats = branch_stats([(pcs, taken)], depths)
        cache.put(key, stats)
    return stats


def branch_stats(
    streams: List[Tuple[np.ndarray, np.ndarray]],
    depths: Sequence[int] = DEPTH_GRID,
) -> BranchStats:
    """Compute :class:`BranchStats` from (pc, taken) stream pieces.

    Pieces are concatenated before analysis — floors computed per piece
    would overfit sparsely-populated contexts.  History registers are
    computed over the concatenated stream (chunk edges are a negligible
    reordering for realistic chunk sizes).

    Bit-identical to :func:`_branch_stats_reference`, with one shared
    ``argsort`` replacing the per-depth ``np.unique`` sorts.
    """
    streams = [(p, t) for p, t in streams if len(p)]
    if not streams:
        return _empty_stats(depths)
    pcs, taken = _concat_streams(streams)
    n = len(pcs)
    half = n // 2
    dmax = max(depths) if depths else 0

    # One suffix-packed sort serves every depth: the depth-d context
    # key is a prefix (right shift) of the full packed key.
    packed = (pcs << dmax) | _packed_history(taken, dmax)
    order = np.argsort(packed, kind="stable")
    sorted_keys = packed[order]
    sorted_taken = (taken[order] > 0)
    sorted_train = order < half  # first-half membership, sorted order
    sorted_test_taken = ~sorted_train & sorted_taken
    train_f = sorted_train.astype(np.float64)
    taken_f = sorted_taken.astype(np.float64)
    train_taken_f = (sorted_train & sorted_taken).astype(np.float64)

    # Depth-independent CV machinery, hoisted out of the depth loop:
    # the per-PC fallback table and the global majority.
    if half:
        global_maj = bool(2 * int(taken.sum()) >= n)
        pc_keys, pc_pred = _majority(pcs[:half], taken[:half])
        fallback_sorted = _predict(
            pcs[order], pc_keys, pc_pred,
            np.full(n, global_maj, dtype=bool),
        )
        fb_miss_sorted = (fallback_sorted != sorted_taken) & ~sorted_train

    floors: Dict[int, float] = {}
    contexts: Dict[int, int] = {}
    for depth in depths:
        gk = sorted_keys >> (dmax - depth) if depth < dmax else sorted_keys
        bounds = np.flatnonzero(
            np.concatenate([[True], gk[1:] != gk[:-1]])
        )
        counts = np.diff(np.append(bounds, n))
        takens = np.add.reduceat(taken_f, bounds)
        contexts[depth] = len(bounds)

        # In-sample floor: identical multiset of per-group terms; the
        # legacy-order permutation reproduces the reference summation
        # order exactly (floating-point addition is order-sensitive).
        g_order = _legacy_group_order(gk[bounds], depth)
        counts_o = counts[g_order]
        p = takens[g_order] / counts_o
        group_floors = np.minimum(p, 1.0 - p)
        in_sample = float(
            (group_floors * counts_o).sum() / counts_o.sum()
        )

        # CV floor: per-group majority trained on first-half members,
        # evaluated on second-half members; groups with no training
        # mass fall back to the per-PC prediction element-wise.  Only
        # key *equality* matters, so group aggregates reproduce the
        # reference's per-element predictions exactly.
        if half == 0:
            cv = 0.0
        else:
            train_cnt = np.add.reduceat(train_f, bounds)
            train_tkn = np.add.reduceat(train_taken_f, bounds)
            test_cnt = counts - train_cnt
            test_tkn = np.add.reduceat(
                sorted_test_taken.astype(np.float64), bounds
            )
            pred = 2.0 * train_tkn >= train_cnt
            trained = train_cnt > 0
            misses = float(np.where(
                trained, np.where(pred, test_cnt - test_tkn, test_tkn),
                0.0,
            ).sum())
            untrained_members = ~np.repeat(trained, counts)
            if untrained_members.any():
                misses += float(
                    fb_miss_sorted[untrained_members].sum()
                )
            cv = misses / (n - half)
        floors[depth] = max(in_sample, cv)

    n_static = int(
        (np.diff(sorted_keys >> dmax) != 0).sum() + 1
    ) if n else 0
    return BranchStats(
        n_branches=n,
        taken_rate=float(taken.sum()) / n,
        floors=floors,
        n_static=n_static,
        contexts=contexts,
    )
