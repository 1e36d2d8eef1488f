"""Columnar two-phase trace-expansion engine (planner/executor).

:mod:`repro.workloads.generator` expands a workload one segment at a
time, re-deriving the *static-code* artifacts — the layout-shuffled
loop body and the hidden periodic branch pattern — for every dynamic
segment, although they are a pure function of
``(layout_seed, code_region, mix, body_len)`` and therefore identical
across every epoch and thread executing the same code region.  With
the profiler's array work closed, that redundancy made expansion the
suite loop's dominant cost (~40% per the CI cProfile artifact).

This engine splits expansion into two phases:

1. **Plan** — walk one workload (or a whole suite of workloads),
   collect every ``(spec, thread, segment)`` expansion job, size one
   contiguous per-thread **arena** per trace column, and memoize the
   static-code artifacts: the loop-body layout (one
   ``layout_rng.permutation`` per static key instead of per segment)
   and, per ``(static key, n)``, the tiled op/iline columns plus the
   memory/branch/load index sets every dynamic fill needs.
2. **Execute** — run the per-segment dynamic draws (dependence
   distances, addresses, branch-outcome noise) writing straight into
   the arena; the resulting :class:`~repro.workloads.ir.TraceBlock`
   objects are zero-copy views of it.

Bit-identity with the legacy path is structural, not incidental: the
dynamic streams still come from ``SeedSequence([seed, thread, index])``
exactly as in :mod:`~repro.workloads.generator`, the static memo
replays the same ``layout_rng`` draw sequence once per key, and the
dynamic fills consume their generator in the same order and sizes as
the legacy helpers.  ``generator.expand`` is preserved as the
executable spec; the hypothesis suite in ``tests/test_engine.py`` pins
digest-identical output across the spec space.

:func:`pack_trace` / :func:`unpack_trace` are the columnar wire format
the content-addressed ``"traces"`` store kind persists
(:mod:`repro.experiments.store`).
"""

from __future__ import annotations

import pickle
import struct
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lru import LRUCache
from repro.obs import span
from repro.workloads import branches as _branches
from repro.workloads import patterns as _patterns
from repro.workloads.generator import (
    _class_counts,
    _iline_array,
    _layout_rng,
    _segment_rng,
)
from repro.workloads.ir import (
    OP_BRANCH,
    OP_CLASSES,
    OP_LOAD,
    OP_STORE,
    Segment,
    ThreadTrace,
    TraceBlock,
    WorkloadTrace,
)
from repro.workloads.spec import EpochSpec, WorkloadSpec


class EngineStats:
    """Process-wide expansion counters (monotonic, thread-safe).

    Surfaced by the serving subsystem's ``/healthz`` (through
    :meth:`ExpansionEngine.snapshot`, which adds the engine's memo
    counters) and diffed by the bench harness for the ``expand``
    section of ``BENCH_profiler.json``.
    """

    _FIELDS = ("workloads", "segments", "instructions", "arena_bytes")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self._FIELDS:
            setattr(self, name, 0)

    def record_workload(
        self, segments: int, instructions: int, arena_bytes: int
    ) -> None:
        with self._lock:
            self.workloads += 1
            self.segments += segments
            self.instructions += instructions
            self.arena_bytes += arena_bytes

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}


#: The process-wide counter instance every engine feeds.
ENGINE_STATS = EngineStats()


@dataclass
class _StaticCode:
    """Layout-seed artifacts of one static code region.

    Reproduces exactly the ``layout_rng`` draw sequence of the legacy
    path: class counts (no draws), one body permutation, then — only
    for periodic branch specs whose body contains a branch — the
    hidden pattern.
    """

    body: np.ndarray  # uint8 loop body, layout-shuffled
    pattern: Optional[np.ndarray]  # hidden periodic branch pattern


@dataclass
class _CodeImage:
    """Per-``(static key, n)`` columns and index sets.

    Everything the dynamic fills need that does not depend on the
    segment RNG: the tiled op/iline columns and the memory / branch /
    load index sets the legacy helpers re-derive per segment.
    """

    n: int
    op: np.ndarray  # uint8, tiled body
    iline: np.ndarray  # int64
    positions: np.ndarray  # int32 arange(n), for the dep clamp
    mem_idx: np.ndarray  # int64 positions of LOAD/STORE ops
    mem_store: np.ndarray  # bool per mem_idx entry
    has_store: bool
    n_store: int
    load_idx: np.ndarray  # int32 positions of LOAD ops
    br_idx: np.ndarray  # int64 positions of BRANCH ops
    pattern: Optional[np.ndarray]  # shared with the _StaticCode
    nbytes: int = 0  # memo-eviction accounting


def _mix_key(mix: Dict[str, float]) -> Tuple:
    return tuple(
        sorted((name, float(f)) for name, f in mix.items() if f)
    )


def _layout_key(layout_seed: int, spec: EpochSpec, body_len: int) -> Tuple:
    """Identity of the static-code artifacts.

    Everything that shapes the ``layout_rng`` draw sequence: the seed
    and code region pick the generator, ``body_len`` and the mix fix
    the permutation's size and content, and the branch kind/period fix
    whether (and how large) the hidden-pattern draw is.
    """
    return (
        layout_seed, spec.code_region, body_len, _mix_key(spec.mix),
        spec.branch.kind, spec.branch.period,
    )


def static_block_key(layout_seed: int, spec: EpochSpec) -> Tuple:
    """Identity of a segment's static artifacts (op/iline columns).

    This is exactly the engine's code-image memo key: two blocks
    expanded under equal keys carry bit-identical ``op`` and ``iline``
    columns (the dynamic ``dep``/``addr``/``taken`` columns still
    differ per segment RNG).  The expansion engine stamps it on every
    arena block as :attr:`~repro.workloads.ir.TraceBlock.static_key`,
    and the profiler's segment-prep cache memoizes per-key precompute
    off it.
    """
    body_len = min(spec.n, spec.code_lines * spec.instrs_per_line)
    lkey = _layout_key(layout_seed, spec, body_len)
    return (lkey, spec.n, spec.code_lines, spec.instrs_per_line)


def _build_static(
    layout_seed: int, spec: EpochSpec, body_len: int
) -> _StaticCode:
    layout_rng = _layout_rng(layout_seed, spec.code_region)
    counts = _class_counts(body_len, spec.mix, layout_rng)
    body = layout_rng.permutation(
        np.repeat(np.arange(len(OP_CLASSES), dtype=np.uint8), counts)
    )
    pattern = None
    # The legacy path draws the hidden pattern iff the (tiled) op
    # stream contains a branch; body_len == min(n, body capacity)
    # guarantees the full body appears in every tiling, so "branch in
    # body" is exactly that condition.
    if spec.branch.kind == "periodic" and bool((body == OP_BRANCH).any()):
        pattern = _branches.hidden_pattern(spec.branch, layout_rng)
    return _StaticCode(body=body, pattern=pattern)


def _build_image(static: _StaticCode, spec: EpochSpec, n: int) -> _CodeImage:
    body = static.body
    reps = -(-n // len(body))  # ceil
    op = np.tile(body, reps)[:n]
    is_load = op == OP_LOAD
    is_store = op == OP_STORE
    mem_idx = np.flatnonzero(is_load | is_store)
    mem_store = is_store[mem_idx]
    image = _CodeImage(
        n=n,
        op=op,
        iline=_iline_array(spec, n),
        positions=np.arange(n, dtype=np.int32),
        mem_idx=mem_idx,
        mem_store=mem_store,
        has_store=bool(mem_store.any()),
        n_store=int(mem_store.sum()),
        load_idx=np.flatnonzero(is_load).astype(np.int32),
        br_idx=np.flatnonzero(op == OP_BRANCH),
        pattern=static.pattern,
    )
    image.nbytes = sum(
        getattr(image, name).nbytes
        for name in ("op", "iline", "positions", "mem_idx",
                     "mem_store", "load_idx", "br_idx")
    )
    return image


# -- dynamic fills -----------------------------------------------------------
#
# Mirrors of the legacy ``_dep_array`` / ``_addr_array`` /
# ``_taken_array`` helpers with the index work hoisted into the
# memoized _CodeImage.  Each consumes the segment generator with the
# exact same calls, in the same order, with the same sizes — the
# bit-identity contract.


def _fill_dep(
    spec: EpochSpec,
    image: _CodeImage,
    rng: np.random.Generator,
    out: np.ndarray,
) -> None:
    dep = rng.geometric(1.0 / spec.mean_dep, size=image.n).astype(
        np.int32
    )
    np.minimum(dep, image.positions, out=dep)  # cannot reach before block
    if spec.load_chain_frac > 0.0:
        load_idx = image.load_idx
        if len(load_idx) > 1:
            chained = rng.random(len(load_idx) - 1) < spec.load_chain_frac
            targets = load_idx[1:][chained]
            producers = load_idx[:-1][chained]
            dep[targets] = targets - producers
    out[:] = dep


def _fill_addr(
    spec: EpochSpec,
    image: _CodeImage,
    rng: np.random.Generator,
    thread_id: int,
    out: np.ndarray,
) -> None:
    out.fill(-1)
    mem_idx = image.mem_idx
    if len(mem_idx) == 0:
        return
    patterns = list(spec.mem)
    weights = np.array([p.weight for p in patterns], dtype=float)
    load_w = weights / weights.sum()
    store_ok = np.array([p.store_ok for p in patterns], dtype=bool)
    choice = rng.choice(len(patterns), size=len(mem_idx), p=load_w)
    if image.has_store and not store_ok.all():
        sw = np.where(store_ok, weights, 0.0)
        sw = sw / sw.sum()
        choice[image.mem_store] = rng.choice(
            len(patterns), size=image.n_store, p=sw
        )
    for pi, pattern in enumerate(patterns):
        slots = mem_idx[choice == pi]
        if len(slots) == 0:
            continue
        out[slots] = _patterns.addresses(
            pattern, len(slots), rng, thread_id
        )


def _fill_taken(
    spec: EpochSpec,
    image: _CodeImage,
    rng: np.random.Generator,
    out: np.ndarray,
) -> None:
    out.fill(0)
    br_idx = image.br_idx
    if len(br_idx):
        out[br_idx] = _branches.outcomes(
            spec.branch, len(br_idx), rng, pattern=image.pattern
        )


@dataclass
class _Job:
    """One planned segment expansion: spec + RNG identity + arena view."""

    spec: EpochSpec
    thread_id: int
    index: int
    block: TraceBlock  # zero-copy arena views this job fills
    image: _CodeImage  # memoized static-code artifacts


#: Resident bounds of every :class:`ExpansionEngine`'s static memo,
#: read at construction.  Each _CodeImage holds O(n) columns (~25 B
#: per instruction), so a long-lived engine serving many distinct spec
#: shapes must evict images by bytes, not just entry count.
LAYOUT_CACHE_MAX_ENTRIES = 1024
IMAGE_CACHE_MAX_ENTRIES = 512
IMAGE_CACHE_MAX_BYTES = 256 << 20


class ExpansionEngine:
    """Planner/executor expansion with memoized static-code artifacts.

    One engine instance is meant to be long-lived (module singleton,
    service engine): its static memo carries loop-body layouts and
    code images across workloads, so a suite whose benchmarks share
    seeds and code regions pays each static artifact once.  Thread
    safe; duplicate memo builds under concurrency are possible and
    harmless (last writer wins, all writers are bit-identical).
    """

    def __init__(self, stats: Optional[EngineStats] = None) -> None:
        self._layouts = LRUCache(LAYOUT_CACHE_MAX_ENTRIES)
        self._images = LRUCache(
            IMAGE_CACHE_MAX_ENTRIES, IMAGE_CACHE_MAX_BYTES
        )
        self.stats = stats if stats is not None else ENGINE_STATS

    def snapshot(self) -> Dict[str, float]:
        """``stats`` counters plus this engine's memo counters.

        Layout and image lookups are counted once, by the memos' own
        LRUs, and read from there; ``memo_hit_rate`` is the image hit
        rate.
        """
        out: Dict[str, float] = self.stats.snapshot()
        for name, memo in (("layout", self._layouts), ("image", self._images)):
            counts = memo.stats()
            out[f"{name}_hits"] = counts["hits"]
            out[f"{name}_misses"] = counts["misses"]
        lookups = out["image_hits"] + out["image_misses"]
        out["memo_hit_rate"] = (
            out["image_hits"] / lookups if lookups else 0.0
        )
        return out

    # -- static memo --------------------------------------------------------

    def _static(
        self, lkey: Tuple, layout_seed: int, spec: EpochSpec, body_len: int
    ) -> _StaticCode:
        static = self._layouts.get(lkey)
        if static is None:
            static = _build_static(layout_seed, spec, body_len)
            self._layouts.put(lkey, static)
        return static

    def _image(
        self,
        layout_seed: int,
        spec: EpochSpec,
        ikey: Optional[Tuple] = None,
    ) -> _CodeImage:
        body_len = min(spec.n, spec.code_lines * spec.instrs_per_line)
        lkey = _layout_key(layout_seed, spec, body_len)
        # iline additionally depends on the (code_lines, instrs_per_line)
        # split, which body_len alone does not pin down.
        if ikey is None:
            ikey = (lkey, spec.n, spec.code_lines, spec.instrs_per_line)
        image = self._images.get(ikey)
        if image is None:
            static = self._static(lkey, layout_seed, spec, body_len)
            image = _build_image(static, spec, spec.n)
            self._images.put(ikey, image, image.nbytes)
        return image

    # -- expansion ----------------------------------------------------------

    def expand(self, workload: WorkloadSpec) -> WorkloadTrace:
        """Expand one workload spec (see :meth:`expand_many`)."""
        with span("expand", workload=workload.name):
            return self.expand_many([workload])[0]

    def expand_many(
        self, workloads: Sequence[WorkloadSpec]
    ) -> List[WorkloadTrace]:
        """Expand a batch of workload specs sharing one planning pass.

        Phase 1 collects every ``(spec, thread, index)`` job across
        *all* workloads, allocating one contiguous arena per thread
        and memoizing static-code artifacts; phase 2 executes the
        dynamic draws job by job.  Traces are validated exactly as the
        legacy path validates them.
        """
        jobs: List[Tuple[int, _Job]] = []
        traces: List[WorkloadTrace] = []
        for w in workloads:
            threads: List[ThreadTrace] = []
            n_segments = 0
            n_instructions = 0
            arena_bytes = 0
            for tid, plan_list in enumerate(w.plans):
                total = sum(
                    plan.spec.n
                    for plan in plan_list
                    if plan.spec is not None
                )
                arena = _ThreadArena(total)
                arena_bytes += arena.nbytes
                offset = 0
                segments: List[Segment] = []
                for idx, plan in enumerate(plan_list):
                    if plan.spec is None or plan.spec.n == 0:
                        block = TraceBlock.empty()
                    else:
                        n = plan.spec.n
                        block = arena.view(offset, offset + n)
                        offset += n
                        ikey = static_block_key(w.seed, plan.spec)
                        block.static_key = ikey
                        jobs.append((
                            w.seed,
                            _Job(
                                spec=plan.spec, thread_id=tid,
                                index=idx, block=block,
                                image=self._image(w.seed, plan.spec, ikey),
                            ),
                        ))
                    segments.append(
                        Segment(
                            block=block, event=plan.event, epoch=idx,
                            label=plan.label,
                        )
                    )
                    n_segments += 1
                n_instructions += offset
                threads.append(
                    ThreadTrace(thread_id=tid, segments=segments)
                )
            traces.append(
                WorkloadTrace(name=w.name, threads=threads, seed=w.seed)
            )
            self.stats.record_workload(
                segments=n_segments,
                instructions=n_instructions,
                arena_bytes=arena_bytes,
            )

        for seed, job in jobs:
            self._execute(seed, job)
        for trace in traces:
            trace.validate()
        return traces

    def _execute(self, seed: int, job: _Job) -> None:
        spec = job.spec
        image = job.image
        rng = _segment_rng(seed, job.thread_id, job.index)
        block = job.block
        np.copyto(block.op, image.op)
        _fill_dep(spec, image, rng, block.dep)
        _fill_addr(spec, image, rng, job.thread_id, block.addr)
        _fill_taken(spec, image, rng, block.taken)
        np.copyto(block.iline, image.iline)


class _ThreadArena:
    """One thread's contiguous trace columns."""

    __slots__ = ("op", "dep", "addr", "taken", "iline")

    def __init__(self, total: int) -> None:
        self.op = np.empty(total, dtype=np.uint8)
        self.dep = np.empty(total, dtype=np.int32)
        self.addr = np.empty(total, dtype=np.int64)
        self.taken = np.empty(total, dtype=np.uint8)
        self.iline = np.empty(total, dtype=np.int64)

    @property
    def nbytes(self) -> int:
        return sum(
            getattr(self, name).nbytes for name in self.__slots__
        )

    def view(self, lo: int, hi: int) -> TraceBlock:
        return TraceBlock(
            op=self.op[lo:hi],
            dep=self.dep[lo:hi],
            addr=self.addr[lo:hi],
            taken=self.taken[lo:hi],
            iline=self.iline[lo:hi],
        )


#: Process-wide engine: shared static memo for every caller that does
#: not need private memo accounting (the bench harness constructs its
#: own to measure clean hit rates).
_DEFAULT: Optional[ExpansionEngine] = None
_DEFAULT_LOCK = threading.Lock()


def default_engine() -> ExpansionEngine:
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = ExpansionEngine()
        return _DEFAULT


def expand(workload: WorkloadSpec) -> WorkloadTrace:
    """Expand a workload through the shared columnar engine.

    Drop-in, bit-identical replacement for
    :func:`repro.workloads.generator.expand` (the preserved executable
    spec); production call sites route here — usually via a
    :class:`~repro.experiments.store.TraceCache` so repeated
    expansions of the same spec are cache hits.
    """
    return default_engine().expand(workload)


def expand_many(workloads: Sequence[WorkloadSpec]) -> List[WorkloadTrace]:
    """Batch expansion through the shared columnar engine."""
    return default_engine().expand_many(workloads)


# -- columnar wire format ----------------------------------------------------


def pack_trace(trace: WorkloadTrace) -> dict:
    """Columnar payload of a trace (consumed by the ``"traces"`` store kind).

    One concatenated column per array per thread plus per-segment
    metadata — the arena layout, serialized.  Pickles compactly (numpy
    arrays dump as raw buffers) and restores with zero-copy views.
    """
    threads = []
    for t in trace.threads:
        blocks = [seg.block for seg in t.segments]
        threads.append({
            "ns": [b.n_instructions for b in blocks],
            "op": _concat(blocks, "op", np.uint8),
            "dep": _concat(blocks, "dep", np.int32),
            "addr": _concat(blocks, "addr", np.int64),
            "taken": _concat(blocks, "taken", np.uint8),
            "iline": _concat(blocks, "iline", np.int64),
            "events": [seg.event for seg in t.segments],
            "epochs": [seg.epoch for seg in t.segments],
            "labels": [seg.label for seg in t.segments],
            # Static-artifact identities ride along so store-loaded
            # traces stay eligible for the profiler's segment-prep
            # memo; payloads predating the field restore to None.
            "skeys": [seg.block.static_key for seg in t.segments],
        })
    return {"name": trace.name, "seed": trace.seed, "threads": threads}


def _concat(blocks: List[TraceBlock], name: str, dtype) -> np.ndarray:
    arrays = [getattr(b, name) for b in blocks if b.n_instructions]
    if not arrays:
        return np.zeros(0, dtype=dtype)
    return np.ascontiguousarray(np.concatenate(arrays), dtype=dtype)


def unpack_trace(payload: dict) -> WorkloadTrace:
    """Rebuild a trace from :func:`pack_trace` output (zero-copy views)."""
    threads = []
    for tid, t in enumerate(payload["threads"]):
        segments = []
        offset = 0
        skeys = t.get("skeys") or [None] * len(t["ns"])
        for n, event, epoch, label, skey in zip(
            t["ns"], t["events"], t["epochs"], t["labels"], skeys
        ):
            if n == 0:
                block = TraceBlock.empty()
            else:
                lo, hi = offset, offset + n
                block = TraceBlock(
                    op=t["op"][lo:hi],
                    dep=t["dep"][lo:hi],
                    addr=t["addr"][lo:hi],
                    taken=t["taken"][lo:hi],
                    iline=t["iline"][lo:hi],
                    static_key=skey,
                )
                offset += n
            segments.append(
                Segment(block=block, event=event, epoch=epoch, label=label)
            )
        threads.append(ThreadTrace(thread_id=tid, segments=segments))
    return WorkloadTrace(
        name=payload["name"], threads=threads, seed=payload["seed"]
    )


# -- raw-buffer arena format (mmap-friendly) ---------------------------------
#
# The pickled columnar payload above restores cheaply but still copies
# every column out of the pickle stream on load.  The *arena* layout
# below is the zero-copy variant the shared store serves to a pre-fork
# fleet: a pickled metadata header (segment lengths, events, epochs,
# static keys, column directory) followed by the raw column bytes,
# 64-byte aligned.  :func:`load_trace_arena` accepts any buffer — in
# particular an ``mmap.mmap(..., ACCESS_READ)`` — and builds the
# ``TraceBlock`` views directly over it via ``np.frombuffer``, so N
# worker processes mapping the same artifact share one page-cache copy
# and pay no per-process deserialization of the column data.  Arrays
# built over a read-only map come out ``writeable=False``, which is
# the aliasing contract: a consumer cannot corrupt the shared mapping.

ARENA_MAGIC = b"RPPMARN1"
_ARENA_ALIGN = 64
#: Column name -> dtype, fixed by the wire format (matches TraceBlock).
_ARENA_COLUMNS = (
    ("op", np.uint8),
    ("dep", np.int32),
    ("addr", np.int64),
    ("taken", np.uint8),
    ("iline", np.int64),
)


def _arena_pad(offset: int) -> int:
    return (-offset) % _ARENA_ALIGN


def pack_trace_arena(
    trace: WorkloadTrace, meta: Optional[Dict[str, Any]] = None
) -> bytes:
    """Serialize a trace into the raw-buffer arena layout.

    ``meta`` rides along in the pickled header (the store puts its
    schema version and content digest there) and comes back verbatim
    from :func:`load_trace_arena`.

    Layout: ``ARENA_MAGIC | u64 header_len | pickled header | pad |
    column bytes``.  Column offsets in the header are relative to the
    64-byte-aligned start of the data region, so the header needs no
    knowledge of its own serialized size.
    """
    chunks: List[bytes] = []
    rel = 0
    threads_meta = []
    for t in trace.threads:
        blocks = [seg.block for seg in t.segments]
        cols = {}
        for name, dtype in _ARENA_COLUMNS:
            arr = _concat(blocks, name, dtype)
            pad = _arena_pad(rel)
            if pad:
                chunks.append(b"\x00" * pad)
                rel += pad
            data = arr.tobytes()
            cols[name] = (rel, int(arr.size))
            chunks.append(data)
            rel += len(data)
        threads_meta.append({
            "ns": [b.n_instructions for b in blocks],
            "events": [seg.event for seg in t.segments],
            "epochs": [seg.epoch for seg in t.segments],
            "labels": [seg.label for seg in t.segments],
            "skeys": [seg.block.static_key for seg in t.segments],
            "cols": cols,
        })
    header = pickle.dumps({
        "meta": dict(meta or {}),
        "name": trace.name,
        "seed": trace.seed,
        "threads": threads_meta,
    }, protocol=pickle.HIGHEST_PROTOCOL)
    prefix = ARENA_MAGIC + struct.pack("<Q", len(header)) + header
    return b"".join(
        [prefix, b"\x00" * _arena_pad(len(prefix))] + chunks
    )


def is_arena_payload(buf) -> bool:
    """True when ``buf`` starts with the arena magic."""
    return bytes(memoryview(buf)[: len(ARENA_MAGIC)]) == ARENA_MAGIC


def load_trace_arena(buf) -> Tuple[Dict[str, Any], WorkloadTrace]:
    """Rebuild ``(meta, trace)`` from an arena buffer, zero-copy.

    ``buf`` may be ``bytes`` or an ``mmap`` object; every trace column
    is an ``np.frombuffer`` view over it (read-only when the buffer
    is), and the returned blocks keep the buffer alive through their
    ``.base`` chain — the caller may drop its own reference.  Raises
    ``ValueError`` on a malformed payload; the store maps that to
    quarantine exactly like a corrupt pickle.
    """
    mv = memoryview(buf)
    if not is_arena_payload(mv):
        raise ValueError("not an arena payload (bad magic)")
    header_start = len(ARENA_MAGIC) + 8
    if len(mv) < header_start:
        raise ValueError("truncated arena prefix")
    (header_len,) = struct.unpack_from("<Q", mv, len(ARENA_MAGIC))
    if header_start + header_len > len(mv):
        raise ValueError("truncated arena header")
    header = pickle.loads(bytes(mv[header_start:header_start + header_len]))
    data_start = header_start + header_len
    data_start += _arena_pad(data_start)
    threads = []
    for tmeta in header["threads"]:
        t = {
            key: tmeta[key]
            for key in ("ns", "events", "epochs", "labels", "skeys")
        }
        for name, dtype in _ARENA_COLUMNS:
            rel, count = tmeta["cols"][name]
            offset = data_start + rel
            end = offset + count * np.dtype(dtype).itemsize
            if end > len(mv):
                raise ValueError(f"truncated arena column {name!r}")
            t[name] = np.frombuffer(
                buf, dtype=dtype, count=count, offset=offset
            )
        threads.append(t)
    payload = {
        "name": header["name"],
        "seed": header["seed"],
        "threads": threads,
    }
    return header.get("meta", {}), unpack_trace(payload)


__all__ = [
    "ARENA_MAGIC",
    "ENGINE_STATS",
    "EngineStats",
    "ExpansionEngine",
    "default_engine",
    "expand",
    "expand_many",
    "is_arena_payload",
    "load_trace_arena",
    "pack_trace",
    "pack_trace_arena",
    "static_block_key",
    "unpack_trace",
]
