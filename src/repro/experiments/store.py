"""Versioned on-disk persistence for profiles, predictions, simulations.

The paper's whole premise is that the profile is a *one-time cost*
(Fig. 1): collect once, predict many design points.  This module makes
that literal across processes and across runs — a content-addressed
cache directory keyed by workload identity (suite benchmark, seed,
scale, chunking) and, for predictions/simulations, the configuration
fingerprint.

Layout: ``<root>/<kind>/<key>.<ext>`` where ``kind`` is ``profiles``
(JSON via ``WorkloadProfile.to_dict``), ``ilptables`` (JSON via
``ILPTable.to_dict``, content-addressed by micro-trace sample digest —
the profiling grid is configuration-independent, so one table serves
every design-space point), ``traces`` (raw-buffer columnar arenas,
content-addressed by the full workload spec — see :class:`TraceCache`),
``predictions`` or ``simulations`` (pickled result dataclasses).  Every
artifact embeds ``SCHEMA_VERSION``; stale-version, truncated or
otherwise corrupt files are treated as misses, so a cache survives
arbitrary upgrades by silently recomputing.

Keys are deterministic SHA-256 digests of canonical JSON, written in
one pass over the key structure by :func:`fingerprint` — Python's
salted ``hash()`` is useless across processes, which is exactly where
the parallel pipeline needs stable keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import mmap
import os
import pickle
import struct
import tempfile
import threading
import time
from enum import Enum
from pathlib import Path
from typing import Any, Dict, Optional

from repro.lru import LRUCache
from repro.profiler.profile import ILPTable, WorkloadProfile
from repro.testing.faults import FAULTS, SimulatedCrash
from repro.workloads.engine import (
    ARENA_MAGIC,
    ExpansionEngine,
    default_engine,
    load_trace_arena,
    pack_trace_arena,
)
from repro.workloads.ir import WorkloadTrace
from repro.workloads.spec import WorkloadSpec

#: Bump when any persisted artifact's layout or producing algorithm
#: changes incompatibly; old entries then read as cache misses.
#: 2: ILP tables built by the lockstep batch engine (and persisted as
#: their own ``ilptables`` artifact kind).
SCHEMA_VERSION = 2

#: Environment variable overriding the default cache root.
CACHE_ENV = "REPRO_CACHE_DIR"

#: Store-generation stamp: ``<root>/GENERATION`` holds a monotonically
#: bumped integer.  Resident caches (the serving engine's LRUs) record
#: the generation they were filled under and drop their entries when a
#: newer one appears — the cross-process invalidation contract for a
#: shared artifact plane.  Consumers compare for *inequality* only, so
#: a lost increment under a write race merely delays nothing: any
#: successful bump still changes the value.
GENERATION_FILE = "GENERATION"

#: Store subdirectories that hold coordination state, not artifacts:
#: the work queue (``queue/jobs|leases|done|events``) and the serving
#: fleet's heartbeat files (``fleet/``).
_NON_ARTIFACT_DIRS = frozenset({"quarantine", "queue", "fleet"})


_json_str = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: Per-type dataclass layout, ``False`` for every other type: the text
#: before the first field and ``(field, text after it)`` pairs, with
#: ``"__dataclass__"`` sorted in among the field names as a constant.
#: A pure function of the type, so every caller and thread may share it.
_LAYOUTS: Dict[type, Any] = {}


def _layout(cls: type) -> Any:
    layout = False
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        names = sorted(
            ["__dataclass__", *(f.name for f in dataclasses.fields(cls))]
        )
        chunks, fields = ["{"], []
        for i, name in enumerate(names):
            chunks[-1] += ("," if i else "") + _json_str(name) + ":"
            if name == "__dataclass__":
                chunks[-1] += _json_str(cls.__name__)
            else:
                fields.append(name)
                chunks.append("")
        chunks[-1] += "}"
        layout = (chunks[0], tuple(zip(fields, chunks[1:])))
    _LAYOUTS[cls] = layout
    return layout


def _float_json(obj: float) -> str:
    text = float.__repr__(obj)
    return _NON_FINITE.get(text, text)


def _encode(obj: Any, memo: Dict[int, Any]) -> str:
    """Canonical JSON text of ``obj``; see :func:`fingerprint`."""
    cls = type(obj)
    if cls is str:
        return _json_str(obj)
    if cls is int:
        return int.__repr__(obj)
    if cls is float:
        return _float_json(obj)
    if cls is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if cls is list or cls is tuple:
        return "[" + ",".join([_encode(v, memo) for v in obj]) + "]"
    layout = _LAYOUTS.get(cls)
    if layout is None:
        layout = _layout(cls)
    if layout:
        # Dataclass instances are reachable from the root for the whole
        # call, so their ids cannot be reused; holding ``obj`` in the
        # memo entry makes that unconditional.
        hit = memo.get(id(obj))
        if hit is not None:
            return hit[1]
        parts = [layout[0]]
        for name, tail in layout[1]:
            parts.append(_encode(getattr(obj, name), memo))
            parts.append(tail)
        text = "".join(parts)
        memo[id(obj)] = (obj, text)
        return text
    if isinstance(obj, Enum):
        return _encode(obj.value, memo)
    if isinstance(obj, dict):
        items = {str(k): v for k, v in sorted(obj.items())}
        return "{" + ",".join([
            _json_str(k) + ":" + _encode(items[k], memo)
            for k in sorted(items)
        ]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([_encode(v, memo) for v in obj]) + "]"
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_json(obj)
    return _json_str(repr(obj))


def fingerprint(obj: Any) -> str:
    """Stable SHA-256 hex digest of an arbitrary key structure.

    The digest input is canonical JSON, written in one pass: a
    dataclass is an object of its fields plus ``"__dataclass__"`` (its
    type name), an ``Enum`` its ``.value``, a dict has ``str`` keys,
    tuples are lists, and anything else non-JSON is its ``repr()``;
    object keys are sorted and separators compact.  Dataclass instances
    shared within ``obj`` (a suite spec's epochs recur across its
    segment plans) are encoded once per call.
    """
    payload = _encode(obj, {})
    return hashlib.sha256(payload.encode()).hexdigest()


def config_fingerprint(config: Any) -> str:
    """Deterministic digest of an architecture configuration."""
    return fingerprint(config)


def default_root() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class StoreCounters:
    """Thread-safe health accounting for one :class:`ProfileStore`.

    Degradation must be *counted*, never silent: every corrupt or
    stale artifact, dropped write and I/O error lands here, and the
    serving plane surfaces the snapshot through ``/healthz`` and
    ``repro store stats``.  ``corruption_streak`` counts consecutive
    bad loads since the last good one — a rising streak is the
    error-budget signal for a rotting cache directory (bad disk,
    truncated rsync), distinct from a one-off torn write.
    """

    _FIELDS = (
        "writes",
        #: Publishes that replaced an already-published artifact — in a
        #: multi-writer fleet this counts the duplicate computations
        #: the shared store absorbed (last-writer-wins is sound: both
        #: writers produced bit-identical content-addressed artifacts).
        "duplicate_writes",
        "dropped_writes",
        "io_errors",
        "corrupt",
        "schema_stale",
        "quarantined",
        "quarantine_failed",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {f: 0 for f in self._FIELDS}
        self.corruption_streak = 0
        self.max_corruption_streak = 0

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] += by

    def corruption(self) -> None:
        """One bad artifact observed: extend the streak."""
        with self._lock:
            self.corruption_streak += 1
            self.max_corruption_streak = max(
                self.max_corruption_streak, self.corruption_streak
            )

    def healthy_load(self) -> None:
        """One artifact loaded intact: the streak is broken."""
        with self._lock:
            self.corruption_streak = 0

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            out = dict(self._counts)
            out["corruption_streak"] = self.corruption_streak
            out["max_corruption_streak"] = self.max_corruption_streak
            return out


class ProfileStore:
    """Content-addressed artifact store under one root directory.

    All loads are *best effort*: a missing file returns ``None`` and
    the caller recomputes (and usually re-saves, healing the cache).
    A file that *exists but cannot be trusted* — unparseable, failing
    its embedded digest, or carrying a stale schema — is **quarantined**
    (moved to ``<root>/quarantine/<kind>/``) and counted before the
    load reports a miss, so corruption is visible in ``store stats``
    and ``/healthz`` instead of masquerading as cold cache.  Writes go
    through a temp file + rename so concurrent workers never observe
    partial artifacts.

    With ``strict=False`` writes are best effort too: an unwritable
    root or a full disk degrades the store to a read-only (or no-op)
    cache instead of aborting the computation whose result was being
    saved — but every dropped write increments ``dropped_writes`` in
    :attr:`counters` — the mode :func:`~repro.experiments.suites.
    shared_cache` uses, since a report run must survive a broken
    cache directory.

    Chaos fault points (:mod:`repro.testing.faults`): ``store.read``
    fires on every artifact read (error or payload mutation),
    ``store.write`` before every write, ``store.crash`` between the
    temp-file write and the atomic rename — the crash-safety window.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        strict: bool = True,
    ) -> None:
        self.root = Path(root) if root is not None else default_root()
        self.strict = strict
        self.counters = StoreCounters()

    @classmethod
    def open_default(
        cls, root: Optional[os.PathLike] = None
    ) -> "ProfileStore":
        """The canonical durable store: best-effort writes at the
        default root (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).

        Non-strict because cache persistence must never abort the
        computation being cached — an unwritable root degrades to a
        read-only store with ``dropped_writes`` counted.  This is the
        constructor behind :meth:`repro.core.session.Session.from_store`,
        the CLI and the serving engine.
        """
        return cls(root=root, strict=False)

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def profile_key(
        label: str, seed: int, scale: float, chunk: int
    ) -> str:
        return fingerprint({
            "kind": "profile",
            "schema": SCHEMA_VERSION,
            "label": label,
            "seed": seed,
            "scale": scale,
            "chunk": chunk,
        })

    @staticmethod
    def result_key(
        kind: str, label: str, seed: int, scale: float, config: Any
    ) -> str:
        return fingerprint({
            "kind": kind,
            "schema": SCHEMA_VERSION,
            "label": label,
            "seed": seed,
            "scale": scale,
            "config": config,
        })

    @staticmethod
    def trace_key(spec: WorkloadSpec) -> str:
        """Content address of an expanded trace: the full spec.

        Expansion is a pure function of the spec (seed included), so
        fingerprinting the canonicalized spec structure — every epoch,
        memory pattern, branch spec and sync event — is exactly the
        identity under which a persisted trace may be reused.
        """
        return fingerprint({
            "kind": "trace",
            "schema": SCHEMA_VERSION,
            "spec": spec,
        })

    # -- plumbing -----------------------------------------------------------

    def _path(self, kind: str, key: str, ext: str) -> Path:
        return self.root / kind / f"{key}.{ext}"

    def list_keys(self, kind: str) -> list:
        """Keys of all persisted artifacts of one kind (best effort).

        Used by the serving layer's ``/v1/profiles`` inventory; a
        missing or unreadable kind directory is an empty store, not an
        error.
        """
        try:
            return sorted({
                p.stem for p in (self.root / kind).iterdir()
                if p.suffix in (".json", ".pkl", ".arena")
            })
        except OSError:
            return []

    def _read(self, path: Path) -> Optional[bytes]:
        """Raw artifact bytes, or ``None`` (missing file = plain miss,
        I/O failure = counted miss).  ``store.read`` faults fire here,
        so injected I/O errors and bit flips hit every artifact kind.
        """
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None
        except OSError:
            self.counters.bump("io_errors")
            return None
        try:
            return FAULTS.fire("store.read", data)
        except FileNotFoundError:
            return None
        except OSError:
            self.counters.bump("io_errors")
            return None

    def _quarantine(self, path: Path, kind: str, reason: str) -> None:
        """Move a bad artifact to ``<root>/quarantine/<kind>/``.

        The load still reports a miss (the caller recomputes and
        re-saves, healing the cache), but the evidence is preserved
        and counted instead of being re-read — and re-mistrusted —
        forever.
        """
        self.counters.bump(
            "schema_stale" if reason == "schema" else "corrupt"
        )
        self.counters.corruption()
        dest = self.root / "quarantine" / kind / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
            self.counters.bump("quarantined")
        except OSError:
            # Fall back to unlinking so a poisoned artifact cannot be
            # served as a repeat corruption on every future load.
            try:
                path.unlink()
            except OSError:
                pass
            self.counters.bump("quarantine_failed")

    def _load(self, kind: str, key: str, ext: str) -> Optional[dict]:
        """Parsed, schema-checked artifact envelope (or ``None``)."""
        path = self._path(kind, key, ext)
        data = self._read(path)
        if data is None:
            return None
        try:
            payload = (
                json.loads(data) if ext == "json" else pickle.loads(data)
            )
            if not isinstance(payload, dict):
                raise ValueError("artifact envelope is not a mapping")
        except Exception:
            self._quarantine(path, kind, "corrupt")
            return None
        if payload.get("schema") != SCHEMA_VERSION:
            self._quarantine(path, kind, "schema")
            return None
        return payload

    def _write(self, path: Path, data: bytes) -> None:
        try:
            data = FAULTS.fire("store.write", data)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.name, suffix=".tmp"
            )
        except OSError:
            if self.strict:
                raise
            self.counters.bump("dropped_writes")
            return
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                # Durability, not just atomicity: without the fsync a
                # power loss after the rename can surface a published
                # artifact whose *data* never reached the platter — a
                # zero-length or torn file at the final path, which
                # atomic rename alone cannot prevent.
                fh.flush()
                try:
                    os.fsync(fh.fileno())
                except OSError:
                    self.counters.bump("io_errors")
            # The crash-safety window: a process dying between the
            # temp-file write and the rename must leave the published
            # path untouched and only an orphan ``*.tmp`` behind.
            FAULTS.fire("store.crash")
            # Best-effort duplicate detection (racy by nature): a
            # publish over an existing artifact means another writer
            # got here first — the cross-process recompute the shared
            # cache is meant to absorb, surfaced as a counter.
            duplicate = path.exists()
            os.replace(tmp, path)
            self._fsync_dir(path.parent)
            self.counters.bump("writes")
            if duplicate:
                self.counters.bump("duplicate_writes")
        except BaseException as exc:
            if isinstance(exc, SimulatedCrash):
                raise  # a real crash runs no cleanup; prune reclaims
            try:
                os.unlink(tmp)
            except OSError:
                pass
            if self.strict or not isinstance(exc, OSError):
                raise
            self.counters.bump("dropped_writes")

    def _fsync_dir(self, directory: Path) -> None:
        """Persist a rename by fsyncing its directory (POSIX).

        The rename itself lives in the directory entry; without this a
        power loss can forget the publication even though the file's
        bytes are safe.  Filesystems that refuse directory fds (or
        non-POSIX hosts) count an ``io_error`` and move on — the write
        is still atomic, merely not power-loss durable.
        """
        if not hasattr(os, "O_DIRECTORY"):  # pragma: no cover
            return
        try:
            fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
        except OSError:
            self.counters.bump("io_errors")
            return
        try:
            os.fsync(fd)
        except OSError:
            self.counters.bump("io_errors")
        finally:
            os.close(fd)

    # -- profiles (JSON) ----------------------------------------------------

    def save_profile(self, key: str, profile: WorkloadProfile) -> Path:
        path = self._path("profiles", key, "json")
        payload = {
            "schema": SCHEMA_VERSION,
            "profile": profile.to_dict(),
        }
        self._write(path, json.dumps(payload).encode())
        return path

    def load_profile(self, key: str) -> Optional[WorkloadProfile]:
        payload = self._load("profiles", key, "json")
        if payload is None:
            return None
        try:
            profile = WorkloadProfile.from_dict(payload["profile"])
        except Exception:
            self._quarantine(
                self._path("profiles", key, "json"), "profiles", "corrupt"
            )
            return None
        self.counters.healthy_load()
        return profile

    # -- ILP tables (JSON, content-addressed) -------------------------------

    def save_ilp_table(self, key: str, table: ILPTable) -> Path:
        path = self._path("ilptables", key, "json")
        payload = {
            "schema": SCHEMA_VERSION,
            "table": table.to_dict(),
        }
        self._write(path, json.dumps(payload).encode())
        return path

    def load_ilp_table(self, key: str) -> Optional[ILPTable]:
        payload = self._load("ilptables", key, "json")
        if payload is None:
            return None
        try:
            table = ILPTable.from_dict(payload["table"])
        except Exception:
            self._quarantine(
                self._path("ilptables", key, "json"), "ilptables",
                "corrupt",
            )
            return None
        self.counters.healthy_load()
        return table

    # -- traces (raw-buffer arena, mmap-loaded) -----------------------------

    def save_trace(self, key: str, trace: WorkloadTrace) -> Path:
        """Persist a trace in the raw-buffer arena layout.

        The arena is the primary on-disk format: loads mmap it and
        build ``TraceBlock`` views straight over the mapping (no
        pickle copy on the hot read path).  The schema version and
        content digest travel in the arena's metadata header.
        """
        path = self._path("traces", key, "arena")
        payload = pack_trace_arena(trace, meta={
            "schema": SCHEMA_VERSION,
            "digest": trace.content_digest(),
        })
        self._write(path, payload)
        return path

    def load_trace(self, key: str) -> Optional[WorkloadTrace]:
        """Zero-copy arena load: mmap + ``TraceBlock`` views over it.

        The mapping is read-only (``ACCESS_READ``), so every column
        comes out ``writeable=False`` — a consumer mutating a view
        raises instead of corrupting the mapping other processes
        share.  The digest check pages the columns in once but copies
        nothing; the mapping stays alive through the arrays' ``.base``
        chain after the file descriptor closes.
        """
        path = self._path("traces", key, "arena")
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return None
        except OSError:
            self.counters.bump("io_errors")
            return None
        try:
            with fh:
                # Error-type ``store.read`` faults apply to this path
                # too (payload-mutation faults cannot touch a shared
                # read-only mapping and pass through).
                FAULTS.fire("store.read", b"")
                buf = mmap.mmap(
                    fh.fileno(), 0, access=mmap.ACCESS_READ
                )
        except FileNotFoundError:
            return None
        except OSError:
            self.counters.bump("io_errors")
            return None
        except ValueError:  # zero-length file cannot be mapped
            self._quarantine(path, "traces", "corrupt")
            return None
        try:
            meta, trace = load_trace_arena(buf)
            if meta.get("schema") != SCHEMA_VERSION:
                self._quarantine(path, "traces", "schema")
                return None
            trace.validate()
            if trace.content_digest() != meta.get("digest"):
                raise ValueError("trace content digest mismatch")
        except Exception:
            self._quarantine(path, "traces", "corrupt")
            return None
        self.counters.healthy_load()
        return trace

    # -- predictions / simulations (pickle) ---------------------------------

    def save_result(self, kind: str, key: str, result: Any) -> Path:
        path = self._path(kind, key, "pkl")
        payload = pickle.dumps(
            {"schema": SCHEMA_VERSION, "result": result}
        )
        self._write(path, payload)
        return path

    def load_result(self, kind: str, key: str) -> Optional[Any]:
        payload = self._load(kind, key, "pkl")
        if payload is None:
            return None
        try:
            result = payload["result"]
        except KeyError:
            self._quarantine(
                self._path(kind, key, "pkl"), kind, "corrupt"
            )
            return None
        self.counters.healthy_load()
        return result

    # -- inventory / garbage collection -------------------------------------

    def _artifacts(self, kind: str) -> list:
        try:
            return sorted(
                p for p in (self.root / kind).iterdir()
                if p.suffix in (".json", ".pkl", ".arena")
            )
        except OSError:
            return []

    def kinds(self) -> list:
        """Artifact kinds present under the store root.

        ``quarantine`` (bad-artifact evidence), ``queue`` (work-queue
        coordination state) and ``fleet`` (serving-fleet heartbeats)
        are not artifact kinds — they are excluded here and reported
        separately by :meth:`stats` / :meth:`health`.
        """
        try:
            return sorted(
                d.name for d in self.root.iterdir()
                if d.is_dir() and d.name not in _NON_ARTIFACT_DIRS
            )
        except OSError:
            return []

    @staticmethod
    def _dir_stats(directory: Path) -> Dict[str, int]:
        """File count + byte total of one directory (race tolerant)."""
        count = 0
        nbytes = 0
        try:
            entries = list(directory.iterdir())
        except OSError:
            entries = []
        for path in entries:
            try:
                if not path.is_file():
                    continue
                nbytes += path.stat().st_size
            except OSError:
                continue  # unlinked by a concurrent writer/prune
            count += 1
        return {"artifacts": count, "bytes": nbytes}

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-kind artifact counts and byte totals (best effort).

        Quarantined artifacts appear as ``quarantine/<kind>`` entries
        so a rotting cache is visible from ``repro store stats``;
        work-queue state (jobs, leases, done markers) appears as
        ``queue/<sub>`` entries and fleet heartbeats as ``fleet`` so
        coordination debris is just as visible.
        """
        out: Dict[str, Dict[str, int]] = {}
        for kind in self.kinds():
            count = 0
            nbytes = 0
            for path in self._artifacts(kind):
                try:
                    nbytes += path.stat().st_size
                except OSError:
                    continue
                count += 1
            out[kind] = {"artifacts": count, "bytes": nbytes}
        try:
            qdirs = sorted(
                d for d in (self.root / "quarantine").iterdir()
                if d.is_dir()
            )
        except OSError:
            qdirs = []
        for qdir in qdirs:
            out[f"quarantine/{qdir.name}"] = self._dir_stats(qdir)
        for sub in ("jobs", "leases", "done", "events"):
            qdir = self.root / "queue" / sub
            if qdir.is_dir():
                out[f"queue/{sub}"] = self._dir_stats(qdir)
        fleet_dir = self.root / "fleet"
        if fleet_dir.is_dir():
            out["fleet"] = self._dir_stats(fleet_dir)
        return out

    def health(self) -> Dict[str, Any]:
        """Counter snapshot + quarantine inventory for ``/healthz``."""
        out: Dict[str, Any] = self.counters.snapshot()
        out["generation"] = self.generation()
        out["quarantine"] = {
            kind.split("/", 1)[1]: entry["artifacts"]
            for kind, entry in self.stats().items()
            if kind.startswith("quarantine/")
        }
        return out

    # -- generation stamp ---------------------------------------------------

    def generation(self) -> int:
        """The store's current generation stamp (0 when unstamped)."""
        try:
            raw = (self.root / GENERATION_FILE).read_text().strip()
            return int(raw) if raw else 0
        except (OSError, ValueError):
            return 0

    def bump_generation(self) -> int:
        """Advance the generation stamp (atomic temp-file + rename).

        Called when persisted artifacts change under resident caches
        (a prune, an out-of-band store rewrite): engines polling
        :meth:`generation` drop their LRUs on the next check.  A lost
        increment under a concurrent bump is harmless — consumers
        compare for inequality, and any successful bump changes the
        value they saw.
        """
        gen = self.generation() + 1
        path = self.root / GENERATION_FILE
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=GENERATION_FILE, suffix=".tmp"
            )
            with os.fdopen(fd, "w") as fh:
                fh.write(str(gen))
                fh.flush()
                try:
                    os.fsync(fh.fileno())
                except OSError:
                    self.counters.bump("io_errors")
            os.replace(tmp, path)
            self._fsync_dir(path.parent)
        except OSError:
            if self.strict:
                raise
            self.counters.bump("dropped_writes")
        return gen

    def _artifact_schema(self, path: Path) -> Optional[int]:
        """Embedded schema of one artifact; None when unreadable."""
        try:
            with open(path, "rb") as fh:
                if path.suffix == ".arena":
                    if fh.read(len(ARENA_MAGIC)) != ARENA_MAGIC:
                        return None
                    (hlen,) = struct.unpack("<Q", fh.read(8))
                    header = pickle.loads(fh.read(hlen))
                    payload = header.get("meta", {})
                elif path.suffix == ".json":
                    payload = json.load(fh)
                else:
                    payload = pickle.load(fh)
            schema = payload.get("schema")
            return schema if isinstance(schema, int) else None
        except Exception:
            return None

    def prune(
        self,
        kinds: Optional[list] = None,
        older_than_s: Optional[float] = None,
        stale_only: bool = False,
        dry_run: bool = False,
    ) -> Dict[str, Dict[str, int]]:
        """Garbage-collect artifacts; returns per-kind removal stats.

        ``kinds`` restricts the sweep (default: every kind present;
        pass ``"quarantine"`` explicitly to empty the quarantine tree
        — the default sweep preserves it as evidence — and ``"queue"``
        to sweep aged work-queue debris, see :meth:`prune_queue`).
        ``older_than_s`` keeps artifacts younger than the cutoff;
        ``stale_only`` removes only artifacts whose embedded schema is
        not the current :data:`SCHEMA_VERSION` (or that cannot be read
        at all) — the entries every load already treats as misses.
        ``dry_run`` reports what would be removed without unlinking.

        Orphaned ``*.tmp`` files left behind by crashed writers are
        swept from every visited kind regardless of ``stale_only`` —
        they are unreachable debris by construction.  The whole sweep
        tolerates concurrent writers: a file vanishing between
        ``iterdir()`` and ``stat()``/``unlink()`` is skipped, not an
        error.

        A sweep that actually removed artifacts bumps the store
        generation (see :meth:`bump_generation`), so resident engine
        LRUs across the fleet drop entries derived from the pruned
        artifacts on their next generation check.
        """
        now = time.time()
        out: Dict[str, Dict[str, int]] = {}
        for kind in kinds if kinds is not None else self.kinds():
            if kind == "quarantine":
                out[kind] = self._prune_tree(
                    self.root / "quarantine", older_than_s, dry_run, now
                )
                continue
            if kind == "queue":
                out.update(self.prune_queue(
                    older_than_s=older_than_s, dry_run=dry_run
                ))
                continue
            removed = 0
            nbytes = 0
            kind_dir = self.root / kind
            try:
                tmp_files = sorted(kind_dir.glob("*.tmp"))
            except OSError:
                tmp_files = []
            for path in list(self._artifacts(kind)) + tmp_files:
                orphan = path.suffix == ".tmp"
                try:
                    st = path.stat()
                except OSError:
                    continue  # lost a race with a concurrent prune
                if older_than_s is not None and (
                    now - st.st_mtime
                ) < older_than_s:
                    continue
                if stale_only and not orphan and self._artifact_schema(
                    path
                ) == SCHEMA_VERSION:
                    continue
                if not dry_run:
                    try:
                        path.unlink()
                    except FileNotFoundError:
                        continue  # a concurrent writer renamed it away
                    except OSError:
                        continue
                removed += 1
                nbytes += st.st_size
            out[kind] = {"removed": removed, "bytes": nbytes}
        # Queue debris is coordination state, not artifacts — sweeping
        # it invalidates nothing resident.
        if not dry_run and any(
            entry["removed"] for kind, entry in out.items()
            if not kind.startswith("queue/")
        ):
            self.bump_generation()
        return out

    def prune_queue(
        self,
        older_than_s: Optional[float] = None,
        dry_run: bool = False,
    ) -> Dict[str, Dict[str, int]]:
        """Sweep aged work-queue debris under ``<root>/queue/``.

        Two classes of debris accumulate under a long-lived queue:

        * **aged done markers** (``done/<key>.json``) — the
          exactly-once dedup record; safe to drop once old enough that
          nothing will re-enqueue the job (a re-run then simply
          recomputes into the content-addressed store);
        * **orphaned leases** (``leases/<key>.lease``) — left behind
          when a worker died after its job file was consumed (or the
          job was completed by a successor): a lease with *no matching
          job file* can never be released by the normal protocol.

        Both sweeps honor ``older_than_s`` as an age guard; orphaned
        leases additionally require being older than one default lease
        period, so a claim racing this sweep (job unlinked between our
        two scans) is never swept.  Plain filesystem logic — no
        dependency on :mod:`repro.experiments.workqueue`, which
        imports back into this module's consumers.
        """
        now = time.time()
        qroot = self.root / "queue"
        out: Dict[str, Dict[str, int]] = {}

        def _sweep(paths, min_age_s: float) -> Dict[str, int]:
            removed = 0
            nbytes = 0
            for path in paths:
                try:
                    st = path.stat()
                except OSError:
                    continue
                if (now - st.st_mtime) < min_age_s:
                    continue
                if not dry_run:
                    try:
                        path.unlink()
                    except OSError:
                        continue
                removed += 1
                nbytes += st.st_size
            return {"removed": removed, "bytes": nbytes}

        try:
            done = sorted((qroot / "done").glob("*.json"))
        except OSError:
            done = []
        out["queue/done"] = _sweep(done, older_than_s or 0.0)

        # Orphaned leases: no pending job file shares the lease's key.
        # Job files are named ``p<priority>-<key>.json``.
        try:
            job_keys = {
                p.stem.split("-", 1)[1]
                for p in (qroot / "jobs").glob("*.json")
                if "-" in p.stem
            }
        except OSError:
            job_keys = set()
        try:
            leases = sorted((qroot / "leases").glob("*.lease"))
        except OSError:
            leases = []
        orphans = [p for p in leases if p.stem not in job_keys]
        # Never race an in-flight claim: a just-acquired lease whose
        # job file we happened to miss must age past a full lease
        # period (plus the caller's cutoff) before it is debris.
        min_age = max(older_than_s or 0.0, 60.0)
        out["queue/leases"] = _sweep(orphans, min_age)

        # Crashed enqueuers leave ``*.tmp-<owner>-<pid>`` files next
        # to the real ones; sweep them behind the same age guard so a
        # live enqueue mid-rename is never raced.
        tmp_files = []
        for sub in ("jobs", "leases", "done", "events"):
            try:
                tmp_files.extend((qroot / sub).glob("*.tmp*"))
            except OSError:
                continue
        out["queue/tmp"] = _sweep(sorted(tmp_files), min_age)
        return out

    def _prune_tree(
        self,
        root: Path,
        older_than_s: Optional[float],
        dry_run: bool,
        now: float,
    ) -> Dict[str, int]:
        """Sweep every file under ``root`` (quarantine evidence)."""
        removed = 0
        nbytes = 0
        try:
            subdirs = [d for d in root.iterdir() if d.is_dir()]
        except OSError:
            subdirs = []
        for directory in subdirs:
            try:
                entries = list(directory.iterdir())
            except OSError:
                continue
            for path in entries:
                try:
                    st = path.stat()
                except OSError:
                    continue
                if older_than_s is not None and (
                    now - st.st_mtime
                ) < older_than_s:
                    continue
                if not dry_run:
                    try:
                        path.unlink()
                    except OSError:
                        continue
                removed += 1
                nbytes += st.st_size
        return {"removed": removed, "bytes": nbytes}


#: Resident trace LRU bounds (entries and bytes) of every
#: :class:`TraceCache`, read at construction.
TRACE_CACHE_MAX_ENTRIES = 64
TRACE_CACHE_MAX_BYTES = 512 << 20
#: Traces larger than this stay in memory only — a guard against
#: unbounded store growth from huge one-off scales (``repro store
#: prune`` reclaims what does get persisted).
TRACE_PERSIST_MAX_BYTES = 64 << 20


def default_store() -> Optional[ProfileStore]:
    """The shared on-disk store, or ``None`` when its root is unusable.

    Non-strict (see :meth:`ProfileStore.open_default`), so save-time
    errors degrade to in-memory caching; a root that cannot even be
    created yields ``None``.
    """
    try:
        store = ProfileStore.open_default()
        store.root.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return store


class TraceCache:
    """Content-addressed, byte-bounded LRU over expanded traces.

    The trace analogue of the ILP table cache: resolution is
    in-process LRU -> on-disk ``"traces"`` store kind -> the columnar
    expansion engine (:mod:`repro.workloads.engine`), with
    write-through persistence for engine-expanded traces when a store
    is attached.  Keys are :meth:`ProfileStore.trace_key` fingerprints
    of the full workload spec, so every layer — the profiler, the
    bench harness, the experiment pipeline, the simulator and the
    serving engine — agrees on trace identity and re-pays expansion at
    most once per distinct ``(spec, seed, scale)`` per process (and,
    with a store, per machine).

    Thread-safe.  Concurrent misses on the same key may expand twice;
    both expansions are bit-identical, so last-writer-wins is sound.
    """

    def __init__(
        self,
        store: Optional[ProfileStore] = None,
        engine: Optional[ExpansionEngine] = None,
    ) -> None:
        self.store = store
        self.engine = engine if engine is not None else default_engine()
        self._lru = LRUCache(TRACE_CACHE_MAX_ENTRIES, TRACE_CACHE_MAX_BYTES)
        self._lock = threading.Lock()
        self.store_hits = 0
        self.store_saves = 0

    @staticmethod
    def key(spec: WorkloadSpec) -> str:
        """Content address of ``spec``, memoized on the spec object.

        Fingerprinting a suite spec (hundreds of nested segment plans)
        costs about 2 ms on average and 13-20 ms for the largest
        (fluidanimate) at scale 1.0 on a 2-CPU Xeon host, Python 3.11
        — far more than a warm cache hit — so the fingerprint is
        computed once per spec object.  Specs are treated as immutable
        everywhere once built; mutating one after its first cache
        lookup would poison its content address.
        """
        key = getattr(spec, "_trace_key", None)
        if key is None:
            key = ProfileStore.trace_key(spec)
            try:
                spec._trace_key = key
            except AttributeError:  # exotic spec types without __dict__
                pass
        return key

    def get(self, spec: WorkloadSpec) -> WorkloadTrace:
        """The expanded trace of ``spec`` (LRU -> store -> engine)."""
        key = self.key(spec)
        trace = self._lru.get(key)
        if trace is not None:
            return trace
        if self.store is not None:
            trace = self.store.load_trace(key)
        if trace is not None:
            with self._lock:
                self.store_hits += 1
        else:
            trace = self.engine.expand(spec)
            if (
                self.store is not None
                and trace.nbytes <= TRACE_PERSIST_MAX_BYTES
            ):
                self.store.save_trace(key, trace)
                with self._lock:
                    self.store_saves += 1
        self._lru.put(key, trace, trace.nbytes)
        return trace

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> Dict[str, int]:
        stats = self._lru.stats()
        with self._lock:
            stats["store_hits"] = self.store_hits
            stats["store_saves"] = self.store_saves
        return stats
