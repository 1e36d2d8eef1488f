"""Crash-safe distributed work queue over the content-addressed store.

``report --jobs N`` fans its suite out through this module: a
filesystem-backed queue living under the artifact-store root, so work
outlives the process that planned it.  Any number of worker processes —
on one host or on many hosts sharing the store directory — claim jobs
via atomic lease files and execute them *idempotently*, so at-least-
once delivery composes with content addressing to give exactly-once
**effects**.  A worker SIGKILL'd at any instant loses nothing: its
leases expire one lease period after its last heartbeat and survivors
re-claim the jobs; every result publishes through the store's
fsync+rename path, so a crash leaves at worst an orphan ``*.tmp``.

This is also the one module that creates processes:
:class:`Supervisor` spawns, respawns and drains the children of the
work fleet, the serving fleet and the chaos scenarios alike.

Layout (all under ``<store root>/queue/``)::

    jobs/p<prio>-<key>.json   pending job specs (atomic writes);
                              priority orders profiles before the
                              predictions/simulations that read them
    leases/<key>.lease        exclusive claims: created with
                              O_CREAT|O_EXCL, owner/pid/host/token in
                              the body, liveness in the mtime (renewed
                              by heartbeats)
    done/<key>.json           completion markers, also O_EXCL — the
                              second completer of a key is *counted*
                              (``completed_duplicate``), never trusted
    events/<owner>.jsonl      per-worker append-only event logs (no
                              write races); the chaos scenarios and
                              ``repro work stats`` read them back

The lease protocol, in full:

* **claim** — ``os.open(lease, O_CREAT|O_EXCL)``: the filesystem
  elects exactly one winner per key no matter how many claimers race
  (the ``queue.claim`` fault point widens that race in tests).
* **heartbeat** — a side thread renews the lease mtime every
  ``heartbeat_s`` and re-reads the owner token; a missing or foreign
  token means the lease was taken over, and the worker *abandons* the
  job — it may finish computing (idempotent, harmless) but never
  publishes a completion over the new owner.
* **expiry / takeover** — a lease older than ``lease_s`` is dead by
  contract (the owner missed every heartbeat).  Takeover renames the
  lease to a claimant-unique name — one winner even when many
  survivors notice the same corpse — then unlinks it and claims
  freshly via O_EXCL (the ``queue.lease`` fault point sits in that
  window).
* **complete** — write the ``done/`` marker (O_EXCL), unlink the job
  file, then release the lease only after re-verifying the owner
  token.  A crash between any two steps is safe: the artifact is
  already in the store, so the next claimer's execution is a no-op.

Telemetry: every process exports ``repro_work_*`` gauges (jobs
claimed / completed / re-claimed / expired, heartbeats, abandons)
through :data:`repro.obs.REGISTRY` plus a
``repro_work_lease_age_seconds`` histogram of lease ages observed at
heartbeat and completion time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.store import ProfileStore, fingerprint
from repro.obs import REGISTRY, get_logger
from repro.testing.faults import FAULTS

#: Queue artifact schema; bump when the job payload layout changes.
QUEUE_SCHEMA = 1

#: ``BENCH_work.json`` record schema (the chaos-scenario results).
WORK_BENCH_SCHEMA = 1

#: Default lease length: a worker that misses every heartbeat for this
#: long is dead by contract and its jobs are up for takeover.
DEFAULT_LEASE_S = 15.0

#: Default heartbeat interval (and idle re-scan period): a live worker
#: renews its lease several times per lease period, so a lease only
#: ever *looks* expired when the owner really stopped heartbeating.
DEFAULT_HEARTBEAT_S = 3.0

#: Job kinds, in claim-priority order: profiles first, because the
#: prediction/simulation jobs behind them read the profile artifact
#: (any worker *can* compute a missing profile itself — idempotent —
#: but ordering avoids redundant work).
JOB_KINDS = ("profile", "predict", "simulate")
_PRIORITY = {"profile": 0, "predict": 1, "simulate": 1}

_log = get_logger("repro.work")

#: Lease ages (seconds since claim) observed at heartbeat/completion.
LEASE_AGE = REGISTRY.histogram(
    "repro_work_lease_age_seconds",
    "Age of live leases observed at heartbeat and completion",
)


class QueueCounters:
    """Thread-safe per-process accounting for queue operations.

    The authoritative struct behind the ``repro_work_*`` gauges (the
    obs plane projects it at scrape time, never copies it).  Worker
    processes each carry their own instance; cross-process truth lives
    in the queue directories and event logs, which
    :meth:`WorkQueue.stats` reads back.
    """

    _FIELDS = (
        "enqueued",
        "claimed",
        "claim_errors",
        "completed",
        "completed_noop",
        "completed_duplicate",
        "expired",
        "reclaimed",
        "heartbeats",
        "heartbeat_failures",
        "abandoned",
        "released",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {f: 0 for f in self._FIELDS}

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] += by

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


#: Process-wide counters shared by every WorkQueue in this process.
WORK_COUNTERS = QueueCounters()


def _collect_work_metrics(m) -> None:
    """Scrape-time projection of :data:`WORK_COUNTERS` into gauges."""
    for name, value in WORK_COUNTERS.snapshot().items():
        m.gauge(
            f"repro_work_{name}",
            f"Work-queue {name.replace('_', ' ')} in this process",
        ).set(value)


REGISTRY.register_collector("workqueue", _collect_work_metrics)


@dataclass(frozen=True)
class Job:
    """One idempotent unit of work, addressed by its content key.

    Everything is JSON-scalar so a job file round-trips bit-exactly;
    configurations travel as Table IV design-point names plus a core
    count (the identity every report artifact uses), never as pickled
    objects — a queue shared between hosts must not care which build
    enqueued a job.
    """

    kind: str  # one of JOB_KINDS
    suite: str  # "rodinia" | "parsec"
    benchmark: str
    scale: float = 1.0
    chunk: int = 4096
    config: Optional[str] = None  # Table IV point (predict/simulate)
    cores: int = 4

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.kind in ("predict", "simulate") and not self.config:
            raise ValueError(f"{self.kind} jobs need a config name")

    @property
    def key(self) -> str:
        """Content address: the canonical job structure, hashed."""
        return fingerprint({
            "kind": "workqueue-job",
            "schema": QUEUE_SCHEMA,
            "job": dataclasses.asdict(self),
        })

    @property
    def priority(self) -> int:
        return _PRIORITY[self.kind]

    @property
    def label(self) -> str:
        tail = f":{self.config}" if self.config else ""
        return f"{self.kind}:{self.suite}.{self.benchmark}{tail}"

    def to_payload(self) -> Dict[str, Any]:
        return {"schema": QUEUE_SCHEMA, "job": dataclasses.asdict(self)}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Job":
        if payload.get("schema") != QUEUE_SCHEMA:
            raise ValueError("stale work-queue job schema")
        return cls(**payload["job"])


@dataclass
class Lease:
    """One successful claim: the job, its paths, and our identity."""

    job: Job
    path: Path  # the lease file
    job_path: Path
    owner: str
    token: str
    acquired: float  # time.monotonic() at claim
    #: Set by the heartbeat (or a failed ownership re-check): the lease
    #: was taken over and this worker must not publish a completion.
    lost: bool = False

    @property
    def age_s(self) -> float:
        return time.monotonic() - self.acquired


def _default_owner() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class WorkQueue:
    """Filesystem-backed job queue under ``<store root>/queue/``.

    Every operation is multi-writer safe by construction: enqueues go
    through atomic temp+rename writes, claims through ``O_EXCL`` lease
    creates, takeovers through a rename that only one claimant can
    win, completions through ``O_EXCL`` done markers.  A process dying
    at any instant leaves either a pending job (re-claimable once its
    lease expires) or a completed one — never a lost or half-done job.
    """

    def __init__(
        self,
        root: os.PathLike,
        lease_s: float = DEFAULT_LEASE_S,
        heartbeat_s: Optional[float] = None,
        owner: Optional[str] = None,
    ) -> None:
        base = Path(root)
        #: Accept either a store root or the queue directory itself.
        self.root = base if base.name == "queue" else base / "queue"
        self.lease_s = float(lease_s)
        self.heartbeat_s = (
            float(heartbeat_s) if heartbeat_s is not None
            else max(0.05, self.lease_s / 5.0)
        )
        self.owner = owner if owner is not None else _default_owner()
        #: Claimant-unique token: distinguishes two claims by the same
        #: owner string and names the takeover rename target.
        self._token_seq = 0
        self.counters = WORK_COUNTERS
        self._events_fd: Optional[int] = None

    # -- paths --------------------------------------------------------------

    @property
    def jobs_dir(self) -> Path:
        return self.root / "jobs"

    @property
    def leases_dir(self) -> Path:
        return self.root / "leases"

    @property
    def done_dir(self) -> Path:
        return self.root / "done"

    @property
    def events_dir(self) -> Path:
        return self.root / "events"

    def _job_path(self, job: Job) -> Path:
        return self.jobs_dir / f"p{job.priority}-{job.key}.json"

    def _lease_path(self, key: str) -> Path:
        return self.leases_dir / f"{key}.lease"

    def _done_path(self, key: str) -> Path:
        return self.done_dir / f"{key}.json"

    @staticmethod
    def _key_of(job_path: Path) -> str:
        return job_path.stem.split("-", 1)[1]

    # -- event log ----------------------------------------------------------

    def _log_event(self, event: str, key: str, **extra: Any) -> None:
        """Append one event line to this owner's log (best effort).

        One ``os.write`` per line on an ``O_APPEND`` descriptor —
        atomic for these line sizes on every local filesystem, and
        per-owner files mean no cross-process interleaving at all.
        """
        line = json.dumps({
            "ts": time.time(), "event": event, "key": key,
            "owner": self.owner, **extra,
        }, sort_keys=True) + "\n"
        try:
            if self._events_fd is None:
                self.events_dir.mkdir(parents=True, exist_ok=True)
                self._events_fd = os.open(
                    self.events_dir / f"{self.owner}.jsonl",
                    os.O_CREAT | os.O_WRONLY | os.O_APPEND,
                    0o644,
                )
            os.write(self._events_fd, line.encode())
        except OSError:
            pass  # telemetry is best-effort by construction

    def read_events(self) -> List[Dict[str, Any]]:
        """Every event from every worker's log, oldest first."""
        events: List[Dict[str, Any]] = []
        try:
            logs = sorted(self.events_dir.glob("*.jsonl"))
        except OSError:
            return events
        for path in logs:
            try:
                lines = path.read_text().splitlines()
            except OSError:
                continue
            for line in lines:
                try:
                    events.append(json.loads(line))
                except ValueError:
                    continue  # torn tail line of a killed writer
        events.sort(key=lambda e: e.get("ts", 0.0))
        return events

    # -- enqueue ------------------------------------------------------------

    def enqueue(self, job: Job) -> bool:
        """Make ``job`` pending; returns False when already queued/done.

        Atomic (temp + rename) so a concurrent claimer never reads a
        torn job file; re-enqueueing a completed or pending job is a
        counted no-op, which makes enqueue itself idempotent — any
        number of hosts can submit the same suite.
        """
        path = self._job_path(job)
        if path.exists() or self._done_path(job.key).exists():
            return False
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp-{self.owner}-{os.getpid()}")
        data = json.dumps(job.to_payload(), sort_keys=True).encode()
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.counters.bump("enqueued")
        self._log_event("enqueue", job.key, label=job.label)
        return True

    def enqueue_many(self, jobs: Sequence[Job]) -> int:
        return sum(1 for job in jobs if self.enqueue(job))

    # -- inventory ----------------------------------------------------------

    def _pending_paths(self) -> List[Path]:
        """Pending job files, priority-then-key order (claim order)."""
        try:
            return sorted(
                p for p in self.jobs_dir.iterdir()
                if p.suffix == ".json"
            )
        except OSError:
            return []

    def pending(self) -> int:
        return len(self._pending_paths())

    def live_leases(self) -> Dict[str, Dict[str, Any]]:
        """Owner metadata of every lease file, keyed by job key."""
        out: Dict[str, Dict[str, Any]] = {}
        try:
            paths = sorted(self.leases_dir.glob("*.lease"))
        except OSError:
            return out
        for path in paths:
            meta: Dict[str, Any] = {}
            try:
                st = path.stat()
                meta = json.loads(path.read_text() or "{}")
            except (OSError, ValueError):
                # Freshly created (body not yet written) or vanished.
                try:
                    st = path.stat()
                except OSError:
                    continue
            meta["age_s"] = max(0.0, time.time() - st.st_mtime)
            out[path.stem] = meta
        return out

    def done_count(self) -> int:
        try:
            return sum(
                1 for p in self.done_dir.iterdir()
                if p.suffix == ".json"
            )
        except OSError:
            return 0

    def drained(self) -> bool:
        return self.pending() == 0

    def stats(self) -> Dict[str, Any]:
        """Cross-process queue state (filesystem truth) + counters."""
        return {
            "pending": self.pending(),
            "leased": len(self.live_leases()),
            "done": self.done_count(),
            "lease_s": self.lease_s,
            "heartbeat_s": self.heartbeat_s,
            "counters": self.counters.snapshot(),
        }

    # -- claim / lease lifecycle --------------------------------------------

    def _read_job(self, job_path: Path) -> Optional[Job]:
        try:
            return Job.from_payload(json.loads(job_path.read_text()))
        except (OSError, ValueError, TypeError):
            return None

    def _next_token(self) -> str:
        self._token_seq += 1
        return f"{self.owner}:{os.getpid()}:{self._token_seq}"

    def try_claim(self, job_path: Path) -> Optional[Lease]:
        """One claim attempt on one job file (non-blocking).

        Returns a live :class:`Lease` on the O_EXCL win, ``None`` when
        the job is done, claimed by a live owner, or lost to a racer.
        An expired lease is taken over first (rename-steal), then
        contested through the same O_EXCL create as a fresh claim.
        """
        key = self._key_of(job_path)
        done_path = self._done_path(key)
        if done_path.exists():
            # A completer crashed between the done marker and the job
            # unlink; finish the cleanup for it.
            try:
                os.unlink(job_path)
            except OSError:
                pass
            return None
        lease_path = self._lease_path(key)
        token = self._next_token()
        try:
            FAULTS.fire("queue.claim")
        except OSError:
            self.counters.bump("claim_errors")
            return None
        try:
            self.leases_dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                lease_path,
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                0o644,
            )
        except FileExistsError:
            if self._maybe_takeover(lease_path, key):
                return self.try_claim(job_path)  # contest the freed key
            return None
        except OSError:
            self.counters.bump("claim_errors")
            return None
        try:
            body = json.dumps({
                "owner": self.owner,
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "token": token,
                "claimed_at": time.time(),
            }, sort_keys=True).encode()
            os.write(fd, body)
        finally:
            os.close(fd)
        job = self._read_job(job_path)
        if job is None:
            # The job file vanished (completed or pruned) between the
            # scan and the claim: release the orphan lease.
            try:
                os.unlink(lease_path)
            except OSError:
                pass
            return None
        self.counters.bump("claimed")
        self._log_event("claim", key, label=job.label, token=token)
        return Lease(
            job=job, path=lease_path, job_path=job_path,
            owner=self.owner, token=token, acquired=time.monotonic(),
        )

    def _maybe_takeover(self, lease_path: Path, key: str) -> bool:
        """Steal ``lease_path`` if it expired; True when freed.

        The rename to a claimant-unique name is the election: however
        many survivors notice the same expired lease, exactly one
        rename succeeds, and only that winner unlinks the corpse.  The
        caller then re-contests the key through the normal O_EXCL
        claim (a third claimer may still win it — any winner is fine).
        """
        try:
            st = lease_path.stat()
        except OSError:
            return True  # already freed; contest it
        age = time.time() - st.st_mtime
        if age <= self.lease_s:
            return False
        self.counters.bump("expired")
        try:
            FAULTS.fire("queue.lease")
        except OSError:
            return False
        steal = lease_path.with_suffix(
            f".steal-{os.getpid()}-{self._token_seq}"
        )
        try:
            os.rename(lease_path, steal)
        except OSError:
            return True  # lost the election; the key is (being) freed
        try:
            os.unlink(steal)
        except OSError:
            pass
        self.counters.bump("reclaimed")
        self._log_event("steal", key, expired_age_s=round(age, 3))
        _log.warning(
            "work.lease_takeover", key=key[:12],
            expired_age_s=round(age, 3), lease_s=self.lease_s,
        )
        return True

    def claim_next(self) -> Optional[Lease]:
        """Claim the first claimable pending job, or ``None``."""
        for job_path in self._pending_paths():
            lease = self.try_claim(job_path)
            if lease is not None:
                return lease
        return None

    def heartbeat(self, lease: Lease) -> bool:
        """Renew ``lease``; False (and ``lease.lost``) on takeover.

        Re-reads the owner token before touching the mtime, so a
        worker that lost its lease can never resurrect the file a
        survivor is about to claim — it learns it is a zombie instead.
        """
        if lease.lost:
            return False
        try:
            FAULTS.fire("queue.heartbeat")
            body = json.loads(lease.path.read_text() or "{}")
            if body.get("token") != lease.token:
                raise FileNotFoundError(lease.path)
            os.utime(lease.path)
        except (OSError, ValueError):
            lease.lost = True
            self.counters.bump("heartbeat_failures")
            self._log_event("heartbeat_lost", lease.job.key)
            return False
        self.counters.bump("heartbeats")
        LEASE_AGE.observe(lease.age_s)
        return True

    def complete(self, lease: Lease, computed: bool) -> bool:
        """Publish completion of ``lease.job``; False when abandoned.

        Order matters for crash safety: done marker first (O_EXCL —
        the second completer of a key is counted, not trusted), then
        the job file, then the lease (only after re-verifying the
        token, so a zombie never unlinks a successor's lease).  The
        job's artifacts are already durable in the store before this
        is called.
        """
        key = lease.job.key
        if lease.lost:
            self.counters.bump("abandoned")
            self._log_event("abandon", key, computed=computed)
            return False
        LEASE_AGE.observe(lease.age_s)
        duplicate = False
        try:
            self.done_dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                self._done_path(key),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                0o644,
            )
        except FileExistsError:
            duplicate = True
            self.counters.bump("completed_duplicate")
        except OSError:
            pass  # queue dir unwritable: artifacts are still durable
        else:
            try:
                os.write(fd, json.dumps({
                    "owner": self.owner,
                    "computed": bool(computed),
                    "label": lease.job.label,
                    "ts": time.time(),
                }, sort_keys=True).encode())
            finally:
                os.close(fd)
        try:
            os.unlink(lease.job_path)
        except OSError:
            pass
        self._release_if_owned(lease)
        self.counters.bump(
            "completed" if computed else "completed_noop"
        )
        self._log_event(
            "complete", key, computed=bool(computed),
            duplicate=duplicate, label=lease.job.label,
        )
        return True

    def release(self, lease: Lease) -> None:
        """Voluntarily return a claimed job to the pending pool."""
        self._release_if_owned(lease)
        self.counters.bump("released")
        self._log_event("release", lease.job.key)

    def _release_if_owned(self, lease: Lease) -> None:
        try:
            body = json.loads(lease.path.read_text() or "{}")
            if body.get("token") == lease.token:
                os.unlink(lease.path)
        except (OSError, ValueError):
            pass  # taken over or already gone — not ours to unlink

    def close(self) -> None:
        if self._events_fd is not None:
            try:
                os.close(self._events_fd)
            except OSError:
                pass
            self._events_fd = None


# -- job execution ----------------------------------------------------------


class JobExecutor:
    """Idempotent execution of queue jobs over one shared store.

    One per worker process: a single :class:`~repro.core.session.
    Session` cache plane plus per-(scale, chunk) ``RunCache`` facades,
    so a worker draining many jobs of one suite stays session-warm.
    ``computed`` in the result is derived from the store's write
    counter — a job fully satisfied by existing artifacts performs no
    writes and reports itself as the no-op the queue contract
    promises.
    """

    def __init__(self, store: ProfileStore) -> None:
        from repro.core.session import Session

        self.store = store
        self.session = Session(store=store)
        self._caches: Dict[Tuple[float, int], Any] = {}
        #: Chaos knob: hold the lease this long after each execution
        #: (simulates long jobs so the kill-mid-lease scenario can
        #: reliably SIGKILL a worker *while it owns live leases*).
        self.settle_s = float(
            os.environ.get("REPRO_WORK_SETTLE_S", "0") or 0.0
        )

    def _run_cache(self, scale: float, chunk: int):
        from repro.experiments.suites import RunCache

        key = (scale, chunk)
        cache = self._caches.get(key)
        if cache is None:
            cache = RunCache(
                scale=scale, chunk=chunk, session=self.session
            )
            self._caches[key] = cache
        return cache

    def execute(self, job: Job) -> bool:
        """Run ``job``; returns True when artifacts were written."""
        from repro.arch.presets import table_iv_config
        from repro.experiments.suites import BenchmarkRef

        ref = BenchmarkRef(job.suite, job.benchmark)
        cache = self._run_cache(job.scale, job.chunk)
        before = self.store.counters.snapshot()["writes"]
        if job.kind == "profile":
            cache.profile(ref)
        elif job.kind == "predict":
            cache.prediction(
                ref, table_iv_config(job.config, cores=job.cores)
            )
        elif job.kind == "simulate":
            cache.simulation(
                ref, table_iv_config(job.config, cores=job.cores)
            )
        if self.settle_s > 0.0:
            time.sleep(self.settle_s)
        return self.store.counters.snapshot()["writes"] > before


def plan_suite_jobs(
    refs: Sequence[Any],
    scale: float = 1.0,
    chunk: int = 4096,
    configs: Sequence[str] = (),
    cores: int = 4,
    simulate: bool = False,
) -> List[Job]:
    """The job set for a suite sweep: profiles, then per-config work."""
    jobs: List[Job] = []
    for ref in refs:
        jobs.append(Job(
            kind="profile", suite=ref.suite, benchmark=ref.name,
            scale=scale, chunk=chunk,
        ))
        for config in configs:
            jobs.append(Job(
                kind="predict", suite=ref.suite, benchmark=ref.name,
                scale=scale, chunk=chunk, config=config, cores=cores,
            ))
            if simulate:
                jobs.append(Job(
                    kind="simulate", suite=ref.suite,
                    benchmark=ref.name, scale=scale, chunk=chunk,
                    config=config, cores=cores,
                ))
    return jobs


# -- worker loop ------------------------------------------------------------


class Worker:
    """One claim-execute-complete loop over a :class:`WorkQueue`.

    While a job runs, a daemon heartbeat thread renews the lease every
    ``heartbeat_s``; a renewal that fails (takeover, injected fault,
    unlinked lease) marks the lease lost, and the completion path then
    abandons instead of publishing.  ``drain=True`` exits when the
    queue is empty; otherwise the worker naps ``heartbeat_s`` between
    scans and keeps serving new work — the long-running fleet mode.
    """

    def __init__(
        self,
        queue: WorkQueue,
        executor: Optional[JobExecutor] = None,
        drain: bool = True,
        stop_event: Optional[threading.Event] = None,
    ) -> None:
        self.queue = queue
        if executor is None:
            store_root = queue.root.parent
            executor = JobExecutor(
                ProfileStore(store_root, strict=False)
            )
        self.executor = executor
        self.drain = drain
        self.stop_event = (
            stop_event if stop_event is not None else threading.Event()
        )
        self.jobs_run = 0

    def _heartbeat_loop(self, lease: Lease, done: threading.Event):
        while not done.wait(self.queue.heartbeat_s):
            if not self.queue.heartbeat(lease):
                return

    def run_one(self, lease: Lease) -> bool:
        """Execute one claimed job under heartbeat protection."""
        done = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(lease, done),
            daemon=True,
        )
        beat.start()
        try:
            computed = self.executor.execute(lease.job)
        except Exception:
            # A failed execution is not a completed job: release the
            # lease so another worker (or a retry here) re-claims it.
            done.set()
            beat.join(timeout=self.queue.lease_s)
            _log.error(
                "work.job_failed", key=lease.job.key[:12],
                label=lease.job.label,
            )
            self.queue.release(lease)
            return False
        done.set()
        beat.join(timeout=self.queue.lease_s)
        self.queue.complete(lease, computed)
        self.jobs_run += 1
        return True

    def run(self) -> int:
        """Serve the queue until drained (or stopped); jobs executed."""
        while not self.stop_event.is_set():
            lease = self.queue.claim_next()
            if lease is not None:
                self.run_one(lease)
                continue
            if self.drain and self.queue.drained():
                break
            # Pending jobs are all leased (or the queue is idle):
            # rescan after a heartbeat period — that cadence also
            # bounds how long an expired lease waits for takeover.
            self.stop_event.wait(self.queue.heartbeat_s)
        self.queue.close()
        return self.jobs_run


def _worker_main(
    store_root: str,
    owner: str,
    lease_s: float,
    heartbeat_s: float,
    drain: bool,
) -> None:
    """Child-process entry point (spawn-safe, signal-graceful)."""
    stop = threading.Event()

    def _graceful(signum, frame):  # pragma: no cover - signal path
        stop.set()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    queue = WorkQueue(
        store_root, lease_s=lease_s, heartbeat_s=heartbeat_s,
        owner=owner,
    )
    Worker(queue, drain=drain, stop_event=stop).run()


class Supervisor:
    """The one process supervisor: N spawned children of one target.

    Child ``index`` runs ``target(*args(index))`` in a fresh ``spawn``
    process (``target`` must be module-level; ``args`` is re-evaluated
    on every respawn).  ``poll()`` respawns dead children unless
    ``respawn`` is off or :meth:`stop` has begun; ``stop(timeout)``
    sends SIGTERM, joins until ``timeout`` and then SIGKILLs.
    """

    def __init__(
        self,
        target: Callable[..., Any],
        count: int,
        args: Callable[[int], Sequence[Any]] = lambda index: (),
        name: str = "repro-child",
        respawn: bool = True,
    ) -> None:
        self.target = target
        self.count = max(1, int(count))
        self.args = args
        self.name = name
        self.respawn = respawn
        #: Children restarted by :meth:`poll` after dying.
        self.respawned = 0
        self._stopping = threading.Event()
        self._procs: Dict[int, Any] = {}

    def _spawn(self, index: int) -> None:
        import multiprocessing

        proc = multiprocessing.get_context("spawn").Process(
            target=self.target,
            args=tuple(self.args(index)),
            name=f"{self.name}-{index}",
        )
        proc.start()
        self._procs[index] = proc

    def start(self) -> "Supervisor":
        for index in range(self.count):
            self._spawn(index)
        return self

    def poll(self) -> int:
        """One supervision step: respawn the dead; returns alive."""
        alive = 0
        for index, proc in list(self._procs.items()):
            if proc.is_alive():
                alive += 1
                continue
            if self._stopping.is_set() or not self.respawn:
                continue
            _log.warning(
                "supervisor.respawn", child=proc.name,
                exitcode=proc.exitcode,
            )
            self._spawn(index)
            self.respawned += 1
            alive += 1
        return alive

    def alive(self) -> int:
        return sum(1 for proc in self._procs.values() if proc.is_alive())

    def pid(self, index: int) -> Optional[int]:
        """Pid of child ``index`` while it is alive, else ``None``."""
        proc = self._procs.get(index)
        return proc.pid if proc is not None and proc.is_alive() else None

    def kill(self, index: int) -> Optional[int]:
        """SIGKILL child ``index`` (chaos hook); returns its pid."""
        pid = self.pid(index)
        if pid is not None:
            proc = self._procs[index]
            proc.kill()
            proc.join(timeout=5.0)
        return pid

    def stop(self, timeout: float) -> None:
        """SIGTERM every child, join until ``timeout``, then SIGKILL."""
        self._stopping.set()
        procs = list(self._procs.values())
        for proc in procs:
            if proc.is_alive():
                with contextlib.suppress(ProcessLookupError, ValueError):
                    proc.terminate()  # SIGTERM: drain and exit
        deadline = time.monotonic() + timeout
        for proc in procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                _log.warning(
                    "supervisor.kill_escalation", child=proc.name,
                    pid=proc.pid,
                )
                proc.kill()
                proc.join(timeout=5.0)


def run_workers(
    store_root: os.PathLike,
    workers: int = 2,
    lease_s: float = DEFAULT_LEASE_S,
    heartbeat_s: Optional[float] = None,
    drain: bool = True,
    respawn: bool = True,
    install_signals: bool = False,
) -> Dict[str, Any]:
    """``repro work run --workers N``: a self-healing worker fleet.

    Respawns workers that die while work remains (their leases are
    re-claimed anyway — respawn restores capacity).  With ``drain``
    the fleet exits once the queue is drained and the workers have
    left; SIGINT/SIGTERM (``install_signals``) stop it gracefully, with
    30 s for children to finish their job before SIGKILL.
    """
    queue = WorkQueue(
        store_root, lease_s=lease_s, heartbeat_s=heartbeat_s
    )
    owner = _default_owner()
    supervisor = Supervisor(
        _worker_main,
        workers,
        args=lambda index: (
            str(queue.root.parent), f"{owner}-w{index}",
            queue.lease_s, queue.heartbeat_s, drain,
        ),
        name="repro-work",
        respawn=respawn,
    )
    stopping = threading.Event()
    if install_signals:
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                signal.signal(sig, lambda s, f: stopping.set())
            except ValueError:  # pragma: no cover - non-main thread
                pass
    supervisor.start()
    try:
        while not stopping.is_set():
            # A drained queue needs no fresh capacity: let the
            # workers drain-exit instead of respawning them.
            drained = drain and queue.drained()
            alive = supervisor.alive() if drained else supervisor.poll()
            if not alive and (drained or not respawn):
                break
            stopping.wait(0.1)
    finally:
        supervisor.stop(timeout=30.0)
    return {
        "workers": supervisor.count,
        "respawned": supervisor.respawned,
        "queue": queue.stats(),
    }


# -- queue-level accounting (cross-process, from the event logs) -------------


def effect_audit(queue: WorkQueue) -> Dict[str, int]:
    """Exactly-once-effects audit over every worker's event log.

    ``duplicate_effects`` counts keys *computed* (artifacts written)
    by more than one completion — the number the chaos floors pin to
    zero: at-least-once claims may race, but content addressing must
    collapse them to one effect.  ``lost_jobs`` is filesystem truth:
    job files still pending after the fleet drained.
    """
    computed_by_key: Dict[str, int] = {}
    completions = 0
    duplicates = 0
    for event in queue.read_events():
        if event.get("event") != "complete":
            continue
        completions += 1
        if event.get("duplicate"):
            duplicates += 1
        if event.get("computed"):
            key = event.get("key", "")
            computed_by_key[key] = computed_by_key.get(key, 0) + 1
    return {
        "completions": completions,
        "duplicate_completions": duplicates,
        "duplicate_effects": sum(
            n - 1 for n in computed_by_key.values() if n > 1
        ),
        "lost_jobs": queue.pending(),
        "done": queue.done_count(),
    }


# -- chaos scenarios (BENCH_work.json substance) -----------------------------


def _scenario_kill_mid_lease(
    quick: bool, workdir: Path
) -> Dict[str, Any]:
    """SIGKILL a worker holding live leases; survivors must finish.

    Three spawned worker processes drain a small suite whose jobs are
    artificially slowed (``REPRO_WORK_SETTLE_S``) so the victim is
    reliably killed *while it owns a lease*.  The floors assert the
    full robustness contract: the stolen jobs are re-claimed within
    the committed number of lease periods, nothing is lost, nothing is
    computed twice, and the finished report renders bit-identical to a
    single-process run against a fresh store.
    """
    from repro.arch.presets import table_iv_config
    from repro.experiments.accuracy import render_figure4, run_figure4
    from repro.experiments.suites import BenchmarkRef, RunCache

    lease_s, heartbeat_s = 2.0, 0.4
    names = ["hotspot", "bfs", "srad"] if quick else [
        "hotspot", "bfs", "srad", "nn", "backprop", "lud",
    ]
    scale = 0.05 if quick else 0.1
    refs = [BenchmarkRef("rodinia", name) for name in names]
    store_root = workdir / "killstore"
    queue = WorkQueue(
        store_root, lease_s=lease_s, heartbeat_s=heartbeat_s,
        owner="chaos-parent",
    )
    jobs = plan_suite_jobs(
        refs, scale=scale, configs=["base"], simulate=True
    )
    queue.enqueue_many(jobs)

    workers = Supervisor(
        _worker_main,
        3,
        args=lambda index: (
            str(store_root), f"chaos-w{index}", lease_s, heartbeat_s,
            True,
        ),
        name="chaos-w",
        respawn=False,
    )
    old_settle = os.environ.get("REPRO_WORK_SETTLE_S")
    os.environ["REPRO_WORK_SETTLE_S"] = "0.25"
    try:
        workers.start()
    finally:
        if old_settle is None:
            os.environ.pop("REPRO_WORK_SETTLE_S", None)
        else:
            os.environ["REPRO_WORK_SETTLE_S"] = old_settle

    # Wait for the victim (child 0) to own a live lease, then kill it
    # there.
    victim_pid = workers.pid(0)
    victim_keys: List[str] = []
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        victim_keys = [
            key for key, meta in queue.live_leases().items()
            if meta.get("pid") == victim_pid
        ]
        if victim_keys or workers.pid(0) is None:
            break
        time.sleep(0.02)
    kill_wall = time.time()
    killed = workers.kill(0) is not None

    # The survivors drain the queue and exit on their own.
    deadline = time.monotonic() + 240.0
    while workers.alive() and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors_alive = workers.alive()
    workers.stop(timeout=5.0)  # hang backstop

    # Reclaim latency: steals of the victim's keys, after the kill.
    steal_ts = [
        event["ts"] for event in queue.read_events()
        if event.get("event") == "steal"
        and event.get("key") in victim_keys
        and event.get("ts", 0.0) >= kill_wall
    ]
    reclaim_s = max(steal_ts) - kill_wall if steal_ts else 0.0
    audit = effect_audit(queue)

    # Bit-identity: the queue-filled store vs a fresh serial run.
    config = table_iv_config("base")
    queue_cache = RunCache(
        scale=scale, store=ProfileStore(store_root, strict=False)
    )
    fleet_report = render_figure4(run_figure4(
        benchmarks=refs, config=config, cache=queue_cache, jobs=1,
    ))
    serial_cache = RunCache(
        scale=scale,
        store=ProfileStore(workdir / "serialstore", strict=False),
    )
    serial_report = render_figure4(run_figure4(
        benchmarks=refs, config=config, cache=serial_cache, jobs=1,
    ))

    return {
        "benchmarks": len(refs),
        "jobs": len(jobs),
        "lease_s": lease_s,
        "heartbeat_s": heartbeat_s,
        "killed": bool(killed),
        "victim_held_leases": len(victim_keys),
        "reclaimed_keys": len(steal_ts),
        "reclaim_s": round(reclaim_s, 3),
        "reclaim_lease_periods": round(reclaim_s / lease_s, 3),
        "survivors_hung": survivors_alive,
        "report_identical": int(fleet_report == serial_report),
        **audit,
    }


def _scenario_stale_takeover(workdir: Path) -> Dict[str, Any]:
    """An expired lease is stolen; the zombie owner must not publish."""
    root = workdir / "stale"
    zombie = WorkQueue(
        root, lease_s=0.5, heartbeat_s=0.1, owner="zombie"
    )
    survivor = WorkQueue(
        root, lease_s=0.5, heartbeat_s=0.1, owner="survivor"
    )
    job = Job(kind="profile", suite="rodinia", benchmark="nn")
    zombie.enqueue(job)
    lease = zombie.try_claim(zombie._job_path(job))
    # Backdate the lease far past expiry: the owner "stopped
    # heartbeating" without actually sleeping the test out.
    past = time.time() - 60.0
    os.utime(lease.path, (past, past))
    stolen = survivor.claim_next()
    zombie_heartbeat_ok = zombie.heartbeat(lease)
    zombie_published = zombie.complete(lease, computed=True)
    survivor_published = (
        survivor.complete(stolen, computed=True)
        if stolen is not None else False
    )
    return {
        "takeover_claims": int(stolen is not None),
        "zombie_heartbeat_ok": int(zombie_heartbeat_ok),
        "zombie_published": int(zombie_published),
        "survivor_published": int(survivor_published),
        "lost_jobs": survivor.pending(),
    }


def _scenario_duplicate_claim_race(
    quick: bool, workdir: Path
) -> Dict[str, Any]:
    """N claimers race one key, repeatedly: exactly one winner each.

    The ``queue.claim`` fault point injects a delay between a
    claimer's decision to claim and its O_EXCL create, widening the
    race window far past anything a real fleet would see.
    """
    from repro.testing.faults import inject

    root = workdir / "race"
    rounds = 10 if quick else 30
    claimers = 8
    winners_per_round: List[int] = []
    with inject("queue.claim", delay_s=0.005):
        for rnd in range(rounds):
            # A fresh key each round (chunk is part of the identity).
            job = Job(
                kind="profile", suite="rodinia", benchmark="bfs",
                chunk=4096 + rnd,
            )
            WorkQueue(root, owner="race-enq").enqueue(job)
            winners: List[Lease] = []
            lock = threading.Lock()
            start = threading.Barrier(claimers)

            def claim(i: int) -> None:
                queue = WorkQueue(root, owner=f"racer-{i}")
                start.wait()
                lease = queue.claim_next()
                if lease is not None:
                    with lock:
                        winners.append(lease)

            threads = [
                threading.Thread(target=claim, args=(i,))
                for i in range(claimers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            winners_per_round.append(len(winners))
            for lease in winners:  # keep later rounds clean
                WorkQueue(root, owner="race-enq").complete(
                    lease, computed=False
                )
    return {
        "rounds": rounds,
        "claimers": claimers,
        "max_winners": max(winners_per_round),
        "min_winners": min(winners_per_round),
        "total_wins": sum(winners_per_round),
    }


def run_work_scenarios(quick: bool = True) -> Dict[str, Any]:
    """All three queue chaos scenarios, for ``BENCH_work.json``."""
    import tempfile

    results: Dict[str, Any] = {}
    with tempfile.TemporaryDirectory(prefix="repro-work-") as tmp:
        workdir = Path(tmp)
        log = get_logger("repro.work.chaos")
        log.info("work.chaos_start", quick=quick)
        results["kill_mid_lease"] = _scenario_kill_mid_lease(
            quick, workdir
        )
        results["stale_takeover"] = _scenario_stale_takeover(workdir)
        results["duplicate_claim_race"] = (
            _scenario_duplicate_claim_race(quick, workdir)
        )
        log.info("work.chaos_done")
    return results


__all__ = [
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_LEASE_S",
    "JOB_KINDS",
    "Job",
    "JobExecutor",
    "Lease",
    "QueueCounters",
    "WORK_COUNTERS",
    "WorkQueue",
    "Supervisor",
    "Worker",
    "effect_audit",
    "plan_suite_jobs",
    "run_work_scenarios",
    "run_workers",
]
