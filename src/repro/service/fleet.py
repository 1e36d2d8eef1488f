"""Pre-fork serving fleet: N worker processes, one port, one store.

``repro serve --workers N`` runs N independent event loops — each a
full :class:`~repro.service.server.PredictionService` with its own
engine, thread pool and admission plane — accepting on a *single*
port.  Two sharing mechanisms make the fleet cheaper than N cold
services:

* **Kernel accept balancing** via ``SO_REUSEPORT`` (Linux): every
  worker binds its own listening socket on the shared port and the
  kernel spreads incoming connections across them.  The parent never
  touches a connection; it only discovers the port with a bound,
  *non-listening* probe socket (a bound-but-not-listening TCP socket
  is invisible to the listener hash, so it receives no traffic) and
  keeps that probe open so the port cannot be reused out from under a
  respawning worker.  On platforms without ``SO_REUSEPORT`` the
  parent binds one listening socket and ships it to each child over
  the multiprocessing fd-passing channel — correctness is identical,
  balancing degrades to accept-queue order.
* **A shared artifact plane**: workers exchange warm profiles, traces
  and ILP tables through the content-addressed store instead of
  recomputing per process.  Boot-time warm-fill goes through the
  work queue (:mod:`repro.experiments.workqueue`) so N workers fill
  the store once, not N times, and the store's generation stamp lets
  resident engine LRUs notice a prune made by any sibling.

Process handling is :class:`~repro.experiments.workqueue.Supervisor`'s,
the same supervisor that runs the work fleet: poll-and-respawn of dead
workers (the SIGKILL chaos scenario), a SIGTERM fan-out for graceful
drain, and a kill escalation when a child outstays ``drain_timeout``.
"""

from __future__ import annotations

import contextlib
import signal
import socket
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.store import ProfileStore
from repro.experiments.workqueue import (
    Job, JobExecutor, Supervisor, WorkQueue, Worker,
)
from repro.obs import get_logger
from repro.obs.logging import ensure_configured

_log = get_logger("repro.fleet")

#: (benchmark, scale) pairs every booting worker asks the work queue
#: to materialize in the shared store — the hot presets a cold fleet
#: would otherwise each compute inline.
DEFAULT_WARM_PROFILES: Tuple[Tuple[str, float], ...] = (
    ("rodinia.nn", 0.5),
)


def reuse_port_supported() -> bool:
    """Whether this platform can kernel-balance accepts (Linux)."""
    return hasattr(socket, "SO_REUSEPORT")


def _bind(
    host: str, port: int, reuse_port: bool, listen: bool
) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen:
            sock.listen(256)
    except BaseException:
        sock.close()
        raise
    return sock


def _warm_fill(store, presets: Sequence[Tuple[str, float]]) -> int:
    """Enqueue missing preset profiles; returns how many were enqueued.

    Queue-routed on purpose: enqueues are content-keyed and idempotent
    and claims are ``O_EXCL``, so when N workers boot together each
    missing profile is computed exactly once fleet-wide, and every
    worker's engine then finds it in the store.
    """
    from repro.experiments.suites import build_workload
    from repro.service.engine import resolve_benchmark

    present = set(store.list_keys("profiles"))
    jobs = []
    for benchmark, scale in presets:
        ref = resolve_benchmark(benchmark)
        spec = build_workload(ref, scale)
        key = ProfileStore.profile_key(
            ref.label, int(spec.seed), scale, 4096
        )
        if key in present:
            continue
        jobs.append(Job(
            kind="profile", suite=ref.suite, benchmark=ref.name,
            scale=scale,
        ))
    if not jobs:
        return 0
    queue = WorkQueue(store.root)
    return queue.enqueue_many(jobs)


def _drain_warm_fill(store, stop: threading.Event) -> None:
    """Background queue drain: compute whatever warm-fill enqueued."""
    queue = WorkQueue(store.root)
    worker = Worker(
        queue, JobExecutor(store), drain=True, stop_event=stop
    )
    worker.run()


def _fleet_worker_main(config: Dict[str, object]) -> None:
    """Entry point of one fleet worker process (spawn-safe)."""
    ensure_configured()
    from repro.service.engine import PredictionEngine
    from repro.service.server import PredictionService

    store = None
    if config["store_root"] is not None:
        store = ProfileStore(Path(str(config["store_root"])), strict=False)
    engine = PredictionEngine(store=store)
    warm = tuple(config.get("warm_profiles") or ())
    if store is not None and warm:
        stop = threading.Event()
        try:
            enqueued = _warm_fill(store, warm)
        except Exception as exc:  # warm-fill must never block serving
            _log.warning("fleet.warm_fill_failed", error=str(exc))
            enqueued = 0
        # Always drain: a sibling may have enqueued work we should
        # help with even when our own presets were already present.
        thread = threading.Thread(
            target=_drain_warm_fill, args=(store, stop),
            name="repro-warm-fill", daemon=True,
        )
        thread.start()
        _log.info(
            "fleet.warm_fill",
            worker_id=config["worker_id"], enqueued=enqueued,
        )
    service = PredictionService(
        engine=engine,
        host=str(config["host"]),
        port=int(config["port"]),  # shared fleet port
        workers=int(config["threads"]),
        max_queue=int(config["max_queue"]),
        deadline_ms=config["deadline_ms"],
        drain_timeout=float(config["drain_timeout"]),
        worker_id=int(config["worker_id"]),
        reuse_port=bool(config["reuse_port"]),
        sock=config.get("sock"),
        fleet_state_dir=Path(str(config["state_dir"])),
    )
    # run() installs SIGTERM/SIGINT -> graceful drain handlers.
    service.run()


class ServingFleet:
    """Supervisor for a pre-fork fleet of prediction services."""

    def __init__(
        self,
        store_root: Optional[Path] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        threads: int = 2,
        max_queue: int = 64,
        deadline_ms: Optional[float] = None,
        drain_timeout: float = 5.0,
        respawn: bool = True,
        warm_profiles: Sequence[Tuple[str, float]] = (),
        poll_s: float = 0.1,
    ) -> None:
        self.store_root = (
            Path(store_root) if store_root is not None else None
        )
        self.host = host
        self.port = port
        self.workers = max(1, int(workers))
        self.threads = max(1, int(threads))
        self.max_queue = max_queue
        self.deadline_ms = deadline_ms
        self.drain_timeout = float(drain_timeout)
        self.warm_profiles = tuple(warm_profiles)
        self.poll_s = float(poll_s)
        if self.store_root is not None:
            self.state_dir = self.store_root / "fleet"
        else:
            import tempfile

            self.state_dir = Path(
                tempfile.mkdtemp(prefix="repro-fleet-")
            )
        self.reuse_port = reuse_port_supported()
        self._probe: Optional[socket.socket] = None
        self._listen_sock: Optional[socket.socket] = None
        self._supervisor = Supervisor(
            _fleet_worker_main,
            self.workers,
            args=lambda worker_id: (self._worker_config(worker_id),),
            name="repro-fleet",
            respawn=respawn,
        )
        self._stopping = threading.Event()
        self._watch_thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServingFleet":
        """Bind the shared port and spawn every worker."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        # Sweep stale heartbeats so /healthz never counts a previous
        # fleet's workers against this one.
        for stale in self.state_dir.glob("worker-*.json"):
            with contextlib.suppress(OSError):
                stale.unlink()
        if self.reuse_port:
            # Bound but never listening: reserves the port (and
            # discovers it, when ephemeral) without stealing accepts.
            self._probe = _bind(
                self.host, self.port, reuse_port=True, listen=False
            )
            self.port = self._probe.getsockname()[1]
        else:
            self._listen_sock = _bind(
                self.host, self.port, reuse_port=False, listen=True
            )
            self.port = self._listen_sock.getsockname()[1]
        self._supervisor.start()
        _log.info(
            "fleet.started",
            url=f"http://{self.host}:{self.port}",
            workers=self.workers,
            reuse_port=self.reuse_port,
        )
        return self

    def _worker_config(self, worker_id: int) -> Dict[str, object]:
        return {
            "worker_id": worker_id,
            "host": self.host,
            "port": self.port,
            "threads": self.threads,
            "max_queue": self.max_queue,
            "deadline_ms": self.deadline_ms,
            "drain_timeout": self.drain_timeout,
            "store_root": (
                str(self.store_root)
                if self.store_root is not None else None
            ),
            "state_dir": str(self.state_dir),
            "reuse_port": self.reuse_port,
            # The fallback socket rides the multiprocessing fd-passing
            # reducers; None on the SO_REUSEPORT path.
            "sock": self._listen_sock,
            "warm_profiles": self.warm_profiles,
        }

    @property
    def respawns(self) -> int:
        """Workers the supervisor restarted after they died."""
        return self._supervisor.respawned

    def poll(self) -> int:
        """One supervision step: respawn dead workers; returns alive."""
        return self._supervisor.poll()

    def watch(self) -> None:
        """Run the respawn loop on a daemon thread (harness mode)."""
        if self._watch_thread is not None:
            return

        def _loop() -> None:
            while not self._stopping.wait(self.poll_s):
                self.poll()

        self._watch_thread = threading.Thread(
            target=_loop, name="repro-fleet-watch", daemon=True
        )
        self._watch_thread.start()

    def alive(self) -> int:
        return self._supervisor.alive()

    def kill_worker(self, worker_id: int) -> Optional[int]:
        """SIGKILL one worker (chaos hook); returns its pid."""
        return self._supervisor.kill(worker_id)

    def stop(self, drain: bool = True) -> None:
        """Fan out graceful drain, then escalate to SIGKILL."""
        self._stopping.set()
        if self._watch_thread is not None:
            self._watch_thread.join(timeout=2.0)
            self._watch_thread = None
        self._supervisor.stop(
            timeout=self.drain_timeout + 5.0 if drain else 1.0
        )
        for sock in (self._probe, self._listen_sock):
            if sock is not None:
                with contextlib.suppress(OSError):
                    sock.close()
        self._probe = None
        self._listen_sock = None
        _log.info("fleet.stopped", respawns=self.respawns)

    def run(self) -> None:
        """Blocking entry point for ``repro serve --workers N``."""
        ensure_configured()
        self.start()
        stopping = self._stopping

        def _signal(_signum, _frame) -> None:
            stopping.set()

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(ValueError, OSError):
                previous[sig] = signal.signal(sig, _signal)
        try:
            while not stopping.wait(self.poll_s):
                self.poll()
        finally:
            for sig, handler in previous.items():
                with contextlib.suppress(ValueError, OSError):
                    signal.signal(sig, handler)
            self.stop(drain=True)


def wait_fleet_ready(
    host: str,
    port: int,
    workers: int,
    timeout_s: float = 60.0,
) -> None:
    """Block until every fleet worker answers ``/healthz``.

    With SO_REUSEPORT the kernel may route every early probe to one
    worker, so readiness is judged by the heartbeat aggregate (visible
    from any worker), not by who answered.
    """
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(host=host, port=port, timeout=5.0, retries=0)
    deadline = time.monotonic() + timeout_s
    last_error: Optional[BaseException] = None
    while time.monotonic() < deadline:
        try:
            health = client.healthz()
        except (ServiceError, OSError) as exc:
            last_error = exc
            time.sleep(0.1)
            continue
        fleet = health.get("fleet") or {}
        if fleet.get("alive", 0) >= workers:
            return
        time.sleep(0.1)
    raise RuntimeError(
        f"fleet on {host}:{port} not ready within {timeout_s:.0f}s "
        f"(last error: {last_error})"
    )


__all__ = [
    "DEFAULT_WARM_PROFILES",
    "ServingFleet",
    "reuse_port_supported",
    "wait_fleet_ready",
]
