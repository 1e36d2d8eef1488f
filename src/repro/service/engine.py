"""The long-lived prediction engine behind the serving subsystem.

A CLI invocation pays import + profile + predict for every answer; the
:class:`PredictionEngine` instead keeps the paper's "one-time cost"
artifacts resident across requests:

* hot :class:`~repro.profiler.profile.WorkloadProfile` objects, in an
  in-process LRU keyed by the *store* profile key (label, seed, scale,
  chunk) — so the memory cache, the on-disk store and every worker
  process agree on identity;
* per-pool ILP tables via the content-addressed
  :class:`~repro.profiler.ilp_batch.ILPTableCache`;
* expanded traces via the content-addressed
  :class:`~repro.experiments.store.TraceCache` (engine-resident LRU
  over the store's ``"traces"`` kind), so a cold compare pays trace
  expansion once across profile and simulation and a repeat pays
  none;
* per-(profile, config) :class:`~repro.core.epoch_model.EpochCostCache`
  memos, so repeat predictions skip every Eq.-1 evaluation;
* finished response payloads, keyed by the full request tuple.

The engine is synchronous and thread-safe — transports (the asyncio
HTTP server, the CLI, tests) call it from whatever execution context
they own.  Payload helpers (:func:`prediction_payload`,
:func:`format_prediction`, …) are the single source of truth for the
service's JSON schema *and* the CLI's text output, which is what makes
``/v1/predict`` responses bit-identical to ``python -m repro predict``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.arch.config import MulticoreConfig
from repro.arch.presets import TABLE_IV, table_iv_config
from repro.core.rppm import PredictionResult, predict
from repro.core.session import Session
from repro.experiments.store import ProfileStore
from repro.lru import LRUCache
from repro.obs import span
from repro.obs.tracing import activate, deactivate
from repro.experiments.suites import BenchmarkRef, build_workload
from repro.profiler.profile import WorkloadProfile
from repro.profiler.profiler import profile_workload
from repro.simulator.multicore import simulate
from repro.testing.faults import FAULTS
from repro.workloads.parsec import PARSEC
from repro.workloads.rodinia import RODINIA


def resolve_benchmark(name: str) -> BenchmarkRef:
    """Resolve ``suite.benchmark`` (or a bare benchmark name).

    Raises ``ValueError`` for unknown names — transports map this to
    404 / ``SystemExit`` as appropriate.
    """
    if "." in name:
        suite, bench = name.split(".", 1)
    elif name in RODINIA:
        suite, bench = "rodinia", name
    elif name in PARSEC:
        suite, bench = "parsec", name
    else:
        raise ValueError(
            f"unknown benchmark {name!r}; see `python -m repro list`"
        )
    if suite not in ("rodinia", "parsec"):
        raise ValueError(f"unknown suite {suite!r}")
    return BenchmarkRef(suite, bench)


@dataclass(frozen=True)
class ServiceRequest:
    """One transport-independent unit of serving work."""

    kind: str  # "predict" | "compare" | "sweep"
    benchmark: str
    config: str = "base"
    cores: int = 4
    scale: float = 1.0
    configs: Tuple[str, ...] = ()  # sweep only; () = all of Table IV
    #: Active obs trace, carried across the executor boundary (worker
    #: threads do not inherit contextvars).  Identity-irrelevant:
    #: excluded from equality/hash and from :meth:`key`.
    trace: Optional[object] = field(
        default=None, compare=False, repr=False
    )

    def key(self) -> tuple:
        """Coalescing/memo identity: every field that changes the answer."""
        return (
            self.kind, self.benchmark, self.config, self.cores,
            self.scale, self.configs,
        )


@dataclass
class EngineStats:
    """Monotonic counters surfaced by ``/healthz``."""

    requests: Dict[str, int] = field(default_factory=dict)
    computed: Dict[str, int] = field(default_factory=dict)
    errors: int = 0
    profiles_built: int = 0
    profiles_from_store: int = 0
    predictions_run: int = 0
    simulations_run: int = 0
    #: Times the engine dropped its LRUs because a newer store
    #: generation appeared (another fleet worker pruned or republished).
    invalidations: int = 0


class ServiceError(Exception):
    """An error with an HTTP-ish status, raised by engine entry points."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


#: Resident bounds of every :class:`PredictionEngine`'s LRUs, read at
#: construction.  Every key is client-controlled, so each is bounded;
#: a workload spec runs to ~60 KB pickled (fluidanimate), hence the
#: smaller spec bound.
PROFILE_CACHE_MAX_ENTRIES = 32
RESULT_CACHE_MAX_ENTRIES = 4096
SPEC_CACHE_MAX_ENTRIES = 256


class PredictionEngine:
    """Resident profiles + caches serving predict/compare/sweep calls."""

    def __init__(
        self,
        store: Optional[ProfileStore] = None,
        chunk: int = 4096,
        session: Optional[Session] = None,
    ) -> None:
        #: The artifact cache plane: content-addressed traces, ILP
        #: tables, branch statistics, segment precompute and resident
        #: Eq.-1 memos.  A cold ``/v1/compare`` pays trace expansion
        #: once for profile + simulation; repeats pay zero.
        if session is None:
            session = Session(store=store)
        elif store is not None and session.store is not store:
            raise ValueError("pass either a store or a session, not both")
        self.session = session
        self.store = session.store
        self.chunk = chunk
        #: profile store key -> (label, WorkloadProfile)
        self._profiles = LRUCache(PROFILE_CACHE_MAX_ENTRIES)
        #: request key -> finished payload (treated as immutable)
        self.results = LRUCache(RESULT_CACHE_MAX_ENTRIES)
        #: (label, scale) -> workload spec.  The spec object carries its
        #: memoized content address, so the profile key, the trace
        #: lookup for profiling and the one for simulation share one
        #: build and one fingerprint.
        self._specs = LRUCache(SPEC_CACHE_MAX_ENTRIES)
        self._lock = threading.Lock()
        self.stats = EngineStats()
        #: Version-stamped invalidation: the store generation this
        #: engine's resident LRUs were warmed against.  Re-checked at
        #: most every ``_GEN_CHECK_TTL_S`` on the request path — a
        #: monotonic-clock throttle, not per request, so the stat()
        #: never shows up in a profile.
        self._generation = (
            self.store.generation() if self.store is not None else 0
        )
        self._gen_checked_at = time.monotonic()

    # -- bookkeeping --------------------------------------------------------

    def _count(self, field_name: str, kind: str) -> None:
        with self._lock:
            counter = getattr(self.stats, field_name)
            counter[kind] = counter.get(kind, 0) + 1

    def _bump(self, attr: str, by: int = 1) -> None:
        with self._lock:
            setattr(self.stats, attr, getattr(self.stats, attr) + by)

    # -- version-stamped invalidation ----------------------------------------

    #: Seconds between store-generation re-checks on the request path.
    _GEN_CHECK_TTL_S = 0.5

    def _check_generation(self) -> None:
        """Drop resident LRUs when the shared store moved generations.

        Fleet workers share artifacts through the content-addressed
        store; a prune (or any future republish) bumps the store's
        generation stamp, and every resident engine notices within one
        TTL and drops its memoised payloads and profiles rather than
        serving entries the store no longer backs.
        """
        if self.store is None:
            return
        now = time.monotonic()
        with self._lock:
            if (now - self._gen_checked_at) < self._GEN_CHECK_TTL_S:
                return
            self._gen_checked_at = now
            known = self._generation
        current = self.store.generation()
        if current == known:
            return
        with self._lock:
            if self._generation == current:
                return  # another thread already invalidated
            self._generation = current
            self.stats.invalidations += 1
        self._profiles.clear()
        self.results.clear()
        self._specs.clear()

    # -- workload / profile resolution --------------------------------------

    def _spec(self, ref: BenchmarkRef, scale: float):
        key = (ref.label, scale)
        spec = self._specs.get(key)
        if spec is None:
            spec = build_workload(ref, scale)
            self._specs.put(key, spec)
        return spec

    def _trace(self, ref: BenchmarkRef, scale: float):
        """Expanded trace via the engine-resident content-addressed LRU."""
        return self.session.traces.get(self._spec(ref, scale))

    def profile_key(self, ref: BenchmarkRef, scale: float) -> str:
        return ProfileStore.profile_key(
            ref.label, int(self._spec(ref, scale).seed), scale, self.chunk
        )

    def profile(
        self, ref: BenchmarkRef, scale: float
    ) -> Tuple[str, WorkloadProfile]:
        """The resident profile for a benchmark (LRU -> store -> build)."""
        key = self.profile_key(ref, scale)
        hit = self._profiles.get(key)
        if hit is not None:
            return key, hit[1]
        with span("engine.profile", benchmark=ref.label, scale=scale):
            profile = None
            if self.store is not None:
                profile = self.store.load_profile(key)
                if profile is not None:
                    self._bump("profiles_from_store")
            if profile is None:
                profile = profile_workload(
                    self._trace(ref, scale),
                    chunk=self.chunk,
                    session=self.session,
                )
                self._bump("profiles_built")
                if self.store is not None:
                    self.store.save_profile(key, profile)
            self._profiles.put(key, (ref.label, profile))
            return key, profile

    @staticmethod
    def _config(name: str, cores: int) -> MulticoreConfig:
        try:
            return table_iv_config(name, cores=cores)
        except ValueError as exc:
            raise ServiceError(400, str(exc)) from None

    @staticmethod
    def _ref(benchmark: str) -> BenchmarkRef:
        try:
            return resolve_benchmark(benchmark)
        except ValueError as exc:
            raise ServiceError(404, str(exc)) from None

    # -- entry points -------------------------------------------------------

    def predict(
        self,
        benchmark: str,
        config: str = "base",
        cores: int = 4,
        scale: float = 1.0,
    ) -> dict:
        """``/v1/predict``: RPPM prediction payload, heavily memoized."""
        request = ServiceRequest(
            "predict", benchmark, config, cores, scale
        )
        self._check_generation()
        self._count("requests", "predict")
        cached = self.results.get(request.key())
        if cached is not None:
            return cached
        ref = self._ref(benchmark)
        cfg = self._config(config, cores)
        _pkey, profile = self.profile(ref, scale)
        # The session memoises the Eq.-1 cost cache per (profile,
        # config); profiles stay resident in ``_profiles``, so repeat
        # predictions skip every Eq.-1 evaluation.
        result = predict(profile, cfg, session=self.session)
        self._bump("predictions_run")
        self._count("computed", "predict")
        payload = prediction_payload(result, cfg)
        self.results.put(request.key(), payload)
        return payload

    def compare(
        self,
        benchmark: str,
        config: str = "base",
        cores: int = 4,
        scale: float = 1.0,
    ) -> dict:
        """``/v1/compare``: prediction vs. golden-reference simulation."""
        request = ServiceRequest(
            "compare", benchmark, config, cores, scale
        )
        self._check_generation()
        self._count("requests", "compare")
        cached = self.results.get(request.key())
        if cached is not None:
            return cached
        ref = self._ref(benchmark)
        cfg = self._config(config, cores)
        _pkey, profile = self.profile(ref, scale)
        pred = predict(profile, cfg, session=self.session)
        self._bump("predictions_run")
        sim = simulate(self._trace(ref, scale), cfg, session=self.session)
        self._bump("simulations_run")
        self._count("computed", "compare")
        payload = compare_payload(pred, sim, cfg)
        self.results.put(request.key(), payload)
        return payload

    def sweep(
        self,
        benchmark: str,
        configs: Tuple[str, ...] = (),
        cores: int = 4,
        scale: float = 1.0,
    ) -> dict:
        """``/v1/sweep``: one profile driving many design points."""
        request = ServiceRequest(
            "sweep", benchmark, "", cores, scale, tuple(configs)
        )
        self._check_generation()
        self._count("requests", "sweep")
        cached = self.results.get(request.key())
        if cached is not None:
            return cached
        names = tuple(configs) or tuple(TABLE_IV)
        results = [
            self.predict(benchmark, name, cores, scale) for name in names
        ]
        self._count("computed", "sweep")
        payload = {
            "benchmark": benchmark,
            "cores": cores,
            "scale": scale,
            "configs": list(names),
            "results": results,
        }
        self.results.put(request.key(), payload)
        return payload

    def profiles(self) -> dict:
        """``/v1/profiles``: resident + persisted profile inventory."""
        resident = [
            {
                "key": key,
                "benchmark": label,
                "n_threads": profile.n_threads,
                "n_instructions": profile.n_instructions,
                "seed": profile.seed,
            }
            for key, (label, profile) in self._profiles.items()
        ]
        payload = {"resident": resident}
        if self.store is not None:
            payload["store"] = {
                "root": str(self.store.root),
                "profiles": len(self.store.list_keys("profiles")),
                "ilptables": len(self.store.list_keys("ilptables")),
                "traces": len(self.store.list_keys("traces")),
            }
        return payload

    def health(self) -> dict:
        """Engine half of ``/healthz``."""
        with self._lock:
            stats = {
                "requests": dict(self.stats.requests),
                "computed": dict(self.stats.computed),
                "errors": self.stats.errors,
                "profiles_built": self.stats.profiles_built,
                "profiles_from_store": self.stats.profiles_from_store,
                "predictions_run": self.stats.predictions_run,
                "simulations_run": self.stats.simulations_run,
                "invalidations": self.stats.invalidations,
                "store_generation": self._generation,
            }
        stats["result_cache"] = self.results.stats()
        stats["profile_cache"] = self._profiles.stats()
        # One consolidated block for every artifact cache the session
        # holds — trace arena, ILP tables, branch stats, segment
        # precompute, Eq.-1 memos, expansion-engine and ILP-kernel
        # counters — instead of scattered per-cache fragments.
        stats["session"] = self.session.health()
        # Store health: quarantined artifacts, dropped writes, I/O
        # errors and the corruption streak — the error-budget inputs
        # (kept top-level so alerting needn't reach into the session).
        if self.store is not None:
            stats["store"] = self.store.health()
        return stats

    # -- request face (used by the coalescer) -------------------------------

    def handle(self, request: ServiceRequest) -> Tuple[int, dict]:
        """Serve one request; never raises — errors become payloads."""
        # Re-activate the request's trace in this worker thread so the
        # engine/profiler spans land in the serving request's timing
        # breakdown (single-flight riders share the leader's trace).
        token = activate(getattr(request, "trace", None))
        try:
            with span(
                "engine", kind=request.kind, benchmark=request.benchmark
            ):
                # Chaos fault point: a slow or failing engine call.
                # The delay occupies this worker thread exactly like a
                # real degraded engine would, which is how the overload
                # scenarios manufacture a known, bounded capacity.
                FAULTS.fire("engine.compute")
                if request.kind == "predict":
                    return 200, self.predict(
                        request.benchmark, request.config, request.cores,
                        request.scale,
                    )
                if request.kind == "compare":
                    return 200, self.compare(
                        request.benchmark, request.config, request.cores,
                        request.scale,
                    )
                if request.kind == "sweep":
                    return 200, self.sweep(
                        request.benchmark, request.configs, request.cores,
                        request.scale,
                    )
                return 400, {
                    "error": f"unknown request kind {request.kind!r}"
                }
        except ServiceError as exc:
            self._bump("errors")
            return exc.status, {"error": str(exc)}
        except Exception as exc:  # engine bug: report, don't kill the worker
            self._bump("errors")
            return 500, {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            deactivate(token)


# -- error budget ------------------------------------------------------------

#: Alert thresholds for the ``/healthz`` error-budget block.  The
#: budget flags *degradation trends* — a collapsed result-cache hit
#: rate (every request recomputing = the overload precursor), a
#: corruption streak in the store (rotting cache directory), silently
#: dropped writes — rather than individual failures, which are
#: already counted where they happen.
ERROR_BUDGET_THRESHOLDS: Dict[str, float] = {
    #: Result-cache hit rate below this, after min_lookups, is a
    #: cache collapse: the serving economy the engine is built on is
    #: gone and cold-compute load is about to take the service down.
    "min_result_hit_rate": 0.5,
    #: Lookups before the hit-rate alert can fire (cold start grace).
    "min_lookups": 64,
    #: Consecutive corrupt/stale artifacts before the store alarm.
    "max_corruption_streak": 3,
}


def error_budget(
    engine_health: dict, admission: Optional[dict] = None
) -> dict:
    """The ``/healthz`` error-budget block.

    Pure function of an engine health snapshot (plus the server's
    admission counters when serving), so the CLI, tests and external
    alerting (sipet-style alert systems polling ``/healthz``) compute
    the same verdict from the same counters.
    """
    thresholds = ERROR_BUDGET_THRESHOLDS
    alerts = []
    cache = engine_health.get("result_cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    hit_rate = cache.get("hits", 0) / lookups if lookups else None
    cache_collapse = bool(
        lookups >= thresholds["min_lookups"]
        and hit_rate is not None
        and hit_rate < thresholds["min_result_hit_rate"]
    )
    if cache_collapse:
        alerts.append(
            f"result-cache hit rate collapsed to {hit_rate:.1%} "
            f"over {lookups} lookups"
        )
    store = engine_health.get("store", {})
    streak = store.get("corruption_streak", 0)
    corruption_alarm = streak >= thresholds["max_corruption_streak"]
    if corruption_alarm:
        alerts.append(
            f"store corruption streak at {streak} consecutive bad "
            f"artifacts"
        )
    dropped = store.get("dropped_writes", 0)
    if dropped:
        alerts.append(f"store dropped {dropped} writes (non-strict)")
    quarantined = sum(store.get("quarantine", {}).values())
    shed = admission.get("shed", 0) if admission else 0
    attempted = shed + sum(engine_health.get("requests", {}).values())
    return {
        "ok": not alerts,
        "alerts": alerts,
        "result_cache_hit_rate": hit_rate,
        "cache_hit_collapse": cache_collapse,
        "corruption_streak": streak,
        "corruption_alarm": corruption_alarm,
        "dropped_writes": dropped,
        "io_errors": store.get("io_errors", 0),
        "quarantined": quarantined,
        "shed": shed,
        "shed_rate": shed / attempted if attempted else 0.0,
    }


# -- payloads and their CLI renderings --------------------------------------
#
# The payload builders and ``format_*`` renderers below are shared by
# the HTTP server and ``repro predict`` / ``repro compare``: the CLI
# prints exactly ``format_prediction(prediction_payload(...))``, so a
# service response re-rendered through the same formatter reproduces
# the CLI output byte for byte (floats survive JSON round-trips
# exactly).


def _stack_dict(stack) -> Dict[str, float]:
    return {name: float(value) for name, value in stack.cpi().items()}


def prediction_payload(
    result: PredictionResult, config: MulticoreConfig
) -> dict:
    return {
        "benchmark": result.workload,
        "config": result.config,
        "cores": config.cores,
        "frequency_ghz": config.core.frequency_ghz,
        "total_cycles": result.total_cycles,
        "seconds": config.cycles_to_seconds(result.total_cycles),
        "threads": [
            {
                "thread_id": t.thread_id,
                "instructions": t.instructions,
                "active_cycles": t.active_cycles,
                "idle_cycles": t.idle_cycles,
            }
            for t in result.threads
        ],
        "cpi_stack": _stack_dict(result.average_stack()),
    }


def compare_payload(
    pred: PredictionResult, sim, config: MulticoreConfig
) -> dict:
    return {
        "benchmark": pred.workload,
        "config": config.name,
        "cores": config.cores,
        "predicted_cycles": pred.total_cycles,
        "simulated_cycles": sim.total_cycles,
        "error": pred.total_cycles / sim.total_cycles - 1.0,
        "prediction_stack": _stack_dict(pred.average_stack()),
        "simulation_stack": _stack_dict(sim.average_stack()),
        "invalidations": sim.invalidations,
    }


def _stack_line(stack: Dict[str, float]) -> str:
    return "  ".join(
        f"{name}={value:.3f}" for name, value in stack.items()
    )


def format_prediction(payload: dict) -> str:
    lines = [
        f"{payload['benchmark']} on {payload['config']}: "
        f"{payload['total_cycles']:,.0f} cycles "
        f"({payload['seconds'] * 1e6:.1f} us @ "
        f"{payload['frequency_ghz']} GHz)"
    ]
    for t in payload["threads"]:
        lines.append(
            f"  thread {t['thread_id']}: "
            f"active {t['active_cycles']:,.0f} "
            f"idle {t['idle_cycles']:,.0f}"
        )
    lines.append("  CPI stack: " + _stack_line(payload["cpi_stack"]))
    return "\n".join(lines)


def format_compare(payload: dict) -> str:
    return "\n".join([
        f"{payload['benchmark']} on {payload['config']}:",
        f"  RPPM     : {payload['predicted_cycles']:,.0f} cycles",
        f"  simulated: {payload['simulated_cycles']:,.0f} cycles",
        f"  error    : {payload['error']:+.1%}",
        "  RPPM stack: " + _stack_line(payload["prediction_stack"]),
        "  sim  stack: " + _stack_line(payload["simulation_stack"]),
    ])


__all__ = [
    "ERROR_BUDGET_THRESHOLDS",
    "EngineStats",
    "PredictionEngine",
    "ServiceError",
    "ServiceRequest",
    "compare_payload",
    "error_budget",
    "format_compare",
    "format_prediction",
    "prediction_payload",
    "resolve_benchmark",
]
