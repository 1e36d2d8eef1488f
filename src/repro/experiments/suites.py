"""The evaluated workload suite (paper §IV) and shared run caching.

The paper evaluates all sixteen Rodinia benchmarks plus ten Parsec
benchmarks on a quad-core machine.  Several experiments (Figures 4-6)
need the same profiles and simulations, so this module provides the
shared :class:`RunCache` — a three-level pipeline:

1. an in-process memo (dict) per artifact kind,
2. an optional versioned on-disk :class:`~repro.experiments.store.
   ProfileStore`, shared across processes *and* across runs,
3. :meth:`RunCache.prefetch`, which fans profiling / prediction /
   simulation of many benchmarks out over the crash-safe work queue
   (:mod:`~repro.experiments.workqueue`) and funnels the results back
   through levels 1-2.

Everything is keyed by (suite, benchmark, scale, chunk) plus — for
predictions and simulations — a deterministic configuration
fingerprint, so a cache entry is valid exactly as long as its inputs
are.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.config import MulticoreConfig
from repro.core.rppm import PredictionResult, predict
from repro.core.session import Session
from repro.experiments.store import ProfileStore, default_store
from repro.obs import get_logger
from repro.profiler.profile import WorkloadProfile
from repro.profiler.profiler import profile_workload
from repro.simulator.multicore import simulate
from repro.simulator.results import SimulationResult
from repro.workloads.ir import WorkloadTrace
from repro.workloads.parsec import PARSEC, parsec_workload
from repro.workloads.rodinia import RODINIA, rodinia_workload
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class BenchmarkRef:
    """One evaluated benchmark: suite plus name (paper Figure 4 x-axis)."""

    suite: str  # "rodinia" | "parsec"
    name: str

    def __post_init__(self) -> None:
        known = RODINIA if self.suite == "rodinia" else (
            set(PARSEC) if self.suite == "parsec" else None
        )
        if known is None:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.name not in known:
            raise ValueError(f"unknown {self.suite} benchmark {self.name!r}")

    @property
    def label(self) -> str:
        return f"{self.suite}.{self.name}"


def rodinia_suite() -> List[BenchmarkRef]:
    """All sixteen Rodinia benchmarks, Table II order."""
    return [BenchmarkRef("rodinia", name) for name in RODINIA]


def parsec_suite() -> List[BenchmarkRef]:
    """The ten evaluated Parsec benchmarks, Figure 4 order."""
    return [BenchmarkRef("parsec", name) for name in PARSEC]


def full_suite() -> List[BenchmarkRef]:
    """Rodinia followed by Parsec, as in Figure 4."""
    return rodinia_suite() + parsec_suite()


def build_workload(ref: BenchmarkRef, scale: float = 1.0):
    """Workload spec for a benchmark reference."""
    if ref.suite == "rodinia":
        return rodinia_workload(ref.name, scale=scale)
    return parsec_workload(ref.name, scale=scale)


class RunCache:
    """Memoised traces, profiles, predictions and simulations.

    Experiments share one instance so that e.g. Figure 4 and Figure 5
    profile and simulate each benchmark once.  The profile cache key is
    (benchmark, scale); prediction/simulation keys additionally carry
    the configuration (hashable by design).

    With a ``store`` attached, profiles (JSON) and predictions /
    simulations (pickles) also persist to a versioned on-disk cache
    keyed by workload seed + scale + chunk + config fingerprint, shared
    across processes and across runs; corrupt or stale entries fall
    back to recomputation.
    """

    def __init__(
        self,
        scale: float = 1.0,
        store: Optional[ProfileStore] = None,
        chunk: int = 4096,
        session: Optional[Session] = None,
    ):
        self.scale = scale
        self.chunk = chunk
        #: The artifact cache plane: content-addressed traces, per-pool
        #: ILP tables, branch statistics, segment precompute and
        #: resident Eq.-1 memos — shared by every call through this
        #: RunCache.  A caller-supplied session shares the plane with
        #: other harnesses (the bench suite, the serving engine).
        if session is None:
            session = Session(store=store)
        elif store is not None and session.store is not store:
            raise ValueError("pass either a store or a session, not both")
        self.session = session
        self.store = session.store
        self._specs: Dict[str, WorkloadSpec] = {}
        self._profiles: Dict[str, WorkloadProfile] = {}
        self._predictions: Dict[
            Tuple[str, MulticoreConfig], PredictionResult
        ] = {}
        self._simulations: Dict[
            Tuple[str, MulticoreConfig], SimulationResult
        ] = {}

    # -- store keys ---------------------------------------------------------

    def _spec(self, ref: BenchmarkRef) -> WorkloadSpec:
        # A pure function of (suite, name, scale) — memoized, since
        # every store-key computation and trace lookup needs it and
        # building the spec is not free.
        spec = self._specs.get(ref.label)
        if spec is None:
            spec = build_workload(ref, self.scale)
            self._specs[ref.label] = spec
        return spec

    def _seed(self, ref: BenchmarkRef) -> int:
        return int(self._spec(ref).seed)

    def _profile_key(self, ref: BenchmarkRef) -> str:
        return ProfileStore.profile_key(
            ref.label, self._seed(ref), self.scale, self.chunk
        )

    def _result_key(
        self, kind: str, ref: BenchmarkRef, config: MulticoreConfig
    ) -> str:
        return ProfileStore.result_key(
            kind, ref.label, self._seed(ref), self.scale, config
        )

    # -- artifacts ----------------------------------------------------------

    def trace(self, ref: BenchmarkRef) -> WorkloadTrace:
        return self.session.traces.get(self._spec(ref))

    def profile(self, ref: BenchmarkRef) -> WorkloadProfile:
        if ref.label not in self._profiles:
            profile = None
            if self.store is not None:
                profile = self.store.load_profile(self._profile_key(ref))
            if profile is None:
                profile = profile_workload(
                    self.trace(ref),
                    chunk=self.chunk,
                    session=self.session,
                )
                if self.store is not None:
                    self.store.save_profile(
                        self._profile_key(ref), profile
                    )
            self._profiles[ref.label] = profile
        return self._profiles[ref.label]

    def prediction(
        self, ref: BenchmarkRef, config: MulticoreConfig
    ) -> PredictionResult:
        key = (ref.label, config)
        if key not in self._predictions:
            result = None
            if self.store is not None:
                result = self.store.load_result(
                    "predictions", self._result_key(
                        "prediction", ref, config
                    )
                )
            if result is None:
                result = predict(
                    self.profile(ref), config, session=self.session
                )
                if self.store is not None:
                    self.store.save_result(
                        "predictions",
                        self._result_key("prediction", ref, config),
                        result,
                    )
            self._predictions[key] = result
        return self._predictions[key]

    def simulation(
        self, ref: BenchmarkRef, config: MulticoreConfig
    ) -> SimulationResult:
        key = (ref.label, config)
        if key not in self._simulations:
            result = None
            if self.store is not None:
                result = self.store.load_result(
                    "simulations", self._result_key(
                        "simulation", ref, config
                    )
                )
            if result is None:
                result = simulate(
                    self.trace(ref), config, session=self.session
                )
                if self.store is not None:
                    self.store.save_result(
                        "simulations",
                        self._result_key("simulation", ref, config),
                        result,
                    )
            self._simulations[key] = result
        return self._simulations[key]

    # -- parallel pipeline --------------------------------------------------

    def prefetch(
        self,
        refs: Iterable[BenchmarkRef],
        configs: Sequence[MulticoreConfig] = (),
        workers: Optional[int] = None,
        simulate: bool = False,
    ) -> List[str]:
        """Profile (and optionally predict/simulate) many benchmarks.

        Benchmarks not already satisfied by the memory or disk cache
        are computed.  With ``workers > 1`` (default: CPU count), a
        store attached and Table IV preset configs, they drain through
        the work queue on ``workers`` processes first; every other
        case — no store, bespoke configs, a failed queue run — is
        computed serially in-process.  Results land in the memory
        cache and, when a store is attached, on disk — so subsequent
        :meth:`profile` / :meth:`prediction` / :meth:`simulation`
        calls are hits.

        Returns the labels that were actually (re)computed.
        """
        todo: List[BenchmarkRef] = []
        for ref in refs:
            needs_profile = ref.label not in self._profiles
            if needs_profile and self.store is not None:
                cached = self.store.load_profile(self._profile_key(ref))
                if cached is not None:
                    self._profiles[ref.label] = cached
                    needs_profile = False
            needs_results = False
            kinds = [("prediction", self._predictions)]
            if simulate:
                kinds.append(("simulation", self._simulations))
            for config in configs:
                for kind, memo in kinds:
                    if (ref.label, config) in memo:
                        continue
                    hit = None
                    if self.store is not None:
                        hit = self.store.load_result(
                            f"{kind}s", self._result_key(kind, ref, config)
                        )
                    if hit is not None:
                        memo[(ref.label, config)] = hit
                    else:
                        needs_results = True
            if needs_profile or needs_results:
                todo.append(ref)

        if not todo:
            return []
        if workers is None:
            workers = os.cpu_count() or 1
        if (
            workers > 1 and len(todo) > 1 and self.store is not None
            and self._queue_eligible(configs)
        ):
            self._prefetch_queue(todo, configs, workers, simulate)
        # After a queue run these are store hits; anything the queue
        # did not produce is computed here, in-process.
        self._prefetch_serial(todo, configs, simulate)
        return [ref.label for ref in todo]

    def _prefetch_serial(
        self,
        todo: Sequence[BenchmarkRef],
        configs: Sequence[MulticoreConfig],
        simulate: bool,
    ) -> None:
        """In-process load-or-compute of everything in ``todo``."""
        for ref in todo:
            self.profile(ref)
            for config in configs:
                self.prediction(ref, config)
                if simulate:
                    self.simulation(ref, config)

    @staticmethod
    def _queue_eligible(configs: Sequence[MulticoreConfig]) -> bool:
        """Can ``configs`` travel as work-queue job payloads?

        Queue jobs carry configurations by Table IV design-point name
        (JSON, host-portable), so only preset-exact configs — same
        name, same derived parameters, uniform core count — can take
        the queue path; anything bespoke is computed serially.
        """
        from repro.arch.presets import TABLE_IV, table_iv_config

        cores = {config.cores for config in configs}
        if len(cores) > 1:
            return False
        return all(
            config.name in TABLE_IV
            and table_iv_config(config.name, cores=config.cores)
            == config
            for config in configs
        )

    def _prefetch_queue(
        self,
        todo: Sequence[BenchmarkRef],
        configs: Sequence[MulticoreConfig],
        workers: int,
        simulate: bool,
    ) -> None:
        """Fan ``todo`` out over the crash-safe work queue.

        Enqueues the job plan under this store's root and runs a
        supervised worker fleet to drain it — the same path any other
        process (or host sharing the store directory) would join, and
        the one that survives a worker SIGKILL without losing work.
        A fleet that cannot run is logged; the caller's serial pass
        then computes whatever is missing.
        """
        from repro.experiments.workqueue import (
            WorkQueue, plan_suite_jobs, run_workers,
        )

        jobs = plan_suite_jobs(
            todo,
            scale=self.scale,
            chunk=self.chunk,
            configs=[config.name for config in configs],
            cores=configs[0].cores if configs else 4,
            simulate=simulate,
        )
        try:
            queue = WorkQueue(self.store.root)
            queue.enqueue_many(jobs)
            run_workers(
                self.store.root,
                workers=min(workers, len(todo)),
                drain=True,
            )
            queue.close()
        except Exception as exc:
            get_logger("repro.suites").error(
                "prefetch.queue_failed", todo=len(todo),
                error=f"{type(exc).__name__}: {exc}", fallback="serial",
            )


#: Default shared cache used by the benchmark harness.
_SHARED: Optional[RunCache] = None


def shared_cache(scale: float = 1.0) -> RunCache:
    """Process-wide cache (reset when a different scale is requested).

    Backed by the default on-disk :class:`ProfileStore` (see
    ``REPRO_CACHE_DIR``) so that ``python -m repro report`` runs reuse
    profiles, ILP tables, predictions and simulations across artifacts
    *and* across invocations; an unwritable store degrades to the
    in-memory cache.
    """
    global _SHARED
    if _SHARED is None or _SHARED.scale != scale:
        _SHARED = RunCache(scale, store=default_store())
    return _SHARED
