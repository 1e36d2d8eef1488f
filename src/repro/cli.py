"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow (Fig. 1):

* ``profile``  — profile a named benchmark once, write the JSON profile.
* ``predict``  — predict a profile (or benchmark) on a design point.
* ``simulate`` — run the golden-reference simulator.
* ``compare``  — predict *and* simulate, report the error and stacks.
* ``report``   — regenerate a paper artifact (table1/table3/figure4/
  figure5/table5/figure6/ablations) and print it.  Profiling,
  prediction and simulation inputs prefetch over ``--jobs N`` worker
  processes (default: CPU count) and persist in the on-disk artifact
  store (``REPRO_CACHE_DIR``), so re-running a report — or running a
  second report over the same suite — is nearly free.
* ``bench``    — measure profiling throughput (vectorized vs seed
  scalar engines, reuse-distance and ILP scoreboard) and write
  ``BENCH_profiler.json``, then serving throughput through the real
  HTTP stack into ``BENCH_service.json``; ``--check`` exits non-zero
  when a speedup or the serving rate falls below the committed floor
  (the CI perf smoke test).
* ``serve``    — run the prediction service (asyncio HTTP/JSON, see
  :mod:`repro.service`): ``/v1/predict``, ``/v1/compare``,
  ``/v1/sweep``, ``/v1/profiles``, ``/healthz``.
* ``store``    — inspect (``stats``) or garbage-collect (``prune``)
  the on-disk artifact store, including the content-addressed
  ``traces`` kind the trace cache persists.
* ``work``     — the crash-safe distributed work queue over the store
  (:mod:`repro.experiments.workqueue`): ``enqueue`` a suite's jobs,
  ``run`` a supervised worker fleet (``--workers N``; workers on any
  host sharing the store directory cooperate via lease files and
  survive SIGKILL), ``stats`` the queue state.
* ``list``     — list benchmarks and design points.

``predict`` and ``compare`` render through the same payload builders
the service returns (:mod:`repro.service.engine`), so a service
response re-rendered locally is byte-identical to the CLI output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from repro.arch.presets import TABLE_IV, table_iv_config
from repro.core.rppm import predict
from repro.core.session import Session
from repro.experiments.suites import build_workload
from repro.profiler.profile import WorkloadProfile
from repro.profiler.profiler import profile_workload
from repro.service.engine import (
    PredictionEngine,
    ServiceError,
    format_compare,
    format_prediction,
    prediction_payload,
    resolve_benchmark,
)
from repro.simulator.multicore import simulate
from repro.workloads.parsec import PARSEC
from repro.workloads.rodinia import RODINIA


def _build_workload(name: str, scale: float):
    """Resolve ``suite.benchmark`` (or bare benchmark) to a spec."""
    try:
        ref = resolve_benchmark(name)
    except ValueError as exc:
        raise SystemExit(str(exc))
    return build_workload(ref, scale)


def _load_profile(args) -> WorkloadProfile:
    if args.profile_json:
        with open(args.profile_json) as fh:
            return WorkloadProfile.from_dict(json.load(fh))
    spec = _build_workload(args.benchmark, args.scale)
    # One-shot input for a single prediction: in-memory caches only.
    return profile_workload(spec, session=Session.ephemeral())


def cmd_list(args) -> int:
    print("rodinia:", " ".join(sorted(RODINIA)))
    print("parsec:", " ".join(PARSEC))
    print("design points:", " ".join(TABLE_IV))
    return 0


def cmd_profile(args) -> int:
    spec = _build_workload(args.benchmark, args.scale)
    # The documented entry point to the cache plane: expansions and
    # ILP tables persist under the default store root, so repeat
    # profiling of the same (benchmark, scale) is mostly cache hits.
    session = Session.from_store()
    t0 = time.perf_counter()
    profile = profile_workload(spec, session=session)
    dt = time.perf_counter() - t0
    payload = profile.to_dict()
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh)
        print(f"wrote {args.output} ({dt:.2f}s, "
              f"{profile.n_instructions:,} micro-ops)")
    else:
        json.dump(payload, sys.stdout)
    return 0


def cmd_predict(args) -> int:
    if args.profile_json:
        profile = _load_profile(args)
        config = table_iv_config(args.config, cores=args.cores)
        payload = prediction_payload(predict(profile, config), config)
    else:
        try:
            payload = PredictionEngine().predict(
                args.benchmark, args.config, args.cores, args.scale
            )
        except ServiceError as exc:
            raise SystemExit(str(exc))
    print(format_prediction(payload))
    return 0


def cmd_simulate(args) -> int:
    spec = _build_workload(args.benchmark, args.scale)
    config = table_iv_config(args.config, cores=args.cores)
    result = simulate(spec, config, session=Session.from_store())
    seconds = config.cycles_to_seconds(result.total_cycles)
    stack = "  ".join(
        f"{name}={value:.3f}"
        for name, value in result.average_stack().cpi().items()
    )
    print(f"{result.workload} on {config.name}: "
          f"{result.total_cycles:,.0f} cycles "
          f"({seconds * 1e6:.1f} us), "
          f"{result.invalidations} invalidations")
    print("  CPI stack:", stack)
    return 0


def cmd_compare(args) -> int:
    try:
        payload = PredictionEngine().compare(
            args.benchmark, args.config, args.cores, args.scale
        )
    except ServiceError as exc:
        raise SystemExit(str(exc))
    print(format_compare(payload))
    return 0


def cmd_report(args) -> int:
    from repro.experiments.suites import shared_cache
    cache = shared_cache(scale=args.scale)
    jobs = args.jobs
    artifact = args.artifact
    if artifact == "table1":
        from repro.experiments.accumulation import (
            render_table1, run_table1,
        )
        print(render_table1(run_table1()))
    elif artifact == "table3":
        from repro.experiments.sync_counts import (
            render_table3, run_table3,
        )
        print(render_table3(run_table3(cache=cache, jobs=jobs)))
    elif artifact == "figure4":
        from repro.experiments.accuracy import (
            render_figure4, run_figure4,
        )
        print(render_figure4(run_figure4(cache=cache, jobs=jobs)))
    elif artifact == "figure5":
        from repro.experiments.cpi_stacks import (
            render_figure5, run_figure5,
        )
        print(render_figure5(run_figure5(cache=cache, jobs=jobs)))
    elif artifact == "table5":
        from repro.experiments.design_space import (
            render_table5, run_table5,
        )
        print(render_table5(run_table5(cache=cache, jobs=jobs)))
    elif artifact == "figure6":
        from repro.experiments.bottlegraphs import (
            render_figure6, run_figure6,
        )
        print(render_figure6(run_figure6(cache=cache, jobs=jobs)))
    elif artifact == "ablations":
        from repro.experiments.ablations import (
            render_ablations, run_ablations,
        )
        print(render_ablations(run_ablations(cache=cache, jobs=jobs)))
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown artifact {artifact!r}")
    return 0


def cmd_bench(args) -> int:
    from repro.experiments.bench import (
        check_bench,
        check_service,
        render_bench,
        render_service,
        run_profiler_bench,
        run_service_bench,
    )
    result = run_profiler_bench(
        quick=args.quick, scale=args.scale, output=args.output,
        profile_dump=args.profile_dump,
    )
    print(render_bench(result))
    if args.output:
        print(f"wrote {args.output}")
    if args.profile_dump:
        print(f"wrote {args.profile_dump}")
    failures = check_bench(result) if args.check else []
    if not args.no_service:
        service = run_service_bench(
            quick=args.quick, output=args.service_output
        )
        print(render_service(service))
        if args.service_output:
            print(f"wrote {args.service_output}")
        if args.check:
            failures += check_service(service)
    if args.work_output:
        from repro.experiments.bench import check_work, render_work, \
            run_work_bench
        work = run_work_bench(
            quick=args.quick, output=args.work_output
        )
        print(render_work(work))
        print(f"wrote {args.work_output}")
        if args.check:
            failures += check_work(work)
    if args.check:
        for line in failures:
            print(f"CHECK FAILED: {line}", file=sys.stderr)
        if failures:
            return 1
        print("bench --check: all committed floors cleared")
    return 0


def cmd_store(args) -> int:
    from repro.experiments.store import ProfileStore

    store = ProfileStore(args.root) if args.root else ProfileStore()
    if args.store_command == "stats":
        stats = store.stats()
        print(f"store root: {store.root}")
        if not stats:
            print("  (empty)")
            return 0
        total_n = total_b = 0
        for kind, entry in stats.items():
            print(f"  {kind:<12s} {entry['artifacts']:6d} artifacts  "
                  f"{entry['bytes'] / 2**20:8.1f} MiB")
            total_n += entry["artifacts"]
            total_b += entry["bytes"]
        print(f"  {'total':<12s} {total_n:6d} artifacts  "
              f"{total_b / 2**20:8.1f} MiB")
        quarantine = store.health()["quarantine"]
        if quarantine:
            inventory = ", ".join(
                f"{kind}={n}" for kind, n in sorted(quarantine.items())
            )
            print(f"  quarantine holds corrupt/stale evidence "
                  f"({inventory}); sweep with: "
                  f"repro store prune --kind quarantine")
        return 0
    # prune: refuse to silently wipe the whole store — require either
    # a narrowing filter or the explicit --all.
    if not (args.kind or args.older_than or args.stale_only or args.all):
        raise SystemExit(
            "store prune: pass --kind/--older-than/--stale-only to "
            "narrow the sweep, or --all to remove everything"
        )
    removed = store.prune(
        kinds=args.kind or None,
        older_than_s=(
            args.older_than * 86400.0
            if args.older_than is not None else None
        ),
        stale_only=args.stale_only,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    total_n = total_b = 0
    for kind, entry in removed.items():
        print(f"  {kind:<12s} {verb} {entry['removed']:6d} artifacts  "
              f"{entry['bytes'] / 2**20:8.1f} MiB")
        total_n += entry["removed"]
        total_b += entry["bytes"]
    print(f"  {'total':<12s} {verb} {total_n:6d} artifacts  "
          f"{total_b / 2**20:8.1f} MiB")
    return 0


def cmd_work(args) -> int:
    from repro.experiments.store import ProfileStore
    from repro.experiments.workqueue import (
        WorkQueue, plan_suite_jobs, run_workers,
    )

    store = ProfileStore(args.root) if args.root else ProfileStore()
    if args.work_command == "enqueue":
        from repro.experiments.suites import (
            full_suite, parsec_suite, rodinia_suite,
        )
        refs = {
            "full": full_suite,
            "rodinia": rodinia_suite,
            "parsec": parsec_suite,
        }[args.suite]()
        if args.benchmark:
            wanted = set(args.benchmark)
            refs = [r for r in refs if r.label in wanted
                    or r.name in wanted]
            if not refs:
                raise SystemExit(
                    f"no benchmark matched {sorted(wanted)}"
                )
        jobs = plan_suite_jobs(
            refs,
            scale=args.scale,
            chunk=args.chunk,
            configs=args.config or ["base"],
            cores=args.cores,
            simulate=args.simulate,
        )
        queue = WorkQueue(store.root)
        added = queue.enqueue_many(jobs)
        queue.close()
        print(f"enqueued {added} of {len(jobs)} jobs "
              f"({len(jobs) - added} already pending or done) "
              f"under {queue.root}")
        return 0
    if args.work_command == "run":
        summary = run_workers(
            store.root,
            workers=args.workers,
            lease_s=args.lease,
            heartbeat_s=args.heartbeat,
            drain=not args.no_drain,
            respawn=not args.no_respawn,
            install_signals=True,
        )
        queue_stats = summary["queue"]
        print(f"fleet done: {summary['workers']} workers "
              f"({summary['respawned']} respawned), "
              f"{queue_stats['done']} jobs done, "
              f"{queue_stats['pending']} pending, "
              f"{queue_stats['leased']} leased")
        return 1 if queue_stats["pending"] else 0
    # stats
    queue = WorkQueue(
        store.root, lease_s=args.lease, heartbeat_s=args.heartbeat
    )
    stats = queue.stats()
    print(f"queue root: {queue.root}")
    print(f"  pending {stats['pending']:5d}   leased "
          f"{stats['leased']:5d}   done {stats['done']:5d}")
    for key, meta in sorted(queue.live_leases().items()):
        expired = meta["age_s"] > queue.lease_s
        print(f"  lease {key[:16]}  owner={meta.get('owner', '?')} "
              f"pid={meta.get('pid', '?')} age={meta['age_s']:.1f}s"
              f"{'  EXPIRED' if expired else ''}")
    return 0


def cmd_serve(args) -> int:
    from repro.experiments.store import default_store
    from repro.obs import configure_logging
    from repro.service.server import PredictionService

    configure_logging(level=args.log_level, json_mode=args.log_json)
    store = None if args.no_store else default_store()
    if args.workers > 1:
        # Pre-fork fleet: N worker processes on one port, sharing
        # warm artifacts through the content-addressed store.
        from repro.service.fleet import (
            DEFAULT_WARM_PROFILES, ServingFleet,
        )
        warm = (
            () if (args.no_warm_fill or store is None)
            else DEFAULT_WARM_PROFILES
        )
        ServingFleet(
            store_root=store.root if store is not None else None,
            host=args.host,
            port=args.port,
            workers=args.workers,
            threads=args.threads,
            max_queue=args.max_queue,
            deadline_ms=args.deadline_ms,
            drain_timeout=args.drain_timeout,
            warm_profiles=warm,
        ).run()
        return 0
    engine = PredictionEngine(store=store)
    PredictionService(
        engine=engine,
        host=args.host,
        port=args.port,
        workers=args.threads,
        max_queue=args.max_queue,
        deadline_ms=args.deadline_ms,
        drain_timeout=args.drain_timeout,
    ).run()
    return 0


def cmd_obs(args) -> int:
    """``repro obs``: the /metrics snapshot, offline or scraped."""
    if args.url:
        from urllib.request import urlopen

        url = args.url
        if not url.rstrip("/").endswith("/metrics"):
            url = url.rstrip("/") + "/metrics"
        with urlopen(url, timeout=30.0) as response:
            sys.stdout.write(
                response.read().decode("utf-8", errors="replace")
            )
        return 0
    from repro.obs import REGISTRY

    if args.json:
        json.dump(REGISTRY.snapshot(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(REGISTRY.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RPPM reproduction toolchain (ISPASS 2019).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and design points")

    def add_common(p, benchmark=True):
        if benchmark:
            p.add_argument("benchmark",
                           help="benchmark, e.g. rodinia.hotspot")
        p.add_argument("--scale", type=float, default=1.0,
                       help="workload scale factor (default 1.0)")
        p.add_argument("--config", choices=TABLE_IV, default="base",
                       help="Table IV design point (default: base)")
        p.add_argument("--cores", type=int, default=4,
                       help="core count (default 4)")

    p = sub.add_parser("profile", help="profile a benchmark to JSON")
    p.add_argument("benchmark")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("-o", "--output", help="output file (default stdout)")

    p = sub.add_parser("predict", help="predict from a profile")
    p.add_argument("benchmark", nargs="?", default=None)
    p.add_argument("--profile-json",
                   help="use a stored profile instead of re-profiling")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--config", choices=TABLE_IV, default="base")
    p.add_argument("--cores", type=int, default=4)

    p = sub.add_parser("simulate", help="run the reference simulator")
    add_common(p)

    p = sub.add_parser("compare", help="predict and simulate")
    add_common(p)

    p = sub.add_parser("report", help="regenerate a paper artifact")
    p.add_argument("artifact", choices=[
        "table1", "table3", "figure4", "figure5", "table5", "figure6",
        "ablations",
    ])
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for profiling/simulation "
                        "prefetch (default: CPU count; 1 = serial)")

    p = sub.add_parser(
        "bench", help="measure profiling throughput (BENCH trajectory)"
    )
    p.add_argument("--quick", action="store_true",
                   help="small benchmark subset, fewer repetitions")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("-o", "--output", default="BENCH_profiler.json",
                   help="JSON record path (default BENCH_profiler.json)")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero if any engine speedup falls "
                        "below its committed floor (CI perf smoke)")
    p.add_argument("--service-output", default="BENCH_service.json",
                   metavar="PATH",
                   help="serving-bench JSON record path "
                        "(default BENCH_service.json)")
    p.add_argument("--no-service", action="store_true",
                   help="skip the serving-throughput bench")
    p.add_argument("--profile-dump", metavar="PATH",
                   help="write a cProfile top-20 of the end-to-end "
                        "suite profiling loop (CI uploads this so the "
                        "next hot spot is identified from CI)")
    p.add_argument("--work-output", default=None, metavar="PATH",
                   help="also run the work-queue chaos scenarios "
                        "(kill-mid-lease, stale takeover, claim race) "
                        "and write their record here, e.g. "
                        "BENCH_work.json (skipped when omitted)")

    p = sub.add_parser(
        "store",
        help="inspect / garbage-collect the on-disk artifact store",
    )
    ssub = p.add_subparsers(dest="store_command", required=True)
    sp = ssub.add_parser(
        "stats", help="per-kind artifact counts and byte totals"
    )
    sp.add_argument("--root", help="store root "
                    "(default: REPRO_CACHE_DIR or ~/.cache/repro)")
    sp = ssub.add_parser(
        "prune", help="remove artifacts (traces, profiles, ...)"
    )
    sp.add_argument("--root", help="store root "
                    "(default: REPRO_CACHE_DIR or ~/.cache/repro)")
    sp.add_argument("--kind", action="append", metavar="KIND",
                    help="restrict to one artifact kind (repeatable), "
                         "e.g. traces; 'queue' sweeps aged done "
                         "markers and orphaned lease files, "
                         "'quarantine' empties the evidence tree")
    sp.add_argument("--older-than", type=float, metavar="DAYS",
                    help="only artifacts older than DAYS days")
    sp.add_argument("--stale-only", action="store_true",
                    help="only artifacts with a stale or unreadable "
                         "schema (already treated as misses)")
    sp.add_argument("--all", action="store_true",
                    help="allow an unfiltered sweep of the whole store")
    sp.add_argument("--dry-run", action="store_true",
                    help="report what would be removed, remove nothing")

    p = sub.add_parser(
        "work",
        help="crash-safe distributed work queue over the store",
    )
    wsub = p.add_subparsers(dest="work_command", required=True)

    def add_work_common(wp):
        wp.add_argument("--root", help="store root (default: "
                        "REPRO_CACHE_DIR or ~/.cache/repro); workers "
                        "on any host sharing this directory cooperate")
        wp.add_argument("--lease", type=float, default=15.0,
                        metavar="S",
                        help="lease length: a worker silent this long "
                             "is dead and its jobs are re-claimed "
                             "(default 15)")
        wp.add_argument("--heartbeat", type=float, default=None,
                        metavar="S",
                        help="lease renewal interval (default: "
                             "lease / 5)")

    wp = wsub.add_parser(
        "enqueue", help="enqueue a suite's jobs by content key"
    )
    wp.add_argument("--root", help="store root (default: "
                    "REPRO_CACHE_DIR or ~/.cache/repro)")
    wp.add_argument("--suite", choices=("full", "rodinia", "parsec"),
                    default="full",
                    help="benchmark suite to plan (default full)")
    wp.add_argument("--benchmark", action="append", metavar="NAME",
                    help="restrict to named benchmark(s), e.g. "
                         "rodinia.hotspot (repeatable)")
    wp.add_argument("--scale", type=float, default=1.0)
    wp.add_argument("--chunk", type=int, default=4096)
    wp.add_argument("--config", action="append", choices=TABLE_IV,
                    metavar="POINT",
                    help="Table IV design point(s) to predict "
                         "(repeatable; default base)")
    wp.add_argument("--cores", type=int, default=4)
    wp.add_argument("--simulate", action="store_true",
                    help="also enqueue reference simulations")

    wp = wsub.add_parser(
        "run",
        help="run a supervised worker fleet until the queue drains",
    )
    add_work_common(wp)
    wp.add_argument("--workers", type=int, default=2, metavar="N",
                    help="worker processes to supervise (default 2); "
                         "dead workers are respawned, their leases "
                         "re-claimed within one lease period")
    wp.add_argument("--no-drain", action="store_true",
                    help="keep serving new jobs after the queue "
                         "empties (stop with SIGINT/SIGTERM)")
    wp.add_argument("--no-respawn", action="store_true",
                    help="do not respawn workers that die")

    wp = wsub.add_parser(
        "stats", help="queue state: pending / leased / done"
    )
    add_work_common(wp)

    p = sub.add_parser(
        "serve", help="run the prediction service (HTTP/JSON)"
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8000,
                   help="TCP port (default 8000; 0 = ephemeral)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker processes (default 1 = in-process; "
                        "N>1 runs a pre-fork fleet on one port via "
                        "SO_REUSEPORT, sharing warm artifacts through "
                        "the store, with a respawning supervisor)")
    p.add_argument("--threads", type=int, default=2, metavar="N",
                   help="engine worker threads per process (default 2)")
    p.add_argument("--no-warm-fill", action="store_true",
                   help="skip the fleet's boot-time warm-fill of "
                        "preset profiles through the work queue")
    p.add_argument("--no-store", action="store_true",
                   help="serve without the on-disk artifact store")
    p.add_argument("--max-queue", type=int, default=64, metavar="N",
                   help="admission bound on queued distinct requests; "
                        "beyond it the server sheds with 429 + "
                        "Retry-After (default 64)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   metavar="MS",
                   help="server-side deadline per request; expiry "
                        "returns 503 (clients may tighten it via "
                        "X-Deadline-Ms, never extend; default: none)")
    p.add_argument("--drain-timeout", type=float, default=5.0,
                   metavar="S",
                   help="max seconds graceful shutdown waits for "
                        "in-flight work before closing connections "
                        "(default 5)")
    p.add_argument("--log-json", action="store_true",
                   help="emit structured logs as one JSON object per "
                        "line instead of human-readable text")
    p.add_argument("--log-level", default="info",
                   choices=("debug", "info", "warning", "error"),
                   help="log verbosity (debug adds a per-request "
                        "access log; default info)")

    p = sub.add_parser(
        "obs",
        help="dump the telemetry snapshot (Prometheus text format)",
    )
    p.add_argument("--url", default=None, metavar="URL",
                   help="scrape a running service's /metrics endpoint "
                        "instead of dumping this process's registry "
                        "(e.g. http://127.0.0.1:8000/metrics)")
    p.add_argument("--json", action="store_true",
                   help="JSON snapshot instead of Prometheus text "
                        "(local registry only)")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "predict" and not (
        args.benchmark or args.profile_json
    ):
        raise SystemExit("predict needs a benchmark or --profile-json")
    handlers = {
        "list": cmd_list,
        "profile": cmd_profile,
        "predict": cmd_predict,
        "simulate": cmd_simulate,
        "compare": cmd_compare,
        "report": cmd_report,
        "bench": cmd_bench,
        "store": cmd_store,
        "work": cmd_work,
        "serve": cmd_serve,
        "obs": cmd_obs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
