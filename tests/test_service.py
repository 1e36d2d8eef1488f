"""Tests for the serving subsystem (:mod:`repro.service`).

Covers the coalescer (single-flight collapse, reaping of abandoned
queued work), the engine's caching behaviour, and the real HTTP stack
end to end — including the acceptance properties: a stampede of
identical requests costs exactly one engine computation, and
``/v1/predict`` responses re-rendered through the shared formatter are
byte-identical to ``python -m repro predict`` output.
"""

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.service.batching import Coalescer
from repro.service.client import ServiceClient, ServiceError
from repro.service.engine import (
    PredictionEngine,
    ServiceRequest,
    format_compare,
    format_prediction,
    resolve_benchmark,
)
from repro.service.loadgen import run_loadgen
from repro.service.server import BackgroundServer

SCALE = 0.25


class TestCoalescer:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_single_flight_collapses_identical_requests(self):
        """32 identical concurrent requests -> exactly one compute."""
        release = threading.Event()
        computed = []

        def compute(request):
            computed.append(request)
            release.wait(10)
            return ("ok", request)

        with ThreadPoolExecutor(2) as executor:
            coalescer = Coalescer(compute, executor, max_workers=2)

            async def scenario():
                tasks = [
                    asyncio.create_task(coalescer.submit("k", i))
                    for i in range(32)
                ]
                await asyncio.sleep(0.05)  # all submissions land
                release.set()
                return await asyncio.gather(*tasks)

            results = self._run(scenario())
        assert computed == [0]
        assert coalescer.collapsed == 31
        assert all(r == ("ok", 0) for r in results)

    def test_compute_exception_propagates(self):
        def compute(request):
            raise RuntimeError("engine down")

        with ThreadPoolExecutor(1) as executor:
            coalescer = Coalescer(compute, executor)
            with pytest.raises(RuntimeError, match="engine down"):
                self._run(coalescer.submit("k", 1))
        # The key is released: a retry is not poisoned.
        assert coalescer.stats()["inflight"] == 0

    @staticmethod
    def _busy_worker_scenario(submit_queued, cancel_count):
        """Occupy the only worker, queue waiters on key ``q``, cancel
        the first ``cancel_count`` of them, then release the worker.

        Returns (computed requests, coalescer, surviving results).
        """
        computed = []
        started, release = threading.Event(), threading.Event()

        def compute(request):
            computed.append(request)
            if request == "busy":
                started.set()
                release.wait(10)
            return f"done-{request}"

        with ThreadPoolExecutor(1) as executor:
            coalescer = Coalescer(compute, executor, max_workers=1)

            async def scenario():
                loop = asyncio.get_running_loop()
                busy = asyncio.create_task(
                    coalescer.submit("busy", "busy")
                )
                await loop.run_in_executor(None, started.wait, 10)
                waiters = [
                    asyncio.create_task(coalescer.submit("q", "q"))
                    for _ in range(submit_queued)
                ]
                await asyncio.sleep(0.02)
                for waiter in waiters[:cancel_count]:
                    waiter.cancel()
                await asyncio.sleep(0.02)
                release.set()
                return await asyncio.gather(
                    busy, *waiters[cancel_count:]
                )

            results = asyncio.run(scenario())
        return computed, coalescer, results

    def test_cancelled_queued_request_is_never_computed(self):
        """The last waiter going away reaps work still queued."""
        computed, coalescer, results = self._busy_worker_scenario(
            submit_queued=1, cancel_count=1
        )
        assert results == ["done-busy"]
        assert computed == ["busy"]
        assert coalescer.abandoned == 1
        assert coalescer.depth() == 0

    def test_shared_key_survives_one_cancelled_waiter(self):
        """Another waiter still wants the result: computed once."""
        computed, coalescer, results = self._busy_worker_scenario(
            submit_queued=2, cancel_count=1
        )
        assert results == ["done-busy", "done-q"]
        assert computed.count("q") == 1
        assert coalescer.abandoned == 0


class TestEngine:
    def test_resolve_benchmark(self):
        assert resolve_benchmark("rodinia.nn").label == "rodinia.nn"
        assert resolve_benchmark("nn").suite == "rodinia"
        assert resolve_benchmark("swaptions").suite == "parsec"
        with pytest.raises(ValueError, match="unknown benchmark"):
            resolve_benchmark("gcc")
        with pytest.raises(ValueError, match="unknown suite"):
            resolve_benchmark("spec.nn")

    def test_predict_is_memoized(self):
        engine = PredictionEngine(store=None)
        first = engine.predict("rodinia.nn", scale=SCALE)
        second = engine.predict("rodinia.nn", scale=SCALE)
        assert first is second  # served from the result LRU
        assert engine.stats.computed["predict"] == 1
        assert engine.stats.profiles_built == 1

    def test_profile_shared_across_configs(self):
        engine = PredictionEngine(store=None)
        engine.predict("rodinia.nn", config="base", scale=SCALE)
        engine.predict("rodinia.nn", config="smallest", scale=SCALE)
        assert engine.stats.profiles_built == 1
        assert engine.stats.predictions_run == 2

    def test_store_round_trip(self, tmp_path):
        from repro.experiments.store import ProfileStore
        store = ProfileStore(tmp_path / "store")
        engine = PredictionEngine(store=store)
        engine.predict("rodinia.nn", scale=SCALE)
        assert engine.stats.profiles_built == 1
        fresh = PredictionEngine(store=store)
        fresh.predict("rodinia.nn", scale=SCALE)
        assert fresh.stats.profiles_built == 0
        assert fresh.stats.profiles_from_store == 1

    def test_sweep_defaults_to_table_iv(self):
        engine = PredictionEngine(store=None)
        payload = engine.sweep("rodinia.nn", scale=SCALE)
        assert payload["configs"] == [
            "smallest", "small", "base", "big", "biggest",
        ]
        assert len(payload["results"]) == 5
        assert engine.stats.profiles_built == 1

    def test_cold_compare_keys_the_spec_once(self, monkeypatch):
        # The engine memoizes the spec, so its content address is
        # computed once and shared by the profile and the simulation.
        from repro.experiments.store import ProfileStore
        calls = []
        trace_key = ProfileStore.trace_key

        def counting(spec):
            calls.append(spec)
            return trace_key(spec)

        monkeypatch.setattr(ProfileStore, "trace_key", staticmethod(counting))
        PredictionEngine(store=None).compare("rodinia.nn", scale=SCALE)
        assert len(calls) == 1

    def test_handle_maps_errors_to_statuses(self):
        engine = PredictionEngine(store=None)
        status, payload = engine.handle(
            ServiceRequest("predict", "gcc")
        )
        assert status == 404 and "unknown benchmark" in payload["error"]
        status, payload = engine.handle(
            ServiceRequest("predict", "rodinia.nn", config="huge")
        )
        assert status == 400


@pytest.fixture(scope="module")
def server():
    """One shared server+engine for the read-mostly endpoint tests."""
    engine = PredictionEngine(store=None)
    with BackgroundServer(engine=engine, workers=2) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    with ServiceClient(port=server.port) as c:
        yield c


class TestHTTPEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert "engine" in payload and "coalescer" in payload

    def test_healthz_exposes_kernel_and_cache_counters(self, client):
        """Cold-start observability: fused-kernel mega-batch counters
        and the ILP table-cache hit ratio ride on the consolidated
        ``session`` block of ``/healthz``."""
        client.predict("rodinia.nn", scale=SCALE)  # force one profile
        session = client.healthz()["engine"]["session"]
        kernel = session["ilp_kernel"]
        for key in ("pools", "samples", "buckets", "batches",
                    "bucket_fill", "steps", "dispatches"):
            assert key in kernel
        assert kernel["pools"] >= 1
        assert 0.0 < kernel["bucket_fill"] <= 1.0
        cache = session["ilp_cache"]
        assert cache["hits"] >= 0 and cache["misses"] >= 1

    def test_healthz_exposes_trace_cache_counters(self, client):
        """The session-resident trace LRU and the columnar expansion
        engine's memo/arena counters ride on ``/healthz``."""
        client.predict("rodinia.nn", scale=SCALE)  # force one profile
        session = client.healthz()["engine"]["session"]
        tcache = session["trace_cache"]
        for key in ("hits", "misses", "store_hits", "store_saves",
                    "evictions", "entries", "bytes"):
            assert key in tcache
        assert tcache["misses"] >= 1
        expand = session["expand_engine"]
        for key in ("workloads", "segments", "instructions",
                    "arena_bytes", "memo_hit_rate"):
            assert key in expand
        assert expand["workloads"] >= 1

    def test_healthz_session_block_is_consolidated(self, client):
        """One ``session`` block replaces the scattered per-cache
        fragments; the profiler-side memos ride along."""
        client.predict("rodinia.nn", scale=SCALE)
        engine = client.healthz()["engine"]
        for legacy in ("trace_cache", "expand_engine", "ilp_kernel",
                       "cost_cache"):
            assert legacy not in engine
        session = engine["session"]
        for key in ("trace_cache", "ilp_cache", "branch_cache",
                    "prep_cache", "cost_caches", "counters", "durable"):
            assert key in session
        assert session["prep_cache"]["misses"] >= 1
        assert session["counters"].get("profiles", 0) >= 1

    def test_predict_bit_identical_to_cli(self, client, capsys):
        payload = client.predict("rodinia.nn", scale=SCALE)
        assert main([
            "predict", "rodinia.nn", "--scale", str(SCALE),
        ]) == 0
        cli_text = capsys.readouterr().out
        assert format_prediction(payload) + "\n" == cli_text

    def test_predict_numbers_match_in_process_engine(self, client):
        payload = client.predict("rodinia.nn", scale=SCALE)
        local = PredictionEngine(store=None).predict(
            "rodinia.nn", scale=SCALE
        )
        # Bit-identical across the HTTP/JSON round trip.
        assert payload == json.loads(json.dumps(local))
        assert payload["total_cycles"] == local["total_cycles"]

    def test_compare_bit_identical_to_cli(self, client, capsys):
        payload = client.compare("rodinia.nn", scale=SCALE)
        assert main([
            "compare", "rodinia.nn", "--scale", str(SCALE),
        ]) == 0
        cli_text = capsys.readouterr().out
        assert format_compare(payload) + "\n" == cli_text

    def test_sweep_endpoint(self, client):
        payload = client.sweep(
            "rodinia.nn", configs=["smallest", "base"], scale=SCALE
        )
        assert payload["configs"] == ["smallest", "base"]
        cycles = [r["total_cycles"] for r in payload["results"]]
        assert cycles[0] > cycles[1]  # narrower core is slower

    def test_profiles_inventory(self, client):
        client.predict("rodinia.nn", scale=SCALE)
        payload = client.profiles()
        labels = {p["benchmark"] for p in payload["resident"]}
        assert "rodinia.nn" in labels

    def test_unknown_benchmark_404(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.predict("gcc", scale=SCALE)
        assert exc_info.value.status == 404

    def test_bad_config_400(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.predict("rodinia.nn", config="huge", scale=SCALE)
        assert exc_info.value.status == 400

    def test_missing_benchmark_400(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client._request("GET", "/v1/predict")
        assert exc_info.value.status == 400

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1", "1e12"])
    def test_unsafe_scale_rejected(self, client, scale):
        """scale drives workload expansion: inf/NaN/huge must 400
        before reaching an engine worker."""
        with pytest.raises(ServiceError) as exc_info:
            client._request(
                "GET", f"/v1/predict?benchmark=rodinia.nn&scale={scale}"
            )
        assert exc_info.value.status == 400

    @pytest.mark.parametrize("cores", ["0", "-4", "1000000"])
    def test_unsafe_cores_rejected(self, client, cores):
        with pytest.raises(ServiceError) as exc_info:
            client._request(
                "GET", f"/v1/predict?benchmark=rodinia.nn&cores={cores}"
            )
        assert exc_info.value.status == 400

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client._request("GET", "/v2/predict")
        assert exc_info.value.status == 404

    def test_post_json_body(self, client):
        payload = client._request(
            "POST", "/v1/predict",
            body={"benchmark": "rodinia.nn", "scale": SCALE},
        )
        assert payload["benchmark"] == "rodinia.nn"


def _series_sum(text: str, name: str) -> float:
    """Sum all samples of one Prometheus series from exposition text."""
    total = 0.0
    found = False
    for line in text.splitlines():
        if line.startswith(name) and (
            line[len(name)] in ("{", " ")
        ):
            total += float(line.rsplit(" ", 1)[1])
            found = True
    assert found, f"series {name!r} absent from /metrics"
    return total


class TestObservability:
    """The telemetry plane over HTTP: request ids, /metrics, traces."""

    def _raw_get(self, port, path, headers=None):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("GET", path, headers=headers or {})
            resp = conn.getresponse()
            body = resp.read()
            return resp.status, dict(resp.getheaders()), body
        finally:
            conn.close()

    def test_request_id_header_echoed(self, server):
        status, headers, _ = self._raw_get(
            server.port, "/healthz",
            headers={"X-Request-Id": "caller-supplied-42"},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "caller-supplied-42"

    def test_request_id_generated_when_absent(self, server):
        _, headers, _ = self._raw_get(server.port, "/healthz")
        rid = headers["X-Request-Id"]
        assert len(rid) == 16
        int(rid, 16)  # hex-shaped

    def test_metrics_covers_core_series(self, client):
        client.predict("rodinia.nn", scale=SCALE)  # warm every plane
        text = client.metrics()
        for series in (
            # http + admission
            "repro_http_requests_total",
            "repro_admission_shed_total",
            "repro_admission_deadline_expired_total",
            "repro_admission_queue_depth",
            "repro_admission_max_queue",
            # engine + coalescer
            "repro_engine_requests",
            "repro_engine_computed",
            "repro_coalescer_submitted",
            # session caches
            "repro_cache_hits",
            "repro_cache_misses",
            "repro_expand_workloads",
            "repro_ilp_kernel_dispatches",
            # pipeline stages + obs self-telemetry
            "repro_stage_seconds_bucket",
            "repro_obs_dropped_emits",
            "repro_obs_enabled",
        ):
            assert series in text, f"missing {series}"
        assert 'repro_cache_hits{cache="result"}' in text
        for cache in ("result", "profile", "trace", "branch", "prep"):
            assert f'repro_cache_entries{{cache="{cache}"}}' in text
        assert 'repro_stage_seconds_bucket{stage="engine"' in text

    def test_metrics_covers_store_series(self, tmp_path):
        from repro.experiments.store import ProfileStore

        engine = PredictionEngine(store=ProfileStore(tmp_path / "s"))
        with BackgroundServer(engine=engine, workers=2) as server:
            with ServiceClient(port=server.port) as c:
                c.predict("rodinia.nn", scale=SCALE)
                text = c.metrics()
        for series in (
            "repro_store_writes",
            "repro_store_dropped_writes",
            "repro_store_io_errors",
            "repro_store_corruption_streak",
        ):
            assert series in text, f"missing {series}"
        assert _series_sum(text, "repro_store_writes") >= 1

    def test_healthz_derived_from_registry(self):
        """/healthz admission counters and /metrics render the same
        registry — no counter is double-sourced.  A dedicated server
        keeps the arithmetic exact."""
        engine = PredictionEngine(store=None)
        n = 3
        with BackgroundServer(engine=engine, workers=2) as server:
            with ServiceClient(port=server.port) as c:
                for _ in range(n):
                    c.predict("rodinia.nn", scale=SCALE)
                health = c.healthz()
                text = c.metrics()
        # The healthz request itself is counted after routing, so the
        # payload sees exactly the n predicts; the later /metrics body
        # additionally counts the healthz hit but not itself.
        assert health["requests_served"] == n
        served = _series_sum(text, "repro_http_requests_total")
        assert served == n + 1
        admission = health["admission"]
        for key, series in (
            ("shed", "repro_admission_shed_total"),
            ("deadline_expired",
             "repro_admission_deadline_expired_total"),
            ("disconnects", "repro_disconnects_total"),
            ("response_failures", "repro_response_failures_total"),
        ):
            assert admission[key] == _series_sum(text, series)

    def test_debug_trace_round_trip(self, server):
        with ServiceClient(port=server.port) as c:
            rid = "trace-roundtrip-1"
            status, headers, _ = self._raw_get(
                server.port,
                f"/v1/predict?benchmark=rodinia.bfs&scale={SCALE}",
                headers={"X-Request-Id": rid},
            )
            assert status == 200
            assert headers["X-Request-Id"] == rid
            trace = c.debug_trace(rid)
        assert trace["trace_id"] == rid
        assert trace["status"] == 200
        assert trace["duration_ms"] > 0
        names = {s["name"] for s in trace["spans"]}
        assert "route" in names
        assert "coalesce" in names
        # Engine-side spans ride the ServiceRequest across the
        # executor boundary into the worker thread.
        assert "engine" in names

    def test_debug_trace_listing_and_404(self, client):
        listing = client._request("GET", "/v1/debug/trace")
        assert isinstance(listing["traces"], list)
        with pytest.raises(ServiceError) as exc_info:
            client.debug_trace("no-such-trace")
        assert exc_info.value.status == 404

    def test_metrics_unaffected_by_obs_off_requests(self, server):
        """REPRO_OBS=off stops span recording but never breaks the
        scrape endpoint itself."""
        from repro.obs import set_enabled

        set_enabled(False)
        try:
            status, _, body = self._raw_get(server.port, "/metrics")
        finally:
            set_enabled(True)
        assert status == 200
        text = body.decode()
        assert "repro_obs_enabled 0" in text
        assert "repro_http_requests_total" in text


class TestConcurrentServing:
    def test_32_identical_requests_one_computation(self):
        """The acceptance property: >= 32 simultaneous identical
        requests collapse to a single engine computation."""
        engine = PredictionEngine(store=None)
        n_clients = 32
        results = []
        errors = []
        barrier = threading.Barrier(n_clients)

        def hit(port):
            try:
                with ServiceClient(port=port) as c:
                    barrier.wait(timeout=30)
                    results.append(
                        c.predict("rodinia.bfs", scale=SCALE)
                    )
            except Exception as exc:  # surfaced below
                errors.append(exc)

        with BackgroundServer(engine=engine, workers=2) as server:
            threads = [
                threading.Thread(target=hit, args=(server.port,))
                for _ in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            with ServiceClient(port=server.port) as probe:
                health = probe.healthz()

        assert not errors
        assert len(results) == n_clients
        assert all(r == results[0] for r in results)
        # Exactly one engine computation served all 32 requests;
        # duplicates either collapsed in flight or hit the result LRU.
        assert health["engine"]["computed"]["predict"] == 1
        collapsed = health["coalescer"]["collapsed"]
        engine_requests = health["engine"]["requests"]["predict"]
        assert collapsed + engine_requests == n_clients

    def test_loadgen_record_schema(self):
        engine = PredictionEngine(store=None)
        with BackgroundServer(engine=engine, workers=2) as server:
            record = run_loadgen(
                "127.0.0.1", server.port,
                benchmark="rodinia.nn", scale=SCALE,
                duration_s=0.4, concurrency=4,
            )
        assert record["schema"] == 4
        assert record["ok"] > 0
        assert record["unexplained_errors"] == 0
        assert record["hung_workers"] == 0
        assert record["goodput_rps"] > 0
        assert 0.0 <= record["cache_hit_rate"] <= 1.0
        assert record["latency_ms"]["p50"] <= record["latency_ms"]["p99"]


class TestBackgroundServerStop:
    def test_stop_survives_a_concurrent_stop(self):
        # The kill_mid_burst scenario stops the server from a timer
        # while its owner also stops it; whichever join finishes
        # second must not trip over the first clearing ``_thread``.
        server = BackgroundServer(
            engine=PredictionEngine(store=None), workers=1
        ).start()
        thread = server._thread
        real_join = thread.join

        def join(timeout=None):
            real_join(timeout)
            server._thread = None  # the other stop() finished first

        thread.join = join
        server.stop()
        assert not thread.is_alive()


class TestServiceBench:
    def test_quick_bench_writes_record(self, tmp_path):
        from repro.experiments.bench import (
            check_service, run_service_bench,
        )
        out = tmp_path / "BENCH_service.json"
        # overload/fleet scenarios are exercised by their own tests
        # and CI jobs; here only the record shape and error floors.
        record = run_service_bench(
            quick=True, output=str(out), duration_s=0.4,
            concurrency=4, scale=SCALE, overload=False, fleet=False,
        )
        on_disk = json.loads(out.read_text())
        assert on_disk["schema"] == 4
        assert on_disk["mode"] == "quick"
        assert on_disk["warm"]["ok"] == record["warm"]["ok"]
        # Floors are enforced in CI via `repro bench --quick --check`
        # (with the overload scenarios); here only the record shape
        # and the error floors.
        assert not [
            f for f in check_service(record)
            if "error rate" in f or "unexplained" in f
        ]


class TestRetryBudget:
    """``max_elapsed_s``: honored Retry-After hints cannot extend the
    retry loop unboundedly (:class:`ServiceRetryBudgetExceeded`)."""

    @staticmethod
    def _client(**kwargs):
        from repro.service.client import ServiceClient

        kwargs.setdefault("retries", 5)
        kwargs.setdefault("backoff_s", 0.001)
        return ServiceClient(port=1, **kwargs)

    def test_huge_retry_after_trips_the_budget(self, monkeypatch):
        from repro.service.client import (
            ServiceRetryBudgetExceeded, ServiceTimeout,
        )

        client = self._client(max_elapsed_s=0.5)

        def always_503(*args, **kwargs):
            raise ServiceTimeout(
                503, {"error": "draining"}, retry_after=3600.0
            )

        monkeypatch.setattr(client, "_request_once", always_503)
        slept = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", slept.append
        )
        with pytest.raises(ServiceRetryBudgetExceeded) as excinfo:
            client.healthz()
        # The budget tripped *before* sleeping out the server hint.
        assert not slept
        assert excinfo.value.max_elapsed_s == 0.5
        assert excinfo.value.attempts == 1
        assert isinstance(excinfo.value.__cause__, ServiceTimeout)

    def test_budget_exhaustion_by_accumulated_attempts(
        self, monkeypatch
    ):
        from repro.service.client import (
            ServiceRetryBudgetExceeded, ServiceOverloaded,
        )

        client = self._client(retries=100, max_elapsed_s=0.05)

        def always_shed(*args, **kwargs):
            raise ServiceOverloaded(
                429, {"error": "shed"}, retry_after=0.02
            )

        monkeypatch.setattr(client, "_request_once", always_shed)
        with pytest.raises(ServiceRetryBudgetExceeded) as excinfo:
            client.healthz()
        # A few short sleeps fit, then the budget ends the loop long
        # before the 100-attempt budget would have.
        assert excinfo.value.attempts < 10
        assert client.backoff_slept_s <= 0.05 + 0.02

    def test_within_budget_retries_proceed(self, monkeypatch):
        from repro.service.client import ServiceTimeout

        client = self._client(retries=3, max_elapsed_s=30.0)
        attempts = []

        def flaky(*args, **kwargs):
            attempts.append(1)
            if len(attempts) < 3:
                raise ServiceTimeout(
                    503, {"error": "drain"}, retry_after=0.001
                )
            return {"status": "ok"}

        monkeypatch.setattr(client, "_request_once", flaky)
        assert client.healthz() == {"status": "ok"}
        assert len(attempts) == 3
        assert client.retried == 2

    def test_budget_disabled_with_none(self, monkeypatch):
        from repro.service.client import ServiceTimeout

        client = self._client(retries=2, max_elapsed_s=None)

        def always_503(*args, **kwargs):
            raise ServiceTimeout(
                503, {"error": "draining"}, retry_after=0.001
            )

        monkeypatch.setattr(client, "_request_once", always_503)
        # Attempts, not elapsed time, end the loop: the plain typed
        # error surfaces once retries are spent.
        with pytest.raises(ServiceTimeout):
            client.healthz()
        assert client.retried == 2

    def test_non_retryable_unaffected_by_budget(self, monkeypatch):
        from repro.service.client import ServiceError

        client = self._client(max_elapsed_s=0.0)

        def bad_request(*args, **kwargs):
            raise ServiceError(400, {"error": "malformed"})

        monkeypatch.setattr(client, "_request_once", bad_request)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 400
