"""One benchmark round, run in a fresh interpreter by ``run.py``.

Every round starts from an empty process, so module-level memos (the
StatStack stack-distance memo, the profiler's default prep cache and
the default expansion engine) are cold and peak RSS belongs to this
round alone.  A round sets up its inputs, runs the workload's timed
part once and prints one JSON object as the last line of stdout::

    python3 perfbench/child.py '{"workload": "suite_cold", ...}'

With ``"traced": true`` each public call is wrapped in a span recorded
from this file (nothing inside ``src/`` is instrumented); untraced
rounds time only whole operations.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, Iterator, List, Optional  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from repro import predict, profile_workload, simulate  # noqa: E402
from repro.arch.presets import table_iv_config  # noqa: E402
from repro.core.session import Session  # noqa: E402
from repro.experiments.store import ProfileStore  # noqa: E402
from repro.experiments.suites import BenchmarkRef, build_workload  # noqa: E402
from repro.profiler.ilp_batch import KERNEL_STATS  # noqa: E402
from repro.statstack.statstack import sd_cache_clear  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

from golden import (  # noqa: E402
    TABLE_IV,
    design_space,
    profile_digest,
    simulation_digest,
)
from loadgen import LoadGenerator, LoadResult, http_get  # noqa: E402

#: Profiling granularity used by every entry point (the library default).
CHUNK = 4096

#: Seconds the reference kernel takes on the reference host, about its
#: median on the 2-CPU host this benchmark was written on.
REF_KERNEL_S = 0.004
#: The closed loop runs in windows this long with the reference kernel
#: timed between them.
CLOSED_WINDOW_S = 0.25
_REF_TABLE = {i: i * 7 for i in range(4096)}
_REF_ARRAYS = [np.random.default_rng(0).random(64) for _ in range(16)]


class Tracer:
    """In-memory spans around the public calls this file makes."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "parent": parent, **attrs}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def _reference_kernel() -> float:
    """A fixed mix of interpreter work and small numpy calls, the kind
    of work the program does, written here so that no change to the
    program changes it."""
    acc = 0
    for i in range(20_000):
        acc += _REF_TABLE[i & 4095] * 3 % 7
    total = float(acc)
    for _ in range(16):
        for array in _REF_ARRAYS:
            total += float(np.cumsum(array)[-1])
    return total


class HostSpeed:
    """Scales operation times to the reference host speed.

    A shared host runs the same code up to ~1.5x slower for seconds to
    minutes at a time, which no amount of repetition averages away.  The
    reference kernel, timed after every operation, shows how fast the
    host ran just then.  An operation's reference time is its wall time
    scaled by ``REF_KERNEL_S`` over the median kernel time of the
    ``2 * SPAN`` samples around it.  A change to the program moves the
    operation and not the kernel, so it shows in full.

    With ``cpus`` the kernel runs once on each of them (the serving
    workload pins its client and its server to one CPU each) and a
    sample is the mean.
    """

    SPAN = 3

    def __init__(self, cpus: Optional[List[int]] = None) -> None:
        self.cpus = cpus
        self.samples: List[float] = []
        self._ops: List[tuple] = []
        self._sample()

    def _sample(self) -> None:
        if not self.cpus:
            t0 = time.perf_counter()
            _reference_kernel()
            self.samples.append(time.perf_counter() - t0)
            return
        home = os.sched_getaffinity(0)
        total = 0.0
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            _reference_kernel()
            total += time.perf_counter() - t0
        os.sched_setaffinity(0, home)
        self.samples.append(total / len(self.cpus))

    def record(self, wall_s: float, sample: bool = True) -> int:
        """Note an operation that just took ``wall_s``; time the kernel
        (unless ``sample`` is false) and return a handle for
        :meth:`ref_s`.  Start the next operation right after."""
        if sample:
            self._sample()
        self._ops.append((wall_s, len(self.samples) - 1))
        return len(self._ops) - 1

    def ref_s(self, handle: int) -> float:
        """The operation's time at reference speed.  Ask once the
        workload is over, so the samples after it exist."""
        wall_s, at = self._ops[handle]
        window = sorted(self.samples[max(0, at - self.SPAN):at + self.SPAN])
        return wall_s * REF_KERNEL_S / window[len(window) // 2]

    def resolve(self, ops: List[dict]) -> None:
        """Fill each op record's ``ref_s`` from its ``handle``."""
        for op in ops:
            op["ref_s"] = self.ref_s(op.pop("handle"))

    def summary(self) -> dict:
        ordered = sorted(self.samples)
        kernel = ordered[len(ordered) // 2]
        return {"kernel_s": kernel, "host_speed": REF_KERNEL_S / kernel}


def table_iv_configs():
    return [table_iv_config(point) for point in TABLE_IV]


def sweep_configs(names: List[str]):
    """Table IV points with the LLC/L2 sizes of :func:`design_space`."""
    space = {name: (point, llc, l2) for name, point, llc, l2 in design_space()}
    configs = []
    for name in names:
        point, llc, l2 = space[name]
        base = table_iv_config(point)
        configs.append(dataclasses.replace(
            base,
            name=name,
            llc=dataclasses.replace(base.llc, size_bytes=llc),
            l2=dataclasses.replace(base.l2, size_bytes=l2),
        ))
    return configs


def _ref(label: str) -> BenchmarkRef:
    suite, name = label.split(".", 1)
    return BenchmarkRef(suite, name)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _error(errors: List[str], what: str) -> None:
    errors.append(f"{what}: {traceback.format_exc(limit=3)}")


def _timed_passes(args: dict, run_pass) -> float:
    """Run ``run_pass(index)`` until ``args["target_s"]`` of it has run.

    Every pass starts with StatStack's stack-distance memo empty, so each
    repeats the same cold work; one pass runs when no target is given.
    ``run_pass`` returns the wall seconds its operations took; the sum
    over passes is returned.
    """
    target = args.get("target_s", 0.0)
    timed = 0.0
    index = 0
    while index == 0 or timed < target:
        sd_cache_clear()
        timed += run_pass(index)
        index += 1
    return timed


class _Setup:
    """Set-up time, the interpreter's start included, in wall and in
    reference seconds; each step is scaled by the kernel samples around
    it, the import by the first ones."""

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.handles = [speed.record(IMPORT_S, sample=False)]
        self.wall_s = IMPORT_S

    def add(self, wall_s: float) -> None:
        self.wall_s += wall_s
        self.handles.append(self.speed.record(wall_s))

    def result(self) -> dict:
        return {
            "setup_s": self.wall_s,
            "setup_ref_s": sum(self.speed.ref_s(h) for h in self.handles),
        }


def _outputs_for(out: dict, index: int) -> dict:
    """Where pass ``index`` records its outputs: the first pass's are
    ``out["outputs"]``, later ones go to ``out["repeats"]``."""
    if index == 0:
        return out["outputs"]
    out["repeats"].append({})
    return out["repeats"][-1]


def _session_counts(session: Session, acc: Dict[str, int]) -> None:
    health = session.health()
    for name, block in (("ilp", "ilp_cache"), ("prep", "prep_cache")):
        acc[f"{name}_hits"] = acc.get(f"{name}_hits", 0) + health[block]["hits"]
        acc[f"{name}_misses"] = (
            acc.get(f"{name}_misses", 0) + health[block]["misses"]
        )


def _profile_cold(label, scale, tr: Tracer, traced: bool, acc, out):
    """Spec -> key -> expand -> profile with a fresh session.

    Untraced, profiling is the single public call a user makes; traced,
    the same work is split into the calls ``profile_workload`` makes
    inside.  Returns ``(spec, trace, profile)``.
    """
    session = Session.ephemeral()
    if traced:
        with tr.span("workloads.spec"):
            spec = build_workload(_ref(label), scale)
        with tr.span("store.key"):
            ProfileStore.trace_key(spec)
        with tr.span("workloads.expand"):
            trace = session.traces.engine.expand(spec)
        with tr.span("profiler.profile"):
            profile = profile_workload(trace, CHUNK, session=session)
    else:
        spec = build_workload(_ref(label), scale)
        profile = profile_workload(spec, CHUNK, session=session)
        trace = session.traces.get(spec)  # resident since profiling
    out["expanded_instructions"] = (
        out.get("expanded_instructions", 0) + trace.n_instructions
    )
    _session_counts(session, acc)
    return spec, trace, profile


# -- workloads ---------------------------------------------------------------


def suite_cold(args: dict, tr: Tracer) -> dict:
    """Cold spec -> trace -> profile -> 5 predictions, per benchmark."""
    scale, traced = args["scale"], args["traced"]
    configs = table_iv_configs()
    speed = HostSpeed()
    setup = _Setup(speed)
    out: dict = {"ops": [], "outputs": {}}
    errors: List[str] = []
    acc: Dict[str, int] = {}
    profiles = {}
    timed = 0.0
    for label in args["labels"]:
        t0 = time.perf_counter()
        try:
            with tr.span("op", label=label):
                _, _, profile = _profile_cold(
                    label, scale, tr, traced, acc, out
                )
                cycles = {}
                for cfg in configs:
                    with tr.span("core.predict"):
                        cycles[cfg.name] = predict(profile, cfg).total_cycles
        except Exception:
            _error(errors, label)
            continue
        finally:
            lat = time.perf_counter() - t0
            handle = speed.record(lat)
            timed += lat
        out["ops"].append({
            "label": label,
            "lat_s": lat,
            "handle": handle,
            "instructions": profile.n_instructions,
            "predictions": len(cycles),
        })
        profiles[label] = profile
        out["outputs"][label] = {"predictions": cycles}
    out.update(timed_s=timed, passes=1)
    speed.resolve(out["ops"])
    out.update(setup.result())
    out.update(speed.summary())
    for label, profile in profiles.items():
        out["outputs"][label]["profile"] = profile_digest(profile)
    out.update(errors=errors, counters=acc)
    return out


def dse_sweep(args: dict, tr: Tracer) -> dict:
    """Profile + save the suite (set-up); load + predict many (timed)."""
    scale, traced = args["scale"], args["traced"]
    configs = sweep_configs(args["configs"])
    store = ProfileStore(args["store_dir"])
    out: dict = {"ops": [], "outputs": {}}
    errors: List[str] = []
    acc: Dict[str, int] = {}
    keys: Dict[str, str] = {}
    sizes: Dict[str, int] = {}
    speed = HostSpeed()
    setup = _Setup(speed)
    for label in args["labels"]:
        t0 = time.perf_counter()
        try:
            with tr.span("op", label=label, phase="setup"):
                spec, _, profile = _profile_cold(
                    label, scale, tr, traced, acc, out
                )
                key = ProfileStore.profile_key(label, spec.seed, scale, CHUNK)
                with tr.span("store.save_profile"):
                    path = store.save_profile(key, profile)
        except Exception:
            _error(errors, f"{label} set-up")
            continue
        finally:
            setup.add(time.perf_counter() - t0)
        keys[label] = key
        sizes[label] = path.stat().st_size
        out["outputs"][label] = {
            "profile": profile_digest(profile), "predictions": {},
        }

    bytes_read = 0

    def sweep(index: int) -> float:
        nonlocal bytes_read
        outputs = _outputs_for(out, index)
        wall = 0.0
        for label in args["labels"]:
            if label not in keys:
                continue
            t0 = time.perf_counter()
            cycles = {}
            try:
                with tr.span("op", label=label):
                    with tr.span("store.load_profile"):
                        profile = store.load_profile(keys[label])
                    if profile is None:
                        raise RuntimeError("stored profile did not load")
                    bytes_read += sizes[label]
                    for cfg in configs:
                        with tr.span("core.predict"):
                            cycles[cfg.name] = predict(
                                profile, cfg
                            ).total_cycles
            except Exception:
                _error(errors, label)
                continue
            finally:
                lat = time.perf_counter() - t0
                handle = speed.record(lat)
                wall += lat
            out["ops"].append({
                "label": label,
                "pass": index,
                "lat_s": lat,
                "handle": handle,
                "instructions": profile.n_instructions * len(cycles),
                "predictions": len(cycles),
            })
            outputs.setdefault(label, {})["predictions"] = cycles
        return wall

    out["repeats"] = []
    out["timed_s"] = _timed_passes(args, sweep)
    out["passes"] = 1 + len(out["repeats"])
    speed.resolve(out["ops"])
    out.update(setup.result())
    out.update(speed.summary())
    out.update(errors=errors, counters=acc, bytes_read=bytes_read)
    return out


def validate_sim(args: dict, tr: Tracer) -> dict:
    """Expand + profile (set-up); simulate + predict on ``base`` (timed)."""
    scale, traced = args["scale"], args["traced"]
    base = table_iv_config("base")
    out: dict = {"ops": [], "outputs": {}}
    errors: List[str] = []
    acc: Dict[str, int] = {}
    inputs = {}
    speed = HostSpeed()
    setup = _Setup(speed)
    for label in args["labels"]:
        t0 = time.perf_counter()
        try:
            with tr.span("op", label=label, phase="setup"):
                _, trace, profile = _profile_cold(
                    label, scale, tr, traced, acc, out
                )
        except Exception:
            _error(errors, f"{label} set-up")
            continue
        finally:
            setup.add(time.perf_counter() - t0)
        inputs[label] = (trace, profile)
        out["outputs"][label] = {"profile": profile_digest(profile)}

    def validate(index: int) -> float:
        outputs = _outputs_for(out, index)
        wall = 0.0
        for label in args["labels"]:
            if label not in inputs:
                continue
            trace, profile = inputs[label]
            t0 = time.perf_counter()
            try:
                with tr.span("op", label=label):
                    with tr.span("simulator.simulate"):
                        sim = simulate(trace, base, CHUNK)
                    with tr.span("core.predict"):
                        cycles = predict(profile, base).total_cycles
            except Exception:
                _error(errors, label)
                continue
            finally:
                lat = time.perf_counter() - t0
                handle = speed.record(lat)
                wall += lat
            out["ops"].append({
                "label": label,
                "pass": index,
                "lat_s": lat,
                "handle": handle,
                "instructions": sim.n_instructions,
                "predictions": 1,
            })
            outputs.setdefault(label, {}).update(
                predictions={"base": cycles},
                simulation=simulation_digest(sim),
                sim_cycles=sim.total_cycles,
            )
        return wall

    out["repeats"] = []
    out["timed_s"] = _timed_passes(args, validate)
    out["passes"] = 1 + len(out["repeats"])
    speed.resolve(out["ops"])
    out.update(setup.result())
    out.update(speed.summary())
    out.update(errors=errors, counters=acc)
    return out


# -- serving -------------------------------------------------------------------


def _predict_path(label: str, point: str, scale: float) -> str:
    return f"/v1/predict?benchmark={label}&config={point}&scale={scale}"


def _hot_set(labels: List[str], scale: float) -> List[tuple]:
    return [
        (f"{label}/{point}", http_get(_predict_path(label, point, scale)))
        for label in labels for point in TABLE_IV
    ]


def _shuffled_rounds(items: List[tuple], rng: random.Random) -> Iterator:
    """Endless seeded shuffles: every key recurs once per round."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


class _Server:
    """``repro serve`` as a subprocess over its own store directory,
    pinned to ``cpu`` when one is given."""

    def __init__(self, store_dir: str, cpu: Optional[int] = None) -> None:
        self.log_path = Path(store_dir) / "serve.log"
        Path(store_dir).mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = store_dir
        env["PYTHONPATH"] = str(SRC)
        self._log = self.log_path.open("w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1"],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
            preexec_fn=(
                None if cpu is None
                else lambda: os.sched_setaffinity(0, {cpu})
            ),
        )
        try:
            self.port = self._wait_for_port(timeout=60.0)
        except (RuntimeError, TimeoutError):
            self.stop()
            raise

    def _wait_for_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited early:\n{self.log_path.read_text()}"
                )
            for line in self.log_path.read_text().splitlines():
                if "service.listening" in line and "url=http://" in line:
                    url = line.split("url=http://", 1)[1].split()[0]
                    return int(url.rsplit(":", 1)[1])
            time.sleep(0.01)
        raise TimeoutError("server did not report its port")

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK"
        )

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _get(host: str, port: int, path: str) -> bytes:
    """One request on a fresh connection (scrapes, outside timed phases)."""
    with LoadGenerator(host, port, 1) as gen:
        result = gen.closed_loop(iter([("scrape", http_get(path))]))
    if result.ok != 1:
        raise RuntimeError(f"GET {path} failed: {result.statuses}")
    return result.bodies["scrape"]


def _stage_sums(metrics_text: str) -> Dict[str, float]:
    """``repro_stage_seconds_sum`` per stage from Prometheus text."""
    sums = {}
    prefix = 'repro_stage_seconds_sum{stage="'
    for line in metrics_text.splitlines():
        if line.startswith(prefix):
            stage, _, value = line[len(prefix):].partition('"} ')
            sums[stage] = float(value)
    return sums


def _engine_counts(health: dict) -> Dict[str, int]:
    cache = health["engine"]["result_cache"]
    return {
        "result_hits": cache["hits"],
        "result_misses": cache["misses"],
        "collapsed": health["coalescer"].get("collapsed", 0),
    }


def serve_warm(args: dict, tr: Tracer) -> dict:
    """Warm-fill a server (set-up); closed then open loop (timed)."""
    scale, traced = args["scale"], args["traced"]
    conns = args["connections"]
    rng = random.Random(args["rng_seed"])
    hot = _hot_set(args["labels"], scale)
    out: dict = {"outputs": {}}
    errors: List[str] = []
    store_dir = args["store_dir"]
    host = "127.0.0.1"
    # Client and server each get a CPU of their own, so neither waits
    # for the other's time slice; one CPU runs both.
    cpus = sorted(os.sched_getaffinity(0))[:2]
    if len(cpus) == 2:
        os.sched_setaffinity(0, {cpus[0]})
    else:
        cpus = []
    speed = HostSpeed(cpus)
    setup = _Setup(speed)
    start = time.perf_counter()
    server = _Server(store_dir, cpus[1] if cpus else None)
    try:
        with LoadGenerator(host, server.port, conns) as gen:
            order = list(hot)
            rng.shuffle(order)
            fill = gen.closed_loop(iter(order))
            setup.add(time.perf_counter() - start)

            if traced:
                miss = ("404", http_get("/bench-404"))
                ceiling = gen.closed_loop(
                    iter(lambda: miss, None), args["ceiling_seconds"]
                )
            before = {"cpu_s": server.cpu_s()}
            if traced:
                before["stages"] = _stage_sums(
                    _get(host, server.port, "/metrics").decode()
                )
                before.update(_engine_counts(
                    json.loads(_get(host, server.port, "/healthz"))
                ))
            requests = _shuffled_rounds(hot, rng)
            closed = LoadResult()
            windows = []
            while closed.wall_s < args["closed_seconds"]:
                window = gen.closed_loop(
                    requests,
                    min(CLOSED_WINDOW_S,
                        args["closed_seconds"] - closed.wall_s),
                )
                windows.append(speed.record(window.wall_s))
                closed.extend(window)
            # The open loop's schedule is not interrupted: the kernel
            # times on either side of it scale its latencies.
            opened = gen.open_loop(requests, args["rate"], args["open_seconds"])
            open_handle = speed.record(1.0)
            for _ in range(HostSpeed.SPAN - 1):
                speed.record(0.0)
            after = {"cpu_s": server.cpu_s()}
            if traced:
                after["stages"] = _stage_sums(
                    _get(host, server.port, "/metrics").decode()
                )
                after.update(_engine_counts(
                    json.loads(_get(host, server.port, "/healthz"))
                ))
        out["rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()

    bodies: Dict[str, bytes] = {}
    for phase in (fill, closed, opened):
        for key, body in phase.bodies.items():
            bodies.setdefault(key, body)
    out["served"] = {
        "fill_ok": fill.ok, "fill_failed": fill.failed,
        "closed_ok": closed.ok, "closed_failed": closed.failed,
        "closed_counts": closed.counts,
        "closed_wall_s": closed.wall_s, "closed_cpu_s": closed.cpu_s,
        "closed_ref_s": sum(speed.ref_s(h) for h in windows),
        "open_scale": speed.ref_s(open_handle),
        "closed_latencies_s": closed.latencies_s,
        "open_ok": opened.ok, "open_failed": opened.failed,
        "open_wall_s": opened.wall_s, "open_cpu_s": opened.cpu_s,
        "open_latencies_s": opened.latencies_s,
        "open_lags_s": opened.lags_s,
        "server_cpu_s": after["cpu_s"] - before["cpu_s"],
        "key_instructions": {},
    }
    if traced:
        out["served"]["ceiling_rps"] = ceiling.sent / ceiling.wall_s
        out["served"]["stage_s"] = {
            stage: after["stages"][stage] - before["stages"].get(stage, 0.0)
            for stage in after["stages"]
        }
        out["served"]["engine"] = {
            k: after[k] - before[k]
            for k in ("result_hits", "result_misses", "collapsed")
        }
    out.update(timed_s=closed.wall_s + opened.wall_s, passes=1)
    out.update(setup.result())
    out.update(speed.summary())

    # Each distinct body is checked against the in-process engine once
    # per run (the first round), reading the profiles the server stored.
    engine = None
    if args["check_engine"]:
        from repro.service.engine import PredictionEngine

        engine = PredictionEngine(store=ProfileStore(store_dir))
    for key, _ in hot:
        label, point = key.split("/")
        body = bodies.get(key)
        served = json.loads(body) if body is not None else None
        out["outputs"].setdefault(label, {"predictions": {}})
        out["outputs"][label]["predictions"][point] = (
            served["total_cycles"] if served is not None else None
        )
        if served is None:
            continue
        out["served"]["key_instructions"][key] = sum(
            t["instructions"] for t in served["threads"]
        )
        if engine is None:
            continue
        try:
            local = engine.predict(label, point, scale=scale)
        except Exception:
            _error(errors, f"{key} in-process")
            continue
        if served != local:
            errors.append(f"{key}: served body differs from in-process")
    out.update(errors=errors)
    return out


WORKLOADS = {
    "suite_cold": suite_cold,
    "dse_sweep": dse_sweep,
    "validate_sim": validate_sim,
    "serve_warm": serve_warm,
}


def main() -> None:
    args = json.loads(sys.argv[1])
    tr = Tracer(args["traced"])
    out = WORKLOADS[args["workload"]](args, tr)
    out.setdefault("rss_mb", _rss_mb())
    out["import_s"] = IMPORT_S
    out["spans"] = tr.spans
    out["ilp_pools"] = KERNEL_STATS.snapshot()["pools"]
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
