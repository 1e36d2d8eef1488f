"""RPPM benchmark: one command, four workloads, golden-checked.

Run from the repository root::

    python3 perfbench/run.py --workload suite_cold --seed 1 --seconds 12 --trace 0

Each workload is a sequence of rounds; every round is a fresh
``perfbench/child.py`` interpreter that sets up its inputs and runs the
timed part once, so module-level memos start empty and peak RSS is the
round's own.  Rounds repeat until ``--seconds`` of timed work (and at
least three rounds) have run; within a round, ``dse_sweep`` and
``validate_sim`` repeat their timed part in passes.  Each benchmark's
latency is its median over all passes, in reference seconds: wall time
scaled by how fast the host ran a fixed reference kernel just then
(see ``child.HostSpeed``).

``--trace 0`` prints the end-to-end metrics from untraced rounds.
``--trace 1`` alternates traced and untraced rounds: traced rounds time
every public call from the benchmark's own code and give the per-layer
ledger; the untraced ones give the tracing overhead.  Metric
definitions per workload are in ``perfbench/README.md``.

Every model output is checked against ``perfbench/golden.json``; each
mismatch, non-200 response or raised error is a failed operation.  The
last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The program is
imported from ``src/`` next to this directory; without it ``run.py``
exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from golden import (  # noqa: E402
    FULL_SCALE,
    HALF_SCALE,
    TABLE_IV,
    Checker,
    combined_digest,
    design_space,
    load,
    rppm_errors_pct,
    scale_key,
)

#: Workload -> the scale its benchmarks run at.
SCALES = {
    "suite_cold": FULL_SCALE, "dse_sweep": HALF_SCALE,
    "validate_sim": HALF_SCALE, "serve_warm": HALF_SCALE,
}

#: Rounds per run, at least: set-up time is the median of this many.
#: ``dse_sweep`` and ``validate_sim`` repeat their timed part in passes
#: until a round has timed ``--seconds / MIN_ROUNDS``.
MIN_ROUNDS = 3
#: No round starts after this much wall time; the run must end in 180 s.
START_BUDGET_S = 110.0
RUN_BUDGET_S = 170.0
#: Design-space sweep: configs per profile (the 5 Table IV points plus
#: this many minus 5 drawn from the LLC/L2 variants).
DSE_CONFIGS = 40
#: Serving: connections (at most the CPU count), open-loop offered rate
#: and the calibration phase against the server's cheapest reply.
MAX_CONNECTIONS = 2
OPEN_RATE = 400.0
CEILING_S = 0.5
#: A traced run flags a ledger whose layers cover less than this.
COVERAGE_FLOOR = 0.9

#: Layer spans recorded by child.py, in pipeline order.
LAYERS = (
    "workloads.spec", "store.key", "workloads.expand", "profiler.profile",
    "store.save_profile", "store.load_profile", "core.predict",
    "simulator.simulate",
)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (``q`` in 0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))
    return ordered[rank]


# -- rounds ------------------------------------------------------------------


def _round_args(
    workload: str, seed: int, index: int, traced: bool, seconds: float,
    tmp: Path, suite: List[str],
) -> dict:
    rng = random.Random(f"{workload}:{seed}:{index}")
    labels = list(suite)
    rng.shuffle(labels)
    args = {"workload": workload, "traced": traced, "labels": labels,
            "scale": SCALES[workload]}
    if workload == "dse_sweep":
        variants = [name for name, *_ in design_space()
                    if name not in TABLE_IV]
        drawn = random.Random(f"dse:{seed}").sample(
            variants, DSE_CONFIGS - len(TABLE_IV)
        )
        args.update(configs=list(TABLE_IV) + drawn,
                    store_dir=str(tmp / f"store-{index}"),
                    target_s=seconds / MIN_ROUNDS)
    elif workload == "validate_sim":
        args.update(target_s=seconds / MIN_ROUNDS)
    elif workload == "serve_warm":
        per_round = seconds / MIN_ROUNDS
        args.update(
            store_dir=str(tmp / f"store-{index}"),
            connections=min(MAX_CONNECTIONS, os.cpu_count() or 1),
            rate=OPEN_RATE, ceiling_seconds=CEILING_S,
            check_engine=index == 0,
            closed_seconds=per_round / 2, open_seconds=per_round / 2,
            rng_seed=rng.getrandbits(32),
        )
    return args


def run_child(args: dict, timeout: float, tmp: Path) -> dict:
    """One round of ``child.py`` in a fresh interpreter; its result."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(args)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=str(ROOT), start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # The child leads its own process group (a server included).
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"round timed out after {timeout:.0f} s")
    finally:
        # Whatever the child left behind in its group (a server whose
        # stop was cut short) goes with it.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(
            f"round exited {proc.returncode}:\n{err[-2000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def run_rounds(
    workload: str, seed: int, seconds: float, trace: bool, tmp: Path,
    suite: List[str],
) -> Tuple[List[Tuple[bool, dict]], List[str]]:
    """``[(traced, round result)]`` and the rounds that failed outright.

    ``suite`` lists every benchmark label; each round takes them all, in
    an order drawn from the seed.
    """
    rounds: List[Tuple[bool, dict]] = []
    crashed: List[str] = []
    start = time.monotonic()
    timed = 0.0
    index = 0
    # Serving rounds time exactly ``seconds / MIN_ROUNDS`` each; the
    # tolerance keeps float rounding from adding a fourth.
    while index < MIN_ROUNDS or timed < 0.99 * seconds:
        elapsed = time.monotonic() - start
        if elapsed > START_BUDGET_S:
            break
        traced = trace and index % 2 == 0
        args = _round_args(
            workload, seed, index, traced, seconds, tmp, suite
        )
        try:
            result = run_child(args, RUN_BUDGET_S - elapsed, tmp)
        except (RuntimeError, ValueError) as exc:
            crashed.append(f"round {index}: {exc}")
            break
        finally:
            if "store_dir" in args:
                shutil.rmtree(args["store_dir"], ignore_errors=True)
        rounds.append((traced, result))
        timed += result["timed_s"]
        index += 1
    return rounds, crashed


# -- checks ------------------------------------------------------------------


def check_round(workload: str, result: dict, checker: Checker) -> None:
    scale = SCALES[workload]
    for error in result["errors"]:
        checker.fail(workload, error.splitlines()[0])
    if workload == "serve_warm":
        served = result["served"]
        checker.attempted += (
            served["fill_ok"] + served["fill_failed"] + served["closed_ok"]
            + served["closed_failed"] + served["open_ok"]
            + served["open_failed"]
        )
        checker.failed += (
            served["fill_failed"] + served["closed_failed"]
            + served["open_failed"]
        )
    # Every pass's outputs are checked, the repeated passes' too.
    for outputs in [result["outputs"], *result.get("repeats", [])]:
        for label, out in sorted(outputs.items()):
            if "profile" in out:
                checker.profile(scale, label, out["profile"])
            for config, cycles in sorted(out.get("predictions", {}).items()):
                checker.prediction(scale, label, config, cycles)
            if "simulation" in out:
                checker.simulation(scale, label, out["simulation"])


def rppm_error(workload: str, result: dict, golden: dict) -> Tuple[float, float]:
    """RPPM vs simulator on ``base`` over the benchmarks predicted."""
    predicted, simulated = {}, {}
    reference = golden["sim_cycles"][scale_key(SCALES[workload])]
    for label, out in result["outputs"].items():
        cycles = out.get("predictions", {}).get("base")
        if cycles is None:
            continue
        predicted[label] = cycles
        simulated[label] = out.get("sim_cycles", reference.get(label))
    return rppm_errors_pct(predicted, simulated)


# -- metrics -----------------------------------------------------------------


def _served_instructions(served: dict) -> int:
    per_key = served["key_instructions"]
    return sum(n * per_key.get(k, 0) for k, n in served["closed_counts"].items())


def _closed_rps(rounds: List[dict]) -> float:
    served = [r["served"] for r in rounds]
    return (sum(s["closed_ok"] for s in served)
            / sum(s["closed_ref_s"] for s in served))


def op_medians(
    rounds: List[dict], field: str = "ref_s"
) -> Dict[str, Tuple[float, dict]]:
    """Per benchmark: its median latency over every pass of every round,
    in reference seconds (``field="lat_s"``: wall seconds), and one of
    its operation records (the work it does is the same in each).
    A median per benchmark drops the passes a burst of load slowed.
    """
    latencies: Dict[str, List[float]] = {}
    records: Dict[str, dict] = {}
    for r in rounds:
        for op in r["ops"]:
            latencies.setdefault(op["label"], []).append(op[field])
            records[op["label"]] = op
    return {
        label: (median(lats), records[label])
        for label, lats in latencies.items()
    }


def suite_pass_s(rounds: List[dict]) -> float:
    """Reference seconds of one pass over the suite: the sum of
    per-benchmark median latencies."""
    return sum(lat for lat, _ in op_medians(rounds).values())


def end_to_end(
    workload: str, rounds: List[dict], golden: dict, wall: bool = False
) -> dict:
    """End-to-end metrics; times are in reference seconds unless
    ``wall`` asks for the wall-clock ones (printed alongside)."""
    errors = [rppm_error(workload, r, golden) for r in rounds]
    values = {
        "setup_s": median(
            r["setup_s" if wall else "setup_ref_s"] for r in rounds
        ),
        "peak_rss_mb": median(r["rss_mb"] for r in rounds),
        "rppm_err_avg_pct": median(e[0] for e in errors),
        "rppm_err_max_pct": median(e[1] for e in errors),
    }
    if workload == "serve_warm":
        served = [r["served"] for r in rounds]
        closed_s = sum(
            s["closed_wall_s" if wall else "closed_ref_s"] for s in served
        )
        rps = sum(s["closed_ok"] for s in served) / closed_s
        values.update(
            pipeline_instr_per_s=sum(
                _served_instructions(s) for s in served
            ) / closed_s,
            predictions_per_s=rps,
            rps=rps,
            p50_ms=1e3 * median(
                lat * (1.0 if wall else s["open_scale"])
                for s in served for lat in s["open_latencies_s"]
            ),
        )
    else:
        ops = op_medians(rounds, "lat_s" if wall else "ref_s")
        pass_s = sum(lat for lat, _ in ops.values())
        values.update(
            pipeline_instr_per_s=sum(
                op["instructions"] for _, op in ops.values()
            ) / pass_s,
            predictions_per_s=sum(
                op["predictions"] for _, op in ops.values()
            ) / pass_s,
            rps=len(ops) / pass_s,
            p50_ms=1e3 * median(lat for lat, _ in ops.values()),
        )
    return values


def layer_seconds(result: dict) -> Dict[str, Dict[str, float]]:
    """Self seconds per layer span, split into set-up and timed parts."""
    spans = result["spans"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: Dict[str, Dict[str, float]] = {"setup": {}, "timed": {}}
    for i, span in enumerate(spans):
        if span["name"] not in LAYERS:
            continue
        # Layer spans sit under a per-benchmark "op" span that says
        # whether it ran in set-up.
        op = spans[span["parent"]]
        part = out["setup" if op.get("phase") == "setup" else "timed"]
        own = span["end"] - span["start"] - child_time[i]
        part[span["name"]] = part.get(span["name"], 0.0) + own
    return out


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(
    workload: str, traced: List[dict], untraced: List[dict]
) -> Tuple[dict, List[dict]]:
    """Per-layer metrics and the per-round ledgers of traced rounds."""
    values: Dict[str, float] = {}
    ledgers = [layer_seconds(r) for r in traced]
    passes = [r["passes"] for r in traced]
    for layer in LAYERS:
        values[f"{layer}_s"] = median(
            led["setup"].get(layer, 0.0) + led["timed"].get(layer, 0.0) / n
            for led, n in zip(ledgers, passes)
        )
    counters = [r.get("counters", {}) for r in traced]
    values.update({
        "workloads.instructions": median(
            r.get("expanded_instructions", 0) for r in traced
        ),
        "store.bytes_read": median(
            r.get("bytes_read", 0) / n for r, n in zip(traced, passes)
        ),
        "profiler.ilp_pools": median(r["ilp_pools"] for r in traced),
        "profiler.ilp_cache_hit_rate": median(
            _rate(c.get("ilp_hits", 0), c.get("ilp_misses", 0))
            for c in counters
        ),
        "profiler.prep_hit_rate": median(
            _rate(c.get("prep_hits", 0), c.get("prep_misses", 0))
            for c in counters
        ),
    })
    everything = traced + untraced
    if workload == "serve_warm":
        served = [r["served"] for r in traced]
        per_req = [
            s["closed_ok"] + s["closed_failed"] + s["open_ok"]
            + s["open_failed"] for s in served
        ]
        for stage in ("route", "coalesce", "engine"):
            values[f"service.{stage}_s"] = median(
                s["stage_s"].get(stage, 0.0) / n
                for s, n in zip(served, per_req)
            )
        values.update({
            "service.cpu_us_per_req": median(
                1e6 * s["server_cpu_s"] / n for s, n in zip(served, per_req)
            ),
            "service.result_hit_rate": median(
                _rate(s["engine"]["result_hits"],
                      s["engine"]["result_misses"]) for s in served
            ),
            "service.single_flight_collapsed": median(
                s["engine"]["collapsed"] for s in served
            ),
            "loadgen.cpu_s": median(
                s["closed_cpu_s"] + s["open_cpu_s"] for s in served
            ),
            "loadgen.ceiling_rps": median(s["ceiling_rps"] for s in served),
            "loadgen.client_bound": float(any(
                s["closed_cpu_s"] >= 0.9 * s["closed_wall_s"] for s in served
            )),
            "loadgen.lag_p99_ms": 1e3 * quantile(
                [lag for s in served for lag in s["open_lags_s"]], 0.99
            ),
            "p99_ms": 1e3 * quantile(
                [lat * r["served"]["open_scale"] for r in everything
                 for lat in r["served"]["open_latencies_s"]], 0.99
            ),
            "layers.coverage": median(
                s["stage_s"].get("route", 0.0) / (
                    sum(s["closed_latencies_s"]) + sum(s["open_latencies_s"])
                ) for s in served
            ),
            "obs.trace_overhead_frac": _closed_rps(untraced)
            / _closed_rps(traced) - 1.0,
        })
        return values, ledgers
    predictions = [sum(op["predictions"] for op in r["ops"]) for r in traced]
    simulated = [
        sum(op["instructions"] for op in r["ops"])
        if workload == "validate_sim" else 0 for r in traced
    ]
    values.update({
        "core.predictions": median(
            p / n for p, n in zip(predictions, passes)
        ),
        "simulator.instructions": median(
            s / n for s, n in zip(simulated, passes)
        ),
        "sim_instr_per_s": median(
            s / led["timed"]["simulator.simulate"] if s else 0.0
            for s, led in zip(simulated, ledgers)
        ),
        "p99_ms": 1e3 * quantile(
            [op["ref_s"] for r in everything for op in r["ops"]], 0.99
        ),
        "layers.coverage": median(
            sum(led["timed"].values()) / r["timed_s"]
            for led, r in zip(ledgers, traced)
        ),
        "obs.trace_overhead_frac": (
            suite_pass_s(traced) / suite_pass_s(untraced) - 1.0
        ),
    })
    return values, ledgers


# -- reporting ---------------------------------------------------------------


def _served_line(served: dict) -> str:
    """A serving round's own closed-loop rate and open-loop median."""
    rps = served["closed_ok"] / served["closed_wall_s"]
    p50 = 1e3 * median(served["open_latencies_s"])
    return f", closed {rps:.0f} req/s, open p50 {p50:.3f} ms (wall)"


def provenance(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with path.open("rb") as fh:
            lines += sum(1 for _ in fh)
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_lines": lines,
        "REPRO_OBS": os.environ.get("REPRO_OBS", "on"),
        "seed": seed,
    }


def print_ledger(
    workload: str, ledgers: List[dict], traced: List[dict],
    values: dict,
) -> None:
    passes = median(r["passes"] for r in traced)
    print(f"ledger {workload}: median of {len(ledgers)} traced round(s), "
          f"{passes:g} timed pass(es) each")
    print(f"  {'layer':<22}{'setup s':>10}{'timed s':>10}{'timed %':>9}")
    timed_wall = median(r["timed_s"] for r in traced)
    for layer in LAYERS:
        setup = median(led["setup"].get(layer, 0.0) for led in ledgers)
        timed = median(led["timed"].get(layer, 0.0) for led in ledgers)
        if setup or timed:
            print(f"  {layer:<22}{setup:>10.4f}{timed:>10.4f}"
                  f"{100 * timed / timed_wall:>8.1f}%")
    if workload == "serve_warm":
        # Server stages nest (route > coalesce > engine); route over the
        # client-observed latency is the coverage.
        served = [r["served"] for r in traced]
        client_us = 1e6 * sum(
            sum(s["closed_latencies_s"]) + sum(s["open_latencies_s"])
            for s in served
        ) / sum(
            len(s["closed_latencies_s"]) + len(s["open_latencies_s"])
            for s in served
        )
        rows = [
            ("client latency", client_us),
            ("server route", 1e6 * values["service.route_s"]),
            ("  coalesce", 1e6 * values["service.coalesce_s"]),
            ("    engine", 1e6 * values["service.engine_s"]),
            ("server cpu", values["service.cpu_us_per_req"]),
        ]
        for name, us in rows:
            print(f"  {name:<22}{'':>10}{us:>10.1f} us/req")
    print(f"  {'timed wall':<22}{'':>10}{timed_wall:>10.4f}")
    coverage = values["layers.coverage"]
    print(f"  layers.coverage = {coverage:.3f}")
    if coverage < COVERAGE_FLOOR:
        print(f"  coverage short: {workload} layers cover "
              f"{100 * coverage:.1f}% of the timed part "
              f"(floor {100 * COVERAGE_FLOOR:.0f}%)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    golden = load()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = WORK / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        suite = sorted(golden["profiles"][scale_key(FULL_SCALE)])
        rounds, crashed = run_rounds(
            args.workload, args.seed, args.seconds, bool(args.trace), tmp,
            suite,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for message in crashed:
        print(f"crashed {message}", file=sys.stderr)
    if not rounds:
        print("error: no round completed", file=sys.stderr)
        return 1

    checker = Checker(golden)
    for _, result in rounds:
        check_round(args.workload, result, checker)
    checker.failed += len(crashed)
    checker.attempted += len(crashed)
    traced = [r for t, r in rounds if t]
    untraced = [r for t, r in rounds if not t]

    info = provenance(args.seed)
    print("provenance " + json.dumps(info, sort_keys=True))
    for index, (was_traced, r) in enumerate(rounds):
        print(f"round {index}{' traced' if was_traced else ''}: "
              f"set-up {r['setup_s']:.3f} s, timed {r['timed_s']:.3f} s "
              f"in {r['passes']} pass(es), "
              f"peak rss {r['rss_mb']:.1f} MB"
              + f", host at {r['host_speed']:.2f}x reference speed"
              + (_served_line(r["served"]) if "served" in r else ""))
    print(f"outputs digest {combined_digest(checker.outputs.items())} "
          f"({len(checker.outputs)} outputs, seed {args.seed})")
    for line in checker.mismatches:
        print(f"mismatch {line}")

    if args.trace:
        if not untraced or not traced:
            print("error: a traced run needs traced and untraced rounds",
                  file=sys.stderr)
            return 1
        values, ledgers = per_layer(args.workload, traced, untraced)
        print_ledger(args.workload, ledgers, traced, values)
        declared = spec["per_layer"]
        # A layer this workload does not load did no work.
        values = {**{m["name"]: 0.0 for m in declared}, **values}
    else:
        values = end_to_end(args.workload, untraced, golden)
        declared = spec["end_to_end"]
        wall = end_to_end(args.workload, untraced, golden, wall=True)
        print("wall-clock " + ", ".join(
            f"{m['name']} = {wall[m['name']]:.6g} {m['unit']}"
            for m in declared if wall[m["name"]] != values[m["name"]]
        ))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    # Every output and span, for comparing two commits on any seed.
    dump = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dump.write_text(json.dumps({
        "provenance": info,
        "outputs": checker.outputs,
        "metrics": metrics,
        "spans": [r["spans"] for r in traced],
    }))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
