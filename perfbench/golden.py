"""Golden model outputs: digests, the committed record, and its writer.

``golden.json`` pins what the pipeline computes for every input the
benchmark can draw, so a run counts each output that differs from the
record as a failed operation:

* ``profiles[scale][label]`` -- digest of ``WorkloadProfile.to_dict()``;
* ``predictions[scale][label][config]`` -- RPPM ``total_cycles``: the
  five Table IV points at full scale, and every config of
  :func:`design_space` (Table IV included) at half scale;
* ``simulations[scale][label]`` -- digest of the simulator's result on
  the ``base`` point, and ``sim_cycles[scale][label]`` its
  ``total_cycles``: the reference that RPPM's error is measured against.

Every seed only reorders these inputs or draws from the design space,
so one record covers all seeds.  Rewrite it (after a declared model
change) with::

    python3 perfbench/golden.py

This module imports the ``repro`` package only inside :func:`write`, so
``run.py`` can read the record without loading the program.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Tuple

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

#: Table IV design points, narrowest first.
TABLE_IV = ("smallest", "small", "base", "big", "biggest")
#: Scale of the cold suite pass.
FULL_SCALE = 1.0
#: Scale of the design-space sweep, the simulator validation and the
#: served hot set.
HALF_SCALE = 0.5
#: Last-level cache and L2 sizes the design-space sweep varies.  The
#: Table IV values (8 MiB, 256 KiB) are among them.
LLC_BYTES = (512 << 10, 1 << 20, 2 << 20, 8 << 20)
L2_BYTES = (64 << 10, 128 << 10, 256 << 10)


def scale_key(scale: float) -> str:
    return repr(float(scale))


def design_space() -> List[Tuple[str, str, int, int]]:
    """``(name, point, llc_bytes, l2_bytes)`` for every sweep config.

    Unmodified Table IV points keep their own name, so they share
    golden entries with the other half-scale workloads.
    """
    out = []
    for point in TABLE_IV:
        for llc in LLC_BYTES:
            for l2 in L2_BYTES:
                if llc == 8 << 20 and l2 == 256 << 10:
                    name = point
                else:
                    name = f"{point}-llc{llc >> 10}k-l2{l2 >> 10}k"
                out.append((name, point, llc, l2))
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def profile_digest(profile) -> str:
    """Digest of a profile's full serialized form."""
    return _sha(json.dumps(profile.to_dict(), sort_keys=True))


def simulation_digest(result) -> str:
    """Digest of a simulation's cycle count and per-thread statistics."""
    fields = [repr(float(result.total_cycles)), str(result.invalidations)]
    for t in result.threads:
        fields.append(
            f"{t.thread_id}:{t.instructions}:{t.active_cycles!r}:"
            f"{t.idle_cycles!r}:{t.branch_misses}:{t.fetch_misses}:"
            f"{t.long_loads}"
        )
    return _sha("|".join(fields))


def combined_digest(items: Iterable[Tuple[str, object]]) -> str:
    """One digest over ``(name, value)`` outputs, independent of order.

    Printed by every run so that two commits can be compared on any
    seed, including outputs the golden record does not hold.
    """
    return _sha("\n".join(f"{k}={v!r}" for k, v in sorted(items)))


def load() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


class Checker:
    """Compares outputs against the record and keeps the tally."""

    def __init__(self, golden: Mapping) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.outputs: Dict[str, object] = {}

    def _check(self, name: str, expected, actual) -> None:
        self.attempted += 1
        self.outputs[name] = actual
        if expected is None or expected != actual:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(
                    f"{name}: expected {expected!r}, got {actual!r}"
                )

    def profile(self, scale: float, label: str, digest: str) -> None:
        expected = self.golden["profiles"][scale_key(scale)].get(label)
        self._check(f"profile/{scale}/{label}", expected, digest)

    def prediction(
        self, scale: float, label: str, config: str, cycles: float
    ) -> None:
        table = self.golden["predictions"][scale_key(scale)].get(label, {})
        self._check(
            f"predict/{scale}/{label}/{config}", table.get(config), cycles
        )

    def simulation(self, scale: float, label: str, digest: str) -> None:
        expected = self.golden["simulations"][scale_key(scale)].get(label)
        self._check(f"simulate/{scale}/{label}", expected, digest)

    def fail(self, name: str, reason: str) -> None:
        """Count an operation that raised or returned no output."""
        self.attempted += 1
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(f"{name}: {reason}")


def rppm_errors_pct(
    predicted: Mapping[str, float], simulated: Mapping[str, float]
) -> Tuple[float, float]:
    """Average and maximum absolute error of RPPM against the simulator,
    in percent, over the benchmarks in ``predicted``."""
    errs = [
        abs(predicted[label] - simulated[label]) / simulated[label] * 100.0
        for label in predicted
    ]
    if not errs:
        raise ValueError("no predictions to score")
    return sum(errs) / len(errs), max(errs)


def write() -> None:
    """Recompute every golden output with the program under ``src/``."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro import predict, profile_workload, simulate
    from repro.core.session import Session
    from repro.experiments.suites import build_workload, full_suite
    from repro.workloads.engine import default_engine

    sys.path.insert(0, str(HERE))
    from child import sweep_configs, table_iv_configs

    record: dict = {
        "profiles": {}, "predictions": {}, "simulations": {},
        "sim_cycles": {},
    }
    plans = [
        (FULL_SCALE, table_iv_configs()),
        (HALF_SCALE, sweep_configs([name for name, *_ in design_space()])),
    ]
    for scale, configs in plans:
        key = scale_key(scale)
        for part in record.values():
            part[key] = {}
        for ref in full_suite():
            spec = build_workload(ref, scale)
            trace = default_engine().expand(spec)
            profile = profile_workload(trace, session=Session.ephemeral())
            record["profiles"][key][ref.label] = profile_digest(profile)
            record["predictions"][key][ref.label] = {
                cfg.name: predict(profile, cfg).total_cycles
                for cfg in configs
            }
            base = next(c for c in configs if c.name == "base")
            sim = simulate(trace, base)
            record["sim_cycles"][key][ref.label] = sim.total_cycles
            if scale == HALF_SCALE:
                record["simulations"][key][ref.label] = (
                    simulation_digest(sim)
                )
            print(f"{ref.label} @ {scale}", file=sys.stderr)
    with GOLDEN_PATH.open("w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write()
