"""Self-test of the benchmark's correctness check.

Runs two real rounds on one small benchmark -- a cold profile with its
five Table IV predictions, and a simulation with its prediction -- and
checks them against ``golden.json``: no output may fail.  It then
perturbs one output of each kind and requires the check to count
exactly that output as failed.  Run from the repository root::

    python3 perfbench/check_golden.py

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from typing import List

import run
from golden import Checker, load

LABEL = "rodinia.nn"


def _round(workload: str) -> dict:
    args = {"workload": workload, "traced": False, "labels": [LABEL],
            "scale": run.SCALES[workload]}
    return run.run_child(args, timeout=120, tmp=run.WORK / "selftest")


def _failures(workload: str, result: dict, golden: dict) -> Checker:
    checker = Checker(golden)
    run.check_round(workload, result, checker)
    return checker


def main() -> int:
    golden = load()
    problems: List[str] = []
    cases = [
        ("suite_cold", "profile", lambda o: o.update(profile="0" * 16)),
        ("suite_cold", "prediction",
         lambda o: o["predictions"].update(
             base=o["predictions"]["base"] * (1 + 1e-12))),
        ("validate_sim", "simulation",
         lambda o: o.update(simulation="0" * 16)),
    ]
    try:
        rounds = {w: _round(w) for w in ("suite_cold", "validate_sim")}
    finally:
        shutil.rmtree(run.WORK / "selftest", ignore_errors=True)
    for workload, result in rounds.items():
        clean = _failures(workload, result, golden)
        if clean.failed or not clean.attempted:
            problems.append(
                f"{workload}: clean round failed {clean.failed} of "
                f"{clean.attempted}: {clean.mismatches}"
            )
    for workload, kind, perturb in cases:
        result = copy.deepcopy(rounds[workload])
        perturb(result["outputs"][LABEL])
        checked = _failures(workload, result, golden)
        if checked.failed != 1:
            problems.append(
                f"{workload}: perturbed {kind} gave {checked.failed} "
                "failures, expected 1"
            )
        else:
            print(f"caught perturbed {kind}: {checked.mismatches[0]}")
    for problem in problems:
        print(f"FAIL {problem}")
    print(json.dumps({"ok": not problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
