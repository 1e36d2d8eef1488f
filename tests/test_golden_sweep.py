"""RPPM's design-space sweep reproduces the golden record exactly.

``perfbench/golden.json`` pins the ``total_cycles`` of every half-scale
suite profile on every config of ``design_space()`` (the five Table IV
points with four LLC and three L2 sizes each).  This profiles
``rodinia.nn`` at half scale and checks all 60 predictions for exact
equality, so a last-ulp drift in Eq. 1 or in the DES replay fails
tier-1.  The record is only read here; it is rewritten by
``perfbench/golden.py`` after a declared model change.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro import predict, profile_workload
from repro.arch.presets import table_iv_config
from repro.core.session import Session
from repro.experiments.suites import BenchmarkRef, build_workload

GOLDEN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "golden.py"
LABEL = "rodinia.nn"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location(
        "perfbench_golden", GOLDEN_PY
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_config(name: str, point: str, llc: int, l2: int):
    base = table_iv_config(point)
    return dataclasses.replace(
        base,
        name=name,
        llc=dataclasses.replace(base.llc, size_bytes=llc),
        l2=dataclasses.replace(base.l2, size_bytes=l2),
    )


def test_design_space_predictions_match_golden(golden):
    scale = golden.HALF_SCALE
    record = golden.load()
    key = golden.scale_key(scale)
    profile = profile_workload(
        build_workload(BenchmarkRef(*LABEL.split(".")), scale),
        session=Session.ephemeral(),
    )
    assert golden.profile_digest(profile) == record["profiles"][key][LABEL]
    expected = record["predictions"][key][LABEL]
    space = golden.design_space()
    assert len(space) == 60
    mismatches = []
    for name, point, llc, l2 in space:
        cycles = predict(profile, sweep_config(name, point, llc, l2))
        if cycles.total_cycles != expected[name]:
            mismatches.append((name, cycles.total_cycles, expected[name]))
    assert mismatches == []
