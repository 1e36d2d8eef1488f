"""Store keys are stable: the one-pass encoder behind ``fingerprint``
hashes exactly the bytes the original two-pass canonicalizer did.

Every persisted artifact is addressed by one of these digests, so a
key that drifts orphans every store written before it.  The oracle
below is the original canonicalizer, kept here as an executable spec;
the pinned literals were computed by it and guard the oracle itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum, IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.presets import TABLE_IV, table_iv_config
from repro.experiments.store import (
    SCHEMA_VERSION,
    ProfileStore,
    config_fingerprint,
    fingerprint,
)
from repro.experiments.suites import BenchmarkRef, build_workload, full_suite
from tests.conftest import barrier_workload


def _canonical(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            **{
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def _oracle(obj) -> str:
    payload = json.dumps(
        _canonical(obj), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _oracle_trace_key(spec) -> str:
    return _oracle({
        "kind": "trace", "schema": SCHEMA_VERSION, "spec": _canonical(spec),
    })


def _oracle_result_key(kind, label, seed, scale, config) -> str:
    return _oracle({
        "kind": kind, "schema": SCHEMA_VERSION, "label": label,
        "seed": seed, "scale": scale, "config": _canonical(config),
    })


#: Keys computed before the one-pass encoder replaced the oracle.
PINNED = {
    ("rodinia", "hotspot"):
        "522dd387f63c9e2d9455ae8f91e639bee69cba868c102f853ace3b9edda60de6",
    ("parsec", "blackscholes"):
        "dc0012a3305a31ca6c812112e420686b2ff531110cc22edb8b5ef331c5abee1a",
}
BASE_CONFIG_KEY = (
    "ff6e89eae9a74b3e863a9da17d4105db5f813ad92ac03674054c31c5d6dee19b"
)


class TestSuiteKeys:
    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_trace_keys_match_oracle(self, scale):
        for ref in full_suite():
            spec = build_workload(ref, scale)
            assert ProfileStore.trace_key(spec) == _oracle_trace_key(
                spec
            ), ref.label

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_profile_keys_match_oracle(self, scale):
        for ref in full_suite():
            seed = build_workload(ref, scale).seed
            assert ProfileStore.profile_key(
                ref.label, seed, scale, 4096
            ) == _oracle({
                "kind": "profile", "schema": SCHEMA_VERSION,
                "label": ref.label, "seed": seed, "scale": scale,
                "chunk": 4096,
            })

    @pytest.mark.parametrize("point", TABLE_IV)
    def test_config_and_result_keys_match_oracle(self, point):
        config = table_iv_config(point)
        assert config_fingerprint(config) == _oracle(config)
        for kind in ("predictions", "simulations"):
            assert ProfileStore.result_key(
                kind, "rodinia.hotspot", 7, 1.0, config
            ) == _oracle_result_key(
                kind, "rodinia.hotspot", 7, 1.0, config
            )

    @pytest.mark.parametrize("suite,name", sorted(PINNED))
    def test_pinned_trace_keys(self, suite, name):
        spec = build_workload(BenchmarkRef(suite, name), 1.0)
        assert ProfileStore.trace_key(spec) == PINNED[suite, name]
        assert _oracle_trace_key(spec) == PINNED[suite, name]

    def test_pinned_base_config(self):
        config = table_iv_config("base")
        assert config_fingerprint(config) == BASE_CONFIG_KEY
        assert _oracle(config) == BASE_CONFIG_KEY


class TestMemoSafety:
    def test_shared_epoch_keys_like_distinct_copies(self):
        shared = barrier_workload()
        epochs = [p.spec for ps in shared.plans for p in ps if p.spec]
        assert len({id(e) for e in epochs}) < len(epochs)
        copied = dataclasses.replace(shared, plans=[
            [
                dataclasses.replace(
                    p, spec=p.spec and dataclasses.replace(p.spec)
                )
                for p in ps
            ]
            for ps in shared.plans
        ])
        copies = [p.spec for ps in copied.plans for p in ps if p.spec]
        assert len({id(e) for e in copies}) == len(copies)
        key = ProfileStore.trace_key(shared)
        assert ProfileStore.trace_key(copied) == key
        assert _oracle_trace_key(copied) == key

    def test_mutation_between_calls_changes_key(self):
        spec = barrier_workload()
        epoch = next(p.spec for ps in spec.plans for p in ps if p.spec)
        before = ProfileStore.trace_key(spec)
        epoch.mix["ialu"], epoch.mix["load"] = (
            epoch.mix["load"], epoch.mix["ialu"]
        )
        after = ProfileStore.trace_key(spec)
        assert after != before
        assert after == _oracle_trace_key(spec)


class _Color(Enum):
    RED = "red"
    BLUE = 2


class _Level(IntEnum):
    LOW = 1
    HIGH = 7


@dataclasses.dataclass(frozen=True)
class _Leaf:
    tag: object
    zeta: object = None


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(list(_Color) + list(_Level)),
    st.integers(-2**40, 2**40).map(np.int64),
    st.floats(allow_nan=False).map(np.float64),
)


def _nest(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.integers(), children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.builds(_Leaf, children, children),
    )


class TestOracleEquivalence:
    @pytest.mark.parametrize("obj", [
        float("nan"), float("inf"), -float("inf"), -0.0, 1e300,
        np.float64("nan"), np.float64(0.1), np.int64(3), np.bool_(True),
        True, 1, _Level.HIGH, _Color.RED, "é\"\\\n",
        {2: "b", 10: "a", -1: None}, {"b": 1, "__dataclass__": 2},
        _Leaf, _Leaf((1, [2.5]), {3: _Color.BLUE}),
    ], ids=repr)
    def test_edge_values_match_oracle(self, obj):
        assert fingerprint(obj) == _oracle(obj)

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(_scalars, _nest, max_leaves=24))
    def test_nested_structures_match_oracle(self, obj):
        assert fingerprint(obj) == _oracle(obj)

    @settings(max_examples=50, deadline=None)
    @given(st.recursive(_scalars, _nest, max_leaves=12))
    def test_shared_dataclass_matches_oracle(self, inner):
        leaf = _Leaf(inner)
        obj = {"a": [leaf, leaf], "b": (_Leaf(leaf, leaf),)}
        assert fingerprint(obj) == _oracle(obj)
