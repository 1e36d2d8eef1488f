"""Synthetic multithreaded workload substrate (the Pin-input substitute).

The paper profiles real Rodinia/Parsec binaries with a Pin tool.  Here,
workloads are *specifications* (:mod:`repro.workloads.spec`) expanded
deterministically into concrete abstract-instruction traces by the
columnar engine (:mod:`repro.workloads.engine`; the per-segment
:mod:`repro.workloads.generator` is its executable spec and test
oracle, digest-identical by construction).  The same traces feed both
the profiler (:mod:`repro.profiler`) and the reference simulator
(:mod:`repro.simulator`), so model and golden reference observe the
same dynamic instruction stream, exactly as Pin and Sniper observe the
same binary.
"""

from repro.workloads.ir import (
    OP_BRANCH,
    OP_CLASSES,
    OP_FP,
    OP_IALU,
    OP_IMUL,
    OP_LOAD,
    OP_STORE,
    Segment,
    SyncKind,
    SyncOp,
    ThreadTrace,
    TraceBlock,
    WorkloadTrace,
)
from repro.workloads.spec import (
    BranchSpec,
    EpochSpec,
    MemPattern,
    WorkloadSpec,
)
from repro.workloads.engine import (
    ExpansionEngine,
    default_engine,
    expand,
    expand_many,
)
from repro.workloads.builder import WorkloadBuilder
from repro.workloads.rodinia import RODINIA, rodinia_workload
from repro.workloads.parsec import PARSEC, parsec_workload
from repro.workloads.microbench import barrier_loop_workload

__all__ = [
    "OP_BRANCH",
    "OP_CLASSES",
    "OP_FP",
    "OP_IALU",
    "OP_IMUL",
    "OP_LOAD",
    "OP_STORE",
    "Segment",
    "SyncKind",
    "SyncOp",
    "ThreadTrace",
    "TraceBlock",
    "WorkloadTrace",
    "BranchSpec",
    "EpochSpec",
    "MemPattern",
    "WorkloadSpec",
    "WorkloadBuilder",
    "ExpansionEngine",
    "default_engine",
    "expand",
    "expand_many",
    "RODINIA",
    "PARSEC",
    "rodinia_workload",
    "parsec_workload",
    "barrier_loop_workload",
]
