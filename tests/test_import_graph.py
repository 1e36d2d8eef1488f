"""Production keeps one implementation per concern.

The scalar locality collectors, the scalar ILP table builder, the
per-segment trace generator and the per-chunk profiler are preserved
as test oracles.  Only the bench harness (``experiments/bench.py``)
times production against them; no other module under ``src/repro``
may import them.

Processes are created in one place, the ``Supervisor`` in
``experiments/workqueue.py``: no other module may import
``multiprocessing`` or a process pool.

LRU eviction is implemented in one place, ``repro/lru.py``: no other
module may use ``OrderedDict``, except the obs trace ring, an
insertion-order FIFO whose reads must not reorder it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = {SRC / "repro" / "experiments" / "bench.py"}
#: The one module allowed to create processes.
PROCESS_OWNER = SRC / "repro" / "experiments" / "workqueue.py"

#: The modules allowed to use ``OrderedDict``.
LRU_OWNER = SRC / "repro" / "lru.py"
ORDERED_DICT_ALLOWED = {LRU_OWNER, SRC / "repro" / "obs" / "tracing.py"}

#: Whole modules no production module may import.
SPEC_MODULES = {"repro.profiler.reference"}
#: ``(module, name)`` pairs no production module may import; a
#: ``None`` module matches the name imported from anywhere.
SPEC_NAMES = {
    ("repro.profiler.ilp", "build_ilp_table"),
    ("repro.workloads.generator", "expand"),
    (None, "profile_workload_reference"),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _absolute(node: ast.ImportFrom, path: Path) -> str:
    if not node.level:
        return node.module or ""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[:len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def spec_imports(path: Path) -> list:
    """``module[.name]`` of every spec import in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in SPEC_MODULES:
                    found.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(node, path)
            for alias in node.names:
                full = f"{module}.{alias.name}"
                if (
                    module in SPEC_MODULES
                    or full in SPEC_MODULES
                    or (module, alias.name) in SPEC_NAMES
                    or (None, alias.name) in SPEC_NAMES
                ):
                    found.append(full)
    return found


def process_imports(path: Path) -> list:
    """Every ``multiprocessing`` / process-pool import in one file.

    Also catches ``concurrent.futures.ProcessPoolExecutor`` reached
    as an attribute of an imported ``concurrent.futures``.
    """
    def is_process_module(module: str) -> bool:
        return (
            module.split(".")[0] == "multiprocessing"
            or module == "concurrent.futures.process"
        )

    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.extend(
                alias.name for alias in node.names
                if is_process_module(alias.name)
            )
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(node, path)
            for alias in node.names:
                if (
                    is_process_module(module)
                    or is_process_module(f"{module}.{alias.name}")
                    or alias.name == "ProcessPoolExecutor"
                ):
                    found.append(f"{module}.{alias.name}")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "ProcessPoolExecutor"
        ):
            found.append("ProcessPoolExecutor")
    return found


def ordered_dict_uses(path: Path) -> list:
    """Every ``OrderedDict`` import or attribute use in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            found.extend(
                f"{node.module}.{alias.name}" for alias in node.names
                if alias.name == "OrderedDict"
            )
        elif isinstance(node, ast.Attribute) and node.attr == "OrderedDict":
            found.append("OrderedDict")
    return found


class TestImportGraph:
    def test_specs_only_imported_by_bench(self):
        offenders = {
            str(path.relative_to(SRC)): spec_imports(path)
            for path in sorted((SRC / "repro").rglob("*.py"))
            if path not in ALLOWED and spec_imports(path)
        }
        assert offenders == {}

    def test_guard_sees_the_bench_imports(self):
        # The one allowed importer really imports every spec, so the
        # guard above is matching the import forms the tree uses.
        found = set(spec_imports(SRC / "repro" / "experiments" / "bench.py"))
        assert "repro.workloads.generator.expand" in found
        assert "repro.profiler.ilp.build_ilp_table" in found
        assert "repro.profiler.profiler.profile_workload_reference" in found
        assert any(f.startswith("repro.profiler.reference") for f in found)

    def test_only_the_supervisor_module_creates_processes(self):
        offenders = {
            str(path.relative_to(SRC)): process_imports(path)
            for path in sorted((SRC / "repro").rglob("*.py"))
            if path != PROCESS_OWNER and process_imports(path)
        }
        assert offenders == {}

    def test_process_guard_sees_the_supervisor_import(self):
        assert "multiprocessing" in process_imports(PROCESS_OWNER)

    def test_only_the_lru_module_uses_ordered_dict(self):
        offenders = {
            str(path.relative_to(SRC)): ordered_dict_uses(path)
            for path in sorted((SRC / "repro").rglob("*.py"))
            if path not in ORDERED_DICT_ALLOWED and ordered_dict_uses(path)
        }
        assert offenders == {}

    def test_ordered_dict_guard_sees_the_lru_import(self):
        assert "collections.OrderedDict" in ordered_dict_uses(LRU_OWNER)
