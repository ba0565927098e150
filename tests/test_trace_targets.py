"""What the benchmark calls in the package exists there.

`perfbench/spans.py` wraps package functions by (module, attribute), and
the benchmark's workloads call package functions by module attribute; a
renamed or deleted function would otherwise surface only when the
benchmark's own, much slower, self-test runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from dwdropin.vit import DESK

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
# the package modules the benchmark imports by name and reads attributes of
MODULES = ("archive", "cli", "cost", "dropin", "select", "vit")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_exists_and_is_callable():
    targets = load_spans().wrap_targets(DESK)
    assert targets
    for module, attr, span, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def package_reads(path: Path) -> set:
    """(module name, attribute) for every `<module>.<attribute>` read of
    one of MODULES, and every name imported `from dwdropin...`, in `path`."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in MODULES):
            reads.add((f"dwdropin.{node.value.id}", node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dwdropin":
            reads.update((node.module, alias.name) for alias in node.names)
    return reads


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_package_attribute_the_benchmark_reads_exists(path):
    for module, attr in sorted(package_reads(path)):
        assert hasattr(importlib.import_module(module), attr), f"{path.name}: {module}.{attr}"


def test_workloads_read_the_package():
    """The scan sees the workloads' calls, so it can catch a rename."""
    assert {("dwdropin.cli", "main"), ("dwdropin.dropin", "replace_heads"),
            ("dwdropin.vit", "model_forward")} <= package_reads(PERFBENCH / "workloads.py")
