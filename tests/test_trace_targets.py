"""What the benchmark calls in the package exists there.

`perfbench/spans.py` wraps package functions by (module, attribute), and
the benchmark's workloads call package functions by module attribute,
some with keyword arguments; a renamed or deleted function or keyword
would otherwise surface only when the benchmark's own, much slower,
self-test runs.
"""

import ast
import importlib
import importlib.util
import inspect
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


def package_keyword_calls(path: Path) -> set:
    """(module name, attribute, keyword) for every keyword argument of a
    call, in `path`, of a package callable read as `<module>.<attribute>`
    or imported `from dwdropin...`."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name: (node.module, alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "dwdropin"
                for alias in node.names}
    calls = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in MODULES):
            target = (f"dwdropin.{func.value.id}", func.attr)
        elif isinstance(func, ast.Name) and func.id in imported:
            target = imported[func.id]
        else:
            continue
        calls.update((*target, kw.arg) for kw in node.keywords if kw.arg is not None)
    return calls


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_keyword_the_benchmark_passes_is_a_parameter(path):
    for module, attr, keyword in sorted(package_keyword_calls(path)):
        signature = inspect.signature(getattr(importlib.import_module(module), attr))
        try:
            signature.bind_partial(**{keyword: None})
        except TypeError:
            pytest.fail(f"{path.name}: {module}.{attr} takes no keyword {keyword!r}")


def test_workloads_read_the_package():
    """The scan sees the workloads' calls, so it can catch a rename."""
    assert {("dwdropin.cli", "main"), ("dwdropin.dropin", "replace_heads"),
            ("dwdropin.vit", "model_forward")} <= package_reads(PERFBENCH / "workloads.py")
    assert {("dwdropin.dropin", "BlockDropin", "head_kernels"),
            ("dwdropin.dropin", "BlockDropin", "gamma")} <= package_keyword_calls(
                PERFBENCH / "workloads.py")
