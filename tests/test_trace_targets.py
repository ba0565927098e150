"""The benchmark tracer's wrap targets exist in the package.

`perfbench/spans.py` wraps package functions by (module, attribute); a
renamed or deleted function would otherwise surface only when the
benchmark's own, much slower, self-test runs.
"""

import importlib.util
from pathlib import Path

from dwdropin.vit import DESK

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
