"""Every entry point that the benchmark's tracer wraps exists in the library.

``bench/tracing.py`` names its targets as strings, so a rename in
``srideals`` only shows up there as a missing span.  The targets are read
from the source of ``bench/tracing.py`` without importing it.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets() -> list[tuple[str, str, str]]:
    for node in ast.parse(TRACING.read_text()).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if names == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


def _resolve(module_name: str, attr: str):
    """The target's function; a method must be defined on its class itself,
    as the tracer wraps it there."""
    module = importlib.import_module(f"srideals.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        return vars(getattr(module, cls_name, object)).get(method)
    return getattr(module, attr, None)


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    assert [span for module, attr, span in targets if not callable(_resolve(module, attr))] == []
