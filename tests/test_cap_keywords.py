"""No library function takes a cap as an argument: every cap is a module
constant (see the README's resource caps).  A parameter named ``max_*`` in
one of these modules would let a caller replace a cap for one call.  No
module at all takes a parameter named ``cap`` or ``cap_name``: a helper reads
its cap's constant itself rather than have each caller hand it down."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "srideals"
MODULES = ("complexes", "ideals", "homological", "quasitrees", "graphs", "serialization")


def _parameters(tree):
    """(function name, parameter name) for every function and lambda in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            for name in names:
                yield getattr(node, "name", "<lambda>"), name


@pytest.mark.parametrize("module", MODULES)
def test_no_function_takes_a_cap_keyword(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    assert [(f, p) for f, p in _parameters(tree) if p.startswith("max_")] == []


@pytest.mark.parametrize("module", sorted(path.stem for path in SOURCE.glob("*.py")))
def test_no_function_takes_a_cap_by_name(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    assert [(f, p) for f, p in _parameters(tree) if p in ("cap", "cap_name")] == []
