"""No module of the package reaches ``Monomial.from_support``: a support it
holds as a bitmask becomes an exponent vector through
``ideals._mask_vectors``, with no vertex tuple and no per-monomial check in
between.  ``from_support`` stays public API for callers."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "srideals"


def _from_support_lines(tree):
    """The line of every ``X.from_support`` in the tree, called or passed on."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "from_support"
    ]


@pytest.mark.parametrize("module", sorted(path.stem for path in SOURCE.glob("*.py")))
def test_no_module_calls_from_support(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    assert _from_support_lines(tree) == []
