"""Only ``quasitrees.relation_trees`` builds a ``RelationTree`` without its
checks: its edge sets are sorted spanning trees by construction, so it
creates each tree with ``object.__new__(RelationTree)``.  Every other
module and function goes through the checking constructor, so no other
caller can skip the validation."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "srideals"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _names_relation_tree(node) -> bool:
    return any(
        getattr(sub, "id", None) == "RelationTree" or getattr(sub, "attr", None) == "RelationTree"
        for sub in ast.walk(node)
    )


def _new_calls(tree):
    """(innermost enclosing function or class, source) of every ``X.__new__``
    that names ``RelationTree``, in source order: the call when it is
    called, else the attribute itself.  Other classes' ``__new__`` (the
    trusted constructors in ``complexes`` and ``ideals``) are not counted."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "__new__":
            use = parents[node]
            if not (isinstance(use, ast.Call) and use.func is node):
                use = node
            if not _names_relation_tree(use):
                continue
            scope = parents.get(node)
            while scope is not None and not isinstance(scope, SCOPES):
                scope = parents.get(scope)
            where = None if scope is None else getattr(scope, "name", "<lambda>")
            found.append((node.lineno, node.col_offset, where, ast.unparse(use)))
    return [(where, text) for _, _, where, text in sorted(found)]


def test_only_relation_trees_skips_the_relation_tree_checks():
    calls = {
        path.stem: _new_calls(ast.parse(path.read_text()))
        for path in sorted(SOURCE.glob("*.py"))
    }
    assert {module: found for module, found in calls.items() if found} == {
        "quasitrees": [("relation_trees", "object.__new__(RelationTree)")]
    }


def test_the_finder_sees_every_spelling():
    source = (
        "def a():\n    object.__new__(RelationTree)\n"
        "class B:\n    def c(self):\n        make = RelationTree.__new__\n"
        "    other = object.__new__(Monomial)\n"
        "d = lambda: object.__new__(cls=quasitrees.RelationTree)\n"
    )
    assert _new_calls(ast.parse(source)) == [
        ("a", "object.__new__(RelationTree)"),
        ("c", "RelationTree.__new__"),
        ("<lambda>", "object.__new__(cls=quasitrees.RelationTree)"),
    ]
