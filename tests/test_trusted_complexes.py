"""Only ``complexes._antichain_complex`` builds a ``SimplicialComplex``
without the checks of its public constructors: it only sorts masks that its
callers build as antichains in range.  Its callers are the results of
Alexander duality, complements, skeleton complements, clique complexes and
``complex_from_ideal``, plus ``from_masks``, which checks the range first
and the antichain after; every other caller goes through a checking
constructor.

Ideals have the same shape: only ``ideals._stored_ideal`` stores an ideal,
unchecked.  The constructor calls it after its checks, and so do the callers
of the one drop pass ``ideals._minimal_vectors`` (``minimalize`` and, for
``power`` and ``graded_component_ideal``, ``_ideal_from_packed``),
``_squarefree_ideal``, whose masks are antichains in range, and
``restrict_ideal``, which keeps a sub-tuple of a stored ideal's
generators.  No other module reaches the store or the drop pass.

Every public builder of a complex, graph or ideal checks its ground-set size
with ``complexes._check_ambient``, so ``complexes.MAX_VARS`` is defined in
``complexes`` and read nowhere else: no caller checks the size again.

The Betti engine has two lattice walks, ``homological._upper_koszul_betti``
and ``_upper_koszul_projdim``, the only readers of the lcm lattice.  Their
inputs for a ``MonomialIdeal`` come from one helper, ``_engine``, the one
reader of ``is_squarefree`` in ``homological``: it sends a squarefree ideal
to the mask engine and every other ideal to the packed one."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "srideals"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _scope_name(node, parents):
    scope = parents.get(node)
    while scope is not None and not isinstance(scope, SCOPES):
        scope = parents.get(scope)
    return None if scope is None else getattr(scope, "name", "<lambda>")


def _uses(tree, wanted):
    """(innermost enclosing function or class, source) of every use that
    ``wanted(node, parents)`` returns for a node, in source order."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        use = wanted(node, parents)
        if use is not None:
            where = _scope_name(node, parents)
            found.append((node.lineno, node.col_offset, where, ast.unparse(use)))
    return [(where, text) for _, _, where, text in sorted(found)]


def _names(name, ctx=ast.Load):
    """A finder of each use of `name` by name or attribute in context `ctx`
    (an import is no use)."""

    def wanted(node, parents):
        named = getattr(node, "id", None) == name or getattr(node, "attr", None) == name
        return node if named and isinstance(getattr(node, "ctx", None), ctx) else None

    return wanted


_names_builder = _names("_antichain_complex")


def _new_instance(cls_name):
    """A finder of each ``X.__new__`` that names `cls_name`: the call when
    it is called, else the attribute itself."""

    def wanted(node, parents):
        if not (isinstance(node, ast.Attribute) and node.attr == "__new__"):
            return None
        use = parents[node]
        if not (isinstance(use, ast.Call) and use.func is node):
            use = node
        return use if cls_name in ast.unparse(use) else None

    return wanted


_new_complex = _new_instance("SimplicialComplex")


def _by_module(wanted):
    found = {
        path.stem: _uses(ast.parse(path.read_text()), wanted)
        for path in sorted(SOURCE.glob("*.py"))
    }
    return {module: uses for module, uses in found.items() if uses}


def test_the_trusted_builder_has_only_the_listed_callers():
    assert {
        module: [where for where, _ in uses] for module, uses in _by_module(_names_builder).items()
    } == {
        "complexes": [
            "from_masks",
            "skeleton_complement",
            "alexander_dual",
            "complement_complex",
        ],
        "graphs": ["clique_complex"],
        "ideals": ["complex_from_ideal", "complex_from_ideal"],
    }


def test_only_the_trusted_builder_skips_the_constructor():
    assert _by_module(_new_complex) == {
        "complexes": [("_antichain_complex", "object.__new__(SimplicialComplex)")]
    }


def test_the_ideal_store_and_drop_pass_have_only_the_listed_callers():
    def callers(name):
        return {
            module: [where for where, _ in uses]
            for module, uses in _by_module(_names(name)).items()
        }

    assert callers("_stored_ideal") == {
        "ideals": [
            "__init__",
            "minimalize",
            "_ideal_from_packed",
            "_squarefree_ideal",
            "restrict_ideal",
        ],
    }
    assert callers("_minimal_vectors") == {
        "ideals": ["__init__", "minimalize", "_ideal_from_packed"]
    }
    assert _by_module(_new_instance("MonomialIdeal")) == {
        "ideals": [("_stored_ideal", "object.__new__(MonomialIdeal)")]
    }


def test_the_betti_engine_has_two_walks_and_one_choice_of_representation():
    def callers(name):
        return {
            module: [where for where, _ in uses]
            for module, uses in _by_module(_names(name)).items()
        }

    assert callers("_lcm_lattice") == {
        "homological": ["_upper_koszul_betti", "_upper_koszul_projdim"]
    }
    assert callers("_upper_koszul_betti") == {
        "homological": ["_betti_table", "squarefree_betti_masks"]
    }
    assert callers("_upper_koszul_projdim") == {
        "homological": ["projdim", "squarefree_projdim_masks"]
    }
    assert callers("_engine") == {"homological": ["projdim", "_betti_table"]}
    assert callers("_packed_engine") == {"homological": ["_engine"]}
    assert callers("_mask_engine") == {"homological": ["_engine", "_squarefree_engine"]}
    assert callers("_betti_table") == {
        "homological": ["betti_table"],
        "verification": ["has_linear_resolution"],
    }
    assert callers("is_squarefree")["homological"] == ["_engine"]


def test_the_ground_set_bound_is_read_only_by_its_check():
    assert _by_module(_names("MAX_VARS", ast.Store)) == {"complexes": [(None, "MAX_VARS")]}
    assert _by_module(_names("MAX_VARS")) == {
        "complexes": [("_check_ambient", "MAX_VARS")] * 2
    }


def test_the_finders_see_every_spelling():
    source = (
        "from .complexes import _antichain_complex\n"
        "def a():\n    return _antichain_complex(1, [])\n"
        "class B:\n    def c(self):\n        return complexes._antichain_complex\n"
        "d = lambda: SimplicialComplex.__new__(SimplicialComplex)\n"
        "e = object.__new__(MonomialIdeal)\n"
        "def f(n):\n    return n > complexes.MAX_VARS or n > MAX_VARS\n"
        "MAX_VARS = 1\n"
    )
    tree = ast.parse(source)
    assert _uses(tree, _names_builder) == [
        ("a", "_antichain_complex"),
        ("c", "complexes._antichain_complex"),
    ]
    assert _uses(tree, _names("MAX_VARS")) == [
        ("f", "complexes.MAX_VARS"),
        ("f", "MAX_VARS"),
    ]
    assert _uses(tree, _names("MAX_VARS", ast.Store)) == [(None, "MAX_VARS")]
    assert _uses(tree, _new_complex) == [
        ("<lambda>", "SimplicialComplex.__new__(SimplicialComplex)")
    ]
    assert _uses(tree, _new_instance("MonomialIdeal")) == [
        (None, "object.__new__(MonomialIdeal)")
    ]
