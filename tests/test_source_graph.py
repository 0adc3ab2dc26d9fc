"""Trust boundaries and route independence, read off one static graph of the
package (``source_graph.SourceGraph``).  Names are written short: ``name``
stands for the one node called ``name`` or ``<prefix>.name``.

*Trust boundaries.*  Only ``complexes._antichain_complex`` makes a
``SimplicialComplex`` without its constructor's checks, only
``ideals._stored_ideal`` so stores a ``MonomialIdeal`` and only
``quasitrees.relation_trees`` so makes a ``RelationTree``: each of their
callers hands over values that are valid by construction.
``ideals._minimal_vectors`` is the one drop pass, and
``complexes._check_ambient`` the one reader of ``MAX_VARS``.  The Betti
engine has two lattice walks, the only readers of the lcm lattice, fed by
``_engine``, the one reader of ``is_squarefree`` in ``homological``.  No
module reaches ``Monomial.from_support``, and no function takes a cap as a
parameter: every cap is a module constant (README, resource caps).

*Routes.*  ``ROUTES`` gives, for each suite whose check compares two
derivations, the entry points of each side and every package function
that both sides reach, in groups that say why each may be shared.  Exact
rank, the errors and the constructors of the value classes, with all they
reach, may be shared anywhere (``SHARABLE``).  ``ONE_ROUTE`` gives the
suites that test one predicate or an implication, and why.  The two tables
cover ``SUITES`` and the Betti oracle pair, which no suite runs.
"""

import pytest
from source_graph import SourceGraph

from srideals.verification import SUITES

GRAPH = SourceGraph()


def node(name: str) -> str:
    (found,) = [n for n in GRAPH.kinds if f".{n}".endswith(f".{name}")]
    return found


def nodes(names: str) -> list:
    return sorted(map(node, names.split()))


# Every user of a trusted builder, kernel or bound, once per use, in source order.  A short
# name must name one node, so MAX_VARS is defined in complexes alone.
CALLERS = {
    "_antichain_complex": "SimplicialComplex.from_masks skeleton_complement alexander_dual"
    " complement_complex clique_complex complex_from_ideal complex_from_ideal",
    "_stored_ideal": "MonomialIdeal.__init__ minimalize _ideal_from_packed _squarefree_ideal"
    " restrict_ideal",
    "_minimal_vectors": "MonomialIdeal.__init__ minimalize _ideal_from_packed",
    "_lcm_lattice": "_upper_koszul_betti _upper_koszul_projdim",
    "_upper_koszul_betti": "_betti_table squarefree_betti_masks",
    "_upper_koszul_projdim": "projdim squarefree_projdim_masks",
    "_engine": "projdim _betti_table", "_packed_engine": "_engine",
    "_mask_engine": "_engine _squarefree_engine", "MAX_VARS": "_check_ambient _check_ambient",
    "_betti_table": "betti_table has_linear_resolution", "Monomial.from_support": "",
}
CAPPED = ("complexes", "ideals", "homological", "quasitrees", "graphs", "serialization")


@pytest.mark.parametrize("name", CALLERS)
def test_a_trusted_builder_kernel_or_bound_has_only_the_listed_users(name):
    assert [user.split(".", 1)[1] for user in GRAPH.callers(node(name))] == CALLERS[name].split()


def test_one_helper_picks_the_engine_for_an_ideal():
    squarefree = GRAPH.callers(node("MonomialIdeal.is_squarefree"))
    assert [u for u in squarefree if u.startswith("homological.")] == ["homological._engine"]


def test_only_the_trusted_builders_skip_a_constructor():
    assert sorted(use for use in GRAPH.uses if use[1].endswith(".__new__")) == [
        ("complexes.VoidDual", "complexes.VoidDual.__new__"),  # its own constructor
        ("complexes._antichain_complex", "complexes.SimplicialComplex.__new__"),
        ("ideals._stored_ideal", "ideals.MonomialIdeal.__new__"),
        ("quasitrees.relation_trees", "quasitrees.RelationTree.__new__"),
    ]


@pytest.mark.parametrize("module", sorted(GRAPH.trees))
def test_no_function_takes_a_cap(module):
    params = [(u, p) for u in GRAPH.params if u.split(".")[0] == module for p in GRAPH.params[u]]
    assert [(u, p) for u, p in params if p in ("cap", "cap_name")] == []
    assert [(u, p) for u, p in params if p[:4] == "max_" and module in CAPPED] == []


PROBE = """
from . import complexes, quasitrees
from .complexes import SimplicialComplex, _antichain_complex as build
from .ideals import MonomialIdeal
from .quasitrees import RelationTree
def a(): return build(1, [])
class B:
    def c(self, max_x, *rest, cap=None): return complexes._antichain_complex, self.from_support
    other = object.__new__(MonomialIdeal)
d = lambda: SimplicialComplex.__new__(SimplicialComplex)
def f(n):
    def inner(cap_name): return n > complexes.MAX_VARS or n > MAX_VARS
    make = RelationTree.__new__
    return lambda: object.__new__(cls=quasitrees.RelationTree)
MAX_VARS = 1
"""


def test_the_graph_sees_every_spelling():
    graph = SourceGraph({"x": PROBE})
    assert [use for use in graph.uses if use[0].startswith("x.")] == [
        ("x.a", "complexes._antichain_complex"), ("x.B", "ideals.MonomialIdeal.__new__"),
        ("x.B.c", "complexes._antichain_complex"), ("x.B.c", "ideals.Monomial.from_support"),
        ("x.d", "complexes.SimplicialComplex.__new__"),
        *[("x.f", "quasitrees.RelationTree.__new__")] * 2,
        ("x.f", "complexes.MAX_VARS"), ("x.f", "x.MAX_VARS"),
    ]
    assert graph.params["x.B.c"] == ["self", "max_x", "cap", "rest"]
    assert graph.params["x.f"] == ["n", "cap_name"]


SHARABLE = GRAPH.reach(
    nodes("_linalg.rank SimplicialComplex Graph Monomial MonomialIdeal RelationTree")
    + [n for n in GRAPH.kinds if n.startswith("errors.")]
)
# (functions that two sides may share, why)
STORE = ("_antichain_complex _facet_order", "a derived complex is stored unchecked")
MASKS = ("_mask_vectors", "a support mask becomes an exponent vector in one helper")
SQUAREFREE = ("_squarefree_ideal", "a squarefree ideal is stored from its masks")
VOID = ("SimplicialComplex.is_void", "the void complex is refused on entry")
LEVEL = ("dimension_info _check_skeleton", "a skeleton level is checked against the dimension")
FIELD = ("FieldChoice FieldChoice.__post_init__ _is_prime _characteristic",
         "both take the same field")
HOMOLOGY = ("_profile_from_masks _reduced_ranks _boundary_rank down_closure", "one cached kernel")
NONFACES = ("minimal_nonfaces_masks minimal_transversals _bitmap_transversals _subset_bitmaps"
            " _berge_transversals", "both ideals are read off minimal nonfaces")
ENGINE = ("_squarefree_engine _mask_engine _minimal_masks _lcm_lattice _koszul_profile _compress"
          " _nerve_faces FieldChoice FieldChoice.__post_init__ _is_prime",
          "one upper-Koszul engine, walked for projdim on one side")
CANDIDATE = ("one_skeleton_graph clique_complex maximal_clique_masks maximal_cliques"
             " SimplicialComplex.facets", "both judge the clique complex of the 1-skeleton")
COMPLEMENT = ("_complement_ideal skeleton_complement facet_ideal", "one builder, at l and at 1")
TAYLOR = ("_boundary_rank BettiTable.from_dict _check_betti_generators MonomialIdeal.is_zero",
          "the boundary builder, as the Taylor docstring says, the table type and its cap")
# suite: (side A, side B, [(shared functions, why)])
ROUTES = {
    "lemma-1.1": ("pure_complement", "facet_ideal complex_from_ideal skeleton",
                  [STORE, VOID, LEVEL]),
    "lemma-1.2": ("alexander_dual stanley_reisner_ideal", "complement_complex facet_ideal",
                  [STORE, MASKS, SQUAREFREE]),
    "thm-1.4a": ("is_cohen_macaulay", "complement_complex facet_ideal has_linear_resolution",
                 [VOID, FIELD, HOMOLOGY]),
    "thm-1.4b": ("squarefree_projdim_masks minimal_nonfaces_masks",
                 "squarefree_betti_masks minimal_nonfaces_masks", [NONFACES, ENGINE, HOMOLOGY]),
    "thm-1.4c": ("shelling_order verify_shelling", "complement_complex facet_ideal"
                 " linear_quotients_order verify_linear_quotients", [VOID]),
    "lemma-2.1": ("_is_tree minor_certificates reconstructs",
                  "leaf_order_masks relation_trees facet_complement_generators", [MASKS]),
    "cor-2.2": ("leaf_order_masks", "squarefree_projdim_masks", []),
    "thm-3.3": ("mcs_order _is_peo", "maximal_clique_masks leaf_order_masks", []),
    "thm-3.6": ("one_skeleton_graph clique_complex leaf_order",
                "one_skeleton_graph clique_complex is_chordal", [CANDIDATE, STORE]),
    "lemma-4.2": ("_complement_ideal", "_complement_ideal skeleton_ideal_from_one_skeleton",
                  [COMPLEMENT, STORE, MASKS, SQUAREFREE, VOID, LEVEL]),
    "betti-vs-taylor": ("betti_table", "taylor_betti_table", [TAYLOR, FIELD]),
}
# suite: (its route, why it has only one)
ONE_ROUTE = {
    "prop-1.3": ("_complement_ideal complex_from_ideal alexander_dual skeleton",
                 "one pipeline at l and at 1, the sides differing by a skeleton"),
    "cor-1.5": ("linear_quotients_order", "an implication, each side by the one search"),
    "lemma-1.6": ("shelling_order _shelling_search", "an implication"),
    "lemma-3.2": ("is_quasi_tree minimal_nonfaces", "an implication"),
    "cor-3.5": ("leaf_report is_quasi_tree", "an implication"),
    "thm-4.1": ("linear_quotients_order verify_linear_quotients",
                "one predicate: the verifier checks the order found, and no order has no check"),
    "lemma-4.3": ("betti_table restrict_ideal has_linear_resolution",
                  "an implication, with the sub-table read from the same engine"),
    "thm-4.4": ("power has_linear_resolution", "one predicate"),
}


def test_every_suite_and_the_oracle_pair_have_one_row():
    assert sorted([*ROUTES, *ONE_ROUTE]) == sorted([*SUITES, "betti-vs-taylor"])
    assert all(nodes(route) for route, _why in ONE_ROUTE.values())


@pytest.mark.parametrize("suite", sorted(ROUTES))
def test_the_two_sides_share_only_the_listed_functions(suite):
    side_a, side_b, shared = ROUTES[suite]
    both = GRAPH.reach(nodes(side_a)) & GRAPH.reach(nodes(side_b))
    found = [n for n in both - SHARABLE if hasattr(GRAPH.kinds.get(n), "name")]  # defs only
    assert sorted(found) == nodes(" ".join(names for names, _why in shared))
