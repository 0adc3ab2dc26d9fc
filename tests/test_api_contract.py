"""Plain-data arguments of the Python API: a malformed one is a package
error (DomainError, or ResourceLimitError past a cap), never a bare
TypeError, IndexError or ValueError, and never a silent reading of a bool
as an integer."""

import pytest

from srideals import (
    DomainError,
    Graph,
    Monomial,
    MonomialIdeal,
    RelationTree,
    SimplicialComplex,
    betti_table,
    facet_complement_generators,
    has_linear_resolution,
    is_cohen_macaulay,
    minimalize,
    minor_certificates,
    projdim,
    projdim_and_reg,
    reconstructs,
    reduced_homology,
    relation_tree_from_edges,
    relation_trees,
    restrict_ideal,
    run_suite,
    taylor_betti_table,
    tree_minor_det,
    verify_cycle_witness,
    verify_elimination_witness,
    verify_leaf_order,
    verify_linear_quotients,
    verify_minor_certificate,
    verify_shelling,
)
from srideals.complexes import MAX_VARS
from srideals.errors import ResourceLimitError
from srideals.serialization import complex_from_json, graph_from_json, ideal_from_json

CX = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4)])
GENS = facet_complement_generators(CX)
M = Monomial((1, 0))
LABELS = (((0, 1), (M, M)),)
G = Graph(4, [(1, 2), (2, 3)])
I = MonomialIdeal(2, [M])
TREES = relation_trees(CX)


def case(name, match, call, error=DomainError):
    return pytest.param(call, error, match, id=name)


CASES = [
    case("edge-range", "spanning", lambda: relation_tree_from_edges(GENS, [(0, 5), (0, 1)])),
    case("edges-none", "iterable", lambda: relation_tree_from_edges(GENS, None)),
    case("edges-float", "spanning", lambda: relation_tree_from_edges(GENS, [(0, 1.0), (1, 2)])),
    case("edges-bool", "spanning", lambda: relation_tree_from_edges(GENS, [(0, True), (1, 2)])),
    case("certificates-none", "iterable", lambda: minor_certificates(CX, None)),
    case("none-edge", "spanning", lambda: minor_certificates(CX, [[None]])),
    case("certificates-bool", "spanning", lambda: minor_certificates(CX, [[(0, True), (1, 2)]])),
    case("certificate-int", "iterable", lambda: verify_minor_certificate(CX, 5)),
    case("edge-triple", "spanning", lambda: verify_minor_certificate(CX, [(0, 1, 2), (1, 2)])),
    case("minor-str-rows", "relation row", lambda: tree_minor_det("x", 0)),
    case("minor-short-row", "relation row", lambda: tree_minor_det([(0, 1)], 0)),
    case("minor-bool-col", "drop_col", lambda: tree_minor_det([(0, 1, M, M)], True)),
    case("minor-none-col", "drop_col", lambda: tree_minor_det([(0, 1, M, M)], None)),
    case("leaf-order-none", "iterable", lambda: verify_leaf_order(CX, None)),
    case("relation-tree-none", "integer", lambda: RelationTree(None, (), ())),
    case("relation-tree-list-edge", "tuples", lambda: RelationTree(2, [[0, 1]], LABELS)),
    case("relation-tree-none-labels", "labels", lambda: RelationTree(2, [(0, 1)], None)),
    case("relation-tree-short-label", "labels", lambda: RelationTree(2, [(0, 1)], [((0, 1),)])),
    case("edges-none-gens", "iterable", lambda: relation_tree_from_edges(None, [(0, 1)])),
    case("shelling-none", "iterable", lambda: verify_shelling(CX, None)),
    case("elimination-none", "iterable", lambda: verify_elimination_witness(G, None)),
    case("cycle-none", "iterable", lambda: verify_cycle_witness(G, None)),
    case("monomial-none", "iterable", lambda: Monomial(None)),
    case("minimalize-none", "iterable", lambda: minimalize(None)),
    case("ideal-none-gens", "iterable", lambda: MonomialIdeal(2, None)),
    case("restrict-none", "iterable", lambda: restrict_ideal(I, None)),
    case("linear-quotients-none", "iterable", lambda: verify_linear_quotients(None)),
    # a string's characters are no monomials or trees
    case("ideal-str-gens", "iterable of monomials", lambda: MonomialIdeal(3, "x")),
    case("minimalize-str", "iterable of monomials", lambda: minimalize("x")),
    case("reconstructs-str-trees", "iterable of relation trees", lambda: reconstructs("x", GENS)),
    case("reconstructs-str-gens", "iterable of monomials", lambda: reconstructs(TREES, "x")),
    case("linear-quotients-str", "iterable of monomials", lambda: verify_linear_quotients("xy")),
    # items that are no vectors are refused, one item as well as two
    case("linear-quotients-ints", "iterable of monomials", lambda: verify_linear_quotients([1, 2])),
    case(
        "linear-quotients-nones",
        "iterable of monomials",
        lambda: verify_linear_quotients([None, None]),
    ),
    case("linear-quotients-char", "iterable of monomials", lambda: verify_linear_quotients("x")),
    case("linear-quotients-int", "iterable of monomials", lambda: verify_linear_quotients([5])),
    case("suite-list", "unknown suite", lambda: run_suite([], 0)),
    case("homology-vertex-0", "out of range", lambda: reduced_homology([(0,)])),
    case("homology-str-vertex", "not an integer", lambda: reduced_homology([("a",)])),
    case("homology-float-vertex", "not an integer", lambda: reduced_homology([(1.5,)])),
    case("homology-int-faces", "iterable", lambda: reduced_homology(5)),
    case("homology-bool-vertex", "not an integer", lambda: reduced_homology([(True,)])),
    # types and signs are checked first, then the cap on the top vertex
    case(
        "homology-vertex-17",
        "MAX_HOMOLOGY_VARS",
        lambda: reduced_homology([(17,)]),
        ResourceLimitError,
    ),
    # past the int-str digit limit: the cap message gives the size in bits
    case(
        "homology-vertex-10**5000",
        "n = an integer of 16,610 bits exceeds homological.MAX_HOMOLOGY_VARS",
        lambda: reduced_homology([(10**5000,)]),
        ResourceLimitError,
    ),
    # a plain characteristic is no field; the linear-resolution test reads
    # its field before any certificate could answer without it
    case("betti-int-field", "FieldChoice", lambda: betti_table(I, 2)),
    case("projdim-int-field", "FieldChoice", lambda: projdim(I, 2)),
    case("projdim-and-reg-int-field", "FieldChoice", lambda: projdim_and_reg(I, 2)),
    case("taylor-int-field", "FieldChoice", lambda: taylor_betti_table(I, 2)),
    case("homology-int-field", "FieldChoice", lambda: reduced_homology(CX, 2)),
    case("cohen-macaulay-int-field", "FieldChoice", lambda: is_cohen_macaulay(CX, 2)),
    case("linear-resolution-int-field", "FieldChoice", lambda: has_linear_resolution(I, 2)),
]


# Every value with a ground set [n] is held to complexes.MAX_VARS where it
# is built, so no n-bit mask or dense vector of n entries is built past it.
GROUND_SETS = {
    "complex": lambda n: SimplicialComplex(n, [(1,)]),
    "from-faces": lambda n: SimplicialComplex.from_faces(n, [(1,)]),
    "from-masks": lambda n: SimplicialComplex.from_masks(n, [1]),
    "graph": lambda n: Graph(n, []),
    "ideal": lambda n: MonomialIdeal(n, []),
    "from-support": lambda n: Monomial.from_support((1,), n),
    "complex-json": lambda n: complex_from_json({"ambient": n, "facets": [[1]]}),
    "graph-json": lambda n: graph_from_json({"n": n, "edges": []}),
    "ideal-json": lambda n: ideal_from_json({"vars": n, "generators": ["x1"]}),
}
CASES += [
    case(
        f"{name}-{shown}",
        f"= {shown} exceeds complexes.MAX_VARS = 1,024",
        lambda build=build, n=n: build(n),
        ResourceLimitError,
    )
    for name, build in GROUND_SETS.items()
    for n, shown in (
        (MAX_VARS + 1, "1025"),
        (10**19, "10000000000000000000"),
        (10**5000, "an integer of 16,610 bits"),
    )
]


@pytest.mark.parametrize("name", GROUND_SETS)
def test_the_largest_ground_set_builds(name):
    built = GROUND_SETS[name](MAX_VARS)
    assert (built.num_vars if hasattr(built, "num_vars") else built.n) == MAX_VARS


@pytest.mark.parametrize("call, error, match", CASES)
def test_malformed_plain_data_is_a_package_error(call, error, match):
    with pytest.raises(error, match=match) as raised:
        call()
    assert type(raised.value) is error


def _failing(items, error):
    """A generator that yields `items` and then raises `error`."""
    yield from items
    raise error


@pytest.mark.parametrize(
    "build, items",
    [
        pytest.param(lambda faces: SimplicialComplex(3, faces), [(1,)], id="listed"),
        pytest.param(Monomial, [1], id="monomial"),
    ],
)
def test_an_error_while_the_items_are_read_is_the_callers_own(build, items):
    # only the call to iter is guarded: a TypeError that the caller's own
    # iterable raises part-way is not taken for a non-iterable argument
    with pytest.raises(TypeError, match="bad item source"):
        build(_failing(items, TypeError("bad item source")))
