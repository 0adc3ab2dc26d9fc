"""Plain-data arguments of the Python API: a malformed one is a package
error (DomainError, or ResourceLimitError past a cap), never a bare
TypeError, IndexError or ValueError, and never a silent reading of a bool
as an integer."""

import pytest

from srideals import (
    DomainError,
    Monomial,
    RelationTree,
    SimplicialComplex,
    facet_complement_generators,
    minor_certificates,
    reduced_homology,
    relation_tree_from_edges,
    tree_minor_det,
    verify_leaf_order,
    verify_minor_certificate,
)
from srideals.errors import ResourceLimitError

CX = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4)])
GENS = facet_complement_generators(CX)
M = Monomial((1, 0))
LABELS = (((0, 1), (M, M)),)


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
]


@pytest.mark.parametrize("call, error, match", CASES)
def test_malformed_plain_data_is_a_package_error(call, error, match):
    with pytest.raises(error, match=match) as raised:
        call()
    assert type(raised.value) is error
