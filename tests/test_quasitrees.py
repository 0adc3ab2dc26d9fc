"""Leaves, leaf orders, relation matrices, relation trees, reconstruction."""

import pytest

from srideals import (
    DomainError,
    Monomial,
    RelationTree,
    SimplicialComplex,
    build_m_delta,
    facet_complement_generators,
    is_quasi_tree,
    leaf_order,
    leaf_report,
    reconstruct_generators,
    relation_tree_from_edges,
    relation_trees,
    selected_relation_rows,
    taylor_pairs,
    taylor_relations,
    tree_minor_det,
    verify_leaf_order,
    verify_minor_certificate,
)
from srideals.ideals import MonomialIdeal
from srideals.quasitrees import leaf_order_masks


class TestLeaves:
    def test_leaf_with_branch_and_free_vertices(self, worked_example):
        # {1,2,3} is a leaf with branch {2,3,4}; vertex 1 is free
        report = leaf_report(worked_example, 0)
        assert report.is_leaf
        assert report.branches == (1,)
        assert report.free_vertices == (1,)

    def test_middle_facet_is_not_a_leaf(self, near_miss):
        for f in range(3):
            assert not leaf_report(near_miss, f).is_leaf

    def test_single_facet_is_a_leaf(self):
        report = leaf_report(SimplicialComplex(3, [(1, 2)]), 0)
        assert report.is_leaf
        assert report.free_vertices == (1, 2)

    def test_index_out_of_range(self, worked_example):
        with pytest.raises(DomainError):
            leaf_report(worked_example, 4)


class TestLeafOrders:
    def test_worked_example_is_a_quasi_tree(self, worked_example):
        order = leaf_order(worked_example)
        assert order is not None
        assert verify_leaf_order(worked_example, order)
        assert is_quasi_tree(worked_example)

    def test_near_miss_has_no_leaf_order(self, near_miss):
        assert leaf_order(near_miss) is None
        assert not is_quasi_tree(near_miss)

    def test_verify_rejects_non_orders(self, worked_example):
        assert not verify_leaf_order(worked_example, [0, 1, 2])
        assert not verify_leaf_order(worked_example, [3, 2, 1, 0, 0])

    def test_verify_rejects_order_starting_badly(self, worked_example):
        # any permutation must keep every prefix a quasi-tree with the
        # last element a leaf; putting both far ends first fails
        assert not verify_leaf_order(worked_example, [0, 2, 1, 3])

    def test_mask_level_entry_point(self):
        assert sorted(leaf_order_masks([0b011, 0b110])) == [0, 1]
        assert leaf_order_masks([0b0011, 0b0110, 0b1100]) is not None


class TestRelationMatrix:
    def test_shape_and_entries(self, worked_example):
        m = build_m_delta(worked_example)
        assert len(m.row_labels) == 6
        assert m.num_cols == 4
        # row (0, 1): F_0 \ F_1 = {1}, F_1 \ F_0 = {4}
        sign_i, mono_i = m.entry(0, 0)
        sign_j, mono_j = m.entry(0, 1)
        assert (sign_i, mono_i.support) == (1, (1,))
        assert (sign_j, mono_j.support) == (-1, (4,))
        assert m.entry(0, 2) is None

    def test_matrix_rows_match_taylor_relations(self, worked_example):
        # the relation matrix of the complex is exactly the matrix of
        # Taylor relations of the facet-complement generators
        m = build_m_delta(worked_example)
        gens = facet_complement_generators(worked_example)
        relations = taylor_pairs(gens)
        assert [(r.i, r.j) for r in relations] == list(m.row_labels)
        for row, rel in enumerate(relations):
            assert m.entry(row, rel.i) == (1, rel.u_ji)
            assert m.entry(row, rel.j) == (-1, rel.u_ij)

    def test_needs_two_facets(self):
        with pytest.raises(DomainError):
            build_m_delta(SimplicialComplex(3, [(1, 2)]))


class TestTaylorRelations:
    def test_relation_of_two_coprime_generators(self):
        gens = [Monomial((1, 1, 0, 0)), Monomial((0, 0, 1, 1))]
        (rel,) = taylor_pairs(gens)
        assert rel.u_ij == gens[0]
        assert rel.u_ji == gens[1]

    def test_canonical_order_entry_point(self):
        ideal = MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, 1))])
        (rel,) = taylor_relations(ideal)
        assert (rel.i, rel.j) == (0, 1)


class TestRelationTrees:
    def test_worked_example_has_exactly_three_trees(self, worked_example):
        trees = relation_trees(worked_example)
        assert {tuple(t.edges) for t in trees} == {
            ((0, 1), (1, 2), (1, 3)),
            ((0, 1), (1, 2), (2, 3)),
            ((0, 1), (1, 3), (2, 3)),
        }

    def test_each_tree_passes_the_determinant_certificate(self, worked_example):
        for tree in relation_trees(worked_example):
            assert verify_minor_certificate(worked_example, tree)

    def test_non_relation_tree_fails_the_certificate(self, worked_example):
        # the star at facet 0 is a spanning tree but not a relation tree
        assert not verify_minor_certificate(
            worked_example, [(0, 1), (0, 2), (0, 3)]
        )

    def test_reconstruction_recovers_the_generators(self, worked_example):
        gens = facet_complement_generators(worked_example)
        for tree in relation_trees(worked_example):
            assert reconstruct_generators(tree) == gens

    def test_signed_determinant_identity(self, worked_example):
        # with rows sorted by (i, j), dropping column j flips the sign
        # with the parity of j: (-1)^j det(M#(j)) = u_j (1-based j)
        gens = facet_complement_generators(worked_example)
        for tree in relation_trees(worked_example):
            rows = selected_relation_rows(worked_example, tree.edges)
            for j in range(4):
                sign, mono = tree_minor_det(rows, j)
                assert mono == gens[j]
                assert sign == (-1) ** (j + 1)

    def test_cycle_rows_have_zero_determinant(self, worked_example):
        rows = selected_relation_rows(worked_example, [(0, 1), (0, 2), (1, 2)])
        assert tree_minor_det(rows, 3) is None

    def test_two_facet_case(self):
        cx = SimplicialComplex(4, [(1, 2), (3, 4)])
        (tree,) = relation_trees(cx)
        assert tree.edges == ((0, 1),)
        assert reconstruct_generators(tree) == facet_complement_generators(cx)

    def test_non_quasi_tree_rejected(self, near_miss):
        with pytest.raises(DomainError):
            relation_trees(near_miss)

    def test_limit_validation(self, worked_example):
        with pytest.raises(DomainError):
            relation_trees(worked_example, limit=0)


class TestRelationTreeValue:
    def test_edge_count_enforced(self):
        with pytest.raises(DomainError):
            RelationTree(3, ((0, 1),), (((0, 1), (Monomial((1,)), Monomial((1,)))),))

    def test_cycle_rejected(self):
        lab = (Monomial((1, 0, 0)), Monomial((0, 1, 0)))
        edges = ((0, 1), (0, 2), (1, 2))
        with pytest.raises(DomainError):
            RelationTree(4, edges, tuple((e, lab) for e in edges))

    def test_labels_must_match_edges(self):
        lab = (Monomial((1, 0)), Monomial((0, 1)))
        with pytest.raises(DomainError):
            RelationTree(2, ((0, 1),), (((1, 2), lab),))

    def test_from_edges_attaches_taylor_labels(self):
        gens = [Monomial((1, 1, 0)), Monomial((0, 1, 1))]
        tree = relation_tree_from_edges(gens, [(0, 1)])
        assert tree.label(0, 1) == (Monomial((1, 0, 0)), Monomial((0, 0, 1)))
        assert reconstruct_generators(tree) == [
            Monomial((1, 0, 0)),
            Monomial((0, 0, 1)),
        ]
