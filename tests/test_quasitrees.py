"""Leaves, leaf orders, relation matrices, relation trees, reconstruction."""

import itertools

import pytest

from srideals import (
    DomainError,
    Graph,
    Monomial,
    RelationTree,
    SimplicialComplex,
    build_m_delta,
    facet_complement_generators,
    is_quasi_tree,
    leaf_order,
    leaf_report,
    minor_certificates,
    reconstruct_generators,
    reconstructs,
    relation_tree_from_edges,
    relation_trees,
    tree_minor_det,
    verify_cycle_witness,
    verify_elimination_witness,
    verify_leaf_order,
    verify_minor_certificate,
    verify_shelling,
)
from srideals.quasitrees import _taylor_label, leaf_order_masks


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

    @pytest.mark.parametrize("verifier", ["leaf order", "shelling", "elimination", "cycle"])
    @pytest.mark.parametrize("entries", ["floats", "bools"])
    def test_witness_verifiers_answer_false_on_non_integer_entries(
        self, worked_example, verifier, entries
    ):
        # each verifier accepts its witness, and answers False (rather than
        # raising) once an entry is the equal float or bool
        four_cycle = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        chorded = Graph(4, four_cycle.edges + ((1, 3),))
        verify, instance, witness = {
            "leaf order": (verify_leaf_order, worked_example, [3, 2, 1, 0]),
            "shelling": (verify_shelling, worked_example, [0, 1, 2, 3]),
            "elimination": (verify_elimination_witness, chorded, [1, 2, 3, 4]),
            "cycle": (verify_cycle_witness, four_cycle, [1, 2, 3, 4]),
        }[verifier]
        assert verify(instance, witness) is True
        if entries == "floats":
            bad = [float(v) for v in witness]
        else:
            bad = [v == 1 if v in (0, 1) else v for v in witness]
        assert verify(instance, bad) is False

    def test_mask_level_entry_point(self):
        assert sorted(leaf_order_masks([0b011, 0b110])) == [0, 1]
        assert leaf_order_masks([0b0011, 0b0110, 0b1100]) is not None


class TestRelationMatrix:
    def test_shape_and_entries(self, worked_example):
        rows = build_m_delta(worked_example)
        assert [row[:2] for row in rows] == list(itertools.combinations(range(4), 2))
        # row (0, 1): F_0 \ F_1 = {1}, F_1 \ F_0 = {4}
        _, _, m_i, m_j = rows[0]
        assert (m_i.support, m_j.support) == ((1,), (4,))
        assert all(m.num_vars == 6 for _, _, m_i, m_j in rows for m in (m_i, m_j))

    def test_matrix_rows_match_taylor_relations(self, worked_example):
        # the relation matrix of the complex is exactly the matrix of
        # Taylor relations of the facet-complement generators: row (i, j)
        # holds +u_ji in column i and -u_ij in column j
        gens = facet_complement_generators(worked_example)
        for i, j, m_i, m_j in build_m_delta(worked_example):
            assert _taylor_label(gens, i, j) == (m_j, m_i)

    def test_needs_two_facets(self):
        with pytest.raises(DomainError):
            build_m_delta(SimplicialComplex(3, [(1, 2)]))


class TestTaylorRelations:
    def test_relation_of_two_coprime_generators(self):
        gens = [Monomial((1, 1, 0, 0)), Monomial((0, 0, 1, 1))]
        assert _taylor_label(gens, 0, 1) == (gens[0], gens[1])


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

    def test_certificate_needs_two_facets(self):
        # even the single facet [n], whose empty minor is 1 = x_[n]/x_[n]
        for cx in (SimplicialComplex(3, [(1, 2, 3)]), SimplicialComplex(3, [(1,)])):
            with pytest.raises(DomainError, match="at least two facets"):
                verify_minor_certificate(cx, [])
            with pytest.raises(DomainError, match="at least two facets"):
                minor_certificates(cx, [[]])

    def test_relation_tree_on_other_facets_is_no_spanning_tree(self, worked_example):
        # a RelationTree's edges are not checked again, but its size is
        near_cx = SimplicialComplex(6, [(1, 2, 3), (2, 3, 4), (3, 4, 5)])
        for tree in relation_trees(near_cx):
            with pytest.raises(DomainError, match="spanning tree"):
                minor_certificates(worked_example, [tree])
        for tree in relation_trees(worked_example):
            with pytest.raises(DomainError, match="spanning tree"):
                minor_certificates(near_cx, [tree])

    def test_batch_verdicts_follow_the_tree_order(self, worked_example):
        trees = relation_trees(worked_example)
        star = [(0, 1), (0, 2), (0, 3)]
        batch = [trees[0], star, *trees[1:]]
        assert minor_certificates(worked_example, batch) == [True, False, True, True]
        assert minor_certificates(worked_example, []) == []
        gens = facet_complement_generators(worked_example)
        bad = relation_tree_from_edges(gens, star)
        assert reconstructs([trees[0], bad, trees[1]], gens) == [True, False, True]
        assert reconstructs([], gens) == []
        assert reconstructs(trees, gens[:3]) == [False] * 3

    def test_reconstruction_recovers_the_generators(self, worked_example):
        gens = facet_complement_generators(worked_example)
        for tree in relation_trees(worked_example):
            assert reconstruct_generators(tree) == gens

    def test_signed_determinant_identity(self, worked_example):
        # with rows sorted by (i, j), dropping column j flips the sign
        # with the parity of j: (-1)^j det(M#(j)) = u_j (1-based j)
        gens = facet_complement_generators(worked_example)
        rows = build_m_delta(worked_example)
        for tree in relation_trees(worked_example):
            tree_rows = [row for row in rows if row[:2] in tree.edges]
            for j in range(4):
                sign, mono = tree_minor_det(tree_rows, j)
                assert mono == gens[j]
                assert sign == (-1) ** (j + 1)

    def test_cycle_rows_have_zero_determinant(self, worked_example):
        cycle = {(0, 1), (0, 2), (1, 2)}
        rows = [row for row in build_m_delta(worked_example) if row[:2] in cycle]
        assert tree_minor_det(rows, 3) is None

    def test_rows_without_a_square_tree_minor_have_none(self):
        # a forest, a path without the dropped column and a loop row (whose
        # one entry m - m is 0) are no spanning tree through drop_col
        m = Monomial((1, 0))
        path = [(0, 1, m, m), (1, 2, m, m)]
        assert tree_minor_det([(0, 1, m, m), (2, 3, m, m)], 0) is None
        assert tree_minor_det(path, 7) is None
        assert tree_minor_det([(0, 1, m, m), (2, 2, m, m)], 0) is None
        assert tree_minor_det(path, 1) == (-1, Monomial((2, 0)))

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

    def test_leaves_no_reference_cycle(self, worked_example, cyclic_garbage):
        # the leaf-removal memo is freed on return, not by the cycle collector
        assert cyclic_garbage(relation_trees, worked_example) == 0


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
