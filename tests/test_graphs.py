"""Graphs: chordality witnesses, cliques, clique complexes, Dirac checks."""

import re

import pytest

from srideals import (
    DomainError,
    Graph,
    SimplicialComplex,
    clique_complex,
    complement_graph,
    edge_ideal,
    higher_dirac_check,
    is_chordal,
    isolated_vertices,
    leaf_order,
    maximal_cliques,
    one_skeleton_graph,
    skeleton,
    verify_cycle_witness,
    verify_elimination_witness,
)


def cycle_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


class TestGraphValue:
    def test_edges_canonicalized(self):
        g = Graph(3, [(3, 1), (1, 3), (2, 1)])
        assert g.edges == ((1, 2), (1, 3))

    def test_loop_rejected(self):
        with pytest.raises(DomainError):
            Graph(3, [(2, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            Graph(3, [(1, 4)])

    @pytest.mark.parametrize("vertex", [1.5, "a", True])
    def test_non_integer_vertex_rejected(self, vertex):
        with pytest.raises(DomainError, match=f"vertex {vertex!r} is not an integer"):
            Graph(3, [(vertex, 2)])
        with pytest.raises(DomainError, match=f"vertex {vertex!r} is not an integer"):
            Graph(3, [(2, vertex)])

    def test_bool_vertex_count_rejected(self):
        with pytest.raises(DomainError, match="vertex count must be a positive integer"):
            Graph(True, [])

    @pytest.mark.parametrize("edge", [(1, 2, 3), 1])
    def test_edge_that_is_not_a_pair_rejected(self, edge):
        with pytest.raises(DomainError, match=re.escape(f"edge {edge!r} is not a pair")):
            Graph(3, [edge])

    def test_adjacency_and_has_edge(self):
        g = Graph(3, [(1, 2)])
        assert g.has_edge(2, 1)
        assert not g.has_edge(1, 3)

    def test_complement(self):
        g = Graph(4, [(1, 2), (3, 4)])
        assert complement_graph(g).edges == ((1, 3), (1, 4), (2, 3), (2, 4))
        assert complement_graph(complement_graph(g)) == g


class TestChordality:
    def test_four_cycle_is_not_chordal(self):
        chordal, witness = is_chordal(cycle_graph(4))
        assert not chordal
        assert verify_cycle_witness(cycle_graph(4), witness)

    def test_four_cycle_with_chord_is_chordal(self):
        g = Graph(4, cycle_graph(4).edges + ((1, 3),))
        chordal, witness = is_chordal(g)
        assert chordal
        assert verify_elimination_witness(g, witness)

    def test_complete_graph_is_chordal(self):
        import itertools

        g = Graph(5, list(itertools.combinations(range(1, 6), 2)))
        chordal, witness = is_chordal(g)
        assert chordal
        assert verify_elimination_witness(g, witness)

    def test_edgeless_graph_is_chordal(self):
        chordal, witness = is_chordal(Graph(4, []))
        assert chordal
        assert verify_elimination_witness(Graph(4, []), witness)

    def test_long_cycle_witness_is_the_whole_cycle(self):
        g = cycle_graph(6)
        chordal, witness = is_chordal(g)
        assert not chordal
        assert len(witness) >= 4
        assert verify_cycle_witness(g, witness)

    def test_cycle_witness_verifier_rejects_chorded_cycles(self):
        g = Graph(4, cycle_graph(4).edges + ((1, 3),))
        assert not verify_cycle_witness(g, [1, 2, 3, 4])

    def test_elimination_verifier_rejects_bad_orders(self):
        g = cycle_graph(4)
        assert not verify_elimination_witness(g, [1, 2, 3, 4])
        assert not verify_elimination_witness(g, [1, 2, 3])


class TestCliques:
    def test_maximal_cliques_of_a_path(self):
        g = Graph(3, [(1, 2), (2, 3)])
        assert maximal_cliques(g) == [0b011, 0b110]

    def test_isolated_vertices_appear_as_cliques(self):
        g = Graph(3, [(1, 2)])
        assert maximal_cliques(g) == [0b011, 0b100]

    def test_clique_complex_of_triangle_with_pendant_path(self):
        # a triangle 1,2,3 with a path 3-4-5 attached
        g = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        cx = clique_complex(g)
        assert cx.facets == ((3, 4), (4, 5), (1, 2, 3))

    def test_clique_complex_of_four_cycle(self):
        cx = clique_complex(cycle_graph(4))
        assert cx.facets == ((1, 2), (1, 4), (2, 3), (3, 4))

    def test_one_skeleton_round_trip(self, worked_example):
        g = one_skeleton_graph(worked_example)
        assert clique_complex(g) == worked_example  # flag complex round trip

    def test_edge_ideal(self):
        g = Graph(3, [(1, 2), (2, 3)])
        gens = edge_ideal(g).generators
        assert {m.support for m in gens} == {(1, 2), (2, 3)}
        assert edge_ideal(Graph(3, [])).is_zero

    def test_isolated_vertices_helper(self):
        cx = SimplicialComplex(4, [(1, 2)])
        assert isolated_vertices(cx) == [3, 4]


class TestHigherDirac:
    def test_holds_on_skeleton_of_quasi_tree(self, worked_example):
        report = higher_dirac_check(skeleton(worked_example, 1))
        assert report.holds
        assert report.skeleton_of_quasi_tree
        assert report.chordal

    def test_holds_negatively_on_near_miss(self, near_miss):
        report = higher_dirac_check(near_miss)
        assert report.holds
        assert not report.skeleton_of_quasi_tree
        assert not report.chordal_and_skeleton_of_clique_complex

    def test_four_cycle_complex(self):
        cx = clique_complex(cycle_graph(4))
        report = higher_dirac_check(cx)
        assert report.holds
        assert not report.chordal
        assert not report.skeleton_of_quasi_tree

    def test_impure_complex_rejected(self):
        with pytest.raises(DomainError):
            higher_dirac_check(SimplicialComplex(3, [(1, 2), (3,)]))

    def test_near_miss_one_skeleton_chordality_matches_quasi_tree_verdict(
        self, near_miss
    ):
        chordal, _ = is_chordal(one_skeleton_graph(near_miss))
        assert chordal == (leaf_order(clique_complex(one_skeleton_graph(near_miss))) is not None)
