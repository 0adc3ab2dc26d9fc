"""Homology, Betti tables, projective dimension, regularity, shellings."""

import itertools
import re

import pytest

from srideals import (
    GF2,
    RATIONALS,
    DomainError,
    FieldChoice,
    Monomial,
    MonomialIdeal,
    ResourceLimitError,
    SimplicialComplex,
    betti_table,
    complement_complex,
    facet_ideal,
    is_cohen_macaulay,
    minimalize,
    projdim,
    projdim_and_reg,
    reduced_homology,
    shelling_order,
    stanley_reisner_ideal,
    taylor_betti_table,
    verify_shelling,
)
from srideals import homological
from srideals.complexes import minimal_nonfaces_masks
from srideals.homological import squarefree_betti_masks, squarefree_projdim_masks
from srideals.verification import has_linear_resolution

# the 6-vertex triangulation of the real projective plane: 10 triangles,
# 15 edges, Euler characteristic 6 - 15 + 10 = 1
PROJECTIVE_PLANE = SimplicialComplex(
    6,
    [
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 5),
        (1, 4, 6),
        (1, 5, 6),
        (2, 3, 6),
        (2, 4, 5),
        (2, 5, 6),
        (3, 4, 5),
        (3, 4, 6),
    ],
)


class TestFieldChoice:
    def test_composite_characteristic_rejected(self):
        with pytest.raises(DomainError):
            FieldChoice(6)

    def test_repr(self):
        assert repr(RATIONALS) == "QQ"
        assert repr(FieldChoice(3)) == "GF(3)"


class TestReducedHomology:
    def test_simplex_is_acyclic(self):
        assert reduced_homology(SimplicialComplex(3, [(1, 2, 3)])).is_trivial

    def test_two_points(self):
        profile = reduced_homology(SimplicialComplex(2, [(1,), (2,)]))
        assert profile.rank(0) == 1
        assert profile.rank(1) == 0

    def test_hollow_triangle_is_a_circle(self):
        cx = SimplicialComplex(3, [(1, 2), (1, 3), (2, 3)])
        profile = reduced_homology(cx)
        assert profile.rank(0) == 0
        assert profile.rank(1) == 1

    def test_sphere_boundary_of_simplex(self):
        import itertools

        faces = list(itertools.combinations(range(1, 5), 3))
        cx = SimplicialComplex(4, faces)
        profile = reduced_homology(cx)
        assert profile.rank(2) == 1
        assert profile.rank(0) == profile.rank(1) == 0

    def test_projective_plane_depends_on_the_field(self):
        over_q = reduced_homology(PROJECTIVE_PLANE, RATIONALS)
        over_gf2 = reduced_homology(PROJECTIVE_PLANE, GF2)
        assert over_q.is_trivial
        assert over_gf2.rank(1) == 1
        assert over_gf2.rank(2) == 1

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_clearing_skips_the_pivot_rows_of_the_dimension_above(self, monkeypatch, p):
        # The full simplex on 6 vertices has 63 nonempty faces.  Reduced
        # from the top down, each dimension skips its faces that are pivot
        # rows one dimension up: 1 + 5 + 10 + 10 + 5 + 1 = 32 columns.
        columns = []
        real = homological._rank

        def spy(cols, q, pivots=None):
            columns.append(len(cols))
            return real(cols, q, pivots)

        monkeypatch.setattr(homological, "_rank", spy)
        full = frozenset(range(1 << 6))
        assert homological._profile_from_masks.__wrapped__(full, p) == (0,) * 7
        assert columns == [1, 5, 10, 10, 5, 1]

    def test_explicit_face_list_input(self):
        profile = reduced_homology([(), (1,), (2,)])
        assert profile.rank(0) == 1
        assert profile.ranks == (0, 1)

    def test_empty_complex_has_degree_minus_one_homology(self):
        profile = reduced_homology([()])
        assert profile.rank(-1) == 1

    def test_void_complex_has_no_homology(self):
        assert reduced_homology([]).ranks == ()

    @pytest.mark.parametrize(
        "faces, missing",
        [
            ([(1, 2)], "(2,) is missing, a subface of (1, 2)"),
            ([(1,), (2,)], "() is missing, a subface of (1,)"),
            ([(2,)], "() is missing, a subface of (2,)"),  # a point, but no empty face
        ],
    )
    def test_face_list_must_be_downward_closed(self, faces, missing):
        with pytest.raises(DomainError, match=re.escape(f"not downward closed: {missing}")):
            reduced_homology(faces)

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            reduced_homology(SimplicialComplex(20, [(1, 2)]))


class TestBettiTables:
    def test_two_coprime_variables(self):
        ideal = MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, 1))])
        table = betti_table(ideal)
        assert table.as_dict() == {(0, (1, 0)): 1, (0, (0, 1)): 1, (1, (1, 1)): 1}
        assert table.projdim == 1
        assert table.regularity == 1
        assert table.is_linear(1)

    def test_koszul_complex_of_three_variables(self):
        gens = [Monomial(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        table = betti_table(MonomialIdeal(3, gens))
        assert table.total(0) == 3
        assert table.total(1) == 3
        assert table.total(2) == 1
        assert table.projdim == 2

    def test_worked_example_betti_numbers(self, worked_example):
        ideal = facet_ideal(complement_complex(worked_example))
        table = betti_table(ideal)
        assert table.total(0) == 4
        assert table.total(1) == 3
        assert table.projdim == 1
        assert table.regularity == 3
        assert table.is_linear(3)
        assert table.as_dict()[(1, (1, 0, 0, 1, 1, 1))] == 1
        assert table.as_dict()[(1, (1, 1, 0, 0, 1, 1))] == 2

    def test_projdim_and_reg_wrapper(self, worked_example):
        ideal = facet_ideal(complement_complex(worked_example))
        assert projdim_and_reg(ideal) == (1, 3, True)

    def test_taylor_oracle_agrees_on_small_examples(self, worked_example):
        ideals = [
            MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, 1))]),
            MonomialIdeal(2, [Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 2))]),
            stanley_reisner_ideal(PROJECTIVE_PLANE),
            facet_ideal(complement_complex(worked_example)),
        ]
        for ideal in ideals:
            for field in (RATIONALS, GF2):
                assert betti_table(ideal, field) == taylor_betti_table(ideal, field)

    @pytest.mark.parametrize(
        "vectors",
        [
            # x1^1000 needs 10 value bits in every packed field
            [(1000, 0, 0), (3, 2, 0), (0, 7, 1), (0, 0, 5)],
            [(1000, 0), (999, 1), (1, 999), (0, 1000)],
            # mixed degrees, with exponents at the field-width edges 2^w - 1, 2^w
            [(1, 1, 0), (0, 3, 1), (4, 0, 2), (0, 0, 7), (8, 0, 0)],
            [(2**40, 0, 0, 0), (1, 1, 1, 0), (0, 2, 0, 3), (0, 0, 15, 16)],
        ],
    )
    def test_taylor_oracle_agrees_on_wide_exponents(self, vectors):
        ideal = minimalize([Monomial(v) for v in vectors])
        for field in (RATIONALS, GF2):
            table = betti_table(ideal, field)
            assert table == taylor_betti_table(ideal, field)
            assert table.total(0) == len(ideal.generators)

    def test_taylor_oracle_reduces_every_strand_column(self, monkeypatch):
        # The edge ideal of the 4-cycle: the strand at x1x2x3x4 holds 2
        # pairs, the 4 triples and all four generators, and the oracle
        # reduces all 4 + 1 columns above the pairs, where clearing would
        # skip the triple that is the pivot row of the top column.
        columns = []
        real = homological._rank

        def spy(cols, p, pivots=None):
            assert pivots is None
            columns.append(len(cols))
            return real(cols, p, pivots)

        monkeypatch.setattr(homological, "_rank", spy)
        edges = [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)]
        table = taylor_betti_table(MonomialIdeal(4, [Monomial(e) for e in edges]))
        assert sorted(columns) == [1, 4]
        assert [table.total(i) for i in range(3)] == [4, 4, 1]

    def test_projective_plane_ideal_field_sensitivity(self):
        ideal = stanley_reisner_ideal(PROJECTIVE_PLANE)
        assert projdim_and_reg(ideal, RATIONALS)[0] == 2
        assert projdim_and_reg(ideal, GF2)[0] == 3

    def test_mask_fast_path_agrees(self, worked_example):
        ideal = facet_ideal(complement_complex(worked_example))
        table = betti_table(ideal)
        masks = [g.support_mask for g in ideal.generators]
        fast = squarefree_betti_masks(masks)
        expected = {
            (i, sum(1 << (k) for k, e in enumerate(b) if e)): r
            for (i, b), r in table.entries
        }
        assert fast == expected
        assert squarefree_projdim_masks(masks) == table.projdim
        assert projdim(ideal) == table.projdim

    def test_field_reaches_the_nerve_path(self, monkeypatch):
        # RP^2's own nonfaces give different tables, but only at b = [6],
        # where ten generators send b down the down-closure path
        nonfaces = minimal_nonfaces_masks(list(PROJECTIVE_PLANE.facet_masks), 6)
        assert squarefree_betti_masks(nonfaces, 0) != squarefree_betti_masks(nonfaces, 2)
        # One variable per facet of RP^2 and one generator per vertex v,
        # the product of the facets missing v: generators cover every
        # variable iff their vertices lie in no facet.  At the top element
        # six generators meet ten support positions, so K^b is read from
        # its nerve, which is RP^2 itself.
        gens = [
            sum(1 << j for j, f in enumerate(PROJECTIVE_PLANE.facet_masks) if not f >> v & 1)
            for v in range(6)
        ]
        # RP^2's nerve holds 32 of the 64 index sets, so the kernel
        # reduces its Alexander dual, on which the fields differ too.
        # This RP^2 is self-dual, N^v = N as sets, so the dual branch shows
        # in what reaches the rank kernel: a new collection, never N itself.
        top = (1 << 10) - 1
        nerve_tops = []
        reduced = []
        real_nerve = homological._nerve_faces
        real_reduce = homological._reduced_ranks

        def nerve_spy(minimal, full):
            faces = real_nerve(minimal, full)
            if full == top:
                nerve_tops.append((len(minimal), faces))
            return faces

        def reduce_spy(faces, p):
            ranks = real_reduce(faces, p)
            reduced.append((faces, p, ranks))
            return ranks

        monkeypatch.setattr(homological, "_nerve_faces", nerve_spy)
        monkeypatch.setattr(homological, "_reduced_ranks", reduce_spy)
        homological._profile_from_masks.cache_clear()
        over_q = squarefree_betti_masks(gens, 0)
        assert [m for m, _ in nerve_tops] == [6]
        assert squarefree_betti_masks(gens, 2) == {**over_q, (2, top): 1, (3, top): 1}
        nerves = [nerve for _, nerve in nerve_tops]
        assert list(map(len, nerves)) == [32, 32]
        assert not any(faces is nerve for faces, _, _ in reduced for nerve in nerves)
        dual = frozenset(63 ^ s for s in range(64) if s not in nerves[0])
        assert {p: ranks for faces, p, ranks in reduced if set(faces) == dual} == {
            0: (0, 0, 0, 0),
            2: (0, 0, 1, 1),
        }

    def test_nerve_duals_cut_the_faces_reduced(self, monkeypatch):
        # Eight squarefree cubics in ten variables, like the corpus's
        # `betti --field gf2` requests: most lattice elements take the
        # nerve path with nerves at least half full, so reducing their
        # Alexander duals hands the rank kernel far fewer faces.
        gens = [
            (0, 0, 0, 1, 0, 0, 1, 0, 1, 0),
            (0, 0, 1, 0, 0, 1, 0, 0, 0, 1),
            (0, 0, 1, 1, 0, 0, 0, 0, 1, 0),
            (0, 0, 1, 1, 0, 0, 0, 1, 0, 0),
            (0, 1, 0, 0, 0, 1, 0, 0, 0, 1),
            (0, 1, 1, 0, 1, 0, 0, 0, 0, 0),
            (1, 0, 0, 0, 0, 0, 0, 1, 0, 1),
            (1, 0, 0, 0, 1, 0, 1, 0, 0, 0),
        ]
        ideal = MonomialIdeal(10, [Monomial(g) for g in gens])
        counted = []
        real_reduce = homological._reduced_ranks
        cached = homological._profile_from_masks

        def reduce_spy(faces, p):
            counted.append(len(faces))
            return real_reduce(faces, p)

        def table_and_faces(field):
            counted.clear()
            cached.cache_clear()
            table = betti_table(ideal, field)
            return table, sum(counted)

        monkeypatch.setattr(homological, "_reduced_ranks", reduce_spy)
        for field in (RATIONALS, GF2, FieldChoice(3)):
            table, faces = table_and_faces(field)
            assert table == taylor_betti_table(ideal, field)
            with monkeypatch.context() as direct:
                direct.setattr(
                    homological, "_profile_from_masks", lambda f, p, nerve=False: cached(f, p)
                )
                direct_table, direct_faces = table_and_faces(field)
            assert direct_table == table
            assert faces * 5 < direct_faces

    def test_generators_need_no_homology(self, monkeypatch):
        calls = []
        real = homological._profile_from_masks

        def spy(faces, p):
            calls.append(faces)
            return real(faces, p)

        monkeypatch.setattr(homological, "_profile_from_masks", spy)
        assert squarefree_betti_masks([0b101, 0b111]) == {(0, 0b101): 1}
        assert betti_table(MonomialIdeal(2, [Monomial((2, 1))])).as_dict() == {(0, (2, 1)): 1}
        assert calls == []

    def test_projdim_walk_takes_homology_only_where_the_bound_allows(self, monkeypatch):
        # The six 2-subsets of 4 vertices: the lattice holds them, the four
        # 3-subsets (bound min(3 - 1, 3 - 2) = 1) and the top element
        # (bound min(6 - 1, 4 - 2) = 2).  K^top is the complete graph on
        # the four vertices, with beta_{2,top} = 3, so the walk stops there.
        gens = [a | b for a, b in itertools.combinations([1, 2, 4, 8], 2)]
        calls = []
        real = homological._profile_from_masks

        def spy(faces, p):
            calls.append(faces)
            return real(faces, p)

        monkeypatch.setattr(homological, "_profile_from_masks", spy)
        real.cache_clear()
        assert squarefree_projdim_masks(gens) == 2
        assert len(calls) == 1
        real.cache_clear()
        calls.clear()
        assert max(i for i, _ in squarefree_betti_masks(gens)) == 2
        assert len(calls) == 5

    def test_projdim_walk_starts_at_degree_1(self, monkeypatch):
        # x1x2 and x2x3 have beta_1 != 0, so the one non-generator x1x2x3,
        # of bound min(2 - 1, 3 - 2) = 1, is never collected; a principal
        # ideal has no non-generator at all
        calls = []
        real = homological._profile_from_masks

        def spy(faces, p):
            calls.append(faces)
            return real(faces, p)

        monkeypatch.setattr(homological, "_profile_from_masks", spy)
        assert squarefree_projdim_masks([0b011, 0b110]) == 1
        assert squarefree_projdim_masks([0b101]) == 0
        assert projdim(MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, 2))])) == 1
        assert calls == []

    def test_lcm_lattice_cap_names_its_knob(self):
        # 16 disjoint one-variable masks: every nonempty subset joins to
        # its own element, 2^16 - 1 = 65,535 of them
        for engine in (squarefree_betti_masks, squarefree_projdim_masks):
            with pytest.raises(ResourceLimitError, match="homological.MAX_LCMS = 50,000"):
                engine([1 << i for i in range(16)])

    def test_only_non_squarefree_ideals_are_packed(self, monkeypatch):
        # a squarefree ideal is its own polarization: the engine reads it
        # as generator masks, and only other ideals reach the packed engine
        packed = []
        real = homological._packed_engine

        def spy(ideal):
            packed.append(ideal)
            return real(ideal)

        monkeypatch.setattr(homological, "_packed_engine", spy)
        squarefree = stanley_reisner_ideal(PROJECTIVE_PLANE)
        cube = minimalize([Monomial((2, 1, 0)), Monomial((0, 1, 1)), Monomial((1, 0, 2))])
        for ideal in (squarefree, cube):
            packed.clear()
            betti_table(ideal, GF2)
            projdim(ideal, GF2)
            projdim_and_reg(ideal)
            assert packed == ([] if ideal.is_squarefree else [ideal] * 3)
        # the table fallback of has_linear_resolution: x1x2, x3x4 has no
        # linear quotients, so only its Betti table answers
        packed.clear()
        gens = [Monomial((1, 1, 0, 0)), Monomial((0, 0, 1, 1))]
        assert not has_linear_resolution(MonomialIdeal(4, gens))
        assert packed == []

    @pytest.mark.parametrize("engine", ["_upper_koszul_betti", "_upper_koszul_projdim"])
    def test_lattice_cap_message_is_the_same_on_both_engines(self, monkeypatch, engine):
        # the canonical generators close the lattice in one order in both
        # representations, so the count at the cap is the same
        monkeypatch.setattr(homological, "MAX_LCMS", 20)
        ideal = stanley_reisner_ideal(PROJECTIVE_PLANE)
        messages = []
        for gens, join, tight_masks, _ in (
            homological._engine(ideal),
            homological._packed_engine(ideal),
        ):
            with pytest.raises(ResourceLimitError, match="homological.MAX_LCMS = 20 ") as raised:
                getattr(homological, engine)(gens, join, tight_masks, 0)
            messages.append(str(raised.value))
        with pytest.raises(ResourceLimitError) as raised:
            (betti_table if engine == "_upper_koszul_betti" else projdim)(ideal)
        messages.append(str(raised.value))
        assert len(set(messages)) == 1

    @pytest.mark.parametrize("engine", [betti_table, projdim])
    def test_packed_caps_are_checked_in_order(self, engine):
        # 13 generators in 17 variables: the generator cap is named first
        gens = [Monomial.from_support((i, 17), 17) for i in range(1, 14)]
        with pytest.raises(ResourceLimitError, match="homological.MAX_BETTI_GENERATORS = 12$"):
            engine(MonomialIdeal(17, gens))
        with pytest.raises(ResourceLimitError, match="homological.MAX_BETTI_VARS = 16$"):
            engine(MonomialIdeal(17, gens[:12]))
        with pytest.raises(DomainError, match="zero ideal"):
            engine(MonomialIdeal(17, []))

    def test_generator_cap(self):
        gens = [
            Monomial.from_support((i, 14), 14) for i in range(1, 14)
        ]
        with pytest.raises(ResourceLimitError, match="homological.MAX_BETTI_GENERATORS = 12$"):
            betti_table(MonomialIdeal(14, gens))

    def test_zero_ideal_rejected(self):
        with pytest.raises(DomainError):
            betti_table(MonomialIdeal(2, []))


class TestCohenMacaulay:
    def test_zero_dimensional_is_cm(self):
        assert is_cohen_macaulay(SimplicialComplex(3, [(1,), (2,), (3,)]))

    def test_connected_graph_complex_is_cm(self):
        assert is_cohen_macaulay(SimplicialComplex(3, [(1, 2), (2, 3)]))

    def test_disconnected_one_dimensional_is_not_cm(self):
        assert not is_cohen_macaulay(SimplicialComplex(4, [(1, 2), (3, 4)]))

    def test_impure_complex_is_not_cm(self):
        assert not is_cohen_macaulay(SimplicialComplex(4, [(1, 2, 3), (4,)]))

    def test_projective_plane_cm_depends_on_field(self):
        assert is_cohen_macaulay(PROJECTIVE_PLANE, RATIONALS)
        assert not is_cohen_macaulay(PROJECTIVE_PLANE, GF2)

    def test_vertex_cap_names_its_constant(self):
        with pytest.raises(ResourceLimitError, match="n = 15 exceeds homological.MAX_CM_VARS = 14"):
            is_cohen_macaulay(SimplicialComplex(15, [(1, 2)]))


class TestShelling:
    def test_path_of_edges_is_shellable(self):
        cx = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4)])
        order = shelling_order(cx)
        assert order is not None
        assert verify_shelling(cx, order)

    def test_disjoint_edges_are_not_shellable(self):
        cx = SimplicialComplex(4, [(1, 2), (3, 4)])
        assert shelling_order(cx) is None
        assert not verify_shelling(cx, [0, 1])

    def test_simplex_boundary_is_shellable(self):
        import itertools

        cx = SimplicialComplex(4, list(itertools.combinations(range(1, 5), 3)))
        order = shelling_order(cx)
        assert order is not None
        assert verify_shelling(cx, order)

    def test_search_leaves_no_reference_cycle(self, cyclic_garbage):
        # the recursive search is released on return, with its memo
        path = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4)])
        disjoint = SimplicialComplex(4, [(1, 2), (3, 4)])
        assert cyclic_garbage(shelling_order, path) == 0
        assert cyclic_garbage(shelling_order, disjoint) == 0

    def test_impure_complex_rejected(self):
        with pytest.raises(DomainError):
            shelling_order(SimplicialComplex(3, [(1, 2), (3,)]))

    def test_verify_rejects_wrong_permutation(self):
        cx = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4)])
        assert not verify_shelling(cx, [0, 1])
        # facets 0 = {1,2} and 2 = {3,4}-side: starting at the two ends
        # of the path fails at the middle
        assert not verify_shelling(cx, [0, 2, 1])
