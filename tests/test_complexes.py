"""Facet complexes: construction, skeletons, complements, duals, nonfaces."""

import itertools
import re

import pytest

from srideals import (
    VOID_DUAL,
    DomainError,
    SimplicialComplex,
    alexander_dual,
    complement_complex,
    contains_face,
    dimension_info,
    minimal_nonfaces,
    pure_complement,
    skeleton,
)
from srideals import complexes
from srideals.complexes import MAX_VARS, mask_face, minimal_transversals
from srideals.errors import ResourceLimitError
from srideals.ideals import facet_ideal, stanley_reisner_ideal
from srideals.verification import iter_complexes_masks


class TestConstruction:
    def test_facets_are_canonically_ordered(self):
        cx = SimplicialComplex(4, [(3, 4), (2, 1), (1, 3)])
        assert cx.facets == ((1, 2), (1, 3), (3, 4))

    def test_duplicate_facets_collapse(self):
        cx = SimplicialComplex(3, [(1, 2), (2, 1)])
        assert cx.facets == ((1, 2),)

    def test_comparable_facets_rejected(self):
        with pytest.raises(DomainError, match="antichain"):
            SimplicialComplex(3, [(1, 2), (1, 2, 3)])

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(DomainError, match="out of range"):
            SimplicialComplex(3, [(1, 4)])

    def test_from_faces_checks_the_ambient_size_first(self):
        messages = []
        for build in (
            lambda: SimplicialComplex.from_faces(0, [[1]]),
            lambda: SimplicialComplex(0, [[1]]),
            lambda: SimplicialComplex.from_faces(0, []),
        ):
            with pytest.raises(DomainError) as info:
                build()
            messages.append(str(info.value))
        assert messages == ["ambient size must be a positive integer, got 0"] * 3

    @pytest.mark.parametrize(
        "build", [lambda: SimplicialComplex(True, [[1]]), lambda: SimplicialComplex.from_masks(True, [1])]
    )
    def test_bool_ambient_rejected(self, build):
        with pytest.raises(DomainError, match="ambient size must be a positive integer"):
            build()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SimplicialComplex(3, 5), "expected an iterable of faces, got 5"),
            (lambda: SimplicialComplex(3, [5]), "expected an iterable of vertices, got 5"),
            (
                lambda: SimplicialComplex(3, [[1, 2], None]),
                "expected an iterable of vertices, got None",
            ),
            (lambda: SimplicialComplex.from_faces(3, None), "expected an iterable of faces"),
            (lambda: SimplicialComplex.from_masks(3, 5), "expected an iterable of facet masks"),
            (lambda: SimplicialComplex.from_masks(3, [True]), "facet mask True is not an integer"),
            (lambda: SimplicialComplex.from_masks(3, [1.0]), "facet mask 1.0 is not an integer"),
            (lambda: SimplicialComplex.from_masks(3, [1, True]), "facet mask True is not"),
        ],
    )
    def test_malformed_inputs_are_domain_errors(self, build, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            build()

    def test_the_largest_ambient_builds_with_the_same_facets(self):
        # the canonical facet order does not depend on n, up to the cap itself
        built = SimplicialComplex(MAX_VARS, [(1,), (2, 3)])
        from_masks = SimplicialComplex.from_masks(MAX_VARS, [6, 1])
        assert built == from_masks and hash(built) == hash(from_masks)
        assert from_masks.facets == built.facets == ((1,), (2, 3))
        assert from_masks.facet_masks == (1, 6)

    @pytest.mark.parametrize(
        "build", [SimplicialComplex, SimplicialComplex.from_faces, SimplicialComplex.from_masks]
    )
    def test_huge_ambients_are_refused_where_built(self, build):
        # no n-bit mask of [n] is built later, by a dual, a complement or an ideal
        message = "ambient size = 10000000000000000000 exceeds complexes.MAX_VARS = 1,024"
        with pytest.raises(ResourceLimitError, match=re.escape(message)):
            build(10**19, [1] if build is SimplicialComplex.from_masks else [(1,)])

    @pytest.mark.parametrize("ideal", [facet_ideal, stanley_reisner_ideal])
    def test_the_largest_ambient_gives_dense_vectors(self, ideal):
        cx = SimplicialComplex(MAX_VARS, [(1,), (2, 3)])
        assert {len(e) for e in ideal(cx).exponents} == {MAX_VARS}

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            SimplicialComplex(3, [(1, 1, 2)])

    def test_antichain_error_names_the_first_contained_facet(self):
        # (1, 2) and (2, 3) both lie in (1, 2, 3, 4); the canonical order
        # puts (1, 2) first.
        with pytest.raises(DomainError) as err:
            SimplicialComplex(5, [(1, 2, 3, 4), (3, 4, 5), (2, 3), (1, 2)])
        assert str(err.value) == (
            "facets are not an antichain: (1, 2) is contained in another facet"
        )

    def test_equal_size_facets_need_no_pair_scan(self):
        faces = list(itertools.combinations(range(1, 17), 6))
        cx = SimplicialComplex(16, faces)
        assert len(cx.facets) == 8008
        assert cx.facets == tuple(faces)
        assert SimplicialComplex.from_faces(16, faces) == cx

    def test_from_faces_drops_non_maximal(self):
        cx = SimplicialComplex.from_faces(3, [(1,), (1, 2), (2, 3), (3,)])
        assert cx.facets == ((1, 2), (2, 3))

    def test_void_complex_is_a_value(self):
        assert SimplicialComplex(2, []).is_void

    def test_contains_face(self):
        cx = SimplicialComplex(4, [(1, 2, 3)])
        assert contains_face(cx, (2, 3))
        assert contains_face(cx, ())
        assert not contains_face(cx, (3, 4))


class TestLazyFacets:
    """A complex stores facet masks; its facet tuples are listed only when
    SimplicialComplex.facets is first read, which Lemma 1.2's path never does."""

    @pytest.fixture
    def facet_reads(self, monkeypatch):
        reads = []
        listed = SimplicialComplex.__dict__["facets"].func

        def spy(cx):
            reads.append(cx.n)
            return listed(cx)

        monkeypatch.setattr(SimplicialComplex, "facets", property(spy))
        return reads

    def test_lemma_12_never_lists_facets(self, facet_reads):
        count = 0
        for n in range(2, 6):
            for masks in iter_complexes_masks(n, max_facets=4, max_size=min(3, n - 1)):
                cx = SimplicialComplex(n, [mask_face(m) for m in masks])
                left = stanley_reisner_ideal(alexander_dual(cx))
                assert left == facet_ideal(complement_complex(cx))
                count += 1
        assert count > 1000 and facet_reads == []
        assert SimplicialComplex.from_masks(3, [3]).facets == ((1, 2),)
        assert facet_reads == [3]  # the spy does see a read

    def test_the_tuple_constructor_keeps_its_facets(self):
        cx = SimplicialComplex(4, [(3, 4), (1, 2)])
        assert cx.__dict__["facets"] == ((1, 2), (3, 4))
        assert "facets" not in SimplicialComplex.from_masks(4, [12, 3]).__dict__


class TestDimensionAndSkeleton:
    def test_dimension_and_purity(self):
        assert dimension_info(SimplicialComplex(3, [(1, 2, 3)])) == (2, True)
        assert dimension_info(SimplicialComplex(3, [(1, 2), (3,)])) == (1, False)

    def test_dimension_of_void_rejected(self):
        with pytest.raises(DomainError):
            dimension_info(SimplicialComplex(2, []))

    def test_skeleton_of_simplex(self):
        cx = SimplicialComplex(3, [(1, 2, 3)])
        assert skeleton(cx, 1).facets == ((1, 2), (1, 3), (2, 3))
        assert skeleton(cx, 0).facets == ((1,), (2,), (3,))

    def test_skeleton_dimension_bounds(self):
        cx = SimplicialComplex(3, [(1, 2)])
        with pytest.raises(DomainError):
            skeleton(cx, 2)
        with pytest.raises(DomainError):
            skeleton(cx, -1)

    def test_top_skeleton_of_pure_complex_is_identity(self, worked_example):
        assert skeleton(worked_example, 2) == worked_example


class TestComplements:
    def test_pure_complement_of_worked_example(self, worked_example):
        # 20 three-subsets of [6], 4 are facets, 16 remain
        bar = pure_complement(worked_example)
        assert len(bar.facets) == 16
        assert (1, 2, 4) in bar.facets
        assert (2, 3, 4) not in bar.facets

    def test_pure_complement_requires_pure(self):
        with pytest.raises(DomainError, match="pure"):
            pure_complement(SimplicialComplex(3, [(1, 2), (3,)]))

    def test_pure_complement_of_full_layer_is_void(self):
        cx = SimplicialComplex(3, [(1, 2), (1, 3), (2, 3)])
        assert pure_complement(cx).is_void

    def test_facet_complement(self, worked_example):
        cc = complement_complex(worked_example)
        assert cc.facets == ((1, 2, 5), (1, 2, 6), (1, 5, 6), (4, 5, 6))

    def test_facet_complement_is_involutive(self, worked_example):
        assert complement_complex(complement_complex(worked_example)) == worked_example

    def test_full_facet_has_no_complement(self):
        with pytest.raises(DomainError):
            complement_complex(SimplicialComplex(3, [(1, 2, 3)]))


class TestNonfacesAndDual:
    def test_the_ground_set_picks_the_transversal_kernel(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            complexes, "_bitmap_transversals", lambda edges, m: calls.append(m) or []
        )
        monkeypatch.setattr(
            complexes, "_berge_transversals", lambda edges: calls.append("berge") or []
        )
        bound = complexes._BITMAP_VERTICES
        minimal_transversals(iter([0b1, 1 << (bound - 1)]))
        minimal_transversals([])
        minimal_transversals([1 << bound])
        assert calls == [bound, 0, "berge"]

    def test_minimal_nonfaces_of_hollow_triangle(self):
        cx = SimplicialComplex(3, [(1, 2), (1, 3), (2, 3)])
        nonfaces, is_flag = minimal_nonfaces(cx)
        assert nonfaces == [(1, 2, 3)]
        assert not is_flag

    def test_simplex_is_flag(self):
        nonfaces, is_flag = minimal_nonfaces(SimplicialComplex(3, [(1, 2, 3)]))
        assert nonfaces == []
        assert is_flag

    def test_flag_verdict_ignores_unused_vertices(self):
        # vertex 3 occurs in no facet: {3} is a minimal nonface but must
        # not spoil flagness, which is judged on the vertex support
        nonfaces, is_flag = minimal_nonfaces(SimplicialComplex(3, [(1, 2)]))
        assert (3,) in nonfaces
        assert is_flag

    def test_worked_example_nonfaces(self, worked_example):
        nonfaces, is_flag = minimal_nonfaces(worked_example)
        assert is_flag
        assert set(nonfaces) == {(1, 4), (1, 5), (1, 6), (2, 5), (2, 6), (5, 6)}

    def test_dual_of_simplex_is_the_sentinel(self):
        assert alexander_dual(SimplicialComplex(2, [(1, 2)])) is VOID_DUAL

    def test_dual_faces_are_complements_of_nonfaces(self):
        cx = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4)])
        dual = alexander_dual(cx)
        nonfaces, _ = minimal_nonfaces(cx)
        expected = {tuple(sorted(set(range(1, 5)) - set(f))) for f in nonfaces}
        assert set(dual.facets) == expected
        assert expected  # sanity: there are nonfaces

    def test_dual_is_an_involution(self, worked_example):
        assert alexander_dual(alexander_dual(worked_example)) == worked_example
