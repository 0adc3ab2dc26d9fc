"""Monomials, monomial ideals, complex/ideal bridges, linear quotients."""

import time

import pytest

from srideals import (
    DomainError,
    FieldChoice,
    Monomial,
    MonomialIdeal,
    ResourceLimitError,
    SimplicialComplex,
    complex_from_ideal,
    facet_ideal,
    graded_component_ideal,
    leaf_report,
    linear_quotients_order,
    minimalize,
    power,
    relation_trees,
    restrict_ideal,
    skeleton,
    skeleton_ideal_from_one_skeleton,
    stanley_reisner_ideal,
    verify_linear_quotients,
)
from srideals import ideals
from srideals.complexes import skeleton_complement


def m(*exps):
    return Monomial(exps)


B = 2**40


class TestMonomial:
    def test_arithmetic(self):
        a, b = m(2, 0, 1), m(1, 1, 0)
        assert a * b == m(3, 1, 1)
        assert a.gcd(b) == m(1, 0, 0)
        assert a.lcm(b) == m(2, 1, 1)
        assert (a * b).quotient(b) == a

    def test_divides(self):
        assert m(1, 0).divides(m(2, 1))
        assert not m(2, 0).divides(m(1, 1))

    def test_quotient_requires_divisibility(self):
        with pytest.raises(DomainError):
            m(1, 0).quotient(m(0, 1))

    def test_support(self):
        assert m(0, 2, 1).support == (2, 3)
        assert m(0, 2, 1).support_mask == 0b110
        assert Monomial.from_support((1, 3), 3) == m(1, 0, 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            Monomial((1, -1))

    def test_bool_exponent_rejected(self):
        with pytest.raises(DomainError, match="nonnegative integers"):
            Monomial((True, 0))


class TestMonomialIdeal:
    def test_generators_sorted_by_degree_then_lex(self):
        ideal = MonomialIdeal(2, [m(0, 3), m(1, 1)])
        assert ideal.generators == (m(1, 1), m(0, 3))

    def test_non_minimal_generators_rejected(self):
        with pytest.raises(DomainError, match="not minimal"):
            MonomialIdeal(2, [m(1, 0), m(1, 1)])

    def test_unit_ideal_rejected(self):
        with pytest.raises(DomainError, match="unit"):
            MonomialIdeal(2, [m(0, 0)])

    def test_bool_variable_count_rejected(self):
        with pytest.raises(DomainError, match="num_vars must be a positive integer"):
            MonomialIdeal(True, [])

    def test_zero_ideal(self):
        ideal = MonomialIdeal(2, [])
        assert ideal.is_zero
        assert not ideal.contains(m(1, 0))

    def test_membership(self):
        ideal = MonomialIdeal(2, [m(2, 0), m(0, 1)])
        assert ideal.contains(m(2, 5))
        assert not ideal.contains(m(1, 0))

    def test_membership_needs_the_ideal_s_variable_count(self):
        # a shorter or longer vector must not be compared position by position
        ideal = MonomialIdeal(2, [m(0, 1)])
        with pytest.raises(DomainError, match="has 1 variables, expected 2"):
            ideal.contains(m(0))
        with pytest.raises(DomainError, match="has 3 variables, expected 2"):
            ideal.contains(m(0, 1, 5))

    def test_minimalize(self):
        ideal = minimalize([m(1, 1), m(1, 2), m(2, 1), m(0, 3)])
        assert ideal.generators == (m(1, 1), m(0, 3))


# Generators or error message of MonomialIdeal(n, gens) and minimalize(gens):
# the same before and after their canonical sort became one dict and one
# sort of (degree, exponents) pairs.
CANONICAL_CASES = {
    "duplicated-unsorted": (
        3,
        [(0, 2, 1), (1, 1, 0), (0, 2, 1), (1, 0, 1), (1, 1, 0)],
        [(1, 0, 1), (1, 1, 0), (0, 2, 1)],
        [(1, 0, 1), (1, 1, 0), (0, 2, 1)],
    ),
    "mixed-degree": (
        3,
        [(2, 0, 0), (1, 1, 1), (0, 0, 3), (0, 1, 0)],
        "generators are not minimal: Monomial(x2) and Monomial(x1*x2*x3) are comparable",
        [(0, 1, 0), (2, 0, 0), (0, 0, 3)],
    ),
    "huge-exponents": (
        2,
        [(B, 0), (1, 1), (0, B), (2 * B, 0)],
        f"generators are not minimal: Monomial(x1^{B}) and Monomial(x1^{2 * B}) are comparable",
        [(1, 1), (0, B), (B, 0)],
    ),
    "mixed-num-vars": (
        3,
        [(1, 0, 0), (1, 1), (0, 0, 1)],
        "generator Monomial(x1*x2) has 2 variables, expected 3",
        "monomials have mixed variable counts",
    ),
    "mixed-num-vars-sorted-first": (
        2,
        [(1, 0, 0), (1, 1)],
        "generator Monomial(x1) has 3 variables, expected 2",
        "monomials have mixed variable counts",
    ),
    "unit": (2, [(1, 0), (0, 0)], "the unit ideal is not supported", "the unit ideal is not supported"),
    "unit-with-mixed-num-vars": (
        2,
        [(0, 0, 0), (1, 0)],
        "generator Monomial(1) has 3 variables, expected 2",
        "monomials have mixed variable counts",
    ),
    "empty": (2, [], [], "minimalize needs at least one monomial"),
}


# Calls whose integer argument is a bool or a float: each is a DomainError,
# never a TypeError or a bool read as 0 or 1.
_NOT_INTEGERS = {
    "power True": lambda cx: power(facet_ideal(cx), True),
    "power 2.0": lambda cx: power(facet_ideal(cx), 2.0),
    "graded component True": lambda cx: graded_component_ideal(facet_ideal(cx), True),
    "graded component 4.0": lambda cx: graded_component_ideal(facet_ideal(cx), 4.0),
    "restrict bound True": lambda cx: restrict_ideal(MonomialIdeal(2, [m(1, 1)]), [True, 0]),
    "skeleton True": lambda cx: skeleton(cx, True),
    "skeleton 0.0": lambda cx: skeleton(cx, 0.0),
    "skeleton complement 1.0": lambda cx: skeleton_complement(cx, 1.0),
    "skeleton ideal ell 2.0": lambda cx: skeleton_ideal_from_one_skeleton(
        MonomialIdeal(4, [m(1, 1, 0, 0)]), 2.0, 4
    ),
    "relation trees limit True": lambda cx: relation_trees(cx, limit=True),
    "relation trees limit 2.0": lambda cx: relation_trees(cx, limit=2.0),
    "field 3.0": lambda cx: FieldChoice(3.0),
    "field True": lambda cx: FieldChoice(True),
    "from support n True": lambda cx: Monomial.from_support((1,), True),
    "from support n 2.0": lambda cx: Monomial.from_support((1,), 2.0),
    "leaf report True": lambda cx: leaf_report(cx, True),
    "leaf report 1.5": lambda cx: leaf_report(cx, 1.5),
}


@pytest.mark.parametrize("call", _NOT_INTEGERS)
def test_integer_arguments_reject_bools_and_floats(worked_example, call):
    with pytest.raises(DomainError, match="integer"):
        _NOT_INTEGERS[call](worked_example)


@pytest.mark.parametrize("case", CANONICAL_CASES)
def test_canonical_generators_and_errors(case):
    n, vectors, as_ideal, minimal = CANONICAL_CASES[case]
    for build, expected in (
        (lambda gens: MonomialIdeal(n, gens), as_ideal),
        (minimalize, minimal),
    ):
        gens = [Monomial(v) for v in vectors]
        if isinstance(expected, str):
            with pytest.raises(DomainError) as err:
                build(gens)
            assert str(err.value) == expected
        else:
            ideal = build(gens)
            assert [g.exponents for g in ideal.generators] == expected
            assert ideal.generator_degrees == tuple(map(sum, expected))


class TestBridges:
    def test_stanley_reisner_of_hollow_triangle(self):
        cx = SimplicialComplex(3, [(1, 2), (1, 3), (2, 3)])
        assert stanley_reisner_ideal(cx).generators == (m(1, 1, 1),)

    def test_stanley_reisner_of_simplex_is_zero(self):
        assert stanley_reisner_ideal(SimplicialComplex(2, [(1, 2)])).is_zero

    def test_facet_ideal(self):
        cx = SimplicialComplex(3, [(1, 2), (3,)])
        assert facet_ideal(cx).generators == (m(0, 0, 1), m(1, 1, 0))

    def test_round_trip_stanley_reisner(self, worked_example):
        ideal = stanley_reisner_ideal(worked_example)
        assert complex_from_ideal(ideal, "stanley-reisner") == worked_example

    def test_round_trip_facet(self, worked_example):
        ideal = facet_ideal(worked_example)
        assert complex_from_ideal(ideal, "facet") == worked_example

    def test_complex_from_zero_ideal_is_simplex(self):
        cx = complex_from_ideal(MonomialIdeal(3, []), "stanley-reisner")
        assert cx == SimplicialComplex(3, [(1, 2, 3)])

    def test_non_squarefree_rejected(self):
        with pytest.raises(DomainError, match="squarefree"):
            complex_from_ideal(MonomialIdeal(2, [m(2, 0)]), "facet")

    def test_sparse_ideal_on_200_variables_is_fast(self):
        # (x1 x2, x3 x4, x5): the facets miss one of each of {1, 2}, {3, 4}, {5}
        n = 200
        ideal = MonomialIdeal(n, [Monomial.from_support(s, n) for s in [(1, 2), (3, 4), (5,)]])
        start = time.perf_counter()
        cx = complex_from_ideal(ideal, "stanley-reisner")
        assert time.perf_counter() - start < 1
        rest = tuple(range(6, n + 1))
        assert cx == SimplicialComplex(n, [(a, b, *rest) for a in (1, 2) for b in (3, 4)])
        assert stanley_reisner_ideal(cx) == ideal


class TestPowerAndComponents:
    def test_square_of_two_variables(self):
        ideal = MonomialIdeal(2, [m(1, 0), m(0, 1)])
        assert power(ideal, 2).generators == (m(0, 2), m(1, 1), m(2, 0))

    def test_power_one_is_identity(self, worked_example):
        ideal = stanley_reisner_ideal(worked_example)
        assert power(ideal, 1) == ideal

    def test_power_drops_redundant_products(self):
        # (x, y^2)^2 = (x^2, xy^2, y^4): the product x*y^2*... stays minimal
        ideal = MonomialIdeal(2, [m(1, 0), m(0, 2)])
        assert power(ideal, 2).generators == (m(2, 0), m(1, 2), m(0, 4))

    def test_power_sizes_of_worked_ideal(self, worked_example):
        from srideals import complement_complex

        ideal = facet_ideal(complement_complex(worked_example))
        assert len(power(ideal, 2).generators) == 10
        assert len(power(ideal, 3).generators) == 20

    def test_graded_component(self):
        ideal = MonomialIdeal(2, [m(2, 0), m(0, 1)])
        comp = graded_component_ideal(ideal, 2)
        assert comp.generators == (m(0, 2), m(1, 1), m(2, 0))

    def test_graded_component_below_min_degree_rejected(self):
        with pytest.raises(DomainError):
            graded_component_ideal(MonomialIdeal(2, [m(1, 1)]), 1)

    def test_graded_component_cap(self):
        # C(67, 8) = 6,522,361,560 monomials of degree 8 on 60 variables
        ideal = MonomialIdeal(60, [Monomial.from_support((1,), 60)])
        with pytest.raises(ResourceLimitError, match="ideals.MAX_GRADED_MONOMIALS"):
            graded_component_ideal(ideal, 9)

    def test_graded_component_far_above_the_minimal_degree(self):
        # degree 100 lists only the 99 multiples x1^a * x2^b of x1 * x2
        comp = graded_component_ideal(MonomialIdeal(2, [m(1, 1)]), 100)
        assert comp.generators == tuple(m(a, 100 - a) for a in range(1, 100))


class TestRestrict:
    def test_restrict_keeps_small_generators(self):
        ideal = MonomialIdeal(2, [m(2, 0), m(1, 1), m(0, 3)])
        assert restrict_ideal(ideal, (1, 1)).generators == (m(1, 1),)
        assert restrict_ideal(ideal, (0, 0)).is_zero

    def test_restrict_bound_validation(self):
        ideal = MonomialIdeal(2, [m(1, 1)])
        with pytest.raises(DomainError):
            restrict_ideal(ideal, (1,))
        with pytest.raises(DomainError):
            restrict_ideal(ideal, (1, -1))


class TestSkeletonIdealFromEdges:
    def test_degree_lifting(self):
        # generators x1x2 lift to every squarefree cubic multiple
        i1 = MonomialIdeal(4, [m(1, 1, 0, 0)])
        lifted = skeleton_ideal_from_one_skeleton(i1, 2, 4)
        assert set(lifted.generators) == {m(1, 1, 1, 0), m(1, 1, 0, 1)}

    def test_requires_degree_two_input(self):
        with pytest.raises(DomainError):
            skeleton_ideal_from_one_skeleton(MonomialIdeal(3, [m(1, 1, 1)]), 2, 3)

    def test_large_scan_is_capped_before_it_starts(self):
        # C(30, 16) = 145,422,675 subsets of size 16
        i1 = MonomialIdeal(30, [Monomial.from_support((1, 2), 30)])
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="complexes.MAX_SKELETON_FACES"):
            skeleton_ideal_from_one_skeleton(i1, 15, 30)
        assert time.perf_counter() - start < 1


class TestLinearQuotients:
    def test_two_variables(self):
        order = linear_quotients_order(MonomialIdeal(2, [m(1, 0), m(0, 1)]))
        assert order is not None
        assert verify_linear_quotients(order)

    def test_worked_ideal_has_linear_quotients(self, worked_example):
        from srideals import complement_complex

        ideal = facet_ideal(complement_complex(worked_example))
        order = linear_quotients_order(ideal)
        assert order is not None
        assert verify_linear_quotients(order)

    def test_no_order_exists(self):
        # two coprime quadrics: the colon ideal is never linear
        ideal = MonomialIdeal(4, [m(1, 1, 0, 0), m(0, 0, 1, 1)])
        assert linear_quotients_order(ideal) is None
        assert not verify_linear_quotients(list(ideal.generators))

    def test_colon_is_taken_against_the_quotient_not_the_support(self):
        # Every prefix colon of this order is linear except the last:
        # (x1^2*x2, x1*x2*x3^2, x1*x3^2):(x1*x2^2) = (x1, x3^2).  x1
        # divides the earlier generators x1*x2*x3^2 and x1*x3^2 but not
        # their colon quotients x3^2, so a check that compares against
        # generator supports instead of colon quotients would wrongly
        # accept this order.
        order = [m(2, 1, 0), m(1, 1, 2), m(1, 0, 2), m(1, 2, 0)]
        assert verify_linear_quotients(order[:3])
        assert not verify_linear_quotients(order)

    def test_non_squarefree_positive_case(self):
        order = [m(2, 0), m(1, 1), m(0, 2)]
        assert verify_linear_quotients(order)

    def test_verify_rejects_bad_order(self):
        # (x^2):(y^2) = (x^2) is not generated by variables
        assert not verify_linear_quotients([m(2, 0), m(0, 2)])

    def test_mixed_variable_counts_rejected_in_either_order(self):
        # x1 in two variables, x2*x3^5 in three: no order may be judged.
        order = [m(1, 0), m(0, 1, 5)]
        for candidate in (order, order[::-1]):
            with pytest.raises(DomainError, match="mixed variable counts"):
                verify_linear_quotients(candidate)

    @pytest.mark.parametrize(
        "order, expected",
        [
            # x1^B : x1^(B-1) x2 = x1, and x1^(B-1) x2 : x1^(B-1) x3 = x2
            ([(B, 0, 0), (B - 1, 1, 0), (B - 1, 0, 1)], True),
            # the colon variable sits in the == B + 1 column of x1
            ([(B + 1, 0), (B, 1)], True),
            ([(B, 1), (B + 1, 0)], True),
            # x1^(B+2) : x1^B x2 = x1^2 is no variable
            ([(B + 2, 0), (B, 1)], False),
            ([(B, 0), (0, B)], False),
            # (1) : x1^B = (1) is not generated by variables
            ([(0,), (B,)], False),
        ],
    )
    def test_exponents_beyond_2_to_the_40(self, order, expected):
        assert verify_linear_quotients([Monomial(v) for v in order]) is expected

    def test_mixed_degree_order_can_still_be_linear(self):
        # (x):(y^2) = (x) is generated by a single variable
        assert verify_linear_quotients([m(1, 0), m(0, 2)])

    def test_search_leaves_no_reference_cycle(self, worked_example, cyclic_garbage):
        from srideals import complement_complex

        # the recursive search is released on return, with its memo
        found = facet_ideal(complement_complex(worked_example))
        none = MonomialIdeal(4, [m(1, 1, 0, 0), m(0, 0, 1, 1)])
        assert cyclic_garbage(linear_quotients_order, found) == 0
        assert cyclic_garbage(linear_quotients_order, none) == 0

    def test_search_cap_fires_at_a_pinned_node(self, monkeypatch):
        # Ten squarefree cubics in six variables with no order (request 45
        # of the cli-ops benchmark corpus): proving that visits 469 nodes,
        # so the cap fires at any value below that and at none from it on.
        gens = [
            (0, 0, 1, 0, 1, 1), (1, 0, 1, 0, 0, 1), (1, 0, 0, 1, 0, 1), (0, 0, 0, 1, 1, 1),
            (1, 0, 0, 1, 1, 0), (1, 0, 1, 1, 0, 0), (1, 1, 0, 1, 0, 0), (1, 0, 0, 0, 1, 1),
            (1, 0, 1, 0, 1, 0), (0, 1, 1, 1, 0, 0),
        ]  # fmt: skip
        ideal = MonomialIdeal(6, [Monomial(g) for g in gens])
        monkeypatch.setattr(ideals, "MAX_SEARCH_NODES", 469)
        assert linear_quotients_order(ideal) is None
        monkeypatch.setattr(ideals, "MAX_SEARCH_NODES", 468)
        with pytest.raises(
            ResourceLimitError, match="nodes = 469 exceeds ideals.MAX_SEARCH_NODES = 468$"
        ):
            linear_quotients_order(ideal)

    def test_search_agrees_with_exhaustive_verification(self):
        import itertools

        ideal = MonomialIdeal(3, [m(1, 1, 0), m(0, 1, 1), m(1, 0, 1)])
        found = linear_quotients_order(ideal)
        brute = any(
            verify_linear_quotients(list(p))
            for p in itertools.permutations(ideal.generators)
        )
        assert (found is not None) == brute
        if found is not None:
            assert verify_linear_quotients(found)
