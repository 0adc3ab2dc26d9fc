"""Property-based invariants on randomized complexes and ideals."""

from hypothesis import given, settings
from hypothesis import strategies as st

from srideals import (
    RATIONALS,
    GF2,
    SimplicialComplex,
    alexander_dual,
    VOID_DUAL,
    betti_table,
    complex_from_ideal,
    facet_ideal,
    minimalize,
    Monomial,
    power,
    reduced_homology,
    restrict_ideal,
    stanley_reisner_ideal,
    taylor_betti_table,
    verify_leaf_order,
    verify_shelling,
)
from srideals.homological import shelling_order, squarefree_betti_masks
from srideals.quasitrees import leaf_order


@st.composite
def complexes(draw, max_n=6, max_faces=6):
    n = draw(st.integers(min_value=2, max_value=max_n))
    faces = draw(
        st.lists(
            st.sets(st.integers(min_value=1, max_value=n), min_size=1, max_size=n),
            min_size=1,
            max_size=max_faces,
        )
    )
    return SimplicialComplex.from_faces(n, [tuple(sorted(f)) for f in faces])


@st.composite
def monomial_ideals(draw, max_n=4, max_gens=4, max_exp=2):
    n = draw(st.integers(min_value=2, max_value=max_n))
    gens = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=max_exp), min_size=n, max_size=n
            ).filter(lambda e: any(e)),
            min_size=1,
            max_size=max_gens,
        )
    )
    return minimalize([Monomial(tuple(e)) for e in gens])


@given(complexes())
@settings(max_examples=150, deadline=None)
def test_alexander_dual_is_an_involution(cx):
    dual = alexander_dual(cx)
    if dual is VOID_DUAL:
        # only the full simplex has no nonfaces
        assert cx.facets == (tuple(range(1, cx.n + 1)),)
    else:
        assert alexander_dual(dual) == cx


@given(complexes())
@settings(max_examples=150, deadline=None)
def test_stanley_reisner_round_trip(cx):
    assert complex_from_ideal(stanley_reisner_ideal(cx), "stanley-reisner") == cx


@given(complexes())
@settings(max_examples=150, deadline=None)
def test_facet_ideal_round_trip(cx):
    assert complex_from_ideal(facet_ideal(cx), "facet") == cx


@given(complexes(max_n=5))
@settings(max_examples=100, deadline=None)
def test_cone_is_acyclic(cx):
    apex = cx.n + 1
    cone = SimplicialComplex(apex, [f + (apex,) for f in cx.facets])
    for field in (RATIONALS, GF2):
        assert reduced_homology(cone, field).is_trivial


@given(complexes(max_n=5))
@settings(max_examples=100, deadline=None)
def test_leaf_order_when_found_verifies(cx):
    order = leaf_order(cx)
    if order is not None:
        assert verify_leaf_order(cx, order)


@given(complexes(max_n=5))
@settings(max_examples=60, deadline=None)
def test_shelling_when_found_verifies(cx):
    sizes = {len(f) for f in cx.facets}
    if len(sizes) != 1:
        return
    order = shelling_order(cx)
    if order is not None:
        assert verify_shelling(cx, order)


@given(monomial_ideals())
@settings(max_examples=100, deadline=None)
def test_power_one_is_identity(ideal):
    assert power(ideal, 1) == ideal


@given(monomial_ideals(max_gens=3))
@settings(max_examples=60, deadline=None)
def test_power_products_generate(ideal):
    squared = power(ideal, 2)
    # every generator of I^2 is a product of two generators of I, and
    # every pairwise product lies in I^2
    products = {a * b for a in ideal.generators for b in ideal.generators}
    assert set(squared.generators) <= products
    assert all(squared.contains(p) for p in products)


@given(monomial_ideals())
@settings(max_examples=100, deadline=None)
def test_restrict_is_a_subset_and_idempotent(ideal):
    caps = tuple(
        max((g.exponents[i] for g in ideal.generators), default=0)
        for i in range(ideal.num_vars)
    )
    sub = restrict_ideal(ideal, caps)
    assert sub == ideal
    half = tuple(c // 2 for c in caps)
    smaller = restrict_ideal(ideal, half)
    assert set(smaller.generators) <= set(ideal.generators)
    assert restrict_ideal(smaller, half) == smaller


@given(monomial_ideals())
@settings(max_examples=60, deadline=None)
def test_betti_oracles_agree(ideal):
    for field in (RATIONALS, GF2):
        table = betti_table(ideal, field)
        assert table == taylor_betti_table(ideal, field)
        if ideal.is_squarefree:
            masks = [g.support_mask for g in ideal.generators]
            by_mask = {
                (i, sum(1 << k for k, e in enumerate(b) if e)): r
                for (i, b), r in table.entries
            }
            assert squarefree_betti_masks(masks, field.p) == by_mask


@given(monomial_ideals())
@settings(max_examples=60, deadline=None)
def test_betti_zero_counts_generators(ideal):
    table = betti_table(ideal)
    assert table.total(0) == len(ideal.generators)
    for g in ideal.generators:
        assert table.as_dict().get((0, g.exponents)) == 1
