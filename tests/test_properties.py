"""Property-based invariants on randomized complexes and ideals."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srideals import (
    RATIONALS,
    GF2,
    DomainError,
    MonomialIdeal,
    SimplicialComplex,
    alexander_dual,
    VOID_DUAL,
    betti_table,
    complex_from_ideal,
    facet_ideal,
    linear_quotients_order,
    minimalize,
    Monomial,
    power,
    reduced_homology,
    restrict_ideal,
    stanley_reisner_ideal,
    taylor_betti_table,
    verify_leaf_order,
    verify_linear_quotients,
    verify_shelling,
)
from srideals import _linalg
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


# Plain re-implementations of the ideal layer's pair scans on exponent
# tuples, kept as the reference for the packed versions in srideals.ideals.
def _naive_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _naive_minimal(vectors):
    unique = set(vectors)
    return {a for a in unique if not any(b != a and _naive_divides(b, a) for b in unique)}


def _naive_first_comparable_pair(vectors):
    gens = sorted(set(vectors), key=lambda e: (sum(e), e))
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            if _naive_divides(a, b) or _naive_divides(b, a):
                return a, b
    return None


def _naive_power(vectors, k):
    products = {
        tuple(map(sum, zip(*combo)))
        for combo in itertools.combinations_with_replacement(sorted(set(vectors)), k)
    }
    return _naive_minimal(products)


def _naive_linear_quotients(order):
    for i in range(1, len(order)):
        fi = order[i]
        linear_vars = []
        for k in range(i):
            excess = {v: a - b for v, (a, b) in enumerate(zip(order[k], fi)) if a > b}
            if sum(excess.values()) == 1:
                linear_vars.extend(excess)
        for j in range(i):
            if not any(order[j][v] > fi[v] for v in linear_vars):
                return False
    return True


# Exponents at the packing's field-width edges (0, 2^w - 1, 2^w), mixed
# with small ones so that divisibility between vectors is common.
_EXPONENTS = st.integers(min_value=0, max_value=3) | st.sampled_from(
    [0, 1, 2, 3, 4, 7, 8, 15, 16, 2**40]
)


@st.composite
def exponent_vectors(draw, min_vectors=1, max_vectors=8):
    n = draw(st.integers(min_value=1, max_value=7))
    vector = st.tuples(*[_EXPONENTS] * n)
    return draw(st.lists(vector, min_size=min_vectors, max_size=max_vectors))


@st.composite
def equigenerated_orders(draw):
    """Squarefree equigenerated generating sets and their squares, either
    shuffled or in the order the search finds (so that orders with linear
    quotients are common)."""
    n = draw(st.integers(min_value=2, max_value=6))
    d = draw(st.integers(min_value=1, max_value=n - 1))
    supports = draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=d, max_size=d), min_size=2, max_size=6
        )
    )
    gens = {tuple(int(v in s) for v in range(n)) for s in supports}
    if draw(st.booleans()):
        gens = _naive_power(gens, 2)
    found = linear_quotients_order(MonomialIdeal(n, [Monomial(g) for g in gens]))
    if found is not None and draw(st.booleans()):
        return [g.exponents for g in found]
    return draw(st.permutations(sorted(gens)))


@given(exponent_vectors())
@settings(max_examples=300, deadline=None)
def test_minimalize_matches_naive_reference(vectors):
    monomials = [Monomial(v) for v in vectors]
    if any(not any(v) for v in vectors):
        with pytest.raises(DomainError):
            minimalize(monomials)
        return
    expected = sorted(_naive_minimal(vectors), key=lambda e: (sum(e), e))
    assert [g.exponents for g in minimalize(monomials).generators] == expected


@given(exponent_vectors())
@settings(max_examples=300, deadline=None)
def test_monomial_ideal_accepts_exactly_the_minimal_systems(vectors):
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return
    n = len(vectors[0])
    pair = _naive_first_comparable_pair(vectors)
    if pair is None:
        ideal = MonomialIdeal(n, [Monomial(v) for v in vectors])
        assert {g.exponents for g in ideal.generators} == set(vectors)
    else:
        a, b = (Monomial(v) for v in pair)
        with pytest.raises(DomainError) as err:
            MonomialIdeal(n, [Monomial(v) for v in vectors])
        assert str(err.value) == f"generators are not minimal: {a} and {b} are comparable"


@given(exponent_vectors(max_vectors=5), st.integers(min_value=1, max_value=3))
@settings(max_examples=200, deadline=None)
def test_power_matches_naive_reference(vectors, k):
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return
    ideal = minimalize([Monomial(v) for v in vectors])
    got = power(ideal, k)
    expected = _naive_power([g.exponents for g in ideal.generators], k)
    assert {g.exponents for g in got.generators} == expected


@given(exponent_vectors(min_vectors=2) | equigenerated_orders())
@settings(max_examples=400, deadline=None)
def test_verify_linear_quotients_matches_naive_reference(order):
    assert verify_linear_quotients([Monomial(v) for v in order]) == _naive_linear_quotients(
        list(order)
    )


# A plain dense Gaussian elimination, over Fraction for p = 0 and mod p
# otherwise, kept as the reference for the sparse column reduction.
def _naive_rank(columns, p):
    nrows = max((row for column in columns for row in column), default=-1) + 1
    m = [
        [Fraction(c.get(r, 0)) if p == 0 else c.get(r, 0) % p for c in columns]
        for r in range(nrows)
    ]
    rank = 0
    for j in range(len(columns)):
        pivot = next((i for i in range(rank, nrows) if m[i][j]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(nrows):
            if i != rank and m[i][j]:
                if p == 0:
                    f = m[i][j] / m[rank][j]
                    m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
                else:
                    f = m[i][j] * pow(m[rank][j], -1, p) % p
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# Entries other than +-1, multiples of 2, 3 and 5, explicit zeros and a
# large value, so that pivots outside {+-1} and entries vanishing mod p
# both occur.
_ENTRIES = st.sampled_from([-6, -4, -3, -2, -1, 0, 1, 1, 2, 3, 5, 10, 15, 2**40])


@st.composite
def sparse_columns(draw):
    """Random sparse integer columns, some of them empty, some duplicated
    and some integer combinations of two others (so the rank is often
    below the column count)."""
    column = st.dictionaries(st.integers(0, 7), _ENTRIES, max_size=5)
    columns = draw(st.lists(column, max_size=7))
    if columns:
        picks = st.integers(0, len(columns) - 1)
        for _ in range(draw(st.integers(0, 3))):
            columns.append(dict(columns[draw(picks)]))
        for _ in range(draw(st.integers(0, 3))):
            a, b = columns[draw(picks)], columns[draw(picks)]
            x, y = draw(_ENTRIES), draw(_ENTRIES)
            combo = {r: x * a.get(r, 0) + y * b.get(r, 0) for r in a.keys() | b.keys()}
            columns.insert(draw(st.integers(0, len(columns))), combo)
    return draw(st.permutations(columns))


@pytest.mark.parametrize("p", [0, 2, 3, 5])
@given(columns=sparse_columns())
@settings(max_examples=200, deadline=None)
def test_sparse_rank_matches_dense_elimination(p, columns):
    snapshot = [dict(c) for c in columns]
    assert _linalg.rank(columns, p) == _naive_rank(columns, p)
    assert columns == snapshot  # the input columns are not modified
