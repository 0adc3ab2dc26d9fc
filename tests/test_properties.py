"""Property-based invariants on randomized complexes and ideals."""

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from srideals import (
    RATIONALS,
    GF2,
    DomainError,
    FieldChoice,
    MonomialIdeal,
    SimplicialComplex,
    alexander_dual,
    VOID_DUAL,
    betti_table,
    complex_from_ideal,
    dimension_info,
    facet_ideal,
    graded_component_ideal,
    linear_quotients_order,
    minimalize,
    Monomial,
    power,
    projdim,
    projdim_and_reg,
    pure_complement,
    reduced_homology,
    restrict_ideal,
    skeleton,
    skeleton_ideal_from_one_skeleton,
    stanley_reisner_ideal,
    taylor_betti_table,
    verify_leaf_order,
    verify_linear_quotients,
    verify_shelling,
)
from srideals import _linalg
from srideals.complexes import (
    _BITMAP_VERTICES,
    _antichain_complex,
    _berge_transversals,
    _bitmap_transversals,
    _facet_order,
    down_closure,
    face_mask,
    mask_face,
    minimal_nonfaces_masks,
    minimal_transversals,
    skeleton_complement,
)
from srideals.graphs import (
    Graph,
    clique_complex,
    edge_ideal,
    higher_dirac_check,
    maximal_clique_masks,
    maximal_cliques,
    mcs_order,
    one_skeleton_graph,
)
from srideals.homological import (
    BettiTable,
    _boundary_rank,
    _lcm_lattice,
    _minimal_masks,
    _nerve_faces,
    _packed_engine,
    _profile_from_masks,
    _squarefree_engine,
    _upper_koszul_betti,
    _upper_koszul_projdim,
    shelling_order,
    squarefree_betti_masks,
    squarefree_projdim_masks,
)
from srideals.ideals import _squarefree_ideal, _value_columns
from srideals.quasitrees import (
    RelationTree,
    build_m_delta,
    facet_complement_generators,
    leaf_order,
    leaf_order_masks,
    minor_certificates,
    reconstruct_generators,
    reconstructs,
    relation_tree_from_edges,
    relation_trees,
    tree_minor_det,
    verify_minor_certificate,
)
from srideals.serialization import relation_tree_to_json
from srideals.verification import has_linear_resolution, random_quasi_tree


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
def monomial_ideals(draw, min_n=2, max_n=4, min_gens=1, max_gens=4, max_exp=2):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    gens = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=max_exp), min_size=n, max_size=n
            ).filter(lambda e: any(e)),
            min_size=min_gens,
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


@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.sets(st.integers(1, n), max_size=n), max_size=10)
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_construction_matches_the_all_pairs_scan(case):
    n, faces = case
    canon = sorted({tuple(sorted(f)) for f in faces}, key=lambda f: (len(f), f))
    contained = [f for f in canon if any(f != g and set(f) <= set(g) for g in canon)]
    maximal = tuple(f for f in canon if f not in contained)
    assert SimplicialComplex.from_faces(n, faces).facets == maximal
    if not contained:
        assert SimplicialComplex(n, faces).facets == maximal
        return
    with pytest.raises(DomainError) as err:
        SimplicialComplex(n, faces)
    assert str(err.value) == (
        f"facets are not an antichain: {contained[0]} is contained in another facet"
    )


def _outcome(fn, *args):
    """fn(*args), or the text of the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError as err:
        return str(err)


@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), max_size=10),
            st.lists(st.integers(1 << n, 1 << (n + 2)), max_size=2),
        )
    )
)
@example((3, [0b011, 0b001], []))  # a nested pair
@example((3, [0b001], [0b1001]))  # vertex 4 outside [3]
@settings(max_examples=300, deadline=None)
def test_from_masks_matches_the_tuple_constructor(case):
    n, masks, outside = case
    masks = masks + outside
    built = _outcome(SimplicialComplex.from_masks, n, masks)
    assert built == _outcome(SimplicialComplex, n, [mask_face(m) for m in masks])
    if isinstance(built, SimplicialComplex):
        assert built.facet_masks == tuple(map(face_mask, built.facets))


@given(st.sets(st.integers(0, (1 << 70) - 1) | st.integers(0, 255), max_size=12))
@example({0b0110, 0b1001, 0b0101, 0b1010})  # one size: order decided by the lowest vertex
@example({1 << 69, 1, 0})
def test_the_mask_order_is_the_face_order(masks):
    faces = sorted(map(mask_face, masks), key=lambda f: (len(f), f))
    assert _facet_order(masks) == list(map(face_mask, faces))


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=10))
    )
)
@example((3, {0b011, 0b001}))  # a nested pair
@example((4, {0b0011, 0b0110, 0b1111}))  # both pairs nested in the top
@settings(max_examples=300, deadline=None)
def test_the_three_builders_agree(case):
    n, masks = case
    canon = sorted(map(mask_face, masks), key=lambda f: (len(f), f))
    by_masks = _outcome(SimplicialComplex.from_masks, n, masks)
    assert by_masks == _outcome(SimplicialComplex, n, canon[::-1])
    if isinstance(by_masks, str):  # the parent's message, naming the first nested facet
        first = next(f for f in canon if any(f != g and set(f) <= set(g) for g in canon))
        assert by_masks == f"facets are not an antichain: {first} is contained in another facet"
        return
    built, trusted = SimplicialComplex(n, canon[::-1]), _antichain_complex(n, masks)
    assert built == by_masks == trusted
    assert hash(built) == hash(by_masks) == hash(trusted)
    assert built.facets == by_masks.facets == trusted.facets == tuple(canon)


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


@given(monomial_ideals(max_gens=6, max_exp=3), st.data())
@settings(max_examples=200, deadline=None)
def test_restrict_matches_the_constructor_on_the_dividing_generators(ideal, data):
    # restrict_ideal keeps a sub-tuple of the stored exponents unchecked;
    # the constructor, given the generators that divide x^a, checks them
    bound = data.draw(st.tuples(*[st.integers(0, 4)] * ideal.num_vars))
    x_a = Monomial(bound)
    expected = MonomialIdeal(ideal.num_vars, [g for g in ideal.generators if g.divides(x_a)])
    got = restrict_ideal(ideal, bound)
    assert got == expected
    assert got.generator_degrees == expected.generator_degrees
    assert got.generators == expected.generators


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


@given(exponent_vectors(min_vectors=2), st.integers(min_value=1, max_value=2))
@settings(max_examples=300, deadline=None)
def test_constructor_accepts_what_minimalize_and_power_store(vectors, k):
    # minimalize, power, graded_component_ideal, facet_ideal,
    # stanley_reisner_ideal and edge_ideal store their result without the
    # constructor's comparable-pair scan; on mixed degrees, where that scan
    # runs, it accepts the result unchanged, as an equal ideal whose
    # Monomials are the stored exponent vectors
    vectors = [v for v in vectors if any(v)]
    assume(len({sum(v) for v in vectors}) > 1)
    ideal = minimalize([Monomial(v) for v in vectors])
    n = ideal.num_vars
    cx = SimplicialComplex.from_faces(n, [[i + 1 for i, e in enumerate(v) if e] for v in vectors])
    component = graded_component_ideal(ideal, min(ideal.generator_degrees) + k - 1)
    squarefree = (facet_ideal(cx), stanley_reisner_ideal(cx), edge_ideal(one_skeleton_graph(cx)))
    for stored in (ideal, power(ideal, k), component, *squarefree):
        again = MonomialIdeal(stored.num_vars, stored.generators)
        assert again == stored
        assert hash(again) == hash(stored)
        assert again.generators == stored.generators
        assert again.generator_degrees == stored.generator_degrees
        assert stored.exponents == tuple(g.exponents for g in stored.generators)


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
@example(vectors=[(42, 1), (1, 3)], k=3)  # k * max = 126: whole-byte fields
@example(vectors=[(127, 0), (1, 1)], k=1)  # 127, the largest 7-bit value
@example(vectors=[(64, 0), (1, 2), (0, 3)], k=2)  # 128: 9-bit fields, shifts
def test_power_matches_naive_reference(vectors, k):
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return
    ideal = minimalize([Monomial(v) for v in vectors])
    got = power(ideal, k)
    expected = _naive_power([g.exponents for g in ideal.generators], k)
    assert [g.exponents for g in got.generators] == sorted(expected, key=lambda e: (sum(e), e))


@given(exponent_vectors(min_vectors=2) | equigenerated_orders())
@settings(max_examples=400, deadline=None)
def test_verify_linear_quotients_matches_naive_reference(order):
    expected = _naive_linear_quotients(list(order))
    assert verify_linear_quotients([Monomial(v) for v in order]) == expected
    assert verify_linear_quotients([tuple(v) for v in order]) == expected


@st.composite
def long_orders(draw):
    """Orders of 31-600 generators, so that the verifier's prefix spans many
    blocks.  The powers k = 2, 3 of a skeleton-complement facet ideal of a
    random quasi-tree, in canonical order, reversed and with one adjacent
    pair swapped; and the canonical order multiplied by one monomial that
    lifts the largest exponent of each variable to 2^w - 1 or 2^w (which
    keeps every colon ideal), with monomials of other degrees inserted in
    front and past the 30th generator."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    qt = random_quasi_tree(rng, draw(st.integers(5, 7)))
    bar = pure_complement(skeleton(qt, draw(st.integers(1, dimension_info(qt)[0]))))
    assume(not bar.is_void)
    gens = [g.exponents for g in power(facet_ideal(bar), draw(st.integers(2, 3))).generators]
    assume(31 <= len(gens) <= 600)
    swap = draw(st.integers(0, len(gens) - 2))
    swapped = list(gens)
    swapped[swap : swap + 2] = gens[swap + 1], gens[swap]
    w = draw(st.integers(2, 6))
    edges = [2**w - 1, 2**w]
    tops = [max(column) for column in zip(*gens)]
    lift = [draw(st.sampled_from(edges)) - top for top in tops]
    mixed = [tuple(a + b for a, b in zip(g, lift)) for g in gens]
    # Each insertion is a multiple of the generator it precedes, or a vector
    # of edge exponents.  A multiple in front keeps linear quotients valid.
    for at in [0] + draw(st.lists(st.integers(30, len(mixed) - 1), max_size=2)):
        if at == 0 or draw(st.booleans()):
            extra = list(mixed[at])
            extra[draw(st.integers(0, len(tops) - 1))] += 1
        else:
            extra = [draw(st.sampled_from([0, 1, *edges])) for _ in tops]
        mixed.insert(at, tuple(extra))
    return [gens, gens[::-1], swapped, mixed]


@given(long_orders())
@settings(max_examples=6, deadline=None)
def test_verify_linear_quotients_on_long_orders(orders):
    for order in orders:
        assert verify_linear_quotients([Monomial(v) for v in order]) == (
            _naive_linear_quotients(order)
        )


@st.composite
def many_valued_orders(draw):
    """Orders of 301-341 generators with exponents past one byte and a
    column of more than 256 distinct values: (x1, x2)^N times x3^0, x3 or
    x3^(2^40) (a common factor keeps linear quotients) in lex order, which
    has linear quotients, reversed, with one adjacent pair swapped near the
    end, which fails there, and shuffled."""
    big = draw(st.integers(300, 340))
    third = draw(st.sampled_from([0, 1, 2**40]))
    gens = [(a, big - a, third) for a in range(big, -1, -1)]
    swap = draw(st.integers(len(gens) - 40, len(gens) - 2))
    swapped = list(gens)
    swapped[swap : swap + 2] = gens[swap + 1], gens[swap]
    return [gens, gens[::-1], swapped, draw(st.permutations(gens))]


@given(many_valued_orders())
@settings(max_examples=3, deadline=None)
def test_verify_linear_quotients_on_many_valued_columns(orders):
    for order in orders:
        assert verify_linear_quotients([Monomial(v) for v in order]) == (
            _naive_linear_quotients(order)
        )


@st.composite
def squarefree_equigenerated_ideals(draw, max_gens=6):
    """Squarefree ideals of one degree, where linear quotients are common."""
    n = draw(st.integers(min_value=2, max_value=6))
    d = draw(st.integers(min_value=1, max_value=n - 1))
    support = st.sets(st.integers(0, n - 1), min_size=d, max_size=d)
    supports = draw(st.lists(support, min_size=1, max_size=max_gens))
    gens = {tuple(int(v in s) for v in range(n)) for s in supports}
    return MonomialIdeal(n, [Monomial(g) for g in gens])


@given(monomial_ideals(max_gens=6) | squarefree_equigenerated_ideals())
@settings(max_examples=300, deadline=None)
def test_search_returns_the_first_valid_permutation(ideal):
    # the search tries candidates in index order, so the order it returns
    # (which the linear-quotients command prints) is the lexicographically
    # first permutation of G(I), by index, with linear quotients
    gens = ideal.exponents
    first = next(
        (
            p
            for p in itertools.permutations(range(len(gens)))
            if _naive_linear_quotients([gens[i] for i in p])
        ),
        None,
    )
    expected = None if first is None else [ideal.generators[i] for i in first]
    assert linear_quotients_order(ideal) == expected


@given(exponent_vectors())
@settings(max_examples=300, deadline=None)
@example(vectors=[(255, 0), (0, 255), (255, 255)])  # the largest byte
@example(vectors=[(255, 0), (256, 1), (0, 2**40)])  # past one byte
def test_value_columns_match_a_per_position_scan(vectors):
    columns = list(zip(*vectors))
    expected = []
    for column in columns:
        at = {}
        for j, c in enumerate(column):
            at[c] = at.get(c, 0) | 1 << j
        expected.append(at)
    assert _value_columns(columns) == expected


# Ideals whose exponents span several packed-field widths (1 to 41 value
# bits), of mixed degrees: the Betti engine joins and compares them packed.
@given(exponent_vectors(max_vectors=6))
@settings(max_examples=150, deadline=None)
def test_betti_oracles_agree_on_wide_exponents(vectors):
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return
    ideal = minimalize([Monomial(v) for v in vectors])
    for field in (RATIONALS, GF2):
        assert betti_table(ideal, field) == taylor_betti_table(ideal, field)


def _naive_graded_component(vectors, n, j):
    """Every exponent vector of degree j divisible by one of `vectors`."""
    out = set()
    for combo in itertools.combinations_with_replacement(range(n), j):
        e = tuple(combo.count(v) for v in range(n))
        if any(_naive_divides(g, e) for g in vectors):
            out.add(e)
    return out


@given(monomial_ideals(max_exp=4), st.integers(min_value=0, max_value=4))
@settings(max_examples=150, deadline=None)
def test_graded_component_matches_naive_reference(ideal, extra):
    j = min(ideal.generator_degrees) + extra
    vectors = [g.exponents for g in ideal.generators]
    expected = _naive_graded_component(vectors, ideal.num_vars, j)
    expected = sorted(expected, key=lambda e: (sum(e), e))
    got = graded_component_ideal(ideal, j)
    assert [g.exponents for g in got.generators] == expected


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
    pivots = set()
    rank = _linalg.rank(columns, p, pivots)
    assert rank == _naive_rank(columns, p)
    assert columns == snapshot  # the input columns are not modified
    # one distinct pivot row per unit of rank, and row r is one iff some
    # combination of the columns ends there: the rows >= r have a larger
    # rank than the rows > r
    assert len(pivots) == rank
    suffix = [
        _naive_rank([{row: e for row, e in c.items() if row >= r} for c in columns], p)
        for r in range(9)
    ]
    assert pivots == {r for r in range(8) if suffix[r] > suffix[r + 1]}


def _uncleared_profile(faces, p):
    """Reduced homology ranks from one :func:`_boundary_rank` per degree,
    every column reduced."""
    by_dim = {}
    for m in faces:
        by_dim.setdefault(m.bit_count() - 1, []).append(m)
    if not by_dim:
        return ()
    for masks in by_dim.values():
        masks.sort()
    top = max(by_dim)
    bd = {k: _boundary_rank(by_dim.get(k - 1, []), by_dim.get(k, []), p) for k in range(top + 1)}
    return tuple(
        len(by_dim.get(k, [])) - bd.get(k, 0) - bd.get(k + 1, 0) for k in range(-1, top + 1)
    )


@st.composite
def downward_closed_faces(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    return down_closure(draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8)))


# The minimal nonfaces of the 6-vertex real projective plane, and its
# faces: acyclic over QQ and GF(3), with H~_1 = H~_2 = GF(2) over GF(2).
_RP2_NONFACES = [
    0b1101, 0b1110, 0b10011, 0b10110, 0b11001, 0b100011, 0b100101, 0b101010, 0b110100, 0b111000
]
_RP2_FACES = frozenset(
    m for m in range(1 << 6) if not any(m & t == t for t in _RP2_NONFACES)
)


@pytest.mark.parametrize("p", [0, 2, 3])
@given(downward_closed_faces())
@example(_RP2_FACES)
@example(frozenset(range(1 << 6)))  # the full simplex on 6 vertices
@example(frozenset([0]))  # {empty face}
@example(frozenset())  # the void complex
@settings(max_examples=300, deadline=None)
def test_cleared_profile_matches_full_reduction(p, faces):
    profile = _profile_from_masks.__wrapped__(faces, p)
    assert profile == _uncleared_profile(faces, p)
    if faces == _RP2_FACES:
        assert profile == ((0, 0, 1, 1) if p == 2 else (0, 0, 0, 0))


# The combinatorial kernels against references that enumerate: every
# subset of [n] for minimal nonfaces and cliques, a linear max-weight
# scan for maximum-cardinality search, and Bron-Kerbosch with the pivot
# taken by max() over all vertices for the order in which cliques are
# found.
def _popcount(mask):
    return bin(mask).count("1")


def _naive_minimal_nonfaces(facet_masks, n):
    def is_face(mask):
        return any(mask & f == mask for f in facet_masks)

    found = [
        mask
        for mask in range(1 << n)
        if not is_face(mask)
        and all(is_face(mask & ~(1 << v)) for v in range(n) if mask >> v & 1)
    ]
    return sorted(found, key=lambda m: (_popcount(m), m))


@st.composite
def facet_lists(draw, max_n=10, max_facets=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    vertex_sets = st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)
    facets = draw(st.lists(vertex_sets, max_size=max_facets))
    return [sum(1 << v for v in f) for f in facets], n


@given(facet_lists())
@example(([], 1))  # no facets: the empty set is the one nonface
@example(([], 4))
@example(([0b1111], 4))  # the full simplex has no nonfaces
@example(([0b0011, 0b0110], 4))  # vertex 4 is isolated
@example(([0], 3))  # only the empty face
@example(([0b101, 0b111, 0b011], 3))  # not an antichain
@settings(max_examples=300, deadline=None)
def test_minimal_nonfaces_match_the_subset_scan(case):
    facet_masks, n = case
    assert minimal_nonfaces_masks(facet_masks, n) == _naive_minimal_nonfaces(facet_masks, n)


def _naive_minimal_transversals(edge_masks, n):
    """The 2^n scan: the masks meeting every edge, none of whose one-smaller
    submasks does, ordered by (size, mask)."""

    def meets_all(mask):
        return all(mask & e for e in edge_masks)

    found = [
        mask
        for mask in range(1 << n)
        if meets_all(mask)
        and not any(meets_all(mask & ~(1 << v)) for v in range(n) if mask >> v & 1)
    ]
    return sorted(found, key=lambda m: (_popcount(m), m))


@st.composite
def edge_lists(draw, max_n=7, max_edges=8):
    """(edge masks, n): edges on [n] drawn with repeats and maybe empty."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=max_edges))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    order = draw(st.permutations(edges + repeats))
    return order, n


@given(edge_lists())
@example(([], 3))  # no edges: the empty set is the one transversal
@example(([0b011, 0], 2))  # an empty edge: no transversal at all
@example(([0b011, 0b011, 0b110], 3))  # a repeated edge
@example(([0b0011, 0b1100, 0b0101, 0b1010], 4))  # ties broken by mask
@example(([0b111, 0b001], 3))  # a later edge inside an earlier one
@settings(max_examples=400, deadline=None)
def test_minimal_transversals_match_the_subset_scan(case):
    # both kernels, driven directly: these ground sets all take the bitmap,
    # which also holds on any [n] containing every edge
    edge_masks, n = case
    expected = _naive_minimal_transversals(edge_masks, n)
    assert minimal_transversals(iter(edge_masks)) == expected
    assert _bitmap_transversals(edge_masks, n) == expected
    assert _berge_transversals(edge_masks) == expected


@st.composite
def wide_edge_lists(draw):
    """(edge masks, n): at most four edges on [n] just past the bitmap's
    bound, vertex n in the first."""
    n = draw(st.integers(_BITMAP_VERTICES + 1, _BITMAP_VERTICES + 2))
    edges = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    edges[0] |= 1 << (n - 1)
    return edges, n


@given(wide_edge_lists())
@settings(max_examples=40, deadline=None)
def test_minimal_transversals_past_the_bitmap_bound_are_berges(case):
    edge_masks, n = case
    found = minimal_transversals(iter(edge_masks))
    assert found == _berge_transversals(edge_masks)
    assert found == _bitmap_transversals(edge_masks, n)


@given(facet_lists())
@example(([], 3))  # the zero ideal
@example(([0b011, 0b101, 0b110, 0b1000], 4))  # ties within a size
@settings(max_examples=300, deadline=None)
def test_squarefree_ideal_sorts_masks_into_the_canonical_order(case):
    masks, n = case
    found = {m for m in masks if m}
    antichain = [m for m in found if not any(m != g and m & g == m for g in found)]
    ideal = _squarefree_ideal(n, antichain)
    supports = [Monomial.from_support(mask_face(m), n) for m in antichain]
    assert ideal == MonomialIdeal(n, supports)
    assert ideal.generator_degrees == tuple(map(sum, ideal.exponents))


def _naive_stanley_reisner_complex(gen_masks, n):
    """The 2^n scan: the faces are the subsets that contain no generator."""
    faces = [
        mask_face(mask)
        for mask in range(1 << n)
        if not any(g & mask == g for g in gen_masks)
    ]
    return SimplicialComplex.from_faces(n, faces)


@given(facet_lists())
@example(([], 3))  # the zero ideal: the simplex
@example(([0b001, 0b010, 0b100], 3))  # every variable: only the empty face
@example(([0b0011, 0b0111], 4))  # a redundant generator
@settings(max_examples=300, deadline=None)
def test_stanley_reisner_complex_matches_the_subset_scan(case):
    masks, n = case
    gen_masks = [m for m in masks if m]  # the unit ideal is not supported
    gens = [Monomial.from_support(mask_face(m), n) for m in gen_masks]
    ideal = minimalize(gens) if gens else MonomialIdeal(n, [])
    got = complex_from_ideal(ideal, "stanley-reisner")
    assert got == _naive_stanley_reisner_complex(gen_masks, n)


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    edges = [e for e in pairs if draw(st.floats(0, 1)) < density] if pairs else []
    return Graph(n, edges)


def _naive_mcs(adj):
    n = len(adj)
    weight = [0] * n
    order = []
    for _ in range(n):
        v = max((u for u in range(n) if u not in order), key=lambda u: (weight[u], -u))
        order.append(v)
        for u in range(n):
            if u not in order and adj[v] >> u & 1:
                weight[u] += 1
    return order


def _naive_cliques_in_order(adj):
    n = len(adj)
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(r)
            return
        pivot = max(
            range(n), key=lambda u: _popcount(adj[u] & p) if (p | x) >> u & 1 else -1
        )
        for v in range(n):
            if p >> v & 1 and not adj[pivot] >> v & 1:
                expand(r | 1 << v, p & adj[v], x & adj[v])
                p &= ~(1 << v)
                x |= 1 << v

    expand(0, (1 << n) - 1, 0)
    return out


@given(graphs(max_n=12))
@example(Graph(5, []))  # every step a tie
@example(Graph(4, [(1, 2), (3, 4)]))
@settings(max_examples=300, deadline=None)
def test_mcs_order_matches_the_linear_scan(g):
    assert mcs_order(g.adjacency) == _naive_mcs(g.adjacency)


@given(graphs(max_n=8))
@settings(max_examples=300, deadline=None)
def test_maximal_cliques_match_brute_force(g):
    adj = g.adjacency

    def is_clique(mask):
        return all(not mask & ~(adj[v] | 1 << v) for v in range(g.n) if mask >> v & 1)

    def is_maximal(mask):
        return not any(is_clique(mask | 1 << v) for v in range(g.n) if not mask >> v & 1)

    brute = [m for m in range(1, 1 << g.n) if is_clique(m) and is_maximal(m)]
    assert maximal_cliques(g) == brute
    assert maximal_clique_masks(adj) == _naive_cliques_in_order(adj)


@dataclass(frozen=True)
class _EdgeListGraph:
    """The Graph constructor as it stood when a graph stored its sorted edge
    tuple: the reference for ``edges``, ``==``, ``hash``, ``repr`` and the
    error messages of the adjacency-first Graph."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges):
        if type(n) is not int or n < 1:  # bool is rejected too
            raise DomainError(f"vertex count must be a positive integer, got {n!r}")
        canon = set()
        adj = [0] * n
        for e in edges:
            try:
                i, j = e
            except (TypeError, ValueError):
                raise DomainError(f"edge {e!r} is not a pair of vertices") from None
            if type(i) is not int or type(j) is not int:  # bool is rejected too
                raise DomainError(f"vertex {j if type(i) is int else i!r} is not an integer")
            if j < i:
                i, j = j, i
            if i == j:
                raise DomainError(f"loop at vertex {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise DomainError(f"edge ({i}, {j}) out of range [1, {n}]")
            canon.add((i, j))
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        object.__setattr__(self, "adjacency", tuple(adj))


@st.composite
def edge_sequences(draw, max_n=8):
    """(n, edges): pairs on [n] in any order, either way round, repeated."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    return n, [(j, i) if draw(st.booleans()) else (i, j) for i, j in chosen]


@given(edge_sequences(), edge_sequences(), st.randoms(use_true_random=False))
@example((3, []), (3, []), random.Random(0))
@example((3, [(2, 1)]), (3, [(1, 2), (1, 2)]), random.Random(0))
@example((3, [(1, 2)]), (4, [(1, 2)]), random.Random(0))  # same edges, other n
@settings(max_examples=200, deadline=None)
def test_graph_matches_the_edge_list_constructor(case, other, rnd):
    n, edges = case
    g, ref = Graph(n, edges), _EdgeListGraph(n, edges)
    assert g.edges == ref.edges
    assert g.adjacency == ref.adjacency
    assert repr(g) == repr(ref).replace("_EdgeListGraph", "Graph", 1)
    # reordered, reversed and repeated edges give an equal graph with an equal hash
    again = [(j, i) for i, j in edges] + rnd.sample(edges, len(edges) // 2)
    rnd.shuffle(again)
    assert Graph(n, again) == g and hash(Graph(n, again)) == hash(g)
    # and two graphs are equal exactly when their edge lists were
    assert (Graph(*other) == g) == (_EdgeListGraph(*other) == ref)


_EDGE_ENDS = st.integers(-1, 6) | st.sampled_from([True, False, 1.0, 2.5, "1", None])
_EDGES = (
    st.tuples(_EDGE_ENDS, _EDGE_ENDS)
    | st.tuples(st.integers(1, 4), st.integers(1, 4))
    | st.lists(st.integers(1, 4), max_size=3)
    | st.integers()
    | st.none()
)


@given(st.integers(1, 5), st.lists(_EDGES, max_size=6))
@example(4, [(1, 2), (5, 5), (1.5, 2)])  # a loop out of range: the loop is named
@example(4, [(6, 2), (1, 1)])  # the range message lists the smaller end first
@example(4, [(2, True), (3, 3)])  # the non-integer end is named
@settings(max_examples=400, deadline=None)
def test_graph_errors_match_the_edge_list_constructor(n, edges):
    def built(cls):
        g = _outcome(cls, n, edges)
        return g if isinstance(g, str) else g.edges

    assert built(Graph) == built(_EdgeListGraph)


# Ideals on 7 to 10 variables, whose wide lcm-lattice elements often have
# fewer minimal tight masks than support positions and so take the nerve path.
@given(monomial_ideals(min_n=7, max_n=10, min_gens=3, max_gens=8))
@example(
    minimalize(
        [
            Monomial((1, 1, 0, 0, 0, 0, 0, 0)),
            Monomial((0, 0, 1, 1, 0, 0, 0, 0)),
            Monomial((0, 0, 0, 0, 2, 1, 0, 0)),
            Monomial((0, 0, 0, 0, 0, 0, 1, 1)),
        ]
    )
)
@settings(max_examples=40, deadline=None)
def test_betti_oracles_agree_on_wide_ideals(ideal):
    for field in (RATIONALS, GF2):
        assert betti_table(ideal, field) == taylor_betti_table(ideal, field)


@pytest.mark.parametrize("p", [0, 2])
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=8)
        )
    )
)
@example((4, [0b0011, 0b0011, 0b0111, 0b1100]))  # a duplicate and a multiple
@settings(max_examples=150, deadline=None)
def test_squarefree_masks_match_the_taylor_oracle(p, case):
    # duplicate and comparable masks generate the same ideal as its
    # minimal generators, so they must give the same Betti numbers
    n, masks = case
    ideal = minimalize([Monomial.from_support(mask_face(m), n) for m in masks])
    table = taylor_betti_table(ideal, FieldChoice(p))
    expected = {
        (i, sum(1 << k for k, e in enumerate(b) if e)): r for (i, b), r in table.entries
    }
    assert squarefree_betti_masks(masks, p) == expected


_FIELDS = [RATIONALS, GF2, FieldChoice(3)]


@pytest.mark.parametrize("field", _FIELDS, ids=repr)
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=8)
    )
)
@example(_RP2_NONFACES)  # projdim 3 over GF(2) and 2 otherwise
@settings(max_examples=150, deadline=None)
def test_projdim_walk_matches_the_whole_table(field, masks):
    table = squarefree_betti_masks(masks, field.p)
    assert squarefree_projdim_masks(masks, field.p) == max(i for i, _ in table)


@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=8)
    ),
    monomial_ideals(max_n=5, max_gens=8, max_exp=3),
)
@settings(max_examples=150, deadline=None)
def test_lcm_lattice_is_every_join_of_a_nonempty_subset(masks, ideal):
    for gens, join, *_ in (_squarefree_engine(masks), _packed_engine(ideal)):
        naive = {
            functools.reduce(join, subset)
            for k in range(1, len(gens) + 1)
            for subset in itertools.combinations(gens, k)
        }
        assert _lcm_lattice(gens, join) == naive


@pytest.mark.parametrize("field", _FIELDS, ids=repr)
@given(monomial_ideals(max_n=5, max_gens=6, max_exp=3))
@settings(max_examples=100, deadline=None)
def test_packed_projdim_matches_the_taylor_oracle(field, ideal):
    assert projdim(ideal, field) == taylor_betti_table(ideal, field).projdim


@pytest.mark.parametrize("field", _FIELDS, ids=repr)
@given(
    monomial_ideals(max_n=5, max_gens=8)
    | equigenerated_orders()
    .filter(lambda order: len(order) <= 8)
    .map(lambda order: MonomialIdeal(len(order[0]), [Monomial(v) for v in order]))
)
@settings(max_examples=150, deadline=None)
def test_linear_resolution_matches_the_taylor_oracle(field, ideal):
    # the certificates (linear quotients, over every field) and the Betti
    # table over the field both answer; the Taylor complex is the oracle
    degrees = set(ideal.generator_degrees)
    table = taylor_betti_table(ideal, field)
    expected = len(degrees) == 1 and table.is_linear(min(degrees))
    assert has_linear_resolution(ideal, field) == expected


@pytest.mark.parametrize("field", _FIELDS, ids=repr)
@given(monomial_ideals(min_n=1, max_n=8, max_gens=8, max_exp=1))
@settings(max_examples=100, deadline=None)
def test_squarefree_ideals_match_the_packed_engine_and_the_taylor_oracle(field, ideal):
    # a squarefree ideal is read as generator masks; the packed engine,
    # driven directly, and the Taylor complex must give the same answers
    engine = _packed_engine(ideal)
    packed = _upper_koszul_betti(*engine[:3], field.p)
    lattice = list({b for _, b in packed})
    vector = dict(zip(lattice, engine[3](lattice)))
    expected = BettiTable.from_dict(
        ideal.num_vars, {(i, vector[b]): r for (i, b), r in packed.items()}
    )
    assert expected == taylor_betti_table(ideal, field)
    assert betti_table(ideal, field) == expected
    assert projdim(ideal, field) == _upper_koszul_projdim(*engine[:3], field.p)
    assert projdim(ideal, field) == expected.projdim
    degrees = set(ideal.generator_degrees)
    linear = len(degrees) == 1 and expected.is_linear(min(degrees))
    assert projdim_and_reg(ideal, field) == (expected.projdim, expected.regularity, linear)
    assert has_linear_resolution(ideal, field) == linear


@given(monomial_ideals(max_exp=3) | st.integers(1, 4).map(lambda n: MonomialIdeal(n, [])))
@settings(max_examples=200, deadline=None)
def test_is_squarefree_reads_every_exponent(ideal):
    assert ideal.is_squarefree == all(e <= 1 for v in ideal.exponents for e in v)


_BAD_VERTICES = (
    st.sampled_from([None, True, False, 1.0, "1"])
    | st.floats()
    | st.text(max_size=2)
)


@given(_BAD_VERTICES, st.integers(min_value=1, max_value=3), st.booleans())
@settings(max_examples=200, deadline=None)
def test_bad_vertex_types_are_domain_errors(bad, good, bad_first):
    pair = (bad, good) if bad_first else (good, bad)
    for build in (
        lambda: Graph(3, [pair]),
        lambda: SimplicialComplex(3, [pair]),
        lambda: SimplicialComplex.from_faces(3, [pair]),
        lambda: Monomial.from_support(pair, 3),
    ):
        with pytest.raises(DomainError, match="is not an integer"):
            build()


def _nonzero_prefix(ranks):
    ranks = list(ranks)
    while ranks and not ranks[-1]:
        ranks.pop()
    return ranks


@st.composite
def tight_mask_families(draw):
    width = draw(st.integers(min_value=1, max_value=10))
    masks = st.integers(min_value=0, max_value=(1 << width) - 1)
    return width, draw(st.lists(masks, min_size=1, max_size=12))


@pytest.mark.parametrize("p", [0, 2])
@given(case=tight_mask_families())
@example(case=(8, [0b11, 0b1100, 0b110000, 0b11000000]))  # m < width
@example(case=(3, [0b001, 0b010, 0b100, 0b011]))  # m = width
@example(case=(4, [0b0011, 0b0101, 0b1001, 0b0110, 0b1010]))  # m > width
@example(case=(5, [0b11111]))  # K^b = {empty face}
@example(case=(5, [0, 0b101]))  # K^b is the full simplex
@settings(max_examples=200, deadline=None)
def test_nerve_profile_matches_the_down_closure(p, case):
    width, tights = case
    full = (1 << width) - 1
    minimal = _minimal_masks(tights)
    assert set(minimal) == {
        t for t in tights if not any(s != t and s & t == s for s in tights)
    }
    nerve = _profile_from_masks(_nerve_faces(minimal, full), p)
    closure = _profile_from_masks(down_closure(full ^ t for t in tights), p)
    assert _nonzero_prefix(nerve) == _nonzero_prefix(closure)


_RP2_TRIANGLES = sorted(m for m in _RP2_FACES if m.bit_count() == 3)
_RP2_TIGHTS = [  # one mask per vertex v of RP^2: the triangles that miss v
    sum(1 << j for j, f in enumerate(_RP2_TRIANGLES) if not f >> v & 1) for v in range(6)
]


@pytest.mark.parametrize("p", [0, 2, 3])
@given(case=tight_mask_families())
@example(case=(5, [0b11110, 0b11101, 0b11011, 0b10111]))  # N = {empty, singletons}: N reduced
@example(case=(6, [0b11, 0b1100, 0b110000]))  # N = boundary of the simplex, N^v = {empty}
@example(case=(6, [0b11, 0b1100, 0b10000]))  # masks miss supp b: a cone on both sides
@example(case=(10, _RP2_TIGHTS))  # N = RP^2, 32 of 64 index sets: N^v reduced
@settings(max_examples=200, deadline=None)
def test_nerve_path_profile_matches_the_direct_reduction(p, case):
    width, tights = case
    full = (1 << width) - 1
    assume(full not in tights)  # b is no generator, so every singleton is in N
    nerve = _nerve_faces(_minimal_masks(tights), full)
    assert _profile_from_masks(nerve, p, True) == _profile_from_masks.__wrapped__(nerve, p)


@st.composite
def quasi_trees(draw, max_facets=6):
    """Quasi-trees grown by leaf attachment: each new facet meets the
    earlier ones in a proper subset of one earlier facet (its branch) and
    brings at least one new vertex, so the facets stay an antichain."""
    facets = [set(range(1, draw(st.integers(1, 3)) + 1))]
    n = len(facets[0])
    for _ in range(draw(st.integers(1, max_facets - 1))):
        branch = sorted(draw(st.sampled_from(facets)))
        shared = draw(st.sets(st.sampled_from(branch), max_size=len(branch) - 1))
        new = draw(st.integers(1, 2))
        facets.append(shared | set(range(n + 1, n + new + 1)))
        n += new
    relabel = draw(st.permutations(range(1, n + 1)))
    return SimplicialComplex(n, [tuple(sorted(relabel[v - 1] for v in f)) for f in facets])


def _greedy_leaf_order(masks):
    """The leaf order by the branch test on the union of the other alive
    facets, lowest-index leaf first: the greedy that the shared-vertex
    test replaced."""

    def is_leaf(alive, f):
        union = 0
        for h in alive:
            if h != f:
                union |= masks[h]
        union &= masks[f]
        return any(g != f and masks[g] & masks[f] == union for g in alive)

    alive = list(range(len(masks)))
    removed = []
    while len(alive) > 1:
        leaf = next((f for f in alive if is_leaf(alive, f)), None)
        if leaf is None:
            return None
        alive.remove(leaf)
        removed.append(leaf)
    return alive + removed[::-1]


@given(
    st.lists(st.integers(0, (1 << 7) - 1), max_size=10)
    | quasi_trees(max_facets=10).flatmap(lambda cx: st.permutations(cx.facet_masks))
)
@example([0b0011, 0b0110, 0b1100, 0b1001])  # a 4-cycle: no leaf at all
@example([0b11, 0b11, 0b01])  # repeated and nested masks
@settings(max_examples=500, deadline=None)
def test_leaf_order_masks_matches_the_union_greedy(masks):
    assert leaf_order_masks(masks) == _greedy_leaf_order(masks)


def _naive_relation_edge_sets(masks):
    """Every edge set reachable by leaf removal, by plain recursion: remove
    a facet f with a branch g (f meets every other facet inside g) and add
    the edge f-g to each edge set of the rest."""

    @functools.cache
    def trees(alive):
        if len(alive) == 1:
            return {()}
        out = set()
        for f in alive:
            rest = tuple(h for h in alive if h != f)
            for g in rest:
                if all(masks[f] & masks[h] & ~masks[g] == 0 for h in rest):
                    edge = (min(f, g), max(f, g))
                    out |= {tuple(sorted((*tail, edge))) for tail in trees(rest)}
        return out

    return sorted(trees(tuple(range(len(masks)))))


def _monomial_product(monomials, num_vars):
    product = Monomial([0] * num_vars)
    for m in monomials:
        product = product * m
    return product


def _depths(edges, root):
    """Distance from root of every vertex of a tree."""
    depth = {root: 0}
    frontier = [root]
    while frontier:
        a = frontier.pop()
        for i, j in edges:
            for x, y in ((i, j), (j, i)):
                if x == a and y not in depth:
                    depth[y] = depth[a] + 1
                    frontier.append(y)
    return depth


def _reference_generator(tree, root, num_vars):
    """u_root: each edge oriented away from root contributes its quotient."""
    depth = _depths(tree.edges, root)
    labels = dict(tree.labels)
    return _monomial_product(
        [labels[i, j][0] if depth[i] < depth[j] else labels[i, j][1] for i, j in tree.edges],
        num_vars,
    )


def _reference_tree_minor(rows, drop_col, t, num_vars):
    """The one nonzero term of the minor's Leibniz expansion: with the tree
    oriented away from the dropped column, each row takes its entry in the
    column of its endpoint farther from it."""
    depth = _depths([(i, j) for i, j, _, _ in rows], drop_col)
    cols = [c for c in range(t) if c != drop_col]
    sign, perm, factors = 1, [], []
    for i, j, mi, mj in rows:
        if depth[i] > depth[j]:
            perm.append(cols.index(i))
            factors.append(mi)
        else:
            perm.append(cols.index(j))
            factors.append(mj)
            sign = -sign
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return sign * (-1) ** inversions, _monomial_product(factors, num_vars)


@given(quasi_trees())
@settings(max_examples=40, deadline=None)
def test_relation_trees_match_the_explicit_builder(cx):
    gens = facet_complement_generators(cx)
    trees = relation_trees(cx, limit=2000)  # at most 6^4 = 1296 trees on 6 facets
    assert [tr.edges for tr in trees] == _naive_relation_edge_sets(list(cx.facet_masks))
    assert trees == [relation_tree_from_edges(gens, tr.edges) for tr in trees]
    assert relation_trees(cx) == trees[:1000]
    assert relation_trees(cx, limit=2) == trees[:2]
    for tr in trees[:: len(trees) // 10 + 1]:
        assert reconstruct_generators(tr) == [
            _reference_generator(tr, root, cx.n) for root in range(len(gens))
        ]


@given(quasi_trees())
@settings(max_examples=40, deadline=None)
def test_relation_trees_are_what_the_checking_constructor_builds(cx):
    # relation_trees builds its trees without RelationTree's checks; each
    # passes them, no edge set comes twice, and every tree through an edge
    # holds one (edge, label) entry object, which the checks and the wire
    # form key by id
    t = len(cx.facets)
    trees = relation_trees(cx, limit=2000)
    assert trees == [RelationTree(t, tree.edges, tree.labels) for tree in trees]
    assert len({tree.edges for tree in trees}) == len(trees)
    entries = {}
    for tree in trees:
        assert type(tree) is RelationTree
        for entry in tree.labels:
            assert entries.setdefault(entry[0], entry) is entry


@st.composite
def tree_edges(draw, t):
    """The (i, j), i < j, edges of a random spanning tree on [0, t)."""
    relabel = draw(st.permutations(range(t)))
    edges = []
    for child in range(1, t):
        a, b = relabel[child], relabel[draw(st.integers(0, child - 1))]
        edges.append((min(a, b), max(a, b)))
    return sorted(edges)


def _exponent_monomials(n, max_exp=3):
    return st.lists(st.integers(0, max_exp), min_size=n, max_size=n).map(Monomial)


@st.composite
def labelled_trees(draw, max_t=9, max_exp=3):
    """A random spanning tree on t <= max_t generators with arbitrary (not
    squarefree) generators and relation-matrix rows, so that several
    factors of a product can share a variable."""
    t = draw(st.integers(2, max_t))
    n = draw(st.integers(1, 4))
    monomials = _exponent_monomials(n, max_exp)
    gens = draw(st.lists(monomials, min_size=t, max_size=t))
    edges = draw(tree_edges(t))
    rows = [(i, j, draw(monomials), draw(monomials)) for i, j in edges]
    return relation_tree_from_edges(gens, edges), rows, n


@given(labelled_trees())
@settings(max_examples=150, deadline=None)
def test_tree_products_match_one_monomial_at_a_time(case):
    tree, rows, n = case
    t = tree.num_generators
    assert reconstruct_generators(tree) == [
        _reference_generator(tree, root, n) for root in range(t)
    ]
    for col in range(t):
        assert tree_minor_det(rows, col) == _reference_tree_minor(rows, col, t, n)


def _path_edges(edges, a, b):
    """The edges (i, j), i < j, of the tree path from a to b."""
    parent = {a: None}
    frontier = [a]
    while frontier:
        x = frontier.pop()
        for i, j in edges:
            for u, v in ((i, j), (j, i)):
                if u == x and v not in parent:
                    parent[v] = x
                    frontier.append(v)
    path = set()
    while parent[b] is not None:
        path.add((min(b, parent[b]), max(b, parent[b])))
        b = parent[b]
    return path


@given(st.integers(3, 9), st.integers(1, 4), st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_rows_with_a_cycle_have_no_tree_minor(t, n, drop_one, data):
    # A spanning tree plus one more edge closes a cycle, whose rows never
    # get a column of their own; dropping a tree edge off the cycle keeps
    # the minor square.
    edges = data.draw(tree_edges(t))
    extra = data.draw(
        st.sampled_from([e for e in itertools.combinations(range(t), 2) if e not in edges])
    )
    off_cycle = sorted(set(edges) - _path_edges(edges, *extra))
    if drop_one and off_cycle:
        edges.remove(data.draw(st.sampled_from(off_cycle)))
    edges = data.draw(st.permutations(edges + [extra]))
    monomials = _exponent_monomials(n)
    rows = [(i, j, data.draw(monomials), data.draw(monomials)) for i, j in edges]
    for col in range(t):
        assert tree_minor_det(rows, col) is None


@given(quasi_trees(), st.data())
@settings(max_examples=40, deadline=None)
def test_minor_certificate_accepts_exactly_the_relation_trees(cx, data):
    # Every spanning tree one edge away from a relation tree passes the
    # certificate iff it is itself a relation tree (quasi_trees cover [n]).
    t = len(cx.facets)
    trees = relation_trees(cx, limit=2000)
    relation = {tr.edges for tr in trees}
    tree = data.draw(st.sampled_from(trees))
    assert verify_minor_certificate(cx, tree)
    for e in tree.edges:
        rest = [f for f in tree.edges if f != e]
        side = _depths(rest, e[0])  # the part of the tree that keeps e[0]
        for f in itertools.combinations(range(t), 2):
            if f == e or (f[0] in side) == (f[1] in side):
                continue
            perturbed = tuple(sorted(rest + [f]))
            assert verify_minor_certificate(cx, perturbed) == (perturbed in relation)


@given(st.integers(2, 12), st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_rerooted_products_match_the_per_root_walk(t, n, data):
    # Labels that are not quotients of any generators: moving the root
    # across an edge must still turn exactly that edge around.
    edges = data.draw(tree_edges(t))
    monomials = _exponent_monomials(n)
    labels = tuple((e, (data.draw(monomials), data.draw(monomials))) for e in edges)
    tree = RelationTree(t, tuple(edges), labels)
    assert reconstruct_generators(tree) == [
        _reference_generator(tree, root, n) for root in range(t)
    ]


def _reference_products(tree, num_vars):
    return [_reference_generator(tree, root, num_vars) for root in range(tree.num_generators)]


def _times_x1(m):
    return Monomial((m.exponents[0] + 1,) + m.exponents[1:])


# Wide exponents: a product of 11 labels up to 2^40 needs 44-bit fields.
wide_labelled_trees = labelled_trees(max_t=12, max_exp=2**40)


@given(st.lists(wide_labelled_trees, min_size=1, max_size=5), st.data())
@settings(max_examples=80, deadline=None)
def test_batch_reconstruction_matches_the_per_root_oracle(cases, data):
    # One call packs the labels of trees of different sizes and variable
    # counts; a tree matches only the generators it multiplies out to.
    trees = [tree for tree, _, _ in cases]
    products = [_reference_products(tree, n) for tree, _, n in cases]
    gens = list(data.draw(st.sampled_from(products)))
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(gens) - 1))
        gens[k] = _times_x1(gens[k])
    assert reconstructs(trees, gens) == [p == gens for p in products]
    assert [reconstruct_generators(tree) for tree in trees] == products


@given(wide_labelled_trees, st.data())
@settings(max_examples=60, deadline=None)
def test_batch_reconstruction_fails_on_a_perturbed_label(case, data):
    tree, _, n = case
    gens = _reference_products(tree, n)
    e, (u, v) = data.draw(st.sampled_from(tree.labels))
    bent = RelationTree(
        tree.num_generators,
        tree.edges,
        tuple((f, (_times_x1(u), v) if f == e else lab) for f, lab in tree.labels),
    )
    # root i orients e = (i, j) away from itself, so u_i picks up the change
    assert reconstructs([tree, bent], gens) == [True, False]
    assert reconstructs([bent], _reference_products(bent, n)) == [True]


@given(wide_labelled_trees, st.data())
@settings(max_examples=60, deadline=None)
def test_the_first_label_of_an_edge_wins(case, data):
    tree, _, n = case
    e = data.draw(st.sampled_from(tree.edges))
    monomials = _exponent_monomials(n, 2**40)
    other = (data.draw(monomials), data.draw(monomials))
    after = RelationTree(tree.num_generators, tree.edges, tree.labels + ((e, other),))
    before = RelationTree(tree.num_generators, tree.edges, ((e, other),) + tree.labels)
    replaced = RelationTree(
        tree.num_generators,
        tree.edges,
        tuple((f, other if f == e else lab) for f, lab in tree.labels),
    )
    assert after.label(*e) == tree.label(*e) and before.label(*e) == other
    expected = [_reference_products(tree, n), _reference_products(replaced, n)]
    assert [reconstruct_generators(after), reconstruct_generators(before)] == expected
    verdicts = reconstructs([after, before, tree], expected[0])
    assert verdicts == [True, expected[1] == expected[0], True]
    assert relation_tree_to_json(after) == relation_tree_to_json(tree)
    assert relation_tree_to_json(before) == relation_tree_to_json(replaced)


@given(wide_labelled_trees)
@settings(max_examples=60, deadline=None)
def test_wide_tree_minors_match_the_leibniz_term(case):
    tree, rows, n = case
    for col in range(tree.num_generators):
        assert tree_minor_det(rows, col) == _reference_tree_minor(rows, col, tree.num_generators, n)


def _leibniz_det(rows, cols, num_vars):
    """The determinant of the rows on the columns `cols` as a polynomial
    {exponents: coefficient}, summed over every permutation; row
    (i, j, m_i, m_j) holds +m_i in column i and -m_j in column j."""
    det: dict = {}
    for perm in itertools.permutations(cols):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        coeff, exps = (-1) ** inversions, [0] * num_vars
        for (i, j, m_i, m_j), c in zip(rows, perm):
            if c not in (i, j):
                break
            coeff *= 1 if c == i else -1
            exps = [a + b for a, b in zip(exps, (m_i if c == i else m_j).exponents)]
        else:
            det[tuple(exps)] = det.get(tuple(exps), 0) + coeff
    return {e: c for e, c in det.items() if c}


@st.composite
def pure_complexes(draw, max_n=6, max_facets=5):
    """At least two distinct facets of one size, which form an antichain."""
    n = draw(st.integers(3, max_n))
    k = draw(st.integers(1, n - 1))
    face = st.sets(st.integers(1, n), min_size=k, max_size=k).map(sorted)
    return SimplicialComplex(
        n, draw(st.lists(face, min_size=2, max_size=max_facets, unique_by=tuple))
    )


@given(st.one_of(quasi_trees(max_facets=5), pure_complexes()), st.data())
@settings(max_examples=80, deadline=None)
def test_no_tree_minor_means_a_vanishing_relation_matrix_minor(cx, data):
    # any t - 1 rows of M_Delta, in any order: the minor without column j
    # is 0 exactly when tree_minor_det gives None, and else its one term
    t = len(cx.facets)
    rows = build_m_delta(cx)
    picked = data.draw(st.permutations(range(len(rows))))[: t - 1]
    chosen = [rows[k] for k in picked]
    for j in range(t):
        det = _leibniz_det(chosen, [c for c in range(t) if c != j], cx.n)
        minor = tree_minor_det(chosen, j)
        assert det == ({} if minor is None else {minor[1].exponents: minor[0]})


@given(complexes(max_n=7))
@settings(max_examples=200, deadline=None)
def test_facet_monomials_match_the_vertex_set_construction(cx):
    # the generators and relation rows built from facet bitmasks equal the
    # monomials of the vertex sets, built one by one from their faces
    def monomial(mask):
        return Monomial.from_support(mask_face(mask), cx.n)

    masks, full = cx.facet_masks, (1 << cx.n) - 1
    assert facet_complement_generators(cx) == [monomial(full & ~m) for m in masks]
    if len(masks) > 1:
        assert build_m_delta(cx) == [
            (i, j, monomial(masks[i] & ~masks[j]), monomial(masks[j] & ~masks[i]))
            for i, j in itertools.combinations(range(len(masks)), 2)
        ]


@given(quasi_trees(), st.data())
@settings(max_examples=40, deadline=None)
def test_batch_certificates_match_the_per_tree_minor_oracle(cx, data):
    # A relation tree, every spanning tree one edge away from it (most of
    # which fail) and a few random spanning trees, checked in one call.
    t = len(cx.facets)
    gens = facet_complement_generators(cx)
    relation = relation_trees(cx, limit=2000)
    tree = data.draw(st.sampled_from(relation)).edges
    batch = [tree]
    for e in tree:
        rest = [f for f in tree if f != e]
        side = _depths(rest, e[0])
        batch += [
            sorted(rest + [f])
            for f in itertools.combinations(range(t), 2)
            if f != e and (f[0] in side) != (f[1] in side)
        ]
    batch += data.draw(st.lists(tree_edges(t), max_size=5))
    rows = build_m_delta(cx)
    oracle = [
        all(
            _reference_tree_minor([r for r in rows if r[:2] in edges], j, t, cx.n)[1] == gens[j]
            for j in range(t)
        )
        for edges in batch
    ]
    assert minor_certificates(cx, batch) == oracle
    assert oracle == [tuple(edges) in {tr.edges for tr in relation} for edges in batch]
    assert [verify_minor_certificate(cx, edges) for edges in batch[:3]] == oracle[:3]


@given(quasi_trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_batch_certificates_reject_what_the_single_call_rejects(cx, data):
    # t - 1 facet pairs that need not form a tree, some possibly out of range
    t = len(cx.facets)
    pairs = st.tuples(st.integers(-1, t), st.integers(-1, t))
    edges = data.draw(st.lists(pairs, min_size=t - 1, max_size=t - 1))
    tree = data.draw(tree_edges(t))
    in_range = all(0 <= v < t for e in edges for v in e)
    if in_range and len(_depths(edges, 0)) == t:
        assert minor_certificates(cx, [tree, edges]) == [
            verify_minor_certificate(cx, tree),
            verify_minor_certificate(cx, edges),
        ]
        return
    for call in (
        lambda: verify_minor_certificate(cx, edges),
        lambda: minor_certificates(cx, [tree, edges]),
    ):
        with pytest.raises(DomainError, match="spanning tree"):
            call()


@given(wide_labelled_trees, st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_batch_reconstruction_rejects_mixed_variable_counts(case, m):
    tree, _, n = case
    assume(m != n)
    (e, (u, v)), *rest = tree.labels
    mixed = RelationTree(
        tree.num_generators, tree.edges, ((e, (u, Monomial([1] * m))), *rest)
    )
    gens = _reference_products(tree, n)
    for call in (
        lambda: reconstruct_generators(mixed),
        lambda: reconstructs([tree, mixed], gens),
    ):
        with pytest.raises(DomainError, match="mixed variable counts"):
            call()


@given(wide_labelled_trees, wide_labelled_trees, st.data())
@settings(max_examples=40, deadline=None)
def test_batch_reconstruction_fails_a_tree_of_other_variable_counts(case, other, data):
    # labels checked once per distinct pair still give one count per tree:
    # a tree whose labels all have m != n variables fails, and none raises
    tree, _, n = case
    odd, _, m = other
    assume(m != n)
    gens = _reference_products(tree, n)
    batch = data.draw(st.permutations([tree, odd, odd]))
    assert reconstructs(batch, gens) == [b is tree for b in batch]
    assert reconstructs([odd], gens) == [False]


@given(wide_labelled_trees, st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_reconstruction_rejects_labels_of_two_counts_in_one_tree(case, m):
    # each label pair is consistent, but two pairs of one tree disagree
    tree, _, n = case
    assume(m != n and len(tree.labels) >= 2)
    (e, _), *rest = tree.labels
    mixed = RelationTree(
        tree.num_generators, tree.edges, ((e, (Monomial([1] * m), Monomial([0] * m))), *rest)
    )
    gens = _reference_products(tree, n)
    for call in (
        lambda: reconstruct_generators(mixed),
        lambda: reconstructs([tree, mixed], gens),
        lambda: reconstructs([mixed, tree], gens),
    ):
        with pytest.raises(DomainError, match="mixed variable counts"):
            call()


@st.composite
def pure_complexes(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pool = list(itertools.combinations(range(1, n + 1), draw(st.integers(1, n))))
    return SimplicialComplex(n, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)))


def _naive_skeleton_complement(cx, ell):
    """Every (ell+1)-subset of [n], in lexicographic order, that lies in no facet."""
    facets = [set(f) for f in cx.facets]
    subsets = itertools.combinations(range(1, cx.n + 1), ell + 1)
    return tuple(s for s in subsets if not any(set(s) <= f for f in facets))


@given(complexes(max_n=8) | pure_complexes(), st.data())
@settings(max_examples=300, deadline=None)
def test_skeleton_complement_matches_the_subset_scan(cx, data):
    dim, _pure = dimension_info(cx)
    ell = data.draw(st.integers(0, dim))
    bar = skeleton_complement(cx, ell)
    assert bar.n == cx.n
    assert bar.facets == _naive_skeleton_complement(cx, ell)
    assert bar == pure_complement(skeleton(cx, ell))
    for bad in (-1, dim + 1):
        with pytest.raises(DomainError, match="skeleton dimension"):
            skeleton_complement(cx, bad)


@given(st.integers(2, 8), st.data())
@settings(max_examples=200, deadline=None)
def test_skeleton_ideal_from_one_skeleton_matches_the_subset_scan(n, data):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    ell = data.draw(st.integers(1, n - 1))
    i1 = MonomialIdeal(n, [Monomial.from_support(e, n) for e in edges])
    subsets = [
        tuple(int(v in s) for v in range(1, n + 1))
        for s in itertools.combinations(range(1, n + 1), ell + 1)
        if any(set(e) <= set(s) for e in edges)
    ]
    expected = sorted(subsets, key=lambda e: (sum(e), e))
    got = skeleton_ideal_from_one_skeleton(i1, ell, n)
    assert [g.exponents for g in got.generators] == expected


def test_skeleton_complement_of_the_void_complex_is_rejected():
    with pytest.raises(DomainError, match="void"):
        skeleton_complement(SimplicialComplex(3, []), 0)


@given(pure_complexes())
@settings(max_examples=200, deadline=None)
def test_pure_complement_is_the_top_skeleton_complement(cx):
    dim, _pure = dimension_info(cx)
    assert pure_complement(cx) == skeleton_complement(cx, dim)


@st.composite
def quasi_tree_skeletons(draw):
    qt = draw(quasi_trees())
    return skeleton(qt, draw(st.integers(0, dimension_info(qt)[0])))


@given(pure_complexes() | quasi_tree_skeletons())
@settings(max_examples=300, deadline=None)
def test_higher_dirac_skeleton_test_matches_the_built_skeleton(cx):
    ell, _pure = dimension_info(cx)
    candidate = clique_complex(one_skeleton_graph(cx))
    expected = skeleton(candidate, ell) == cx
    report = higher_dirac_check(cx)
    assert report.details["is_skeleton_of_candidate"] == expected
    assert report.skeleton_of_quasi_tree == (expected and leaf_order(candidate) is not None)
    assert report.chordal_and_skeleton_of_clique_complex == (expected and report.chordal)
