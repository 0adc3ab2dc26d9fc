"""Property-based invariants on randomized complexes and ideals."""

import functools
import itertools
import random
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
    pure_complement,
    reduced_homology,
    restrict_ideal,
    skeleton,
    stanley_reisner_ideal,
    taylor_betti_table,
    verify_leaf_order,
    verify_linear_quotients,
    verify_shelling,
)
from srideals import _linalg
from srideals.complexes import (
    down_closure,
    face_mask,
    mask_face,
    minimal_nonfaces_masks,
    skeleton_complement,
)
from srideals.graphs import (
    Graph,
    clique_complex,
    higher_dirac_check,
    maximal_clique_masks,
    maximal_cliques,
    mcs_order,
    one_skeleton_graph,
)
from srideals.homological import (
    _minimal_masks,
    _nerve_faces,
    _profile_from_masks,
    shelling_order,
    squarefree_betti_masks,
)
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
from srideals.verification import random_quasi_tree


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
    expected = sorted(_naive_graded_component(vectors, ideal.num_vars, j))
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
    assert _linalg.rank(columns, p) == _naive_rank(columns, p)
    assert columns == snapshot  # the input columns are not modified


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
