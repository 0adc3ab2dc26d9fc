"""Leaves, leaf orders, the pairwise-difference relation matrix, relation
trees, and generator reconstruction for quasi-trees.

Facet indices are 0-based throughout the Python API (the JSON layer
shifts to 1-based).  The generators attached to a complex are always
the facet-complement monomials x_{F_i^c} *in facet order*, which keeps
the relation matrix, the Taylor labels and the reconstructed generators
aligned on the same index set.

Lemma 2.1 pairs the relation matrix M_Delta with the Taylor labels of
these generators, and each has one builder: :func:`build_m_delta` gives
M_Delta's rows (i, j, x_{F_i\\F_j}, x_{F_j\\F_i}), the form that
:func:`tree_minor_det` takes, and :func:`_taylor_label` the label
(u_ij, u_ji) of a tree edge.

Lemma 2.1's two checks of a relation tree each have one kernel on packed
exponent ints (:func:`ideals._packing`), with a batch entry that packs
per call what all trees share and returns one verdict per tree:
:func:`minor_certificates` (the maximal minors of the tree's relation
rows, by column elimination in :func:`_minor`) and :func:`reconstructs`
(the generators as products of the tree's labels, by rerooting in
:func:`_products`).  The certificate reads only the complex's rows and
the reconstruction only each tree's edges and labels.
:func:`verify_minor_certificate`, :func:`tree_minor_det` and
:func:`reconstruct_generators` are single-tree wrappers over the same
kernels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import SimplicialComplex, mask_face
from .errors import DomainError, over_cap
from .ideals import Monomial, _packing, _unpacked


@dataclass(frozen=True)
class LeafReport:
    """Leaf verdict for one facet: its branches and its free vertices."""

    is_leaf: bool
    branches: tuple[int, ...]
    free_vertices: tuple[int, ...]


def leaf_report(cx: SimplicialComplex, f: int) -> LeafReport:
    """Classify facet f: leaf or not, with branches and free vertices."""
    t = len(cx.facets)
    if not 0 <= f < t:
        raise DomainError(f"facet index {f} out of range [0, {t})")
    masks = list(cx.facet_masks)
    counts: dict[int, int] = {}
    for facet in cx.facets:
        for v in facet:
            counts[v] = counts.get(v, 0) + 1
    free = tuple(v for v in cx.facets[f] if counts[v] == 1)
    if t == 1:
        return LeafReport(True, (), free)
    branches = tuple(_branches(masks, range(t), f))
    return LeafReport(bool(branches), branches, free)


def _branches(masks, alive, f):
    """The branches of facet f among the alive facets, lazily.

    A branch is a facet g != f whose intersection with f contains the
    intersection of f with every other alive facet, i.e. equals f meeting
    their union; f is a leaf iff it has a branch.
    """
    mf = masks[f]
    union = 0
    for h in alive:
        if h != f:
            union |= masks[h]
    union &= mf
    for g in alive:
        if g != f and masks[g] & mf == union:
            yield g


def _is_leaf_of(masks, alive, f) -> bool:
    """A single alive facet is a leaf; otherwise f needs a branch."""
    return len(alive) == 1 or next(_branches(masks, alive, f), None) is not None


def leaf_order_masks(masks: list[int]) -> list[int] | None:
    """Leaf order on a list of facet bitmasks, or None.

    Works by reverse greedy leaf removal (always sound: removing a leaf
    of a quasi-tree leaves a quasi-tree), taking the lowest-index leaf
    at every step for determinism.
    """
    alive = list(range(len(masks)))
    removed: list[int] = []
    while len(alive) > 1:
        leaf = next((f for f in alive if _is_leaf_of(masks, alive, f)), None)
        if leaf is None:
            return None
        alive.remove(leaf)
        removed.append(leaf)
    return alive + removed[::-1]


def leaf_order(cx: SimplicialComplex) -> list[int] | None:
    """Facet indices forming a leaf order, or None if cx is no quasi-tree."""
    if cx.is_void:
        raise DomainError("leaf order of the void complex is undefined")
    return leaf_order_masks(list(cx.facet_masks))


def verify_leaf_order(cx: SimplicialComplex, order: list[int]) -> bool:
    """Independent prefix check: order[i] must be a leaf of the prefix."""
    if sorted(order) != list(range(len(cx.facets))):
        return False
    masks = list(cx.facet_masks)
    for i in range(len(order)):
        prefix = order[: i + 1]
        if not _is_leaf_of(masks, prefix, order[i]):
            return False
    return True


def is_quasi_tree(cx: SimplicialComplex) -> bool:
    return leaf_order(cx) is not None


SignedMonomial = tuple[int, Monomial]


def facet_complement_generators(cx: SimplicialComplex) -> list[Monomial]:
    """x_{F_i^c} in facet order; the generators of I(cx^c) indexed by facets."""
    full = (1 << cx.n) - 1
    return [
        Monomial.from_support(mask_face(full & ~m), cx.n) for m in cx.facet_masks
    ]


def build_m_delta(cx: SimplicialComplex) -> list[tuple[int, int, Monomial, Monomial]]:
    """The rows (i, j, x_{F_i\\F_j}, x_{F_j\\F_i}), i < j in order, of the
    C(t,2) x t matrix of pairwise facet differences: row (i, j) holds
    +x_{F_i\\F_j} in column i and -x_{F_j\\F_i} in column j, the form that
    :func:`tree_minor_det` takes."""
    t = len(cx.facets)
    if t < 2:
        raise DomainError("the relation matrix needs at least two facets")
    masks = cx.facet_masks
    return [
        (
            i,
            j,
            Monomial.from_support(mask_face(masks[i] & ~masks[j]), cx.n),
            Monomial.from_support(mask_face(masks[j] & ~masks[i]), cx.n),
        )
        for i, j in itertools.combinations(range(t), 2)
    ]


@dataclass(frozen=True)
class RelationTree:
    """A tree on generator indices [0, t) labeled with Taylor quotients.

    Edges are (i, j) pairs with i < j; labels[(i, j)] = (u_ij, u_ji).
    """

    num_generators: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple  # ((i, j), (u_ij, u_ji)) pairs

    def __post_init__(self):
        t = self.num_generators
        if len(self.edges) != t - 1:
            raise DomainError(f"a relation tree on {t} generators needs {t - 1} edges")
        for i, j in self.edges:
            if not 0 <= i < j < t:
                raise DomainError(f"bad edge ({i}, {j}) for {t} generators")
        if not _is_tree(t, self.edges):
            raise DomainError("edge set is not a spanning tree")
        if {e for e, _ in self.labels} != set(self.edges):
            raise DomainError("labels do not match the edge set")

    def label(self, i: int, j: int) -> tuple[Monomial, Monomial]:
        for e, lab in self.labels:
            if e == (i, j):
                return lab
        raise KeyError((i, j))


def _is_tree(t: int, edges) -> bool:
    if len(edges) != t - 1:
        return False
    parent = list(range(t))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def _taylor_label(gens: list[Monomial], i: int, j: int) -> tuple[Monomial, Monomial]:
    """(u_ij, u_ji): gens[i] and gens[j] divided by their gcd."""
    g = gens[i].gcd(gens[j])
    return gens[i].quotient(g), gens[j].quotient(g)


def relation_tree_from_edges(gens: list[Monomial], edges) -> RelationTree:
    """Attach Taylor labels from an explicit generator sequence."""
    labels = [((i, j), _taylor_label(gens, i, j)) for i, j in edges]
    return RelationTree(len(gens), tuple(sorted(edges)), tuple(sorted(labels)))


def _incidence(rows, width: int) -> list[int]:
    """Per column c < width, the rows (as bits) with an entry in column c."""
    inc = [0] * width
    for r, (i, j, _, _) in enumerate(rows):
        inc[i] |= 1 << r
        inc[j] |= 1 << r
    return inc


def _minor(rows, inc: list[int], cols: int) -> tuple[int, int] | None:
    """(sign, packed product) of the minor of packed rows on the columns
    in the bitmask `cols`, or None, by repeatedly eliminating the lowest
    column with a single nonzero entry.

    rows[r] = (i, j, p_i, p_j) has +p_i in column i and -p_j in column j,
    exponent vectors packed by :func:`ideals._packing` in fields wide
    enough for the product; inc is :func:`_incidence`.  A column is
    eliminable when ``inc[c] & alive`` has one bit.  Cofactor expansion
    along it contributes the entry's sign times (-1)^(row+col), with row
    and col counted among the alive rows and columns.  For a spanning tree
    the elimination always completes and the determinant is one signed
    monomial (no cancellation can occur); a stall means it vanishes (the
    rows share a cycle).
    """
    if not rows:
        return None
    alive = (1 << len(rows)) - 1
    sign, product = 1, 0
    while alive:
        rest = cols
        while rest:
            bit = rest & -rest
            hit = inc[bit.bit_length() - 1] & alive
            if hit and not hit & (hit - 1):
                break
            rest ^= bit
        else:
            return None
        i, j, p_i, p_j = rows[hit.bit_length() - 1]
        if bit >> j & 1:
            sign = -sign
            product += p_j
        else:
            product += p_i
        if ((alive & (hit - 1)).bit_count() + (cols & (bit - 1)).bit_count()) & 1:
            sign = -sign
        alive ^= hit
        cols ^= bit
    return sign, product


def tree_minor_det(
    rows: list[tuple[int, int, Monomial, Monomial]], drop_col: int
) -> SignedMonomial | None:
    """Signed det of the minor obtained by dropping one column, or None
    when it vanishes.

    Each row (i, j, m_i, m_j) has entry +m_i in column i and -m_j in
    column j; the elimination is :func:`_minor`'s.
    """
    if not rows:
        return None
    n = rows[0][2].num_vars
    monomials = [m for _, _, m_i, m_j in rows for m in (m_i, m_j)]
    if any(m.num_vars != n for m in monomials):
        raise DomainError("relation rows have mixed variable counts")
    exps = [m.exponents for m in monomials]
    packed, stride, _, _ = _packing(exps, len(rows) * max(map(max, exps)))
    packed_rows = [(i, j, *packed[2 * r : 2 * r + 2]) for r, (i, j, _, _) in enumerate(rows)]
    inc = _incidence(packed_rows, 1 + max(max(i, j) for i, j, _, _ in rows))
    cols = sum(1 << c for c, bits in enumerate(inc) if bits and c != drop_col)
    det = _minor(packed_rows, inc, cols)
    if det is None:
        return None
    return det[0], Monomial(_unpacked([det[1]], stride, n)[0])


def _spanning_edges(t: int, tree) -> list[tuple[int, int]]:
    """The sorted edges of a tree or edge list, checked to span [0, t)."""
    edges = sorted((i, j) for i, j in (tree.edges if isinstance(tree, RelationTree) else tree))
    if not all(0 <= i < t and 0 <= j < t for i, j in edges) or not _is_tree(t, edges):
        raise DomainError("certificate edges must form a spanning tree on the facets")
    return edges


def minor_certificates(cx: SimplicialComplex, trees) -> list[bool]:
    """For each tree (a RelationTree or an edge list), whether
    |det(M#(j))| = x_[n] / x_{F_j} for every column j, where M# consists
    of the relation-matrix rows selected by the tree's edges.

    Each facet pair's row and each x_{F_j^c} is packed once per call, in
    fields of (t-1).bit_length() value bits: a minor multiplies t - 1
    squarefree entries.
    """
    t = len(cx.facets)
    if t < 2:
        raise DomainError("the minor certificate needs at least two facets")
    edge_lists = [_spanning_edges(t, tree) for tree in trees]
    masks = cx.facet_masks
    full = (1 << cx.n) - 1
    pairs = sorted({e for edges in edge_lists for e in edges})
    supports = [full & ~m for m in masks]
    for i, j in pairs:
        supports += (masks[i] & ~masks[j], masks[j] & ~masks[i])
    packed = _packing([[m >> v & 1 for v in range(cx.n)] for m in supports], t - 1)[0]
    expected = packed[:t]
    rows = {e: (*e, *packed[t + 2 * k : t + 2 * k + 2]) for k, e in enumerate(pairs)}
    every = (1 << t) - 1
    verdicts = []
    for edges in edge_lists:
        tree_rows = [rows[e] for e in edges]
        inc = _incidence(tree_rows, t)
        for j in range(t):
            det = _minor(tree_rows, inc, every ^ 1 << j)
            if det is None or det[1] != expected[j]:
                verdicts.append(False)
                break
        else:
            verdicts.append(True)
    return verdicts


def verify_minor_certificate(cx: SimplicialComplex, tree) -> bool:
    """Check |det(M#(j))| = x_[n] / x_{F_j} for every column j
    (:func:`minor_certificates` for one tree)."""
    return minor_certificates(cx, [tree])[0]


# Cap on the edge sets held across relation_trees' memo, one per alive
# facet set and relation tree on it.  t facets sharing one vertex have
# t^(t-2) relation trees, and the memo sums that over every alive subset:
# 441,204 edge sets (about 50 MB, 1 s) for t = 8, 7,874,235 for t = 9.
# The largest memo in the test suite, `verify all` at seeds 0 and 1 and
# the benchmark's CLI corpus holds 1,145.
MAX_RELATION_TREES = 500_000


def relation_trees(cx: SimplicialComplex, limit: int = 1000) -> list[RelationTree]:
    """All relation trees reachable by leaf removal, deduplicated.

    At every step any leaf may be removed and any of its branches chosen
    as the tree edge; distinct choice sequences often yield the same
    edge set, so results are keyed by edge set.  An edge set is an int
    with bit t*t - 1 - (i*t + j) for the edge (i, j): a lower edge is a
    higher bit, so decreasing ints are edge sets in increasing order of
    their sorted edge lists, and only the first `limit` are decoded.
    Each facet pair's Taylor label is computed once and shared by every
    tree that uses the edge.
    """
    if limit < 1:
        raise DomainError(f"limit must be positive, got {limit}")
    masks = list(cx.facet_masks)
    t = len(masks)
    if leaf_order_masks(masks) is None:
        raise DomainError("relation trees are only defined for quasi-trees")
    if t < 2:
        raise DomainError("relation trees need at least two facets")

    top = t * t - 1
    cache: dict[frozenset, set] = {}
    held = 0

    def enumerate_trees(alive: frozenset) -> set:
        nonlocal held
        if len(alive) == 1:
            return {0}
        if alive in cache:
            return cache[alive]
        alive_list = sorted(alive)
        result = set()
        for f in alive_list:
            branches = list(_branches(masks, alive_list, f))
            if not branches:
                continue
            tails = enumerate_trees(alive - {f})
            for g in branches:
                bit = 1 << (top - min(f, g) * t - max(f, g))
                result.update(tail | bit for tail in tails)
                if held + len(result) > MAX_RELATION_TREES:
                    raise over_cap(
                        "edge sets in the leaf-removal memo", held + len(result),
                        "quasitrees.MAX_RELATION_TREES", MAX_RELATION_TREES,
                    )
        cache[alive] = result
        held += len(result)
        return result

    try:
        found = enumerate_trees(frozenset(range(t)))
    finally:
        del enumerate_trees  # it refers to itself; this frees the memo now
    edge_sets = [_edges_of(es, t) for es in sorted(found, reverse=True)[:limit]]
    gens = facet_complement_generators(cx)
    labels = {e: _taylor_label(gens, *e) for e in {e for es in edge_sets for e in es}}
    return [
        RelationTree(t, es, tuple((e, labels[e]) for e in es)) for es in edge_sets
    ]


def _edges_of(edge_set: int, t: int) -> tuple[tuple[int, int], ...]:
    """The sorted edges (i, j) of an edge set with bit t*t - 1 - (i*t + j)."""
    top = t * t - 1
    edges = []
    while edge_set:
        k = edge_set.bit_length() - 1
        edges.append(divmod(top - k, t))
        edge_set ^= 1 << k
    return tuple(edges)


def _label_variables(tree: RelationTree) -> int:
    """The variable count shared by a tree's labels."""
    if tree.num_generators < 2:
        raise DomainError("reconstruction needs a tree with at least one edge")
    nv = tree.labels[0][1][0].num_vars
    if any(u.num_vars != nv or v.num_vars != nv for _, (u, v) in tree.labels):
        raise DomainError("relation tree labels have mixed variable counts")
    return nv


def _pack_labels(trees, extra):
    """Pack each distinct label pair of the trees once, together with the
    exponent vectors in `extra`, in fields wide enough for a product of
    t - 1 labels: ({id(pair): (u_ij, u_ji)}, packed extra, stride)."""
    pairs = list({id(pair): pair for tree in trees for _, pair in tree.labels}.values())
    vectors = [m.exponents for pair in pairs for m in pair] + list(extra)
    longest = max(tree.num_generators for tree in trees) - 1
    top = max([longest * max(map(max, vectors)), *map(max, extra)])
    packed, stride, _, _ = _packing(vectors, top)
    by_id = {id(pair): (packed[2 * k], packed[2 * k + 1]) for k, pair in enumerate(pairs)}
    return by_id, packed[2 * len(pairs) :], stride


def _products(tree: RelationTree, packed_labels) -> list[int]:
    """The packed u_0, ..., u_{t-1} of one tree.

    For each index i the tree is oriented away from i and the directed
    edge k -> j contributes the quotient u_kj; the product over all edges
    is u_i.  One walk from index 0 gives u_0; moving the root across an
    edge a -> b turns only that edge around, so u_b = u_a - u_ab + u_ba
    on packed ints (u_a holds u_ab, so no field borrows).
    """
    t = tree.num_generators
    quotient = {}  # (a, b) -> u_ab, what the edge contributes oriented a -> b
    adj: list[list[int]] = [[] for _ in range(t)]
    for (i, j), pair in reversed(tree.labels):  # the first label per edge wins
        quotient[i, j], quotient[j, i] = packed_labels[id(pair)]
    for i, j in tree.edges:
        adj[i].append(j)
        adj[j].append(i)
    walk = []  # (a, b) for each edge, a nearer to index 0, in walk order
    seen = [True] + [False] * (t - 1)
    stack = [0]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if not seen[b]:
                seen[b] = True
                stack.append(b)
                walk.append((a, b))
    products = [0] * t
    products[0] = sum(quotient[e] for e in walk)
    for a, b in walk:
        products[b] = products[a] - quotient[a, b] + quotient[b, a]
    return products


def reconstructs(trees, generators) -> list[bool]:
    """For each labeled relation tree, whether it gives back exactly the
    given generators (:func:`reconstruct_generators` for every tree, with
    each distinct label packed once per call and no monomial built)."""
    trees = list(trees)
    nvs = [_label_variables(tree) for tree in trees]
    gens = [g.exponents for g in generators]
    n = len(gens[0]) if gens else 0
    matching = [
        nv == n and tree.num_generators == len(gens) for tree, nv in zip(trees, nvs)
    ]
    if not any(matching) or any(len(g) != n for g in gens):
        return [False] * len(trees)
    candidates = [tree for tree, ok in zip(trees, matching) if ok]
    packed_labels, packed_gens, _ = _pack_labels(candidates, gens)
    return [
        ok and _products(tree, packed_labels) == packed_gens
        for tree, ok in zip(trees, matching)
    ]


def reconstruct_generators(tree: RelationTree) -> list[Monomial]:
    """Recover the generators from a labeled relation tree (the products
    of :func:`_products`)."""
    n = _label_variables(tree)
    packed_labels, _, stride = _pack_labels([tree], [])
    return [Monomial(p) for p in _unpacked(_products(tree, packed_labels), stride, n)]
