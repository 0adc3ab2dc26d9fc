"""Leaves, leaf orders, the pairwise-difference relation matrix, relation
trees, and generator reconstruction for quasi-trees.

A facet f is a leaf when some other facet g, its branch, contains f's
intersection with every other facet.  The search and the verifier test
this in two ways.  :func:`leaf_order_masks` collects, at each removal
step, the vertices that lie in at least two alive facets and calls f a
leaf when some other alive facet contains f's share of them.
:func:`verify_leaf_order`, :func:`leaf_report` and :func:`relation_trees`
keep :func:`_branches`, which compares f's intersection with each other
facet against its intersection with their union.

Facet indices are 0-based throughout the Python API (the JSON layer
shifts to 1-based).  The generators attached to a complex are always
the facet-complement monomials x_{F_i^c} *in facet order*, which keeps
the relation matrix, the Taylor labels and the reconstructed generators
aligned on the same index set.  They, the matrix entries and the
certificate's supports are built from facet bitmasks by :func:`ideals._mask_vectors`.

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
the reconstruction only each tree's edges and labels; neither reads the
enumerator's memo.  :func:`verify_minor_certificate`,
:func:`tree_minor_det` and :func:`reconstruct_generators` are
single-tree wrappers over the same kernels.

:func:`relation_trees` builds each tree once, without the checks of
``RelationTree.__post_init__``: its edge sets are sorted spanning trees
by construction, as ``MonomialIdeal._store(minimal=True)`` trusts its
callers' minimality.  Every tree through a facet pair holds that pair's
one ``(edge, label)`` entry, so :func:`reconstructs` compares the
variable counts of each distinct entry once and packs it once, and
``serialization`` writes it once.  ``RelationTree(...)`` keeps every
check; no other code builds a tree without them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import SimplicialComplex
from .errors import DomainError, over_cap
from .ideals import Monomial, _mask_vectors, _packing, _unpacked


@dataclass(frozen=True)
class LeafReport:
    """Leaf verdict for one facet: its branches and its free vertices."""

    is_leaf: bool
    branches: tuple[int, ...]
    free_vertices: tuple[int, ...]


def leaf_report(cx: SimplicialComplex, f: int) -> LeafReport:
    """Classify facet f: leaf or not, with branches and free vertices."""
    t = len(cx.facets)
    if type(f) is not int:  # bool is rejected too
        raise DomainError(f"facet index must be an integer, got {f!r}")
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


def leaf_order_masks(masks: list[int]) -> list[int] | None:
    """Leaf order on a list of facet bitmasks, or None.

    Works by reverse greedy leaf removal (always sound: removing a leaf
    of a quasi-tree leaves a quasi-tree), taking the lowest-index leaf
    at every step for determinism.  Each step first collects `twice`, the
    vertices of at least two alive facets; f meets the other alive facets
    in ``masks[f] & twice``, so f is a leaf iff some other alive g contains
    that, one AND per pair.
    """
    alive = list(range(len(masks)))
    removed: list[int] = []
    while len(alive) > 1:
        once = twice = 0
        for f in alive:
            twice |= once & masks[f]
            once |= masks[f]
        leaf = None
        for f in alive:
            shared = masks[f] & twice
            for g in alive:
                if g != f and not shared & ~masks[g]:
                    leaf = f
                    break
            if leaf is not None:
                break
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
    if not {int}.issuperset(map(type, order)) or sorted(order) != list(range(len(cx.facets))):
        return False
    masks = list(cx.facet_masks)
    for i in range(1, len(order)):
        if next(_branches(masks, order[: i + 1], order[i]), None) is None:
            return False
    return True


def is_quasi_tree(cx: SimplicialComplex) -> bool:
    return leaf_order(cx) is not None


SignedMonomial = tuple[int, Monomial]


def facet_complement_generators(cx: SimplicialComplex) -> list[Monomial]:
    """x_{F_i^c} in facet order; the generators of I(cx^c) indexed by facets."""
    full = (1 << cx.n) - 1
    return list(map(Monomial, _mask_vectors(cx.n, [full & ~m for m in cx.facet_masks])))


def build_m_delta(cx: SimplicialComplex) -> list[tuple[int, int, Monomial, Monomial]]:
    """The rows (i, j, x_{F_i\\F_j}, x_{F_j\\F_i}), i < j in order, of the
    C(t,2) x t matrix of pairwise facet differences: row (i, j) holds
    +x_{F_i\\F_j} in column i and -x_{F_j\\F_i} in column j, the form that
    :func:`tree_minor_det` takes."""
    t = len(cx.facets)
    if t < 2:
        raise DomainError("the relation matrix needs at least two facets")
    masks = cx.facet_masks
    pairs = list(itertools.combinations(range(t), 2))
    diffs = [d for i, j in pairs for d in (masks[i] & ~masks[j], masks[j] & ~masks[i])]
    entries = list(map(Monomial, _mask_vectors(cx.n, diffs)))
    return [(i, j, *entries[2 * k : 2 * k + 2]) for k, (i, j) in enumerate(pairs)]


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
    for i, j in edges:  # union-find, halving each path on the way to its root
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i == j:
            return False
        parent[i] = j
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


def _spanning_edges(t: int, tree):
    """The edges of a tree or edge list, checked to span [0, t).  A
    RelationTree is a spanning tree by construction (from
    :func:`relation_trees`) or checked by the public constructor, so only
    its size is checked and its edges are taken as they are; an edge list
    is sorted and checked."""
    if isinstance(tree, RelationTree):
        edges, spans = tree.edges, tree.num_generators == t
    else:
        edges = sorted((i, j) for i, j in tree)
        spans = all(0 <= i < t and 0 <= j < t for i, j in edges) and _is_tree(t, edges)
    if not spans:
        raise DomainError("certificate edges must form a spanning tree on the facets")
    return edges


def minor_certificates(cx: SimplicialComplex, trees) -> list[bool]:
    """For each tree (a RelationTree or an edge list), whether
    |det(M#(j))| = x_[n] / x_{F_j} for every column j, where M# consists
    of the relation-matrix rows selected by the tree's edges.

    Each facet pair's row and each x_{F_j^c} is packed once per call, in
    fields of (t-1).bit_length() value bits: a minor multiplies t - 1
    squarefree entries.  A RelationTree's edges span by construction, or
    were checked by the public constructor, and are used in their own
    order, since only the product of a minor is compared and it does not
    depend on the order of the rows; an edge list is sorted and checked to
    be a spanning tree first.
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
    packed = _packing(_mask_vectors(cx.n, supports), t - 1)[0]
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
    Each facet pair's Taylor label is computed once, and every tree that
    uses the edge shares one ``(edge, label)`` entry.  The trees skip
    ``RelationTree``'s checks (see the module docstring).
    """
    if type(limit) is not int or limit < 1:  # bool is rejected too
        raise DomainError(f"limit must be a positive integer, got {limit!r}")
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
                result.update(map(bit.__or__, tails))
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
    entry = {e: (e, _taylor_label(gens, *e)) for e in {e for es in edge_sets for e in es}}
    # Each edge set is a sorted spanning tree by construction, so the trees
    # skip RelationTree.__post_init__'s checks; no other code may do this.
    trees = [object.__new__(RelationTree) for _ in edge_sets]
    for tree, es in zip(trees, edge_sets):
        vars(tree).update(num_generators=t, edges=es, labels=tuple(map(entry.__getitem__, es)))
    return trees


def _edges_of(edge_set: int, t: int) -> tuple[tuple[int, int], ...]:
    """The sorted edges (i, j) of an edge set with bit t*t - 1 - (i*t + j)."""
    top = t * t - 1
    edges = []
    while edge_set:
        k = edge_set.bit_length() - 1
        edges.append(divmod(top - k, t))
        edge_set ^= 1 << k
    return tuple(edges)


def _distinct_labels(trees) -> dict:
    """Each distinct (edge, label) entry of the trees, keyed by ``id``:
    :func:`relation_trees` gives every tree through an edge the same entry."""
    listed = list(itertools.chain.from_iterable(tree.labels for tree in trees))
    return dict(zip(map(id, listed), listed))


def _label_entries(trees) -> tuple[dict, list[int]]:
    """The trees' :func:`_distinct_labels` and the variable count shared by
    each tree's labels.  The counts of each distinct entry are compared
    once, and a tree looks its entries up only when the entries do not all
    share one count."""
    entries = _distinct_labels(trees)
    counts = {
        key: u.num_vars if u.num_vars == v.num_vars else -1
        for key, (_, (u, v)) in entries.items()
    }
    shared = set(counts.values())  # when it has one count, every tree has it
    nvs: list[int] = []
    for tree in trees:
        if tree.num_generators < 2:
            raise DomainError("reconstruction needs a tree with at least one edge")
        nv = shared if len(shared) == 1 else {*map(counts.__getitem__, map(id, tree.labels))}
        if len(nv) != 1 or -1 in nv:
            raise DomainError("relation tree labels have mixed variable counts")
        nvs.extend(nv)
    return entries, nvs


def _pack_labels(entries, extra, longest: int):
    """Pack the labels of `entries` (from :func:`_label_entries`) together
    with the exponent vectors in `extra`, in fields wide enough for a
    product of `longest` labels.  Returns ``(adjacent, packed extra,
    stride)``, where ``adjacent[id(entry)]`` holds, for the entry's edge
    (i, j), ``i``, ``j`` and the two ends' adjacency items ``(j, u_ij,
    u_ji - u_ij)`` and ``(i, u_ji, u_ij - u_ji)`` on packed ints."""
    vectors = [m.exponents for _, pair in entries.values() for m in pair] + list(extra)
    top = max([longest * max(map(max, vectors)), *map(max, extra)])
    packed, stride, _, _ = _packing(vectors, top)
    adjacent = {}
    for k, (key, ((i, j), _)) in enumerate(entries.items()):
        u_ij, u_ji = packed[2 * k], packed[2 * k + 1]
        adjacent[key] = (i, j, (j, u_ij, u_ji - u_ij), (i, u_ji, u_ij - u_ji))
    return adjacent, packed[2 * len(entries) :], stride


def _products(tree: RelationTree, adjacent) -> list[int]:
    """The packed u_0, ..., u_{t-1} of one tree.

    For each index i the tree is oriented away from i and the directed
    edge k -> j contributes the quotient u_kj; the product over all edges
    is u_i.  One walk from index 0 gives u_0; moving the root across an
    edge a -> b turns only that edge around, so u_b = u_a + (u_ba - u_ab):
    an exact sum of ints whose fields hold u_b's exponents, since u_a holds
    u_ab.  Each index's adjacency list takes its items from
    :func:`_pack_labels` in label order, so the walk reaches a new index
    through its edge's first label.
    """
    t = tree.num_generators
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(t)]
    for entry in tree.labels:
        i, j, ahead, back = adjacent[id(entry)]
        adj[i].append(ahead)
        adj[j].append(back)
    walk = []  # (a, b, u_ba - u_ab) for each edge, a nearer to index 0, in walk order
    seen = [True] + [False] * (t - 1)
    stack = [0]
    root = 0
    while stack:
        a = stack.pop()
        for b, u_ab, turn in adj[a]:
            if not seen[b]:
                seen[b] = True
                stack.append(b)
                walk.append((a, b, turn))
                root += u_ab
    products = [root] * t
    for a, b, turn in walk:
        products[b] = products[a] + turn
    return products


def reconstructs(trees, generators) -> list[bool]:
    """For each labeled relation tree, whether it gives back exactly the
    given generators (:func:`reconstruct_generators` for every tree, with
    each distinct label entry checked and packed once per call and no
    monomial built)."""
    trees = list(trees)
    entries, nvs = _label_entries(trees)
    gens = [g.exponents for g in generators]
    n = len(gens[0]) if gens else 0
    matching = [
        nv == n and tree.num_generators == len(gens) for tree, nv in zip(trees, nvs)
    ]
    if not any(matching) or any(len(g) != n for g in gens):
        return [False] * len(trees)
    # every entry's two labels have one count, and those of a matching tree n
    entries = {key: e for key, e in entries.items() if e[1][0].num_vars == n}
    adjacent, packed_gens, _ = _pack_labels(entries, gens, len(gens) - 1)
    return [
        ok and _products(tree, adjacent) == packed_gens
        for tree, ok in zip(trees, matching)
    ]


def reconstruct_generators(tree: RelationTree) -> list[Monomial]:
    """Recover the generators from a labeled relation tree (the products
    of :func:`_products`)."""
    entries, (n,) = _label_entries([tree])
    adjacent, _, stride = _pack_labels(entries, [], tree.num_generators - 1)
    return [Monomial(p) for p in _unpacked(_products(tree, adjacent), stride, n)]
