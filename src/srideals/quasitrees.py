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
these generators.  :func:`build_m_delta` gives M_Delta's rows
(i, j, x_{F_i\\F_j}, x_{F_j\\F_i}), the form that :func:`tree_minor_det`
takes, and :func:`_taylor_label` the label (u_ij, u_ji) of a tree edge.
Both checks of a relation tree run one rerooting walk per tree on packed
exponent ints (:func:`_products`): :func:`minor_certificates` on the
tree's relation rows, which gives its t maximal minors up to sign, and
:func:`reconstructs` on its labels, which gives the generators.  Each
batch entry packs once per call what its trees share.  The certificate
reads only the complex's rows and the reconstruction only each tree's
edges and labels; neither reads the enumerator's memo.
:func:`verify_minor_certificate` and :func:`reconstruct_generators` wrap
them for one tree.

:func:`relation_trees` builds each tree once, without the checks of
``RelationTree.__post_init__``: its edge sets are sorted spanning trees
by construction, as ``ideals._stored_ideal`` trusts its callers'
minimality.  Every tree through a facet pair holds that pair's
one ``(edge, label)`` entry, so :func:`reconstructs` compares the
variable counts of each distinct entry once and packs it once, and
``serialization`` writes it once.  ``RelationTree(...)`` keeps every
check; no other code builds a tree without them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import SimplicialComplex
from .errors import DomainError, index_order, listed, not_iterable, over_cap
from .ideals import Monomial, _mask_vectors, _packing, _unpacked


@dataclass(frozen=True)
class LeafReport:
    """Leaf verdict for one facet: its branches and its free vertices."""

    is_leaf: bool
    branches: tuple[int, ...]
    free_vertices: tuple[int, ...]


def leaf_report(cx: SimplicialComplex, f: int) -> LeafReport:
    """Classify facet f: leaf or not, with branches and free vertices."""
    t = len(cx.facet_masks)
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
    order = index_order("facet indices", order, 0, len(cx.facet_masks))
    if order is None:
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
    t = len(cx.facet_masks)
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
        if type(t) is not int:  # bool is rejected too
            raise DomainError(f"the generator count must be an integer, got {t!r}")
        if any(i > j for i, j in _spanning_edges(t, self.edges)):
            raise DomainError("a relation tree's edges (i, j) need i < j")
        if any(type(e) is not tuple for e in self.edges):
            raise DomainError("a relation tree's edges must be (i, j) tuples")
        try:
            keys = {e for e, _ in self.labels}
        except (TypeError, ValueError):  # labels that are no (edge, label) pairs
            keys = None
        if keys != set(self.edges):
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
    """Attach Taylor labels from an explicit generator sequence; the edges
    must span its indices."""
    gens = listed("monomials", gens)
    edges = _spanning_edges(len(gens), edges)
    labels = [((i, j), _taylor_label(gens, i, j)) for i, j in edges]
    return RelationTree(len(gens), tuple(edges), tuple(labels))


def tree_minor_det(
    rows: list[tuple[int, int, Monomial, Monomial]], drop_col: int
) -> SignedMonomial | None:
    """Signed det of the minor of `rows` on the columns they use, without
    column `drop_col`, when the rows form a spanning tree on those columns
    and drop_col is one of them; None for every other row set.

    Row (i, j, m_i, m_j) holds +m_i in column i and -m_j in column j.  A
    leaf column c != drop_col of the tree meets one row, so expanding the
    minor along c leaves the minor of a smaller tree; expanding leaf by
    leaf shows that the Leibniz expansion has one nonzero term, which takes
    each row's entry in its column farther from drop_col.  Its sign is
    (-1)^(rows that take their second entry + inversions of the map from
    the rows, in order, to their farther columns).  On t - 1 rows of
    :func:`build_m_delta`, None means that the minor vanishes: rows that
    are no spanning tree of [0, t) close a cycle, and a block on a cycle
    is singular, as (x_{F_0^c}, ..., x_{F_{t-1}^c}) lies in the kernel of
    M_Delta.
    """
    rows = listed("relation rows", rows)
    for row in rows:
        if not (
            isinstance(row, (tuple, list))
            and len(row) == 4
            and all(type(c) is int and c >= 0 for c in row[:2])  # bool is rejected too
            and all(isinstance(m, Monomial) for m in row[2:])
        ):
            raise DomainError(f"a relation row is (i, j, m_i, m_j), i, j >= 0; got {row!r}")
    if type(drop_col) is not int:
        raise DomainError(f"drop_col must be an integer, got {drop_col!r}")
    if len({m.num_vars for row in rows for m in row[2:]}) > 1:
        raise DomainError("relation rows have mixed variable counts")
    farther: list = [None] * len(rows)  # each row's column farther from drop_col
    reached = [drop_col]
    for a in reached:
        for r, (i, j, _, _) in enumerate(rows):
            if farther[r] is None and a in (i, j):
                if i + j - a in reached:
                    return None  # the rows close a cycle
                farther[r] = i + j - a
                reached.append(i + j - a)
    if not rows or None in farther:
        return None
    seconds = [c != row[0] for c, row in zip(farther, rows)]
    # dropping drop_col, which no row takes, keeps the order of the others
    inversions = sum(p > q for p, q in itertools.combinations(farther, 2))
    exponents = map(sum, zip(*(row[2 + k].exponents for k, row in zip(seconds, rows))))
    return (-1) ** (sum(seconds) + inversions), Monomial(tuple(exponents))


def _spanning_edges(t: int, tree):
    """The edges of a tree or edge list, checked to span [0, t).  A
    RelationTree is a spanning tree by construction (from
    :func:`relation_trees`) or checked by the public constructor, so only
    its size is checked and its edges are taken as they are; an edge list
    is sorted and checked."""
    if isinstance(tree, RelationTree):
        edges, spans = tree.edges, tree.num_generators == t
    else:
        edges = listed("index pairs", tree)
        spans = all(
            isinstance(e, (tuple, list))
            and len(e) == 2
            and all(type(v) is int and 0 <= v < t for v in e)  # bool is rejected too
            for e in edges
        ) and _is_tree(t, edges)
        edges = sorted(map(tuple, edges)) if spans else edges
    if not spans:
        raise DomainError(f"edges must form a spanning tree on the indices [0, {t})")
    return edges


def minor_certificates(cx: SimplicialComplex, trees) -> list[bool]:
    """For each tree (a RelationTree or an edge list), whether
    |det(M#(j))| = x_[n] / x_{F_j} for every column j, where M# consists
    of the relation-matrix rows selected by the tree's edges.

    |det(M#(j))| multiplies each row's entry in its column farther from j
    (:func:`tree_minor_det`), so one :func:`_products` walk, which adds
    x_{F_j\\F_i} on crossing the edge (i, j) from i and x_{F_i\\F_j} from
    j, gives all t of them.  Each facet pair's row and each x_{F_j^c} is
    packed once per call, in fields of (t-1).bit_length() value bits: a
    minor multiplies t - 1 squarefree entries.
    """
    t = len(cx.facet_masks)
    if t < 2:
        raise DomainError("the minor certificate needs at least two facets")
    edge_lists = [_spanning_edges(t, tree) for tree in listed("trees", trees)]
    masks = cx.facet_masks
    full = (1 << cx.n) - 1
    pairs = sorted({e for edges in edge_lists for e in edges})
    supports = [full & ~m for m in masks]
    for i, j in pairs:
        supports += (masks[i] & ~masks[j], masks[j] & ~masks[i])
    packed = _packing(_mask_vectors(cx.n, supports), t - 1)[0]
    expected = packed[:t]
    rows = zip(pairs, packed[t::2], packed[t + 1 :: 2])
    items = {e: _edge_item(*e, p_j, p_i) for e, p_i, p_j in rows}
    return [_products(t, map(items.__getitem__, edges)) == expected for edges in edge_lists]


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
    entries = list(itertools.chain.from_iterable(tree.labels for tree in trees))
    return dict(zip(map(id, entries), entries))


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
    product of `longest` labels.  Returns ``(items, packed extra,
    stride)``, where ``items[id(entry)]`` is the :func:`_edge_item` of the
    entry's edge (i, j): crossing it from i adds u_ij, and from j u_ji."""
    vectors = [m.exponents for _, pair in entries.values() for m in pair] + list(extra)
    top = max([longest * max(map(max, vectors)), *map(max, extra)])
    packed, stride, _, _ = _packing(vectors, top)
    labels = zip(entries.items(), packed[::2], packed[1::2])
    items = {key: _edge_item(*edge, u_ij, u_ji) for (key, (edge, _)), u_ij, u_ji in labels}
    return items, packed[2 * len(entries) :], stride


def _edge_item(i: int, j: int, ahead: int, back: int) -> tuple:
    """The :func:`_products` item of the edge (i, j), whose crossing from i
    adds the packed `ahead` and whose crossing from j adds `back`."""
    return i, j, (j, ahead, back - ahead), (i, back, ahead - back)


def _products(t: int, items) -> list[int]:
    """The packed sums P_0, ..., P_{t-1} over the spanning tree on [0, t)
    with the :func:`_edge_item` `items`: P_r adds what crossing each edge
    away from r adds.

    One walk from index 0 gives P_0.  Moving the root across an edge
    a -> b turns only that edge around, so P_b = P_a + (back - ahead): an
    exact sum of ints whose fields hold P_b's exponents, since P_a holds
    what crossing a -> b adds.  The walk reaches a new index through the
    first item of its edge.
    """
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(t)]
    for i, j, ahead, back in items:
        adj[i].append(ahead)
        adj[j].append(back)
    offsets: list = [0] + [None] * (t - 1)  # P_r - P_0, once r is reached
    stack = [0]
    root = 0
    while stack:
        a = stack.pop()
        for b, ahead, turn in adj[a]:
            if offsets[b] is None:
                offsets[b] = offsets[a] + turn
                stack.append(b)
                root += ahead
    return [root + offset for offset in offsets]


def reconstructs(trees, generators) -> list[bool]:
    """For each labeled relation tree, whether it gives back exactly the
    given generators (:func:`reconstruct_generators` for every tree, with
    each distinct label entry checked and packed once per call and no
    monomial built)."""
    forest = listed("relation trees", trees)
    try:
        entries, nvs = _label_entries(forest)
    except AttributeError:  # a string's characters, say
        raise not_iterable("relation trees", trees) from None
    try:
        gens = [g.exponents for g in listed("monomials", generators)]
    except AttributeError:
        raise not_iterable("monomials", generators) from None
    n = len(gens[0]) if gens else 0
    matching = [
        nv == n and tree.num_generators == len(gens) for tree, nv in zip(forest, nvs)
    ]
    if not any(matching) or any(len(g) != n for g in gens):
        return [False] * len(forest)
    # every entry's two labels have one count, and those of a matching tree n
    entries = {key: e for key, e in entries.items() if e[1][0].num_vars == n}
    items, packed_gens, _ = _pack_labels(entries, gens, len(gens) - 1)
    return [
        ok and _products(len(gens), map(items.__getitem__, map(id, tree.labels))) == packed_gens
        for tree, ok in zip(forest, matching)
    ]


def reconstruct_generators(tree: RelationTree) -> list[Monomial]:
    """Recover the generators from a labeled relation tree (the products
    of :func:`_products`)."""
    entries, (n,) = _label_entries([tree])
    t = tree.num_generators
    items, _, stride = _pack_labels(entries, [], t - 1)
    products = _products(t, map(items.__getitem__, map(id, tree.labels)))
    return [Monomial(p) for p in _unpacked(products, stride, n)]
