"""Leaves, leaf orders, the pairwise-difference relation matrix, relation
trees, and generator reconstruction for quasi-trees.

Facet indices are 0-based throughout the Python API (the JSON layer
shifts to 1-based).  The generators attached to a complex are always
the facet-complement monomials x_{F_i^c} *in facet order*, which keeps
the relation matrix, the Taylor relations and the reconstructed
generators aligned on the same index set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import SimplicialComplex, mask_face
from .errors import DomainError
from .ideals import Monomial, MonomialIdeal


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


@dataclass(frozen=True)
class MonomialMatrix:
    """Sparse matrix of signed monomials; row (i,j) holds +x_{F_i \\ F_j}
    in column i and -x_{F_j \\ F_i} in column j."""

    row_labels: tuple[tuple[int, int], ...]
    num_cols: int
    entries: tuple  # ((row, col), (sign, Monomial)) pairs

    def entry(self, row: int, col: int) -> SignedMonomial | None:
        for (r, c), sm in self.entries:
            if (r, c) == (row, col):
                return sm
        return None


def facet_complement_generators(cx: SimplicialComplex) -> list[Monomial]:
    """x_{F_i^c} in facet order; the generators of I(cx^c) indexed by facets."""
    full = (1 << cx.n) - 1
    return [
        Monomial.from_support(mask_face(full & ~m), cx.n) for m in cx.facet_masks
    ]


def build_m_delta(cx: SimplicialComplex) -> MonomialMatrix:
    """The C(t,2) x t matrix of pairwise facet differences."""
    t = len(cx.facets)
    if t < 2:
        raise DomainError("the relation matrix needs at least two facets")
    masks = cx.facet_masks
    labels = []
    entries = []
    for row, (i, j) in enumerate(itertools.combinations(range(t), 2)):
        labels.append((i, j))
        entries.append(
            ((row, i), (1, Monomial.from_support(mask_face(masks[i] & ~masks[j]), cx.n)))
        )
        entries.append(
            ((row, j), (-1, Monomial.from_support(mask_face(masks[j] & ~masks[i]), cx.n)))
        )
    return MonomialMatrix(tuple(labels), t, tuple(entries))


@dataclass(frozen=True)
class TaylorRelation:
    """The syzygy u_ji e_i - u_ij e_j between generators i < j."""

    i: int
    j: int
    u_ij: Monomial
    u_ji: Monomial


def taylor_pairs(gens: list[Monomial]) -> list[TaylorRelation]:
    """All C(t,2) Taylor relations of an explicit generator sequence."""
    if len(gens) < 2:
        raise DomainError("Taylor relations need at least two generators")
    out = []
    for i, j in itertools.combinations(range(len(gens)), 2):
        g = gens[i].gcd(gens[j])
        out.append(TaylorRelation(i, j, gens[i].quotient(g), gens[j].quotient(g)))
    return out


def taylor_relations(ideal: MonomialIdeal) -> list[TaylorRelation]:
    """Taylor relations of G(I) in canonical generator order."""
    return taylor_pairs(list(ideal.generators))


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


def relation_tree_from_edges(gens: list[Monomial], edges) -> RelationTree:
    """Attach Taylor labels from an explicit generator sequence."""
    labels = []
    for i, j in edges:
        g = gens[i].gcd(gens[j])
        labels.append(((i, j), (gens[i].quotient(g), gens[j].quotient(g))))
    return RelationTree(len(gens), tuple(sorted(edges)), tuple(sorted(labels)))


def tree_minor_det(
    rows: list[tuple[int, int, Monomial, Monomial]], drop_col: int
) -> SignedMonomial | None:
    """Signed det of the minor obtained by dropping one column, by
    repeatedly eliminating columns with a single nonzero entry.

    Each row (i, j, m_i, m_j) has entry +m_i in column i and -m_j in
    column j.  For a spanning tree the elimination always completes and
    the determinant is a single signed monomial (no cancellation can
    occur); a stall means the determinant vanishes (the rows share a
    cycle) and None is returned.
    """
    active = []
    for i, j, mi, mj in rows:
        cells = {}
        if i != drop_col:
            cells[i] = (1, mi)
        if j != drop_col:
            cells[j] = (-1, mj)
        active.append(cells)
    cols = sorted({c for cells in active for c in cells})
    acc = None
    sign = 1
    while active:
        counts: dict[int, int] = {}
        for cells in active:
            for c in cells:
                counts[c] = counts.get(c, 0) + 1
        col = next((c for c in cols if counts.get(c, 0) == 1), None)
        if col is None:
            return None
        row_idx = next(r for r, cells in enumerate(active) if col in cells)
        entry_sign, mono = active[row_idx][col]
        # Cofactor expansion along a column with one nonzero entry: the
        # sign contribution is the entry's sign times (-1)^(row+col)
        # relative to the current (shrunken) matrix.
        sign *= entry_sign * (-1) ** (row_idx + cols.index(col))
        active.pop(row_idx)
        cols.remove(col)
        for other in active:
            other.pop(col, None)
        acc = mono if acc is None else acc * mono
    return (sign, acc) if acc is not None else None


def selected_relation_rows(
    cx: SimplicialComplex, edges
) -> list[tuple[int, int, Monomial, Monomial]]:
    """Relation-matrix rows (i, j, x_{F_i\\F_j}, x_{F_j\\F_i}) for the
    given facet pairs, sorted by (i, j)."""
    masks = cx.facet_masks
    return [
        (
            i,
            j,
            Monomial.from_support(mask_face(masks[i] & ~masks[j]), cx.n),
            Monomial.from_support(mask_face(masks[j] & ~masks[i]), cx.n),
        )
        for i, j in sorted(edges)
    ]


def verify_minor_certificate(cx: SimplicialComplex, tree) -> bool:
    """Check |det(M#(j))| = x_[n] / x_{F_j} for every column j, where M#
    consists of the relation-matrix rows selected by the tree's edges."""
    t = len(cx.facets)
    edges = tuple(tree.edges) if isinstance(tree, RelationTree) else tuple(tree)
    if not _is_tree(t, sorted(edges)):
        raise DomainError("certificate edges must form a spanning tree on the facets")
    masks = cx.facet_masks
    rows = selected_relation_rows(cx, edges)
    full = (1 << cx.n) - 1
    for j in range(t):
        expected = Monomial.from_support(mask_face(full & ~masks[j]), cx.n)
        det = tree_minor_det(rows, j)
        if det is None or det[1].exponents != expected.exponents:
            return False
    return True


def relation_trees(cx: SimplicialComplex, limit: int = 1000) -> list[RelationTree]:
    """All relation trees reachable by leaf removal, deduplicated.

    At every step any leaf may be removed and any of its branches chosen
    as the tree edge; distinct choice sequences often yield the same
    edge set, so results are keyed by sorted edge list.
    """
    if limit < 1:
        raise DomainError(f"limit must be positive, got {limit}")
    masks = list(cx.facet_masks)
    t = len(masks)
    if leaf_order_masks(masks) is None:
        raise DomainError("relation trees are only defined for quasi-trees")
    if t == 1:
        raise DomainError("relation trees need at least two facets")

    cache: dict[frozenset, set] = {}

    def enumerate_trees(alive: frozenset) -> set:
        if len(alive) == 1:
            return {frozenset()}
        if alive in cache:
            return cache[alive]
        alive_list = sorted(alive)
        result = set()
        for f in alive_list:
            branches = list(_branches(masks, alive_list, f))
            if not branches:
                continue
            sub = [x for x in alive_list if x != f]
            tails = enumerate_trees(frozenset(sub))
            for g in branches:
                edge = (min(f, g), max(f, g))
                for tail in tails:
                    result.add(tail | {edge})
        cache[alive] = result
        return result

    gens = facet_complement_generators(cx)
    edge_sets = sorted(tuple(sorted(es)) for es in enumerate_trees(frozenset(range(t))))
    return [relation_tree_from_edges(gens, es) for es in edge_sets[:limit]]


def reconstruct_generators(tree: RelationTree) -> list[Monomial]:
    """Recover the generators from a labeled relation tree.

    For each index i the tree is oriented away from i and the directed
    edge k -> j contributes the quotient u_kj; the product over all
    edges is the generator u_i.
    """
    t = tree.num_generators
    if t < 2:
        raise DomainError("reconstruction needs a tree with at least one edge")
    adj: dict[int, list[int]] = {k: [] for k in range(t)}
    for i, j in tree.edges:
        adj[i].append(j)
        adj[j].append(i)
    nv = tree.labels[0][1][0].num_vars
    if any(u.num_vars != nv or v.num_vars != nv for _, (u, v) in tree.labels):
        raise DomainError("relation tree labels have mixed variable counts")
    out = []
    for root in range(t):
        product = Monomial([0] * nv)
        seen = {root}
        stack = [root]
        while stack:
            a = stack.pop()
            for b in adj[a]:
                if b in seen:
                    continue
                seen.add(b)
                stack.append(b)
                # Edge oriented a -> b: contribute u_ab.
                u_ij, u_ji = tree.label(min(a, b), max(a, b))
                product = product * (u_ij if a < b else u_ji)
        out.append(product)
    return out
