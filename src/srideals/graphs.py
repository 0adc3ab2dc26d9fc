"""Finite simple graphs on [n]: chordality with verifiable witnesses,
complements, edge ideals, clique complexes and the higher-Dirac check.

A :class:`Graph` stores n and one neighbor bitmask per vertex, built by
the pass that validates the edges; its sorted edge pairs are listed only
when :attr:`Graph.edges` is first read, which the chordality, clique and
leaf-order kernels never do.  Maximal cliques come from one
kernel, :func:`maximal_clique_masks`, an iterative Bron-Kerbosch search
with the Tomita-Tanaka-Takahashi pivot on an explicit stack, which both
:func:`maximal_cliques` and the thm-3.3 suite call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .complexes import SimplicialComplex, _antichain_complex, _check_ambient, dimension_info
from .complexes import face_mask
from .errors import DomainError, index_order, listed, over_cap
from .ideals import MonomialIdeal, _squarefree_ideal
from .quasitrees import leaf_order


def _upper_edges(rows) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j) with i < j and bit j - 1 set in ``rows[i - 1]``, by
    ascending i, then ascending j."""
    edges = []
    for i, row in enumerate(rows, 1):
        above = row >> i
        while above:
            low = above & -above
            edges.append((i, i + low.bit_length()))
            above ^= low
    return tuple(edges)


def _reject_edge(i, j, n: int):
    """Raise the DomainError for an edge that is not a pair of distinct
    vertices of [1, n]: a non-integer end first, then a loop, then the
    range."""
    if type(i) is not int or type(j) is not int:  # bool is rejected too
        raise DomainError(f"vertex {j if type(i) is int else i!r} is not an integer")
    if i == j:
        raise DomainError(f"loop at vertex {i}")
    raise DomainError(f"edge ({min(i, j)}, {max(i, j)}) out of range [1, {n}]")


@dataclass(frozen=True)
class Graph:
    """A simple graph on [1, n], stored as neighbor bitmasks:
    ``adjacency[v-1]`` has bit u - 1 set iff {u, v} is an edge.

    The masks determine the edge set, so ``==`` and ``hash`` compare
    ``(n, adjacency)``.  The edge pairs are listed only on demand, by
    :attr:`edges`.
    """

    n: int
    adjacency: tuple[int, ...]

    def __init__(self, n: int, edges):
        _check_ambient(n, "vertex count")
        adj = [0] * n
        for e in listed("vertex pairs", edges):
            try:
                i, j = e
            except (TypeError, ValueError):
                raise DomainError(f"edge {e!r} is not a pair of vertices") from None
            if type(i) is int and type(j) is int and i != j and 0 < i <= n and 0 < j <= n:
                adj[i - 1] |= 1 << (j - 1)
                adj[j - 1] |= 1 << (i - 1)
            else:
                _reject_edge(i, j, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", tuple(adj))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as pairs (i, j) with i < j, in ascending order."""
        return _upper_edges(self.adjacency)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges!r})"

    def has_edge(self, i: int, j: int) -> bool:
        """Whether {i, j} is an edge; i and j must be vertices of [1, n]."""
        n = self.n
        for v in (i, j):
            if type(v) is not int:  # bool is rejected too
                raise DomainError(f"vertex {v!r} is not an integer")
            if not 0 < v <= n:
                raise DomainError(f"vertex {v} out of range [1, {n}]")
        return bool(self.adjacency[i - 1] >> (j - 1) & 1)


def complement_graph(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, _upper_edges([full ^ row for row in g.adjacency]))


def edge_ideal(g: Graph) -> MonomialIdeal:
    """The squarefree degree-2 ideal of the edges (zero ideal if edgeless)."""
    return _squarefree_ideal(g.n, map(face_mask, g.edges))


def mcs_order(adj: tuple[int, ...]) -> list[int]:
    """Maximum-cardinality search visit order (0-based vertices); ties go
    to the lowest vertex.

    A bucket queue over bitmasks (Tarjan-Yannakakis, SIAM J. Comput. 13,
    1984): buckets[w] is the mask of unvisited vertices with w visited
    neighbors, and each step pops the lowest bit of the highest nonempty
    bucket.  The popped vertex's unvisited neighbors then move up one
    bucket, one AND per bucket from the top down, so no per-vertex weight
    is kept.
    """
    n = len(adj)
    buckets = [0] * (n + 1)
    buckets[0] = unvisited = (1 << n) - 1
    top = 0
    order = []
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        bit = buckets[top] & -buckets[top]
        buckets[top] ^= bit
        unvisited ^= bit
        v = bit.bit_length() - 1
        order.append(v)
        rem = adj[v] & unvisited
        if rem:
            w = top
            top += 1
            while rem:
                moved = buckets[w] & rem
                if moved:
                    buckets[w] ^= moved
                    buckets[w + 1] |= moved
                    rem ^= moved
                w -= 1
    return order


def _is_peo(adj, order) -> bool:
    """Do the earlier neighbors of every vertex in the order form a clique?"""
    seen = 0
    for v in order:
        earlier = adj[v] & seen
        rem = earlier
        while rem:
            bit = rem & -rem
            if earlier & ~(adj[bit.bit_length() - 1] | bit):
                return False
            rem ^= bit
        seen |= 1 << v
    return True


def _chordless_cycle(adj) -> list[int] | None:
    """Some chordless cycle of length >= 4, as 0-based vertices in order.

    For each vertex v and non-adjacent pair u, w of its neighbors, a
    shortest u-w path avoiding N[v] \\ {u, w} closes up with v into a
    chordless cycle; such a triple exists in every non-chordal graph.
    The path comes from a breadth-first search that visits each vertex's
    neighbors in increasing order.
    """
    n = len(adj)
    for v in range(n):
        nbrs = []
        rem = adj[v]
        while rem:
            bit = rem & -rem
            nbrs.append(bit.bit_length() - 1)
            rem ^= bit
        for u, w in itertools.combinations(nbrs, 2):
            if adj[u] >> w & 1:
                continue
            allowed = ~((adj[v] | 1 << v) & ~(1 << u) & ~(1 << w))
            prev = [-1] * n
            seen = 1 << u
            queue = [u]
            for a in queue:  # the list grows while it is read
                if a == w:
                    path = [a]
                    while a != u:
                        a = prev[a]
                        path.append(a)
                    return [v] + path[::-1]
                cand = adj[a] & allowed & ~seen
                seen |= cand
                while cand:
                    bit = cand & -cand
                    b = bit.bit_length() - 1
                    prev[b] = a
                    queue.append(b)
                    cand ^= bit
    return None


def is_chordal(g: Graph) -> tuple[bool, list[int]]:
    """Chordality with a verifiable witness.

    Returns (True, construction order) where every vertex's earlier
    neighbors form a clique, or (False, chordless cycle of length >= 4);
    vertices in the witness are 1-based.
    """
    adj = g.adjacency
    order = mcs_order(adj)
    if _is_peo(adj, order):
        return True, [v + 1 for v in order]
    cycle = _chordless_cycle(adj)
    if cycle is None:
        raise AssertionError("MCS order failed but no chordless cycle was found")
    return False, [v + 1 for v in cycle]


def verify_elimination_witness(g: Graph, order: list[int]) -> bool:
    """Each vertex's earlier neighbors in the order must form a clique."""
    order = index_order("vertices", order, 1, g.n)
    if order is None:
        return False
    return _is_peo(g.adjacency, [v - 1 for v in order])


def verify_cycle_witness(g: Graph, cycle: list[int]) -> bool:
    """The witness must be a chordless cycle of length >= 4."""
    cycle = listed("vertices", cycle)
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k or not all(type(v) is int and 0 < v <= g.n for v in cycle):
        return False
    for a in range(k):
        for b in range(a + 1, k):
            adjacent_on_cycle = (b - a == 1) or (a == 0 and b == k - 1)
            if g.has_edge(cycle[a], cycle[b]) != adjacent_on_cycle:
                return False
    return True


def maximal_clique_masks(adj) -> list[int]:
    """Every maximal clique of the graph with neighbor masks adj, as a
    bitmask, in search order (isolated vertices included).

    Bron-Kerbosch (CACM 16, 1973) on an explicit stack: a node (R, P, X)
    reports R when P and X are empty; otherwise it takes the pivot u in
    P | X that maximizes |P & N(u)|, ties to the lowest vertex
    (Tomita-Tanaka-Takahashi, TCS 363, 2006), and branches on each v in
    P \\ N(u) in increasing order to (R | v, P & N(v), X & N(v)), moving v
    from P to X after its branch.  A stack entry is a node with the
    candidates it has not branched on yet.  A node whose P is one vertex v
    has the one branch R | v, which is maximal iff no vertex of X is
    adjacent to v, so it reports R | v without a pivot.
    """
    out = []
    stack = []
    r, p, x = 0, (1 << len(adj)) - 1, 0
    while True:
        if p & (p - 1):
            best = -1
            pool = p | x
            while pool:
                bit = pool & -pool
                pool ^= bit
                size = (adj[bit.bit_length() - 1] & p).bit_count()
                if size > best:
                    best, pivot = size, bit
            stack.append((r, p, x, p & ~adj[pivot.bit_length() - 1]))
        elif p:
            if not x & adj[p.bit_length() - 1]:
                out.append(r | p)
        elif not x:
            out.append(r)
        while stack:
            r, p, x, cand = stack.pop()
            if cand:
                bit = cand & -cand
                if cand != bit:
                    stack.append((r, p ^ bit, x | bit, cand ^ bit))
                nbrs = adj[bit.bit_length() - 1]
                r, p, x = r | bit, p & nbrs, x & nbrs
                break
        else:
            return out


def maximal_cliques(g: Graph) -> list[int]:
    """All maximal cliques as bitmasks (isolated vertices included)."""
    return sorted(maximal_clique_masks(g.adjacency))


MAX_CLIQUE_VERTICES = 24


def clique_complex(g: Graph) -> SimplicialComplex:
    """The flag complex whose facets are the maximal cliques of g."""
    if g.n > MAX_CLIQUE_VERTICES:
        raise over_cap("n", g.n, "graphs.MAX_CLIQUE_VERTICES", MAX_CLIQUE_VERTICES)
    return _antichain_complex(g.n, maximal_cliques(g))


def one_skeleton_graph(cx: SimplicialComplex) -> Graph:
    """The graph of the 2-element faces of cx (on the full ambient [n])."""
    edges = set()
    for facet in cx.facets:
        edges.update(itertools.combinations(facet, 2))
    return Graph(cx.n, edges)


def isolated_vertices(cx: SimplicialComplex) -> list[int]:
    """Ambient vertices that occur in no facet."""
    used = set(v for f in cx.facets for v in f)
    return [v for v in range(1, cx.n + 1) if v not in used]


@dataclass(frozen=True)
class HigherDiracReport:
    holds: bool
    skeleton_of_quasi_tree: bool
    chordal_and_skeleton_of_clique_complex: bool
    chordal: bool
    details: dict


def higher_dirac_check(cx: SimplicialComplex) -> HigherDiracReport:
    """Evaluate both sides of the higher-Dirac equivalence.

    Side A asks whether cx is the ell-skeleton of a quasi-tree (the
    clique complex of the 1-skeleton is the only possible candidate);
    side B asks whether the 1-skeleton is chordal and cx is the
    ell-skeleton of its clique complex.  Both judge that one candidate,
    by a leaf order and by chordality.  The verdicts must agree.
    The candidate's ell-skeleton contains cx; the two differ iff some
    (ell+1)-subset of a candidate facet is not a facet of cx, so the scan
    stops at the first such subset.
    """
    ell, is_pure = dimension_info(cx)
    if not is_pure:
        raise DomainError("the higher-Dirac check needs a pure complex")
    graph = one_skeleton_graph(cx)
    candidate = clique_complex(graph)
    facets = set(cx.facets)
    faces = (f for top in candidate.facets for f in itertools.combinations(top, ell + 1))
    is_skeleton = all(f in facets for f in faces)
    chordal, witness = is_chordal(graph)
    side_a = is_skeleton and leaf_order(candidate) is not None
    side_b = is_skeleton and chordal
    return HigherDiracReport(
        holds=side_a == side_b,
        skeleton_of_quasi_tree=side_a,
        chordal_and_skeleton_of_clique_complex=side_b,
        chordal=chordal,
        details={
            "candidate_facets": candidate.facets,
            "witness": witness,
            "is_skeleton_of_candidate": is_skeleton,
        },
    )
