"""Finite simple graphs on [n]: chordality with verifiable witnesses,
complements, edge ideals, clique complexes and the higher-Dirac check."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .complexes import SimplicialComplex, dimension_info, mask_face
from .errors import DomainError, over_cap
from .ideals import Monomial, MonomialIdeal
from .quasitrees import leaf_order


@dataclass(frozen=True)
class Graph:
    """A loop-free multigraph-free graph: sorted pairs {i, j} on [1, n]."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges):
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"vertex count must be a positive integer, got {n!r}")
        canon = set()
        for e in edges:
            i, j = e
            if j < i:
                i, j = j, i
            if i == j:
                raise DomainError(f"loop at vertex {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise DomainError(f"edge ({i}, {j}) out of range [1, {n}]")
            canon.add((i, j))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """adjacency[v-1] is the neighbor bitmask of vertex v."""
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
        return tuple(adj)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i - 1] >> (j - 1) & 1)


def complement_graph(g: Graph) -> Graph:
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(1, g.n + 1), 2)
        if not g.has_edge(i, j)
    ]
    return Graph(g.n, edges)


def edge_ideal(g: Graph) -> MonomialIdeal:
    """The squarefree degree-2 ideal of the edges (zero ideal if edgeless)."""
    gens = [Monomial.from_support(e, g.n) for e in g.edges]
    return MonomialIdeal(g.n, gens)


def mcs_order(adj: tuple[int, ...]) -> list[int]:
    """Maximum-cardinality search visit order (0-based vertices); ties go
    to the lowest vertex.

    A bucket queue over bitmasks (Tarjan-Yannakakis, SIAM J. Comput. 13,
    1984): buckets[w] is the mask of unvisited vertices with w visited
    neighbors, and each step pops the lowest bit of the highest nonempty
    bucket.
    """
    n = len(adj)
    weight = [0] * n
    buckets = [0] * (n + 1)
    buckets[0] = (1 << n) - 1
    top = 0
    unvisited = buckets[0]
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
            top += 1
        while rem:
            bit = rem & -rem
            rem ^= bit
            u = bit.bit_length() - 1
            w = weight[u]
            buckets[w] ^= bit
            buckets[w + 1] |= bit
            weight[u] = w + 1
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
            forbidden = (adj[v] | 1 << v) & ~(1 << u) & ~(1 << w)
            prev = {u: None}
            queue = deque([u])
            while queue:
                a = queue.popleft()
                if a == w:
                    path = []
                    while a is not None:
                        path.append(a)
                        a = prev[a]
                    return [v] + path[::-1]
                cand = adj[a] & ~forbidden
                while cand:
                    bit = cand & -cand
                    b = bit.bit_length() - 1
                    if b not in prev:
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
    if sorted(order) != list(range(1, g.n + 1)):
        return False
    adj = g.adjacency
    return _is_peo(adj, [v - 1 for v in order])


def verify_cycle_witness(g: Graph, cycle: list[int]) -> bool:
    """The witness must be a chordless cycle of length >= 4."""
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    for a in range(k):
        for b in range(a + 1, k):
            adjacent_on_cycle = (b - a == 1) or (a == 0 and b == k - 1)
            if g.has_edge(cycle[a], cycle[b]) != adjacent_on_cycle:
                return False
    return True


def _bron_kerbosch(adj, r, p, x, out):
    """Append to out every maximal clique R | S with S a clique in P and
    no vertex of X adjacent to all of it (Bron-Kerbosch, CACM 16, 1973).

    The pivot u in P | X maximizes |P & N(u)|, ties to the lowest vertex
    (Tomita-Tanaka-Takahashi, TCS 363, 2006), so only P \\ N(u) branches.
    """
    if not p and not x:
        out.append(r)
        return
    pivot = -1
    best = -1
    pool = p | x
    while pool:
        bit = pool & -pool
        pool ^= bit
        u = bit.bit_length() - 1
        size = (adj[u] & p).bit_count()
        if size > best:
            best = size
            pivot = u
    cand = p & ~adj[pivot]
    while cand:
        bit = cand & -cand
        v = bit.bit_length() - 1
        _bron_kerbosch(adj, r | bit, p & adj[v], x & adj[v], out)
        p &= ~bit
        x |= bit
        cand ^= bit


def maximal_cliques(g: Graph) -> list[int]:
    """All maximal cliques as bitmasks (isolated vertices included)."""
    out: list[int] = []
    _bron_kerbosch(g.adjacency, 0, (1 << g.n) - 1, 0, out)
    return sorted(out)


MAX_CLIQUE_VERTICES = 24


def clique_complex(g: Graph) -> SimplicialComplex:
    """The flag complex whose facets are the maximal cliques of g."""
    if g.n > MAX_CLIQUE_VERTICES:
        raise over_cap("n", g.n, "graphs.MAX_CLIQUE_VERTICES", MAX_CLIQUE_VERTICES)
    return SimplicialComplex(g.n, [mask_face(m) for m in maximal_cliques(g)])


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
    """Evaluate both sides of the higher-Dirac equivalence independently.

    Side A asks whether cx is the ell-skeleton of a quasi-tree (the
    clique complex of the 1-skeleton is the only possible candidate);
    side B asks whether the 1-skeleton is chordal and cx is the
    ell-skeleton of its clique complex.  The verdicts must agree.
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
