"""The homological verification engine.

Reduced simplicial homology over an exactly-represented field drives
everything else here: multigraded Betti numbers, projective dimension,
regularity, linear-resolution detection, the Reisner criterion for
Cohen-Macaulayness, and shelling-order search.

Betti numbers come from one engine (Miller-Sturmfels, Thm 1.34): walk
the lcm lattice of the generators and take the homology of the
upper-Koszul complex K^b at each lattice element b.  :func:`betti_table`
(packed exponent vectors) and :func:`squarefree_betti_masks` (support
bitmasks) are its two entry points and differ only in how they
represent a multidegree.  :func:`taylor_betti_table` is the independent
oracle: homology of the multidegree strands of the Taylor complex.

Every minimal generator g is an atom of the lattice with K^g = {empty
face}, so the engine records beta_{0,g} = 1 without building K^g and
walks only the other elements.  K^b is the down-closure of the
complements of the tight masks at b.  With m minimal tight masks and
m < |supp b| the engine reduces the nerve of K^b's facets, at most 2^m
faces, whose vertices are mask indices rather than variables, so
elements on different variables share cache entries; otherwise it
reduces the down-closure, at most 2^|supp b| faces.  By the nerve lemma (Bjorner,
"Topological methods", Handbook of Combinatorics, Thm 10.6) both have
the same reduced homology.

All ranks are exact: each boundary matrix is a list of sparse columns,
one ``{row: +-1}`` per face, and :func:`_linalg.rank` reduces them
against stored pivot columns, by XOR of int bitsets over GF(2) and by
integer column updates over the rationals and odd GF(p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ._linalg import rank as _rank
from .complexes import SimplicialComplex, dimension_info, down_closure, face_mask
from .errors import DomainError, over_cap
from .ideals import MonomialIdeal, _packing, _unpacked


# Primality is checked by trial division up to sqrt(p), so the
# characteristic is capped; the cap is itself prime (2**31 - 1).
MAX_CHARACTERISTIC = 2**31 - 1
# Vertices of reduced_homology and is_cohen_macaulay (2^|F| faces per facet F), generators
# and variables of the Betti tables, lcm-lattice elements, facets of shelling_order.
MAX_HOMOLOGY_VARS = 16
MAX_CM_VARS = 14
MAX_BETTI_GENERATORS = 12
MAX_BETTI_VARS = 16
MAX_LCMS = 50000
MAX_SHELLING_FACETS = 12


@dataclass(frozen=True)
class FieldChoice:
    """The coefficient field: characteristic 0 (p=0) or a prime field."""

    p: int = 0

    def __post_init__(self):
        if self.p == 0:
            return
        if self.p > MAX_CHARACTERISTIC:
            raise over_cap(
                "characteristic", self.p, "homological.MAX_CHARACTERISTIC", MAX_CHARACTERISTIC
            )
        if self.p < 2 or any(self.p % d == 0 for d in range(2, int(self.p**0.5) + 1)):
            raise DomainError(f"{self.p} is not prime")

    def __repr__(self):
        return "QQ" if self.p == 0 else f"GF({self.p})"


RATIONALS = FieldChoice(0)
GF2 = FieldChoice(2)


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced homology ranks, indexed so ranks[k + 1] is the rank of H~_k."""

    ranks: tuple[int, ...]

    def rank(self, k: int) -> int:
        idx = k + 1
        if 0 <= idx < len(self.ranks):
            return self.ranks[idx]
        return 0

    @property
    def is_trivial(self) -> bool:
        return not any(self.ranks)


def _boundary_rank(lower: list[int], upper: list[int], p: int) -> int:
    """Rank of the boundary map from upper faces to lower faces.

    The map is one sparse column ``{row: +-1}`` per upper face, the rows
    indexing `lower`.  Removing the j-th lowest bit of a face gives sign
    (-1)^j.  A sub-face missing from `lower` contributes no entry: that
    never happens for a downward-closed complex and is the rule for a
    Taylor strand.
    """
    if not lower or not upper:
        return 0
    index = {m: i for i, m in enumerate(lower)}
    columns = []
    for mask in upper:
        column = {}
        sign = 1
        rem = mask
        while rem:
            bit = rem & -rem
            row = index.get(mask ^ bit)
            if row is not None:
                column[row] = sign
            sign = -sign
            rem ^= bit
        columns.append(column)
    return _rank(columns, p)


@lru_cache(maxsize=262144)
def _profile_from_masks(faces: frozenset, p: int) -> tuple[int, ...]:
    """Reduced homology ranks of a downward-closed set of face bitmasks.

    The empty set of faces (void complex) yields no ranks at all; the
    complex {emptyset} yields rank 1 in degree -1.
    """
    if not faces:
        return ()
    by_dim: dict[int, list[int]] = {}
    for m in faces:
        by_dim.setdefault(m.bit_count() - 1, []).append(m)
    top = max(by_dim)
    for k, masks in by_dim.items():
        masks.sort()
    bd_rank = {}
    for k in range(0, top + 1):
        bd_rank[k] = _boundary_rank(by_dim.get(k - 1, []), by_dim.get(k, []), p)
    ranks = []
    for k in range(-1, top + 1):
        nk = len(by_dim.get(k, []))
        ranks.append(nk - bd_rank.get(k, 0) - bd_rank.get(k + 1, 0))
    return tuple(ranks)


def reduced_homology(cx, field: FieldChoice = RATIONALS) -> HomologyProfile:
    """Reduced simplicial homology ranks over the chosen field.

    Accepts a SimplicialComplex or an explicit downward-closed iterable
    of faces (vertex tuples), whose largest vertex stands for n.
    """
    faces = None if isinstance(cx, SimplicialComplex) else frozenset(map(face_mask, cx))
    n = cx.n if faces is None else max(faces, default=0).bit_length()
    if n > MAX_HOMOLOGY_VARS:
        raise over_cap("n", n, "homological.MAX_HOMOLOGY_VARS", MAX_HOMOLOGY_VARS)
    faces = cx.face_mask_set if faces is None else faces
    return HomologyProfile(_profile_from_masks(faces, field.p))


@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers of a monomial ideal (zero entries omitted)."""

    num_vars: int
    entries: tuple  # ((i, multidegree-tuple), rank) pairs, canonically sorted

    @classmethod
    def from_dict(cls, num_vars: int, table: dict) -> "BettiTable":
        items = tuple(sorted((k, v) for k, v in table.items() if v))
        return cls(num_vars, items)

    def as_dict(self) -> dict:
        return dict(self.entries)

    @property
    def projdim(self) -> int:
        return max(i for (i, _), _ in self.entries)

    @property
    def regularity(self) -> int:
        return max(sum(b) - i for (i, b), _ in self.entries)

    def total(self, i: int) -> int:
        """Total Betti number in homological degree i."""
        return sum(r for (j, _), r in self.entries if j == i)

    def is_linear(self, gen_degree: int) -> bool:
        return all(sum(b) == gen_degree + i for (i, b), _ in self.entries)


def _check_betti_generators(ideal: MonomialIdeal):
    """Require a nonzero ideal of at most ``MAX_BETTI_GENERATORS`` generators."""
    if ideal.is_zero:
        raise DomainError("Betti table of the zero ideal is undefined")
    t = len(ideal.generators)
    if t > MAX_BETTI_GENERATORS:
        raise over_cap("generators", t, "homological.MAX_BETTI_GENERATORS", MAX_BETTI_GENERATORS)


def _minimal_masks(masks) -> list[int]:
    """The inclusion-minimal masks among `masks`, smallest first."""
    minimal: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if all(k & m != k for k in minimal):
            minimal.append(m)
    return minimal


def _nerve_faces(minimal: list[int], full: int) -> frozenset:
    """The nerve of the facets full ^ t of K^b, t in `minimal`.

    A face is a bitmask over indices into `minimal`; a set S of facets
    meets iff the union of their tight masks misses a position of `full`.
    By the nerve lemma (Bjorner, "Topological methods", Thm 10.6) it has
    the reduced homology of K^b.
    """
    unions = {0: 0}  # face -> union of its tight masks
    for i, t in enumerate(minimal):
        for face, union in list(unions.items()):
            if union | t != full:
                unions[face | 1 << i] = union | t
    return frozenset(unions)


def _compress(masks, full: int) -> list[int]:
    """The masks within `full` with the bits of `full` renumbered 0, 1, ..."""
    position = {}
    rem = full
    while rem:
        bit = rem & -rem
        position[bit] = 1 << len(position)
        rem ^= bit
    compressed = []
    for m in masks:
        c = 0
        while m:
            bit = m & -m
            c |= position[bit]
            m ^= bit
        compressed.append(c)
    return compressed


def _upper_koszul_betti(gens: list, join, tight_masks, p: int, cap_name: str, cap: int) -> dict:
    """The Betti engine: {(i, b): beta_{i,b}} over the lcm lattice of the
    minimal generators `gens`.

    The lattice is every join of a nonempty generator subset, and only
    its members can carry Betti numbers; a lattice of more than `cap`
    elements is a ResourceLimitError naming `cap_name`.  Each generator is an atom with
    beta_{0,g} = 1 and nothing else.  At every other b, ``tight_masks(b)``
    returns the support of b as a mask `full` and the inclusion-minimal
    tight masks within it: for a generator g dividing b, the support
    positions j with g_j = b_j.  A subset F of supp(b) is a face of the
    upper-Koszul complex K^b(I) iff it misses the tight mask of some such
    g (then g divides b / x_F), so K^b(I) is the down-closure of the
    complements of the tight masks, and beta_{i,b} = dim H~_{i-1}(K^b(I)).
    With fewer tight masks than support positions that homology is taken
    from the nerve of K^b's facets (:func:`_nerve_faces`); otherwise from
    the down-closure, its support renumbered from 0.

    Both paths are kept: on the ``bulk-betti`` benchmark, where the
    down-closure takes 9% of the elements and the nerve would list 1.65
    times as many faces on those, a nerve-only engine had a 30% higher
    latency tail and 5% lower throughput.
    """
    lattice = set(gens)
    frontier = lattice
    while frontier:
        frontier = {join(b, g) for b in frontier for g in gens} - lattice
        lattice |= frontier
        if len(lattice) > cap:
            raise over_cap("lcm lattice size", len(lattice), cap_name, cap, "counted so far")
    table: dict = {(0, g): 1 for g in gens}
    for b in lattice.difference(gens):
        full, tights = tight_masks(b)
        width = full.bit_count()
        if len(tights) < width:
            faces = _nerve_faces(tights, full)
        else:
            if full & (full + 1):  # support not yet numbered from 0
                tights = _compress(tights, full)
            faces = down_closure(((1 << width) - 1) ^ t for t in tights)
        profile = _profile_from_masks(faces, p)
        for i, r in enumerate(profile):
            if r:
                table[(i, b)] = r
    return table


def betti_table(ideal: MonomialIdeal, field: FieldChoice = RATIONALS) -> BettiTable:
    """Multigraded Betti numbers of I via upper-Koszul subcomplex homology.

    beta_{i,b}(I) is the rank of H~_{i-1} of the subcomplex at b, and
    only multidegrees in the lcm lattice of G(I) can contribute, which
    is what keeps the computation feasible.  The input is capped at
    ``MAX_BETTI_GENERATORS`` generators and ``MAX_BETTI_VARS`` variables,
    the lattice at ``MAX_LCMS`` elements.
    """
    _check_betti_generators(ideal)
    if ideal.num_vars > MAX_BETTI_VARS:
        raise over_cap("variables", ideal.num_vars, "homological.MAX_BETTI_VARS", MAX_BETTI_VARS)
    return _packed_betti_table(ideal, field.p, "homological.MAX_LCMS", MAX_LCMS)


def _packed_betti_table(ideal: MonomialIdeal, p: int, cap_name: str, cap: int) -> BettiTable:
    """:func:`betti_table` with only its lcm lattice capped, at `cap` (named
    `cap_name` in the error).  Multidegrees are packed exponent vectors
    (``ideals._packing``) until the final table: the join is the
    guard-subtract fieldwise max, and a tight mask is the guard bits of
    supp(b) minus those of supp(b ^ g).
    """
    gens, stride, ones, guards = _packing([g.exponents for g in ideal.generators])
    w = stride - 1

    def support(b):  # the guard bits of b's nonzero fields
        return ((b | guards) - ones) & guards

    def tight_masks(b):
        full, ceiling = support(b), b | guards
        tights = [full & ~support(b ^ g) for g in gens if (ceiling - g) & guards == guards]
        return full, _minimal_masks(tights)

    def join(b, g):  # the fieldwise max: g plus b - g where b_v >= g_v
        d = (b | guards) - g
        kept = d & guards
        return g + (d & (kept - (kept >> w)))

    table = _upper_koszul_betti(gens, join, tight_masks, p, cap_name, cap)
    lattice = {b for _i, b in table}
    vector = dict(zip(lattice, _unpacked(lattice, stride, ideal.num_vars)))
    return BettiTable.from_dict(ideal.num_vars, {(i, vector[b]): r for (i, b), r in table.items()})


def squarefree_betti_masks(gen_masks, p: int = 0) -> dict:
    """Betti numbers of a squarefree ideal given by generator support masks.

    Keys are (i, multidegree-mask).  This is :func:`betti_table` on
    bitmasks: the same engine, with a multidegree b stored as its support
    mask and the tight mask of a generator g dividing b equal to g itself,
    so the minimal generators below b are its minimal tight masks.  The
    lcm lattice is capped at ``MAX_LCMS``.
    """
    gens = _minimal_masks(gen_masks)
    if not gens or 0 in gens:
        raise DomainError("need squarefree generators of positive degree")

    def tight_masks(b):
        return b, [g for g in gens if g & b == g]

    return _upper_koszul_betti(gens, int.__or__, tight_masks, p, "homological.MAX_LCMS", MAX_LCMS)


def squarefree_projdim_masks(gen_masks, p: int = 0) -> int:
    return max(i for i, _ in squarefree_betti_masks(gen_masks, p))


def taylor_betti_table(ideal: MonomialIdeal, field: FieldChoice = RATIONALS) -> BettiTable:
    """Independent Betti oracle: homology of multidegree strands of the
    Taylor complex of S/I, shifted down one homological degree.

    Of the Betti engine it shares only the boundary-matrix builder; its
    strands, lcms and rank count are its own.  A strand is not downward
    closed (a face whose lcm drops leaves the strand), and the builder
    drops such faces from the boundary.
    """
    _check_betti_generators(ideal)
    gens = [g.exponents for g in ideal.generators]
    t = len(gens)
    zero = tuple([0] * ideal.num_vars)

    lcm_of: dict[int, tuple[int, ...]] = {0: zero}
    for mask in range(1, 1 << t):
        low = mask & -mask
        rest = mask ^ low
        g = gens[low.bit_length() - 1]
        lcm_of[mask] = tuple(map(max, lcm_of[rest], g)) if rest else g

    strands: dict[tuple[int, ...], dict[int, list[int]]] = {}
    for mask in range(1, 1 << t):
        b = lcm_of[mask]
        size = mask.bit_count()
        strands.setdefault(b, {}).setdefault(size, []).append(mask)

    table: dict = {}
    for b, levels in strands.items():
        for masks in levels.values():
            masks.sort()
        top = max(levels)
        bd_rank = {
            s: _boundary_rank(levels.get(s - 1, []), levels.get(s, []), field.p)
            for s in range(2, top + 1)
        }
        for s in range(1, top + 1):
            # H_s of the strand is beta_{s-1, b}(I); d_1 vanishes for b != 0.
            h = len(levels.get(s, [])) - bd_rank.get(s, 0) - bd_rank.get(s + 1, 0)
            if h:
                table[(s - 1, b)] = h
    return BettiTable.from_dict(ideal.num_vars, table)


def projdim_and_reg(ideal: MonomialIdeal, field: FieldChoice = RATIONALS) -> tuple[int, int, bool]:
    """(projective dimension, regularity, linear-resolution flag) of I."""
    table = betti_table(ideal, field)
    degrees = set(ideal.generator_degrees)
    linear = len(degrees) == 1 and table.is_linear(next(iter(degrees)))
    return table.projdim, table.regularity, linear


def is_cohen_macaulay(cx: SimplicialComplex, field: FieldChoice = RATIONALS) -> bool:
    """Reisner's criterion: every face link has vanishing reduced homology
    below its dimension."""
    if cx.is_void:
        raise DomainError("Cohen-Macaulayness of the void complex is undefined")
    if cx.n > MAX_CM_VARS:
        raise over_cap("n", cx.n, "homological.MAX_CM_VARS", MAX_CM_VARS)
    faces = cx.face_mask_set
    for f in faces:
        link = frozenset(g ^ f for g in faces if g & f == f)
        link_dim = max(m.bit_count() for m in link) - 1
        profile = _profile_from_masks(link, field.p)
        if any(profile[: link_dim + 1]):
            return False
    return True


def _shelling_extension_ok(diff, new: int, prefix: list[int]) -> bool:
    """Can facet `new` follow `prefix`?  Each difference with an earlier
    facet must contain a vertex realized as a singleton difference."""
    singles = 0
    for k in prefix:
        d = diff[new][k]
        if d and d & (d - 1) == 0:
            singles |= d
    return all(diff[new][j] & singles for j in prefix)


def shelling_order(cx: SimplicialComplex) -> list[int] | None:
    """Backtracking search for a shelling order of a pure complex of at
    most ``MAX_SHELLING_FACETS`` facets.

    Returns facet indices (0-based) or None when exhaustive search shows
    the complex is not shellable.
    """
    _, is_pure = dimension_info(cx)
    if not is_pure:
        raise DomainError("shellability is only defined for pure complexes")
    t = len(cx.facet_masks)
    if t > MAX_SHELLING_FACETS:
        raise over_cap("facets", t, "homological.MAX_SHELLING_FACETS", MAX_SHELLING_FACETS)
    return _shelling_search(cx.facet_masks)


def _shelling_search(masks) -> list[int] | None:
    """:func:`shelling_order` on the facet masks of a pure complex, uncapped."""
    t = len(masks)
    diff = [[masks[i] & ~masks[j] for j in range(t)] for i in range(t)]

    dead: set[frozenset] = set()

    def extend(prefix: list[int], remaining: set[int], union: int) -> bool:
        if not remaining:
            return True
        key = frozenset(remaining)
        if key in dead:
            return False
        # Facets meeting the current union in more vertices first.
        order = sorted(
            remaining, key=lambda i: (-(masks[i] & union).bit_count(), i)
        )
        for i in order:
            if not _shelling_extension_ok(diff, i, prefix):
                continue
            prefix.append(i)
            remaining.discard(i)
            if extend(prefix, remaining, union | masks[i]):
                return True
            remaining.add(i)
            prefix.pop()
        dead.add(key)
        return False

    try:
        for first in range(t):
            prefix = [first]
            remaining = set(range(t)) - {first}
            if extend(prefix, remaining, masks[first]):
                return prefix
        return None
    finally:
        del extend  # it refers to itself; this frees the memo now


def verify_shelling(cx: SimplicialComplex, order: list[int]) -> bool:
    """Direct pairwise check of the shelling condition on a facet order."""
    masks = [cx.facet_masks[i] for i in order]
    if sorted(order) != list(range(len(cx.facets))):
        return False
    for i in range(1, len(masks)):
        singles = 0
        for k in range(i):
            d = masks[i] & ~masks[k]
            if d.bit_count() == 1:
                singles |= d
        for j in range(i):
            if not masks[i] & ~masks[j] & singles:
                return False
    return True
