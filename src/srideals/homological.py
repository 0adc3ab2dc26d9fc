"""The homological verification engine.

Reduced simplicial homology over an exactly-represented field drives
everything else here: multigraded Betti numbers, projective dimension,
regularity, linear-resolution detection, the Reisner criterion for
Cohen-Macaulayness, and shelling-order search.

Betti numbers come from one engine (Miller-Sturmfels, Thm 1.34): walk
the lcm lattice of the generators, closed one generator at a time, and
take the homology of the upper-Koszul complex K^b at each element b.
:func:`betti_table` and :func:`squarefree_betti_masks` are its two entry
points.  A multidegree has one of two representations, and for an ideal
one helper chooses it (:func:`_engine`).  A squarefree ideal is its own
polarization, so its multidegrees are support bitmasks: the join is OR
and the tight masks at b are the generators below b, already minimal
(:func:`_mask_engine`); :func:`squarefree_betti_masks` reads bare masks
the same way.  Any other ideal packs its exponent vectors into ints
(``ideals._packing``), joins them by a guard-subtract fieldwise max and
minimalizes the tight masks at each b (:func:`_packed_engine`).
:func:`taylor_betti_table` is the independent oracle: homology of the
multidegree strands of the Taylor complex.

Every minimal generator g is an atom of the lattice with K^g = {empty
face}, so the engine records beta_{0,g} = 1 without building K^g and
walks only the other elements.  K^b is the down-closure of the
complements of the tight masks at b.  With m minimal tight masks and
m < |supp b| the engine reduces the nerve of K^b's facets, at most 2^m
faces, whose vertices are mask indices rather than variables, so
elements on different variables share cache entries; otherwise it
reduces the down-closure, at most 2^|supp b| faces.  By the nerve lemma (Bjorner,
"Topological methods", Handbook of Combinatorics, Thm 10.6) both have
the same reduced homology.  A nerve N that holds at least half of the
2^m subsets of its m vertices is not reduced itself: the kernel reduces
its Alexander dual N^v = {[m] - S : S not in N}, of 2^m - |N| faces, and
shifts the degree, beta_{i,b} = dim H~_{i-1}(N) = dim H~_{m-i-2}(N^v), by
combinatorial Alexander duality (Bjorner-Tancer, "Combinatorial
Alexander duality -- a short and elementary proof", Discrete Comput.
Geom. 42, 2009).

Projective dimension needs only the largest i with some beta_{i,b} != 0,
so :func:`projdim` and :func:`squarefree_projdim_masks` walk the same
lattice with the same homology at b, but bound the degree first.  At a
non-generator b with m minimal tight masks t, beta_{i,b} != 0 forces
i <= min(m - 1, |supp b| - min |t|).  For K^b has dimension
|supp b| - min |t| - 1, and it is either a cone or has the homology of a
nerve on m vertices that is not a full simplex, of dimension at most
m - 2.  The walk starts from degree 1 when I is not principal, for then
beta_1 != 0, takes homology by decreasing bound and stops once no bound
left beats the best degree found (:func:`_upper_koszul_projdim`).

All ranks are exact: each boundary matrix is a list of sparse columns,
one ``{row: +-1}`` per face, and :func:`_linalg.rank` reduces them
against stored pivot columns, by XOR of int bitsets over GF(2) and by
integer column updates over the rationals and odd GF(p).  The engine
clears (Chen-Kerber, "Persistent homology computation with a twist",
2011; Bauer-Kerber-Reininghaus, "Clear and compress", 2014): it reduces
the boundary maps from the top dimension down and skips each k-face that
is the pivot row of a reduced column one dimension up, for that column is
a cycle ending in the face, so the face's own column lies in the span of
the earlier ones (:func:`_reduced_ranks`).  The Taylor oracle
reduces every column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import itemgetter

from ._linalg import rank as _rank
from .complexes import SimplicialComplex, dimension_info, down_closure, face_mask, mask_face
from .complexes import _canonical_faces
from .errors import DomainError, index_order, over_cap
from .ideals import MonomialIdeal, _mask_vectors, _packing, _support_mask, _unpacked


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
        if type(self.p) is not int:  # bool is rejected too
            raise DomainError(f"the characteristic must be an integer, got {self.p!r}")
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


def _characteristic(field) -> int:
    """The p of the ``field`` argument, which must be a FieldChoice: a plain
    characteristic is a DomainError, not an AttributeError from ``.p``."""
    if not isinstance(field, FieldChoice):
        raise DomainError(f"field must be a FieldChoice such as GF2 or RATIONALS, got {field!r}")
    return field.p


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


def _boundary_rank(lower: list[int], upper: list[int], p: int, pivots: set | None = None) -> int:
    """Rank of the boundary map from upper faces to lower faces.

    The map is one sparse column ``{row: +-1}`` per upper face, the rows
    indexing `lower`.  Removing the j-th lowest bit of a face gives sign
    (-1)^j.  A sub-face missing from `lower` contributes no entry: that
    never happens for a downward-closed complex and is the rule for a
    Taylor strand.  A set passed as `pivots` receives the pivot rows of
    the reduction, as indices into `lower` (:func:`_linalg.rank`).
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
    return _rank(columns, p, pivots)


def _reduced_ranks(faces, p: int) -> tuple[int, ...]:
    """Reduced homology ranks of a downward-closed collection of distinct
    face bitmasks.

    The empty collection (void complex) yields no ranks at all; the
    complex {emptyset} yields rank 1 in degree -1.

    The boundary maps d_k, from k-faces to (k-1)-faces, are reduced from
    the top dimension down, and d_k skips the k-faces that are pivot rows
    of d_{k+1} (clearing).  Such a row sigma is the last face of a cycle
    d_{k+1}(c) = a*sigma + (earlier k-faces), a != 0, so
    d_k(sigma) = -(1/a) * d_k(earlier k-faces): the skipped column lies
    in the span of the earlier columns, over every field, so by induction
    on sigma in the span of the kept ones, and the rank of d_k does not
    change.
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
    cleared: set[int] = set()  # pivot rows of d_{k+1}, as indices into the k-faces
    for k in range(top, -1, -1):
        upper = by_dim.get(k, [])
        if cleared:
            upper = [m for i, m in enumerate(upper) if i not in cleared]
            cleared = set()
        bd_rank[k] = _boundary_rank(by_dim.get(k - 1, []), upper, p, cleared)
    ranks = []
    for k in range(-1, top + 1):
        nk = len(by_dim.get(k, []))
        ranks.append(nk - bd_rank.get(k, 0) - bd_rank.get(k + 1, 0))
    return tuple(ranks)


@lru_cache(maxsize=262144)
def _profile_from_masks(faces: frozenset, p: int, nerve: bool = False) -> tuple[int, ...]:
    """The cached homology kernel: :func:`_reduced_ranks` of a
    downward-closed frozenset of face bitmasks.

    With `nerve` set, which only :func:`_koszul_profile` does, `faces` is
    a nerve N on the indices 0, ..., m - 1 of its m >= 1 tight masks.  No
    tight mask is all of supp b, so each index is a face and m is the bit
    length of the largest face.  When N holds at least half of the 2^m
    subsets of [m], the kernel reduces the Alexander dual
    N^v = {[m] - S : S not in N} instead, which has 2^m - |N| <= |N|
    faces, and returns the same tuple: ranks[k + 1] = dim H~_{m-k-3}(N^v)
    by combinatorial Alexander duality (Bjorner-Tancer, "Combinatorial
    Alexander duality -- a short and elementary proof", DCG 42, 2009),
    H~_k(N) = H~^{m-k-3}(N^v) over every field for N a proper subcomplex
    of the simplex on m >= 1 vertices, and a cohomology group has the
    dimension of the homology group.  The full simplex (N^v void) is
    acyclic on both sides.
    """
    if nerve:
        m = max(faces).bit_length()
        if 2 * len(faces) >= 1 << m:
            whole = (1 << m) - 1
            co = _reduced_ranks([whole ^ s for s in range(1 << m) if s not in faces], p)
            size = max(map(int.bit_count, faces))  # dim N + 1
            return tuple(
                co[m - k - 2] if 0 <= m - k - 2 < len(co) else 0 for k in range(-1, size)
            )
    return _reduced_ranks(faces, p)


def reduced_homology(cx, field: FieldChoice = RATIONALS) -> HomologyProfile:
    """Reduced simplicial homology ranks over the chosen field.

    Accepts a SimplicialComplex or an explicit downward-closed iterable
    of faces (vertex tuples), whose largest vertex stands for n.  A list
    that is not downward closed is a DomainError naming a missing subface.
    The vertices of a list are checked as faces are (types and signs)
    before n is held to the cap.
    """
    p = _characteristic(field)
    faces = None if isinstance(cx, SimplicialComplex) else _canonical_faces(cx, math.inf)
    n = cx.n if faces is None else max((f[-1] for f in faces if f), default=0)
    if n > MAX_HOMOLOGY_VARS:
        raise over_cap("n", n, "homological.MAX_HOMOLOGY_VARS", MAX_HOMOLOGY_VARS)
    if faces is None:
        faces = cx.face_mask_set
    else:
        faces = frozenset(map(face_mask, faces))
        _check_downward_closed(faces)
    return HomologyProfile(_profile_from_masks(faces, p))


def _check_downward_closed(faces: frozenset) -> None:
    """Raise a DomainError naming the first face, in mask order, that
    lacks a codimension-one subface, and that subface."""
    for face in sorted(faces):
        rem = face
        while rem:
            bit = rem & -rem
            if face ^ bit not in faces:
                raise DomainError(
                    f"faces are not downward closed: {mask_face(face ^ bit)} is missing,"
                    f" a subface of {mask_face(face)}"
                )
            rem ^= bit


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
    t = len(ideal.exponents)
    if t > MAX_BETTI_GENERATORS:
        raise over_cap("generators", t, "homological.MAX_BETTI_GENERATORS", MAX_BETTI_GENERATORS)


def _minimal_masks(masks) -> list[int]:
    """The inclusion-minimal masks among `masks`, smallest first."""
    minimal: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        for k in minimal:
            if k & m == k:
                break
        else:
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


def _lcm_lattice(gens: list, join) -> set:
    """Every join of a nonempty subset of the minimal generators `gens`:
    the lcm lattice, the only multidegrees that can carry Betti numbers.

    Closed one generator at a time: the joins for the first k - 1
    generators, joined with g_k, plus g_k, are those for the first k, so
    a step costs one join per element and at most doubles the set.  The
    ``MAX_LCMS`` cap is checked after each step, and a ResourceLimitError
    gives the size so far."""
    lattice: set = set()
    for g in gens:
        lattice |= {join(b, g) for b in lattice}
        lattice.add(g)
        if len(lattice) > MAX_LCMS:
            raise over_cap(
                "lcm lattice size", len(lattice), "homological.MAX_LCMS", MAX_LCMS, "counted so far"
            )
    return lattice


def _koszul_profile(full: int, tights: list[int], p: int) -> tuple[int, ...]:
    """The reduced homology ranks of K^b(I), so that entry i is beta_{i,b}.

    `full` is the support of b as a mask and `tights` the inclusion-minimal
    tight masks within it: for a generator g dividing b, the support
    positions j with g_j = b_j.  A subset F of supp(b) is a face of the
    upper-Koszul complex K^b(I) iff it misses the tight mask of some such
    g (then g divides b / x_F), so K^b(I) is the down-closure of the
    complements of the tight masks, and beta_{i,b} = dim H~_{i-1}(K^b(I)).
    With fewer tight masks than support positions that homology is taken
    from the nerve N of K^b's facets (:func:`_nerve_faces`), by the nerve
    lemma (Bjorner, Handbook of Combinatorics, Thm 10.6), and when N holds
    at least half of the 2^m subsets of its m vertices the kernel reduces
    N's Alexander dual N^v instead, beta_{i,b} = dim H~_{m-i-2}(N^v)
    (Bjorner-Tancer, DCG 42, 2009; :func:`_profile_from_masks`);
    otherwise from the down-closure, its support renumbered from 0.  Only
    the nerve gets the duality flag: the down-closure's dual on the
    positions of supp b is Hochster's restriction of the Stanley-Reisner
    complex, the route that an independent Betti oracle would take.

    Both paths are kept: on the ``bulk-betti`` benchmark, where the
    down-closure takes 9% of the elements and the nerve would list 1.65
    times as many faces on those, a nerve-only engine had a 30% higher
    latency tail and 5% lower throughput.
    """
    width = full.bit_count()
    if len(tights) < width:
        return _profile_from_masks(_nerve_faces(tights, full), p, True)
    if full & (full + 1):  # support not yet numbered from 0
        tights = _compress(tights, full)
    return _profile_from_masks(down_closure(((1 << width) - 1) ^ t for t in tights), p)


def _upper_koszul_betti(gens: list, join, tight_masks, p: int) -> dict:
    """The Betti engine: {(i, b): beta_{i,b}} over the lcm lattice of the
    minimal generators `gens` (:func:`_lcm_lattice`).

    Each generator is an atom with beta_{0,g} = 1 and nothing else.  At
    every other b, ``tight_masks(b)`` returns the support of b as a mask
    and its inclusion-minimal tight masks, smallest first, and
    :func:`_koszul_profile` gives the Betti numbers at b.
    """
    table: dict = {(0, g): 1 for g in gens}
    for b in _lcm_lattice(gens, join).difference(gens):
        for i, r in enumerate(_koszul_profile(*tight_masks(b), p)):
            if r:
                table[(i, b)] = r
    return table


def _upper_koszul_projdim(gens: list, join, tight_masks, p: int) -> int:
    """max(i) over the table of :func:`_upper_koszul_betti`, from the same
    lattice and the same homology at b, taken at as few elements as the
    degree bound allows.

    At a non-generator b with m minimal tight masks t, beta_{i,b} != 0
    forces i <= bound(b) = min(m - 1, |supp b| - min |t|).  Proof: K^b
    has the m facets supp(b) minus t, none of them empty (t = supp b would
    make b a generator), so it has dimension |supp b| - min |t| - 1 and
    H~_{i-1}(K^b) = 0 for i > |supp b| - min |t|.  If the m facets share
    a vertex, K^b is a cone and has no homology at all; otherwise their
    nerve, which has the homology of K^b (Bjorner, Thm 10.6), is a proper
    subcomplex of the simplex on m vertices, of dimension at most m - 2,
    so H~_{i-1}(K^b) = 0 for i > m - 1.

    With t >= 2 minimal generators the walk starts from degree 1, for
    beta_1 != 0.  Proof: any two elements f, g of the domain S satisfy
    g * f - f * g = 0, so a free ideal has rank at most 1.  The minimal
    resolution maps F_0 = S^t onto I, and F_1 = 0 would make I free of
    rank t >= 2.  A principal ideal is free, of projdim 0.  The walk
    collects only the non-generators whose bound beats the start, visits
    them by decreasing bound, and stops once no bound left exceeds the
    best degree found.
    """
    best = 1 if len(gens) > 1 else 0
    bounded = []
    for b in _lcm_lattice(gens, join).difference(gens):
        full, tights = tight_masks(b)
        bound = min(len(tights) - 1, full.bit_count() - tights[0].bit_count())
        if bound > best:
            bounded.append((bound, full, tights))
    bounded.sort(key=itemgetter(0), reverse=True)
    for bound, full, tights in bounded:
        if bound <= best:
            break
        for i, r in enumerate(_koszul_profile(full, tights, p)):
            if r and i > best:
                best = i
    return best


def _check_betti_input(ideal: MonomialIdeal):
    """The input caps of :func:`betti_table` and :func:`projdim`, in order."""
    _check_betti_generators(ideal)
    if ideal.num_vars > MAX_BETTI_VARS:
        raise over_cap("variables", ideal.num_vars, "homological.MAX_BETTI_VARS", MAX_BETTI_VARS)


def betti_table(ideal: MonomialIdeal, field: FieldChoice = RATIONALS) -> BettiTable:
    """Multigraded Betti numbers of I via upper-Koszul subcomplex homology.

    beta_{i,b}(I) is the rank of H~_{i-1} of the subcomplex at b, and
    only multidegrees in the lcm lattice of G(I) can contribute, which
    is what keeps the computation feasible.  The input is capped at
    ``MAX_BETTI_GENERATORS`` generators and ``MAX_BETTI_VARS`` variables,
    the lattice at ``MAX_LCMS`` elements.
    """
    p = _characteristic(field)
    _check_betti_input(ideal)
    return _betti_table(ideal, p)


def projdim(ideal: MonomialIdeal, field: FieldChoice = RATIONALS) -> int:
    """The projective dimension of I, ``betti_table(ideal, field).projdim``,
    by the degree-bounded walk of :func:`_upper_koszul_projdim`, under the
    caps of :func:`betti_table` checked in the same order."""
    p = _characteristic(field)
    _check_betti_input(ideal)
    gens, join, tight_masks, _vectors = _engine(ideal)
    return _upper_koszul_projdim(gens, join, tight_masks, p)


def _engine(ideal: MonomialIdeal):
    """The engine's inputs for the generators of I: (gens, join,
    tight_masks, vectors), where ``vectors`` maps a list of multidegrees to
    their exponent vectors.  This is the one place that chooses the
    representation of a multidegree.  A squarefree ideal is its own
    polarization, so its multidegrees are support masks
    (:func:`_mask_engine`): its canonical generators are already minimal
    and sorted by size, and the lattice closes in the same order as the
    packed one.  Every other ideal is packed (:func:`_packed_engine`)."""
    if ideal.is_squarefree:
        gens = list(map(_support_mask, ideal.exponents))
        return (*_mask_engine(gens), partial(_mask_vectors, ideal.num_vars))
    return _packed_engine(ideal)


def _packed_engine(ideal: MonomialIdeal):
    """The engine's inputs for the generators of I as packed exponent
    vectors (``ideals._packing``): (gens, join, tight_masks, vectors).  The
    join is the guard-subtract fieldwise max, and a tight mask is the
    guard bits of supp(b) minus those of supp(b ^ g).
    """
    gens, stride, ones, guards = _packing(ideal.exponents)
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

    return gens, join, tight_masks, partial(_unpacked, stride=stride, n=ideal.num_vars)


def _betti_table(ideal: MonomialIdeal, p: int) -> BettiTable:
    """:func:`betti_table` with only its lcm lattice capped, on the engine
    :func:`_engine` chooses; multidegrees become exponent vectors only in
    the final table."""
    gens, join, tight_masks, vectors = _engine(ideal)
    table = _upper_koszul_betti(gens, join, tight_masks, p)
    lattice = {b for _i, b in table}
    vector = dict(zip(lattice, vectors(lattice)))
    return BettiTable.from_dict(ideal.num_vars, {(i, vector[b]): r for (i, b), r in table.items()})


def _mask_engine(gens: list[int]):
    """The engine's inputs for minimal generator masks `gens`, smallest
    first: (gens, join, tight_masks).  A multidegree b is its support mask,
    the join is OR, and the tight mask of a generator g dividing b is g
    itself, so the generators below b, in order, are its minimal tight
    masks."""

    def tight_masks(b):
        return b, [g for g in gens if g & b == g]

    return gens, int.__or__, tight_masks


def _squarefree_engine(gen_masks):
    """:func:`_mask_engine` on the minimal masks among `gen_masks`."""
    gens = _minimal_masks(gen_masks)
    if not gens or 0 in gens:
        raise DomainError("need squarefree generators of positive degree")
    return _mask_engine(gens)


def squarefree_betti_masks(gen_masks, p: int = 0) -> dict:
    """Betti numbers of a squarefree ideal given by generator support masks.

    Keys are (i, multidegree-mask).  This is :func:`betti_table` on
    bitmasks (:func:`_squarefree_engine`).  The lcm lattice is capped at
    ``MAX_LCMS``.
    """
    engine = _squarefree_engine(gen_masks)
    return _upper_koszul_betti(*engine, p)


def squarefree_projdim_masks(gen_masks, p: int = 0) -> int:
    """The projective dimension of the squarefree ideal with the given
    generator support masks: max(i) over :func:`squarefree_betti_masks`,
    by the degree-bounded walk of :func:`_upper_koszul_projdim`.  The lcm
    lattice is capped at ``MAX_LCMS``."""
    engine = _squarefree_engine(gen_masks)
    return _upper_koszul_projdim(*engine, p)


def taylor_betti_table(ideal: MonomialIdeal, field: FieldChoice = RATIONALS) -> BettiTable:
    """Independent Betti oracle: homology of multidegree strands of the
    Taylor complex of S/I, shifted down one homological degree.

    Of the Betti engine it shares only the boundary-matrix builder and
    the rank kernel; its strands, lcms and rank count are its own, and it
    reduces every column, without the engine's clearing.  A strand is not
    downward closed (a face whose lcm drops leaves the strand), and the
    builder drops such faces from the boundary.
    """
    p = _characteristic(field)
    _check_betti_generators(ideal)
    gens = ideal.exponents
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
            s: _boundary_rank(levels.get(s - 1, []), levels.get(s, []), p)
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
    p = _characteristic(field)
    if cx.is_void:
        raise DomainError("Cohen-Macaulayness of the void complex is undefined")
    if cx.n > MAX_CM_VARS:
        raise over_cap("n", cx.n, "homological.MAX_CM_VARS", MAX_CM_VARS)
    faces = cx.face_mask_set
    for f in faces:
        link = frozenset(g ^ f for g in faces if g & f == f)
        link_dim = max(m.bit_count() for m in link) - 1
        profile = _profile_from_masks(link, p)
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
    order = index_order("facet indices", order, 0, len(cx.facet_masks))
    if order is None:
        return False
    masks = [cx.facet_masks[i] for i in order]
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
