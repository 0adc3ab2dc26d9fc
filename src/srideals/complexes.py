"""Simplicial complexes on the vertex set {1, ..., n}, stored by facet masks.

A complex is identified with the antichain of its maximal faces, stored as
their bitmasks (vertex v at bit v - 1) in canonical order; the facet
tuples are listed only when :attr:`SimplicialComplex.facets` is first read,
which the nonface, dual and ideal kernels never do.  The ambient vertex
count n is always stored explicitly: complements and Alexander duals are
only defined relative to a fixed ground set, so nothing is ever inferred
from the vertices that happen to occur in facets (in particular,
singletons are *not* required to be faces).

:func:`_check_ambient` is the one check of a ground set [n], with n at most
:data:`MAX_VARS`; every complex, graph and ideal of the package calls it
where it is built, so the n-bit mask ``(1 << n) - 1`` of [n] is built
without a check of its own.

The public constructors check every facet; :func:`_antichain_complex`
only sorts masks that its callers build as antichains in range.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from operator import or_

from .errors import DomainError, listed, over_cap

Face = tuple[int, ...]


def face_mask(face) -> int:
    """Bitmask of a face; vertex v occupies bit v-1."""
    mask = 0
    for v in face:
        mask |= 1 << (v - 1)
    return mask


def mask_face(mask: int) -> Face:
    face = []
    while mask:
        low = mask & -mask
        face.append(low.bit_length())
        mask ^= low
    return tuple(face)


def down_closure(masks) -> frozenset:
    """Every submask of every given mask, the empty mask included."""
    faces = set()
    for top in masks:
        sub = top
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & top
    return frozenset(faces)


def canonical_face(face, n: int) -> Face:
    """Sorted duplicate-free tuple with all members in [1, n]."""
    members = listed("vertices", face)
    for v in members:  # before the sort, which cannot order mixed types
        if not isinstance(v, int) or isinstance(v, bool):
            raise DomainError(f"vertex {v!r} is not an integer")
    members.sort()
    for v in members:
        if not 1 <= v <= n:
            raise DomainError(f"vertex {v} out of range [1, {n}]")
    for a, b in zip(members, members[1:]):
        if a == b:
            raise DomainError(f"duplicate vertex {a} in face {tuple(face)}")
    return tuple(members)


def _canonical_faces(faces, n: int) -> list[Face]:
    """The distinct canonical faces, sorted by (cardinality, lexicographic)."""
    faces = listed("faces", faces)
    return sorted(sorted({canonical_face(f, n) for f in faces}), key=len)


def _facet_order(masks) -> list[int]:
    """Distinct masks in canonical facet order: by size, then by the sorted
    vertex tuple.  Of two sets of one size the one holding the lowest vertex
    in exactly one of them comes first, so within a size the binary strings
    read from bit 0 up sort descending; two of one size never differ where
    one of them ends, so no key depends on the ambient size."""
    order = sorted(masks, key=lambda m: bin(m)[:1:-1], reverse=True)
    order.sort(key=int.bit_count)
    return order


def _nested(masks: list[int]):
    """The indices, in order, of the masks that lie in another one, from
    distinct masks sorted by size.

    Distinct sets of equal size cannot nest, so each mask is compared only
    with the strictly larger ones, which follow the last mask of its size;
    masks of one size need no comparison at all.
    """
    sizes = list(map(int.bit_count, masks))
    if not masks or sizes[0] == sizes[-1]:
        return
    for i, (mask, size) in enumerate(zip(masks, sizes)):
        for other in masks[bisect_right(sizes, size) :]:
            if mask & other == mask:
                yield i
                break


def _check_antichain(masks: list[int]) -> None:
    """Reject distinct masks in canonical order that are no antichain,
    naming the first facet contained in another."""
    for i in _nested(masks):
        raise DomainError(
            f"facets are not an antichain: {mask_face(masks[i])} is contained in another facet"
        )


# The largest ground set [n].  Every complex, graph and ideal is built on at
# most MAX_VARS vertices or variables, so no n-bit mask of [n] and no dense
# exponent vector of n entries needs a check of its own.  The suites draw at
# most 24 vertices, and the benchmark corpora at most 20.
MAX_VARS = 1024


def _check_ambient(n, what: str) -> None:
    """The one check of a ground-set size n, named `what`: an integer (not a
    bool), then positive, then at most MAX_VARS."""
    if type(n) is not int or n < 1:
        raise DomainError(f"{what} must be a positive integer, got {n!r}")
    if n > MAX_VARS:
        raise over_cap(what, n, "complexes.MAX_VARS", MAX_VARS)


@dataclass(frozen=True)
class SimplicialComplex:
    """An antichain of facets on [n], kept in canonical order.

    Facets are sorted by (cardinality, lexicographic) and must not
    contain one another; a comparable pair is rejected rather than
    repaired (use :meth:`from_faces` to minimalize).  The empty facet
    list is the void complex, allowed as an output value only.

    The masks determine the facets, so ``==`` and ``hash`` compare
    ``(n, facet_masks)``.  The facet tuples are listed on demand by
    :attr:`facets`; the tuple constructor keeps its own.
    """

    n: int
    facet_masks: tuple[int, ...]

    def __init__(self, n: int, facets):
        _check_ambient(n, "ambient size")
        canon = _canonical_faces(facets, n)
        masks = list(map(face_mask, canon))
        _check_antichain(masks)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facet_masks", tuple(masks))
        self.__dict__["facets"] = tuple(canon)

    @classmethod
    def from_faces(cls, n: int, faces) -> "SimplicialComplex":
        """Build a complex from arbitrary faces, dropping non-maximal ones."""
        _check_ambient(n, "ambient size")
        canon = _canonical_faces(faces, n)
        drop = set(_nested(list(map(face_mask, canon))))
        return cls(n, [f for i, f in enumerate(canon) if i not in drop])

    @classmethod
    def from_masks(cls, n: int, masks) -> "SimplicialComplex":
        """The complex on [n] whose facets have the given bitmasks (vertex v
        at bit v - 1), with the range and antichain checks of the
        constructor and its error messages."""
        _check_ambient(n, "ambient size")
        masks = listed("facet masks", masks)
        for m in masks:
            if type(m) is not int:  # bool is rejected too
                raise DomainError(f"facet mask {m!r} is not an integer")
            high = m >> n
            if high:
                raise DomainError(
                    f"vertex {n + (high & -high).bit_length()} out of range [1, {n}]"
                )
        cx = _antichain_complex(n, set(masks))
        _check_antichain(cx.facet_masks)
        return cx

    @cached_property
    def facets(self) -> tuple[Face, ...]:
        return tuple(map(mask_face, self.facet_masks))

    @cached_property
    def face_mask_set(self) -> frozenset:
        """All faces (including the empty face) as bitmasks."""
        return down_closure(self.facet_masks)

    @property
    def is_void(self) -> bool:
        return not self.facet_masks

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, f)) + "}" for f in self.facets)
        return f"SimplicialComplex(n={self.n}, <{inner}>)"


def _antichain_complex(n: int, masks) -> SimplicialComplex:
    """The complex on [n] whose facets have the given distinct masks, which
    the caller builds as an antichain in range: they are sorted, not checked."""
    cx = object.__new__(SimplicialComplex)
    object.__setattr__(cx, "n", n)
    object.__setattr__(cx, "facet_masks", tuple(_facet_order(masks)))
    return cx


class VoidDual:
    """Distinguished result of dualizing the full simplex.

    The Alexander dual of the simplex on [n] has no nonempty faces, so
    no well-formed facet complex represents it; callers must handle
    this sentinel explicitly.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "VOID_DUAL"


VOID_DUAL = VoidDual()


def dimension_info(cx: SimplicialComplex) -> tuple[int, bool]:
    """(dim, is_pure) of a complex with at least one facet."""
    if cx.is_void:
        raise DomainError("dimension of the void complex is undefined")
    masks = cx.facet_masks  # sorted by size
    return masks[-1].bit_count() - 1, masks[0].bit_count() == masks[-1].bit_count()


# The most (i+1)-sets an i-skeleton may list: the sum of C(|F|, i+1) over the
# facets F in skeleton(), C(n, i+1) in skeleton_complement().  The suites and
# the benchmark corpora reach at most 240 and 70.
MAX_SKELETON_FACES = 100_000


def _check_skeleton(cx: SimplicialComplex, i: int, count) -> None:
    """Require an integer 0 <= i <= dim cx, and at most MAX_SKELETON_FACES sets
    from count()."""
    if type(i) is not int or i < 0:  # bool is rejected too
        raise DomainError(f"skeleton dimension must be a nonnegative integer, got {i!r}")
    dim, _ = dimension_info(cx)
    if i > dim:
        raise DomainError(f"skeleton dimension {i} exceeds dim = {dim}")
    size = count()
    if size > MAX_SKELETON_FACES:
        raise over_cap(
            f"{i}-skeleton size", size, "complexes.MAX_SKELETON_FACES", MAX_SKELETON_FACES
        )


def skeleton(cx: SimplicialComplex, i: int) -> SimplicialComplex:
    """The pure complex of all i-dimensional faces of cx."""
    _check_skeleton(cx, i, lambda: sum(math.comb(len(f), i + 1) for f in cx.facets))
    faces = set()
    for facet in cx.facets:
        faces.update(itertools.combinations(facet, i + 1))
    return SimplicialComplex(cx.n, faces)


def skeleton_complement(cx: SimplicialComplex, ell: int) -> SimplicialComplex:
    """The complement of the ell-skeleton, 0 <= ell <= dim cx: the (ell+1)-subsets
    of [n] that are not faces of cx (maybe none), each tested by mask against
    the facets, so that neither the skeleton nor the faces of a facet are built."""
    _check_skeleton(cx, ell, lambda: math.comb(cx.n, ell + 1))
    facets = cx.facet_masks
    subsets = map(sum, itertools.combinations([1 << v for v in range(cx.n)], ell + 1))
    missing = [m for m in subsets if not any(m & fm == m for fm in facets)]
    return _antichain_complex(cx.n, missing)


def pure_complement(cx: SimplicialComplex) -> SimplicialComplex:
    """For pure (d-1)-dimensional cx: the d-subsets of [n] that are not faces,
    ``skeleton_complement(cx, d - 1)``."""
    dim, is_pure = dimension_info(cx)
    if not is_pure:
        raise DomainError("pure complement requires a pure complex")
    return skeleton_complement(cx, dim)


MAX_TRANSVERSALS = 200_000

# The largest m for which minimal_transversals works on a bitmap of the 2^m
# subsets of [m]: on random complexes of 2-8 facets the bitmap is faster up
# to m = 13 and Berge's loop from m = 14, as the bitmap doubles per vertex.
_BITMAP_VERTICES = 13


def minimal_transversals(edge_masks) -> list[int]:
    """The inclusion-minimal masks that meet every given edge mask, ordered
    by (size, mask); none when an edge is empty.

    A vertex outside every edge lies in no minimal transversal, so the
    ground set is [m] for m the largest edge's bit length.  Up to m =
    _BITMAP_VERTICES the answer is read off a bitmap of the subsets of [m]
    (:func:`_bitmap_transversals`): a few operations on 2^m-bit ints per
    vertex and one per edge, and an antichain in [13] has at most
    C(13, 6) = 1,716 sets, so no cap is needed.  Past it Berge's loop
    (:func:`_berge_transversals`) runs, under MAX_TRANSVERSALS, since the
    bitmap doubles with every vertex.
    """
    edges = list(edge_masks)
    m = reduce(or_, edges, 0).bit_length()
    if m <= _BITMAP_VERTICES:
        return _bitmap_transversals(edges, m)
    return _berge_transversals(edges)


@cache
def _subset_bitmaps(m: int):
    """The tables of :func:`_bitmap_transversals` on [m], where bit S of a
    2^m-bit int stands for the subset with mask S: the mask of [m], the
    bitmap of every subset, and for each vertex (bit v) the pair (2^v, W_v),
    W_v marking the subsets without it, runs of 2^v ones and 2^v zeros built
    by doubling."""
    size = 1 << m
    steps = []
    for v in range(m):
        step = 1 << v
        w, period = (1 << step) - 1, 2 * step
        while period < size:
            w |= w << period
            period *= 2
        steps.append((step, w))
    return (1 << m) - 1, (1 << size) - 1, tuple(steps)


def _bitmap_transversals(edges: list[int], m: int) -> list[int]:
    """:func:`minimal_transversals` of edges in [m] by set algebra on bitmaps
    of the subsets of [m] (:func:`_subset_bitmaps`).

    A set is no transversal iff it lies in the complement of an edge, so the
    non-transversals are the down-closure of those complements: one shift
    per vertex moves every S holding it to S - v.  The transversals N are
    the rest, an up-set, and S in N is minimal iff no S - v is in N, so the
    minimal ones are N less every S + v for S in N without v.
    """
    full, every, steps = _subset_bitmaps(m)
    missing = 0
    for edge in edges:
        missing |= 1 << (full ^ edge)
    for step, without in steps:
        missing |= missing >> step & without
    hits = every ^ missing
    above = 0
    for step, without in steps:
        above |= (hits & without) << step
    minimal = hits & ~above
    found = []
    while minimal:
        top = minimal.bit_length() - 1
        found.append(top)
        minimal ^= 1 << top
    found.reverse()
    found.sort(key=int.bit_count)
    return found


def _berge_transversals(edges: list[int]) -> list[int]:
    """:func:`minimal_transversals` by Berge's algorithm (Berge,
    *Hypergraphs*, ch. 2; see Miller-Sturmfels, *Combinatorial Commutative
    Algebra*, Thm 1.7), which adds one edge c at a time: a transversal
    meeting c is kept, and every other one t is extended to t | v for each
    vertex v of c.  An extension is minimal iff it contains no kept
    transversal; such a kept transversal must contain v, and two extensions
    are never comparable, so that is the only test.  The work is bounded by
    the intermediate families, capped at MAX_TRANSVERSALS.
    """
    family = [0]
    for edge in edges:
        kept, missed = [], []
        for t in family:
            if t & edge:
                kept.append(t)
            else:
                missed.append(t)
        if not missed:
            continue
        family = kept.copy()
        rem = edge
        while rem:
            bit = rem & -rem
            rem ^= bit
            through = [k for k in kept if k & bit]
            for t in missed:
                ext = t | bit
                for k in through:
                    if k & ext == k:
                        break
                else:
                    family.append(ext)
            if len(family) > MAX_TRANSVERSALS:
                raise over_cap(
                    "transversals", len(family), "complexes.MAX_TRANSVERSALS", MAX_TRANSVERSALS
                )
    return sorted(sorted(family), key=int.bit_count)


def minimal_nonfaces_masks(facet_masks, n: int) -> list[int]:
    """Inclusion-minimal nonface bitmasks of the complex on [n] with the given
    facets, ordered by (size, mask): the minimal transversals of the facet
    complements, since a set is a nonface iff it meets every one of them."""
    full = (1 << n) - 1
    return minimal_transversals(full & ~fm for fm in facet_masks)


def minimal_nonfaces(cx: SimplicialComplex) -> tuple[list[Face], bool]:
    """Inclusion-minimal nonfaces of cx, plus the flag-complex verdict.

    A complex is flag when every minimal nonface has two elements; the
    simplex (no nonfaces at all) also counts as flag.  Singleton
    nonfaces -- ambient vertices lying in no facet -- do not affect the
    verdict: flagness is judged on the vertex support.
    """
    found = minimal_nonfaces_masks(cx.facet_masks, cx.n)
    nonfaces = list(map(mask_face, _facet_order(found)))
    is_flag = all(len(f) == 2 for f in nonfaces if len(f) != 1)
    return nonfaces, is_flag


def alexander_dual(cx: SimplicialComplex):
    """Alexander dual: faces are complements of nonfaces of cx.

    Returns VOID_DUAL when cx is the full simplex on [n].
    """
    nonfaces = minimal_nonfaces_masks(cx.facet_masks, cx.n)
    if not nonfaces:
        return VOID_DUAL
    full = (1 << cx.n) - 1
    return _antichain_complex(cx.n, [full ^ m for m in nonfaces])


def complement_complex(cx: SimplicialComplex) -> SimplicialComplex:
    """The complex whose facets are the complements of the facets of cx."""
    full = (1 << cx.n) - 1
    if full in cx.facet_masks:  # then it is the only facet
        raise DomainError(f"facet {cx.facets[0]} equals the full vertex set [n]")
    return _antichain_complex(cx.n, [full ^ m for m in cx.facet_masks])


def contains_face(cx: SimplicialComplex, face) -> bool:
    """True iff face is a subset of some facet of cx."""
    f = canonical_face(face, cx.n)
    mask = face_mask(f)
    return any(mask & fm == mask for fm in cx.facet_masks)
