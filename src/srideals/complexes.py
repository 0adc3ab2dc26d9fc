"""Simplicial complexes on the vertex set {1, ..., n}, stored by facets.

A complex is identified with the antichain of its maximal faces.  The
ambient vertex count n is always stored explicitly: complements and
Alexander duals are only defined relative to a fixed ground set, so
nothing is ever inferred from the vertices that happen to occur in
facets (in particular, singletons are *not* required to be faces).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, not_iterable, over_cap

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
    try:
        members = list(face)
    except TypeError:
        raise not_iterable("vertices", face) from None
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


def _face_sort_key(face: Face):
    return (len(face), face)


def _canonical_faces(faces, n: int) -> list[Face]:
    """The distinct canonical faces, sorted by (cardinality, lexicographic)."""
    try:
        faces = iter(faces)
    except TypeError:
        raise not_iterable("faces", faces) from None
    return sorted({canonical_face(f, n) for f in faces}, key=_face_sort_key)


def _maximal_faces(faces: list[Face], masks=None) -> list[Face]:
    """The faces that lie in no other one, from distinct faces sorted by size
    (with their bitmasks, computed when not given).

    Distinct faces of equal size cannot nest, so each face is compared only
    with the strictly larger ones, which follow the last face of its size;
    faces of one size need no comparison at all.
    """
    sizes = list(map(len, faces))
    if not faces or sizes[0] == sizes[-1]:
        return faces
    if masks is None:
        masks = list(map(face_mask, faces))
    maximal = []
    for face, mask, size in zip(faces, masks, sizes):
        for other in masks[bisect_right(sizes, size) :]:
            if mask & other == mask:
                break
        else:
            maximal.append(face)
    return maximal


def _check_ambient(n) -> None:
    if type(n) is not int or n < 1:  # bool is rejected too
        raise DomainError(f"ambient size must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class SimplicialComplex:
    """An antichain of facets on [n], kept in canonical order.

    Facets are sorted by (cardinality, lexicographic) and must not
    contain one another; a comparable pair is rejected rather than
    repaired (use :meth:`from_faces` to minimalize).  The empty facet
    list is the void complex, allowed as an output value only.
    """

    n: int
    facets: tuple[Face, ...]

    def __init__(self, n: int, facets):
        _check_ambient(n)
        canon = _canonical_faces(facets, n)
        self._store(n, canon, list(map(face_mask, canon)))

    @classmethod
    def from_faces(cls, n: int, faces) -> "SimplicialComplex":
        """Build a complex from arbitrary faces, dropping non-maximal ones."""
        _check_ambient(n)
        return cls(n, _maximal_faces(_canonical_faces(faces, n)))

    @classmethod
    def from_masks(cls, n: int, masks) -> "SimplicialComplex":
        """The complex on [n] whose facets have the given bitmasks (vertex v
        at bit v - 1), with the range and antichain checks of the
        constructor and its error messages; ``facet_masks`` is preset."""
        _check_ambient(n)
        try:
            masks = iter(masks)
        except TypeError:
            raise not_iterable("facet masks", masks) from None
        unique = set()
        for m in masks:
            if type(m) is not int:  # bool is rejected too
                raise DomainError(f"facet mask {m!r} is not an integer")
            high = m >> n
            if high:
                raise DomainError(
                    f"vertex {n + (high & -high).bit_length()} out of range [1, {n}]"
                )
            unique.add(m)
        pairs = sorted((mask_face(m), m) for m in unique)
        pairs.sort(key=lambda pair: len(pair[0]))
        cx = cls.__new__(cls)
        cx._store(n, [face for face, _ in pairs], [m for _, m in pairs])
        return cx

    def _store(self, n: int, canon: list[Face], masks: list[int]) -> None:
        """Check that the distinct faces in canonical order, with their
        masks, form an antichain, and store them."""
        maximal = _maximal_faces(canon, masks)
        if len(maximal) < len(canon):
            face = min(set(canon).difference(maximal), key=_face_sort_key)
            raise DomainError(
                f"facets are not an antichain: {face} is contained in another facet"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facets", tuple(canon))
        object.__setattr__(self, "facet_masks", tuple(masks))

    @cached_property
    def face_mask_set(self) -> frozenset:
        """All faces (including the empty face) as bitmasks."""
        return down_closure(self.facet_masks)

    @property
    def is_void(self) -> bool:
        return not self.facets

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, f)) + "}" for f in self.facets)
        return f"SimplicialComplex(n={self.n}, <{inner}>)"


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
    sizes = {len(f) for f in cx.facets}
    return max(sizes) - 1, len(sizes) == 1


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
    return SimplicialComplex.from_masks(cx.n, missing)


def pure_complement(cx: SimplicialComplex) -> SimplicialComplex:
    """For pure (d-1)-dimensional cx: the d-subsets of [n] that are not faces,
    ``skeleton_complement(cx, d - 1)``."""
    dim, is_pure = dimension_info(cx)
    if not is_pure:
        raise DomainError("pure complement requires a pure complex")
    return skeleton_complement(cx, dim)


MAX_TRANSVERSALS = 200_000


def minimal_transversals(edge_masks) -> list[int]:
    """The inclusion-minimal masks that meet every given edge mask, ordered
    by (size, mask); none when an edge is empty.

    Berge's algorithm (Berge, *Hypergraphs*, ch. 2; see Miller-Sturmfels,
    *Combinatorial Commutative Algebra*, Thm 1.7) adds one edge c at a
    time: a transversal meeting c is kept, and every other one t is
    extended to t | v for each vertex v of c.  An extension is minimal iff
    it contains no kept transversal; such a kept transversal must contain
    v, and two extensions are never comparable, so that is the only test.
    The work is bounded by the intermediate families, capped at
    MAX_TRANSVERSALS.
    """
    family = [0]
    for edge in edge_masks:
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
    return sorted(family, key=lambda m: (m.bit_count(), m))


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
    nonfaces = sorted((mask_face(m) for m in found), key=_face_sort_key)
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
    return SimplicialComplex.from_masks(cx.n, [full ^ m for m in nonfaces])


def complement_complex(cx: SimplicialComplex) -> SimplicialComplex:
    """The complex whose facets are the complements of the facets of cx."""
    full = (1 << cx.n) - 1
    if full in cx.facet_masks:  # then it is the only facet
        raise DomainError(f"facet {cx.facets[0]} equals the full vertex set [n]")
    return SimplicialComplex.from_masks(cx.n, [full ^ m for m in cx.facet_masks])


def contains_face(cx: SimplicialComplex, face) -> bool:
    """True iff face is a subset of some facet of cx."""
    f = canonical_face(face, cx.n)
    mask = face_mask(f)
    return any(mask & fm == mask for fm in cx.facet_masks)
