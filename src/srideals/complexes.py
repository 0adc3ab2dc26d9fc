"""Simplicial complexes on the vertex set {1, ..., n}, stored by facets.

A complex is identified with the antichain of its maximal faces.  The
ambient vertex count n is always stored explicitly: complements and
Alexander duals are only defined relative to a fixed ground set, so
nothing is ever inferred from the vertices that happen to occur in
facets (in particular, singletons are *not* required to be faces).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, ResourceLimitError

Face = tuple[int, ...]


def face_mask(face) -> int:
    """Bitmask of a face; vertex v occupies bit v-1."""
    mask = 0
    for v in face:
        mask |= 1 << (v - 1)
    return mask


def mask_face(mask: int) -> Face:
    face = []
    v = 1
    while mask:
        if mask & 1:
            face.append(v)
        mask >>= 1
        v += 1
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
    members = sorted(face)
    for v in members:
        if not isinstance(v, int) or isinstance(v, bool):
            raise DomainError(f"vertex {v!r} is not an integer")
        if not 1 <= v <= n:
            raise DomainError(f"vertex {v} out of range [1, {n}]")
    for a, b in zip(members, members[1:]):
        if a == b:
            raise DomainError(f"duplicate vertex {a} in face {tuple(face)}")
    return tuple(members)


def _face_sort_key(face: Face):
    return (len(face), face)


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
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"ambient size must be a positive integer, got {n!r}")
        canon = sorted({canonical_face(f, n) for f in facets}, key=_face_sort_key)
        masks = [face_mask(f) for f in canon]
        for i, mi in enumerate(masks):
            for mj in masks[i + 1 :]:
                if mi & mj == mi:
                    raise DomainError(
                        f"facets are not an antichain: {canon[i]} is contained "
                        f"in another facet"
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facets", tuple(canon))

    @classmethod
    def from_faces(cls, n: int, faces) -> "SimplicialComplex":
        """Build a complex from arbitrary faces, dropping non-maximal ones."""
        canon = {canonical_face(f, n) for f in faces}
        masks = {f: face_mask(f) for f in canon}
        maximal = [
            f
            for f in canon
            if not any(g != f and masks[f] & masks[g] == masks[f] for g in canon)
        ]
        return cls(n, maximal)

    @cached_property
    def facet_masks(self) -> tuple[int, ...]:
        return tuple(face_mask(f) for f in self.facets)

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


def skeleton(cx: SimplicialComplex, i: int) -> SimplicialComplex:
    """The pure complex of all i-dimensional faces of cx."""
    if i < 0:
        raise DomainError(f"skeleton dimension must be nonnegative, got {i}")
    dim, _ = dimension_info(cx)
    if i > dim:
        raise DomainError(f"skeleton dimension {i} exceeds dim = {dim}")
    faces = set()
    for facet in cx.facets:
        faces.update(itertools.combinations(facet, i + 1))
    return SimplicialComplex(cx.n, faces)


def pure_complement(cx: SimplicialComplex) -> SimplicialComplex:
    """For pure (d-1)-dimensional cx: all d-subsets of [n] that are not faces."""
    dim, is_pure = dimension_info(cx)
    if not is_pure:
        raise DomainError("pure complement requires a pure complex")
    d = dim + 1
    faces = cx.face_mask_set
    missing = [
        f
        for f in itertools.combinations(range(1, cx.n + 1), d)
        if face_mask(f) not in faces
    ]
    return SimplicialComplex(cx.n, missing)


MAX_TRANSVERSALS = 200_000


def minimal_nonfaces_masks(facet_masks, n: int) -> list[int]:
    """Inclusion-minimal nonface bitmasks of the complex on [n] with the
    given facets, ordered by (size, mask).

    A set is a nonface iff it meets the complement of every facet, so the
    minimal nonfaces are the minimal transversals of the facet
    complements.  Berge's algorithm (Berge, *Hypergraphs*, ch. 2; see
    Miller-Sturmfels, *Combinatorial Commutative Algebra*, Thm 1.7) adds
    one complement c at a time: a transversal meeting c is kept, and
    every other one t is extended to t | v for each vertex v of c.  An
    extension is minimal iff it contains no kept transversal; such a
    kept transversal must contain v, and two extensions are never
    comparable, so that is the only test.  The work is bounded by the
    intermediate families, capped at MAX_TRANSVERSALS.
    """
    full = (1 << n) - 1
    family = [0]
    for fm in facet_masks:
        comp = full & ~fm
        kept = [t for t in family if t & comp]
        missed = [t for t in family if not t & comp]
        if not missed:
            continue
        family = kept.copy()
        rem = comp
        while rem:
            bit = rem & -rem
            rem ^= bit
            through = [k for k in kept if k & bit]
            for t in missed:
                ext = t | bit
                if not any(k & ext == k for k in through):
                    family.append(ext)
            if len(family) > MAX_TRANSVERSALS:
                raise ResourceLimitError(
                    f"more than MAX_TRANSVERSALS = {MAX_TRANSVERSALS} partial "
                    f"minimal nonfaces on {n} vertices"
                )
    return sorted(family, key=lambda m: (m.bit_count(), m))


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
    nonfaces, _ = minimal_nonfaces(cx)
    if not nonfaces:
        return VOID_DUAL
    full = set(range(1, cx.n + 1))
    duals = [tuple(sorted(full - set(f))) for f in nonfaces]
    return SimplicialComplex(cx.n, duals)


def complement_complex(cx: SimplicialComplex) -> SimplicialComplex:
    """The complex whose facets are the complements of the facets of cx."""
    full = set(range(1, cx.n + 1))
    comps = []
    for f in cx.facets:
        comp = full - set(f)
        if not comp:
            raise DomainError(f"facet {f} equals the full vertex set [n]")
        comps.append(tuple(sorted(comp)))
    return SimplicialComplex(cx.n, comps)


def contains_face(cx: SimplicialComplex, face) -> bool:
    """True iff face is a subset of some facet of cx."""
    f = canonical_face(face, cx.n)
    mask = face_mask(f)
    return any(mask & fm == mask for fm in cx.facet_masks)
