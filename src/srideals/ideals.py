"""Monomials, monomial ideals and the complex/ideal bridges.

Everything here is field-free: a monomial is an exponent vector, an
ideal is its unique minimal generating set, canonically ordered by
(degree, lexicographic on exponents).  The zero ideal is a first-class
value (empty generator list); the unit ideal is rejected everywhere.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import lshift

from .complexes import MAX_SKELETON_FACES, SimplicialComplex, face_mask
from .complexes import minimal_nonfaces_masks, minimal_transversals
from .errors import DomainError, over_cap


@dataclass(frozen=True)
class Monomial:
    """A monomial in n variables, stored as its exponent vector."""

    exponents: tuple[int, ...]

    def __init__(self, exponents):
        exps = tuple(exponents)
        if not exps:
            raise DomainError("a monomial needs at least one variable")
        if not all(map(isinstance, exps, itertools.repeat(int))) or min(exps) < 0:
            raise DomainError(f"exponents must be nonnegative integers: {exps}")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def from_support(cls, vertices, n: int) -> "Monomial":
        """The squarefree monomial x_F for a vertex set F in [1, n]."""
        exps = [0] * n
        for v in vertices:
            if not 1 <= v <= n:
                raise DomainError(f"vertex {v} out of range [1, {n}]")
            exps[v - 1] = 1
        return cls(exps)

    @property
    def num_vars(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    @property
    def support(self) -> tuple[int, ...]:
        """The 1-based variable indices with positive exponent."""
        return tuple(i + 1 for i, e in enumerate(self.exponents) if e)

    @property
    def support_mask(self) -> int:
        return sum(1 << i for i, e in enumerate(self.exponents) if e)

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def gcd(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(min, self.exponents, other.exponents)))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(max, self.exponents, other.exponents)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def quotient(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; other must divide self."""
        if not other.divides(self):
            raise DomainError(f"{other} does not divide {self}")
        return Monomial(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def __repr__(self):
        return f"Monomial({monomial_to_str(self)})"


def monomial_to_str(m: Monomial) -> str:
    """The monomial as ``x1*x2^2``; the unit monomial is ``1``."""
    parts = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(m.exponents) if e]
    return "*".join(parts) or "1"


def _canonical(monomials):
    """The distinct monomials sorted by (degree, exponents), with their
    exponent vectors and degrees in the same order: one dict keyed by the
    exponents, a sort by exponents and a stable sort by degree."""
    by_exps = {m.exponents: m for m in monomials}
    exps = sorted(sorted(by_exps), key=sum)
    return tuple(map(by_exps.__getitem__, exps)), exps, tuple(map(sum, exps))


def _packing(vectors, top: int | None = None):
    """Pack exponent vectors into ints for word-parallel comparisons.

    Variable v owns the field of ``stride = w + 1`` bits at ``v * stride``:
    w value bits, where ``w = top.bit_length()`` and ``top`` (default: the
    largest exponent) bounds every value the field will hold, and one guard
    bit above them.  Returns ``(packed, stride, ones, guards)``, where
    ``ones`` has a 1 in each field and ``guards`` each field's guard bit.

    For packed a and b, ``(b | guards) - a`` computes ``2^w + b_v - a_v``
    in every field without borrowing from the next one, and the field keeps
    its guard exactly when ``a_v <= b_v``; so a divides b iff
    ``((b | guards) - a) & guards == guards``.
    """
    if top is None:
        top = max(map(max, vectors))
    stride = top.bit_length() + 1
    shifts = range(0, len(vectors[0]) * stride, stride)
    ones = sum(1 << s for s in shifts)
    packed = [sum(map(lshift, v, shifts)) for v in vectors]
    return packed, stride, ones, ones << (stride - 1)


def _unpacked(packed, stride: int, n: int) -> list[tuple[int, ...]]:
    """The exponent vectors of n variables packed at ``stride`` (:func:`_packing`)."""
    field = (1 << (stride - 1)) - 1
    shifts = range(0, n * stride, stride)
    return [tuple([p >> s & field for s in shifts]) for p in packed]


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, held as its minimal generating set G(I).

    The constructor insists that the given generators already form the
    minimal system (pairwise non-dividing); use :func:`minimalize` to
    reduce an arbitrary generating set first.  An empty generator list
    is the zero ideal.  ``generator_degrees`` holds the generators' degrees
    in the same order.

    Distinct monomials of equal degree never divide each other, and a
    monomial never divides one of lower degree, so the check compares each
    generator only with the generators of strictly higher degree, by the
    packed subtract-and-mask test of :func:`_packing`; an equigenerated
    set needs no comparison at all.
    """

    num_vars: int
    generators: tuple[Monomial, ...]

    def __init__(self, num_vars: int, generators):
        if type(num_vars) is not int or num_vars < 1:  # bool is rejected too
            raise DomainError(f"num_vars must be a positive integer, got {num_vars!r}")
        self._store(num_vars, *_canonical(generators))

    def _store(self, num_vars: int, gens, exps, degrees):
        """Check and store distinct generators given in canonical order with
        their exponent vectors and degrees (:func:`_canonical`)."""
        if gens and (degrees[0] == 0 or any(map(num_vars.__ne__, map(len, exps)))):
            for g in gens:
                if g.num_vars != num_vars:
                    raise DomainError(
                        f"generator {g} has {g.num_vars} variables, expected {num_vars}"
                    )
                if g.degree == 0:
                    raise DomainError("the unit ideal is not supported")
        if gens and degrees[0] != degrees[-1]:
            packed, _stride, _ones, guards = _packing(exps)
            for i, a in enumerate(packed):
                for j in range(bisect_right(degrees, degrees[i]), len(gens)):
                    if (packed[j] | guards) - a & guards == guards:
                        raise DomainError(
                            f"generators are not minimal: {gens[i]} and {gens[j]} are comparable"
                        )
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "generator_degrees", tuple(degrees))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.generators)

    def contains(self, m: Monomial) -> bool:
        """Ideal membership for a monomial."""
        return any(g.divides(m) for g in self.generators)

    def __repr__(self):
        if self.is_zero:
            return f"MonomialIdeal(0 in {self.num_vars} vars)"
        inner = ", ".join(monomial_to_str(g) for g in self.generators)
        return f"MonomialIdeal(({inner}) in {self.num_vars} vars)"


def minimalize(monomials) -> MonomialIdeal:
    """Reduce a nonempty list of monomials to the minimal generating set.

    After sorting by (degree, exponents) a monomial is dropped when a kept
    monomial of strictly lower degree divides it: a distinct monomial of
    equal degree cannot, and a dropped one's divisors are kept ones.  The
    divisibility test is the packed subtract-and-mask of :func:`_packing`.
    The ideal is stored from the one sort, with every check of its class.
    """
    unique, exps, degrees = _canonical(monomials)
    if not unique:
        raise DomainError("minimalize needs at least one monomial")
    n = len(exps[0])
    if any(map(n.__ne__, map(len, exps))):
        raise DomainError("monomials have mixed variable counts")
    if degrees[0] != degrees[-1]:
        packed, _stride, _ones, guards = _packing(exps)
        keep: list[int] = []
        for k, b in enumerate(packed):
            lower = keep[: bisect_left(keep, bisect_left(degrees, degrees[k]))]
            if not any((b | guards) - packed[a] & guards == guards for a in lower):
                keep.append(k)
        unique, exps, degrees = ([seq[k] for k in keep] for seq in (unique, exps, degrees))
    ideal = MonomialIdeal.__new__(MonomialIdeal)
    ideal._store(n, unique, exps, degrees)
    return ideal


def _squarefree_ideal(n: int, masks) -> MonomialIdeal:
    """The ideal generated by the squarefree monomials whose supports are
    the given bitmasks, with every check of its class."""
    exps = sorted({tuple([m >> v & 1 for v in range(n)]) for m in masks})
    exps.sort(key=sum)
    ideal = MonomialIdeal.__new__(MonomialIdeal)
    ideal._store(n, tuple(map(Monomial, exps)), exps, tuple(map(sum, exps)))
    return ideal


def stanley_reisner_ideal(cx: SimplicialComplex) -> MonomialIdeal:
    """I_cx, generated by the monomials of the minimal nonfaces."""
    nonfaces = minimal_nonfaces_masks(cx.facet_masks, cx.n)
    if nonfaces and nonfaces[0] == 0:
        raise DomainError("the void complex has no Stanley-Reisner ideal")
    return _squarefree_ideal(cx.n, nonfaces)


def facet_ideal(cx: SimplicialComplex) -> MonomialIdeal:
    """I(cx), generated by the monomials of the facets."""
    if cx.is_void:
        raise DomainError("facet ideal requires at least one facet")
    return _squarefree_ideal(cx.n, cx.facet_masks)


def complex_from_ideal(ideal: MonomialIdeal, mode: str) -> SimplicialComplex:
    """Invert the two complex-to-ideal bridges.

    mode "stanley-reisner": the unique complex whose Stanley-Reisner
    ideal is the given squarefree ideal.  Its faces are the sets that
    contain no generator support, so its facets are the complements of the
    minimal transversals of the supports.  mode "facet": the complex whose
    facets are the supports of the generators.
    """
    if not ideal.is_squarefree:
        raise DomainError("complex_from_ideal requires a squarefree ideal")
    n = ideal.num_vars
    supports = [g.support_mask for g in ideal.generators]
    if mode == "facet":
        return SimplicialComplex.from_masks(n, supports)
    if mode != "stanley-reisner":
        raise DomainError(f"unknown mode {mode!r}")
    full = (1 << n) - 1
    return SimplicialComplex.from_masks(n, [full ^ t for t in minimal_transversals(supports)])


# The most generator factors that power() adds up: k for each of the
# comb(t + k - 1, k) products of k of the t generators.  The number of
# products alone does not bound the work: one generator to the power 10**9
# is one product of 10**9 factors.  The largest value the suites, tests and
# benchmark corpora reach is 21,420 (7,140 products of 34 generators, k = 3,
# in thm-4.4 at its defaults).
MAX_POWER_FACTORS = 300_000
# graded_component_ideal lists C(n + e - 1, e) monomials of degree e = j - deg g
# for each generator g; (x1) on 12 variables lists 75,582 at degree 9.
MAX_GRADED_MONOMIALS = 100_000
# The nodes that linear_quotients_order may visit.  Each is a distinct set of
# remaining generators, so fewer than 19 generators never reach the cap.
MAX_SEARCH_NODES = 500_000


def power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """Minimal generating set of the k-th power, k >= 1.

    Each product is a sum of packed exponent vectors whose fields are wide
    enough for k times the largest exponent, so only distinct products are
    unpacked into monomials.  More than ``MAX_POWER_FACTORS`` factors over
    all products is a ResourceLimitError.
    """
    if k < 1:
        raise DomainError(f"power exponent must be >= 1, got {k}")
    if ideal.is_zero:
        return ideal
    gens = ideal.generators
    count = math.comb(len(gens) + k - 1, k)
    if count * k > MAX_POWER_FACTORS:
        raise over_cap(
            f"power-{k} factors", count * k, "ideals.MAX_POWER_FACTORS", MAX_POWER_FACTORS
        )
    exps = [g.exponents for g in gens]
    packed, stride, _ones, _guards = _packing(exps, k * max(map(max, exps)))
    products = set(map(sum, itertools.combinations_with_replacement(packed, k)))
    return minimalize(map(Monomial, _unpacked(products, stride, ideal.num_vars)))


def graded_component_ideal(ideal: MonomialIdeal, j: int) -> MonomialIdeal:
    """The ideal generated by the degree-j component of the given ideal.

    g times each monomial of degree j - deg g is a packed g plus packed unit
    vectors (:func:`_packing`), and each distinct sum is unpacked once."""
    if ideal.is_zero:
        raise DomainError("graded component of the zero ideal")
    min_deg = min(ideal.generator_degrees)
    if j < min_deg:
        raise DomainError(f"degree {j} is below the minimal generator degree {min_deg}")
    n = ideal.num_vars
    extras = [j - d for d in ideal.generator_degrees]
    count = sum(math.comb(n + e - 1, e) for e in extras if e >= 0)
    if count > MAX_GRADED_MONOMIALS:
        raise over_cap("monomials", count, "ideals.MAX_GRADED_MONOMIALS", MAX_GRADED_MONOMIALS)
    below = [(g.exponents, e) for g, e in zip(ideal.generators, extras) if e >= 0]
    top = max(max(g) + e for g, e in below)
    packed, stride, _ones, _guards = _packing([g for g, _ in below], top)
    units = [1 << s for s in range(0, n * stride, stride)]
    sums = set()
    for p, (_, extra) in zip(packed, below):
        sums.update(map(p.__add__, map(sum, itertools.combinations_with_replacement(units, extra))))
    return minimalize(map(Monomial, _unpacked(sums, stride, n)))


def restrict_ideal(ideal: MonomialIdeal, bound) -> MonomialIdeal:
    """Keep the generators whose exponent vector is componentwise <= bound."""
    a = tuple(bound)
    if len(a) != ideal.num_vars or any(not isinstance(v, int) or v < 0 for v in a):
        raise DomainError(
            f"bound must be a length-{ideal.num_vars} vector of nonnegative integers"
        )
    kept = [g for g in ideal.generators if all(e <= b for e, b in zip(g.exponents, a))]
    return MonomialIdeal(ideal.num_vars, kept)


def skeleton_ideal_from_one_skeleton(i1: MonomialIdeal, ell: int, n: int) -> MonomialIdeal:
    """All squarefree degree-(ell+1) monomials divisible by a generator of i1.

    When i1 is the facet ideal of the complement of a flag complex's
    1-skeleton, this reproduces the facet ideal of the complement of its
    ell-skeleton without touching the complex itself.
    """
    if ell + 1 > n:
        raise DomainError(f"degree {ell + 1} exceeds the number of variables {n}")
    if ell + 1 < 2:
        raise DomainError(f"skeleton dimension must be >= 1, got {ell}")
    if not i1.is_squarefree or any(d != 2 for d in i1.generator_degrees):
        raise DomainError("i1 must be squarefree and generated in degree 2")
    if i1.num_vars != n:
        raise DomainError(f"i1 lives in {i1.num_vars} variables, expected {n}")
    count = math.comb(n, ell + 1)
    if count > MAX_SKELETON_FACES:
        raise over_cap(f"{ell + 1}-sets", count, "complexes.MAX_SKELETON_FACES", MAX_SKELETON_FACES)
    gen_masks = [g.support_mask for g in i1.generators]
    gens = [
        Monomial.from_support(combo, n)
        for combo in itertools.combinations(range(1, n + 1), ell + 1)
        if any(gm & face_mask(combo) == gm for gm in gen_masks)
    ]
    return MonomialIdeal(n, gens)


def linear_quotients_order(ideal: MonomialIdeal) -> list[Monomial] | None:
    """Search for an ordering of G(I) with linear quotients.

    Returns one valid ordering, or None when an exhaustive backtracking
    search proves that no ordering works.  Whether a prefix can be
    extended depends only on the prefix as a set, so failed prefix sets
    are memoized; greedy extension alone is not sound for None answers,
    hence the backtracking.  More than ``MAX_SEARCH_NODES`` search nodes
    is a ResourceLimitError.
    """
    if ideal.is_zero:
        raise DomainError("the zero ideal has no generators to order")
    gens = list(ideal.generators)
    t = len(gens)
    # lin_var[k][i]: variable index when g_k / gcd(g_i, g_k) has degree 1.
    lin_var = [[-1] * t for _ in range(t)]
    for k in range(t):
        ek = gens[k].exponents
        for i in range(t):
            if i == k:
                continue
            ei = gens[i].exponents
            deg = var = 0
            for idx, (a, b) in enumerate(zip(ek, ei)):
                if a > b:
                    deg += a - b
                    var = idx
                    if deg > 1:
                        break
            if deg == 1:
                lin_var[k][i] = var
    # quot_mask[j][i]: support of g_j : g_i (variables with ej > ei); a
    # colon variable x_v certifies g_j only when it divides this quotient.
    quot_mask = [
        [
            sum(1 << idx for idx, (a, b) in enumerate(zip(gj.exponents, gi.exponents)) if a > b)
            for gi in gens
        ]
        for gj in gens
    ]

    dead: set[frozenset] = set()
    nodes = 0

    def extend(prefix: list[int], remaining: set[int], vmask: list[int]) -> bool:
        nonlocal nodes
        if not remaining:
            return True
        key = frozenset(remaining)
        if key in dead:
            return False
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise over_cap(
                "linear-quotients search nodes", nodes, "ideals.MAX_SEARCH_NODES", MAX_SEARCH_NODES
            )
        for i in sorted(remaining):
            if any(vmask[i] & quot_mask[j][i] == 0 for j in prefix):
                continue
            prefix.append(i)
            remaining.discard(i)
            saved = [vmask[c] for c in remaining]
            rem_list = list(remaining)
            for c in rem_list:
                v = lin_var[i][c]
                if v >= 0:
                    vmask[c] |= 1 << v
            if extend(prefix, remaining, vmask):
                return True
            for c, s in zip(rem_list, saved):
                vmask[c] = s
            remaining.add(i)
            prefix.pop()
        dead.add(key)
        return False

    try:
        for first in range(t):
            prefix = [first]
            remaining = set(range(t)) - {first}
            vmask = [0] * t
            for c in remaining:
                v = lin_var[first][c]
                if v >= 0:
                    vmask[c] |= 1 << v
            if extend(prefix, remaining, vmask):
                return [gens[i] for i in prefix]
        return None
    finally:
        del extend  # it refers to itself; this frees the memo now


def verify_linear_quotients(order: list[Monomial]) -> bool:
    """Independent check of the linear-quotients condition on an ordering.

    For each g_i, the colon ideal (g_1, ..., g_{i-1}) : g_i must be
    generated by variables: every g_j : g_i (j < i) must be divisible by
    some g_k : g_i (k < i) that is a single variable.  It reads nothing from
    :func:`linear_quotients_order`.

    The scan works on bit columns over generator positions: for each
    variable v and each exponent c that occurs at v, one int holds the
    positions j with ``g_j[v] == c`` and one the positions with
    ``g_j[v] > c`` (dicts keyed by the exponents that occur, so a huge
    exponent costs nothing).  For g_i, the ``> g_i[v]`` column of each v,
    masked to the prefix j < i, holds the j where x_v divides g_j : g_i.
    Two accumulators give the j that exceed g_i at exactly one variable; g_j
    : g_i is x_v exactly when j is one of them and lies in the ``== g_i[v]
    + 1`` column of v, which makes v a colon variable.  g_i fails iff some
    j < i lies in none of the ``> g_i[v]`` columns of the colon variables.
    That is a constant number of int operations per generator and variable,
    each over the prefix.
    """
    if len(order) < 2:
        return True
    n = order[0].num_vars
    if any(m.num_vars != n for m in order):
        raise DomainError("monomials have mixed variable counts")
    columns = list(zip(*(m.exponents for m in order)))
    tables = []  # per variable: c -> (the > c column, the == c + 1 column)
    for column in columns:
        at: dict[int, int] = {}
        for j, c in enumerate(column):
            at[c] = at.get(c, 0) | 1 << j
        table, higher = {}, 0
        for c in sorted(at, reverse=True):
            table[c] = higher, at.get(c + 1, 0)
            higher |= at[c]
        tables.append(table)
    # Row i holds g_i's own pair of columns for each variable.
    for i, row in enumerate(zip(*map(map, [t.__getitem__ for t in tables], columns))):
        prefix = (1 << i) - 1
        once = twice = 0
        for above, _ in row:
            twice |= once & above
            once |= above
        single = once & ~twice & prefix
        covered = 0
        for above, successor in row:
            if single & successor:
                covered |= above
        if covered & prefix != prefix:
            return False
    return True
