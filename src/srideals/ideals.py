"""Monomials, monomial ideals and the complex/ideal bridges.

Everything here is field-free: a monomial is an exponent vector, an
ideal is its unique minimal generating set, canonically ordered by
(degree, lexicographic on exponents).  An ideal stores that set as the
tuple of its exponent vectors, which is all the kernels read; its
:class:`Monomial` objects are built on first use.  The zero ideal is a
first-class value (empty generator list); the unit ideal is rejected
everywhere.  Support bitmasks become exponent vectors in :func:`_mask_vectors` only.

Minimality is decided in one place, the drop pass :func:`_minimal_vectors`:
:func:`minimalize`, :func:`power` and :func:`graded_component_ideal` keep
what it keeps, and the constructor refuses a list it would shorten.  Every
ideal is stored by :func:`_stored_ideal`, which checks nothing; the checks
are made where plain data enters, by the constructor and :func:`minimalize`.

The variable count n is checked, against ``complexes.MAX_VARS``, by
``complexes._check_ambient`` where an ideal is built: by the constructor,
:func:`minimalize` and ``Monomial.from_support``, and for the ideals of a
complex or a graph by theirs.  So no dense vector of n entries and no mask
of [n] needs a check of its own.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import lshift

from .complexes import MAX_SKELETON_FACES, SimplicialComplex, _antichain_complex, _check_ambient
from .complexes import minimal_nonfaces_masks, minimal_transversals
from .errors import DomainError, listed, not_iterable, over_cap


@dataclass(frozen=True)
class Monomial:
    """A monomial in n variables, stored as its exponent vector."""

    exponents: tuple[int, ...]

    def __init__(self, exponents):
        try:
            items = iter(exponents)
        except TypeError:
            raise not_iterable("exponents", exponents) from None
        exps = tuple(items)
        if not exps:
            raise DomainError("a monomial needs at least one variable")
        if not {int}.issuperset(map(type, exps)) or min(exps) < 0:  # bool is rejected too
            raise DomainError(f"exponents must be nonnegative integers: {exps}")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def from_support(cls, vertices, n: int) -> "Monomial":
        """The squarefree monomial x_F for a vertex set F in [1, n]."""
        _check_ambient(n, "the variable count")
        exps = [0] * n
        for v in vertices:
            if type(v) is not int:  # bool is rejected too
                raise DomainError(f"vertex {v!r} is not an integer")
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
        return _support_mask(self.exponents)

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


def _support_mask(exps) -> int:
    """The bitmask of the variables with positive exponent, x1 at bit 0."""
    return sum(1 << i for i, e in enumerate(exps) if e)


def monomial_to_str(m: Monomial) -> str:
    """The monomial as ``x1*x2^2``; the unit monomial is ``1``."""
    parts = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(m.exponents) if e]
    return "*".join(parts) or "1"


def _canonical(monomials):
    """The distinct exponent vectors of the monomials in canonical order,
    with their degrees (:func:`_in_order`)."""
    try:
        return _in_order({m.exponents for m in listed("monomials", monomials)})
    except AttributeError:  # a string's characters, say
        raise not_iterable("monomials", monomials) from None


def _in_order(vectors):
    """The distinct exponent vectors sorted by (degree, exponents), by a sort
    by exponents and a stable sort by degree, and their degrees in that order."""
    exps = sorted(sorted(vectors), key=sum)
    return exps, list(map(sum, exps))


def _packing(vectors, top: int | None = None, degree: bool = False):
    """Pack exponent vectors into ints for word-parallel comparisons.

    Each of the n variables owns a field of ``stride = w + 1`` bits: w value
    bits, where ``w = top.bit_length()`` and ``top`` (default: the largest
    exponent) bounds every value the field will hold, and one guard bit
    above them.  x1 owns the most significant field, at ``(n - 1) * stride``,
    and x_n the field at 0.  With ``degree``, the vector's degree is added at
    ``n * stride``, above every field and with no width limit, so that a sum
    of packed vectors carries the degree of the product and the order of
    packed ints is the canonical (degree, exponents) order; and when ``top``
    fits in 7 bits the fields are whole bytes (``stride = 8``), which
    :func:`_unpacked` reads without shifts.  Returns
    ``(packed, stride, ones, guards)``, where ``ones`` has a 1 in each
    variable field and ``guards`` each variable field's guard bit.

    For packed a and b, ``(b | guards) - a`` computes ``2^w + b_v - a_v``
    in every field without borrowing from the next one, and the field keeps
    its guard exactly when ``a_v <= b_v``; so a divides b iff
    ``((b | guards) - a) & guards == guards``.  A degree field lies above
    every guard, so the test reads none of it.
    """
    if top is None:
        top = max(map(max, vectors))
    stride = 8 if degree and top < 128 else top.bit_length() + 1
    n = len(vectors[0])
    shifts = range((n - 1) * stride, -1, -stride)
    ones = sum(1 << s for s in shifts)
    packed = [sum(map(lshift, v, shifts)) for v in vectors]
    if degree:
        high = n * stride
        packed = [p + (sum(v) << high) for p, v in zip(packed, vectors)]
    return packed, stride, ones, ones << (stride - 1)


def _unpacked(packed, stride: int, n: int) -> list[tuple[int, ...]]:
    """The exponent vectors of n variables packed at ``stride`` (:func:`_packing`),
    ignoring any degree field.  Whole-byte fields (``stride == 8``, whose
    guard bits are clear) are the big-endian bytes of the low ``n`` bytes of
    each int, one ``int.to_bytes`` per vector; other fields are shifted out
    one by one."""
    if stride == 8:
        low = (1 << 8 * n) - 1
        data = b"".join([(p & low).to_bytes(n, "big") for p in packed])
        return list(zip(*[iter(data)] * n))  # consecutive runs of n bytes
    field = (1 << (stride - 1)) - 1
    shifts = range((n - 1) * stride, -1, -stride)
    return [tuple([p >> s & field for s in shifts]) for p in packed]


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, held as its minimal generating set G(I).

    The constructor insists that the given generators already form the
    minimal system (pairwise non-dividing); use :func:`minimalize` to
    reduce an arbitrary generating set first.  An empty generator list
    is the zero ideal.

    The fields are ``num_vars`` and ``exponents``, the canonical tuple of
    the generators' exponent vectors, so equality and hashing compare
    those.  ``generators`` holds the same generators as :class:`Monomial`
    objects, built from ``exponents`` when they are first read.
    ``generator_degrees`` holds the generators' degrees in the same order.

    The constructor checks each vector's length and refuses the unit
    vector, in canonical order, and then refuses the list when the drop
    pass :func:`_minimal_vectors` would shorten it; only then does it look
    for the first comparable pair, to name it.
    """

    num_vars: int
    exponents: tuple[tuple[int, ...], ...]

    def __init__(self, num_vars: int, generators):
        _check_ambient(num_vars, "num_vars")
        exps, degrees = _canonical(generators)
        for e in exps:
            if len(e) != num_vars:
                raise DomainError(
                    f"generator {Monomial(e)} has {len(e)} variables, expected {num_vars}"
                )
            if not any(e):
                raise DomainError("the unit ideal is not supported")
        if len(_minimal_vectors(exps, degrees)[0]) < len(exps):
            pairs = itertools.combinations(map(Monomial, exps), 2)
            a, b = next((a, b) for a, b in pairs if a.divides(b))
            raise DomainError(f"generators are not minimal: {a} and {b} are comparable")
        _stored_ideal(num_vars, exps, degrees, self)

    @cached_property
    def generators(self) -> tuple[Monomial, ...]:
        return tuple(map(Monomial, self.exponents))

    @property
    def is_zero(self) -> bool:
        return not self.exponents

    @property
    def is_squarefree(self) -> bool:
        return max(map(max, self.exponents), default=0) <= 1

    def contains(self, m: Monomial) -> bool:
        """Ideal membership for a monomial in the ideal's variables."""
        b = m.exponents
        if len(b) != self.num_vars:
            raise DomainError(f"monomial {m} has {len(b)} variables, expected {self.num_vars}")
        return any(all(map(int.__le__, e, b)) for e in self.exponents)

    def __repr__(self):
        if self.is_zero:
            return f"MonomialIdeal(0 in {self.num_vars} vars)"
        inner = ", ".join(monomial_to_str(g) for g in self.generators)
        return f"MonomialIdeal(({inner}) in {self.num_vars} vars)"


def minimalize(monomials) -> MonomialIdeal:
    """Reduce a nonempty list of monomials to the minimal generating set.

    The monomials are sorted by (degree, exponents) (:func:`_canonical`)
    and reduced by :func:`_minimal_vectors`.
    """
    exps, degrees = _canonical(monomials)
    if not exps:
        raise DomainError("minimalize needs at least one monomial")
    n = len(exps[0])
    if any(map(n.__ne__, map(len, exps))):
        raise DomainError("monomials have mixed variable counts")
    _check_ambient(n, "num_vars")
    if degrees[0] == 0:
        raise DomainError("the unit ideal is not supported")
    return _stored_ideal(n, *_minimal_vectors(exps, degrees))


def _minimal_vectors(exps, degrees):
    """The drop pass: of distinct exponent vectors of one length given in
    canonical order with their degrees, the vectors that no other one
    divides, and their degrees, in the same order.

    A vector is dropped when a kept vector of strictly lower degree
    divides it: a distinct vector of equal degree cannot, and a dropped
    one's divisors are kept ones.  The divisibility test is the packed
    subtract-and-mask of :func:`_packing`, and an equigenerated list
    needs no comparison at all.
    """
    if not exps or degrees[0] == degrees[-1]:
        return exps, degrees
    packed, _stride, _ones, guards = _packing(exps)
    keep: list[int] = []
    for k, b in enumerate(packed):
        lower = keep[: bisect_left(keep, bisect_left(degrees, degrees[k]))]
        if not any((b | guards) - packed[a] & guards == guards for a in lower):
            keep.append(k)
    return [exps[k] for k in keep], [degrees[k] for k in keep]


def _stored_ideal(n: int, exps, degrees, ideal: MonomialIdeal | None = None) -> MonomialIdeal:
    """The ideal in n variables whose minimal generators are the given
    exponent vectors, in canonical order with their degrees, stored on
    `ideal` (the constructor's instance) or on a new one.  Its callers build
    or check the vectors; nothing is checked here."""
    ideal = object.__new__(MonomialIdeal) if ideal is None else ideal
    ideal.__dict__.update(num_vars=n, exponents=tuple(exps), generator_degrees=tuple(degrees))
    return ideal


def _ideal_from_packed(packed, stride: int, n: int) -> MonomialIdeal:
    """The ideal of the :func:`_minimal_vectors` of distinct vectors of n
    variables packed at ``stride`` with a degree field (:func:`_packing`),
    given as sorted ints: that is the canonical order, and the degree is the
    field above ``n * stride``."""
    degrees = list(map((n * stride).__rrshift__, packed))
    return _stored_ideal(n, *_minimal_vectors(_unpacked(packed, stride, n), degrees))


_BITS = bytes.maketrans(b"01", b"\0\1")


def _mask_vectors(n: int, masks) -> list[tuple[int, ...]]:
    """The squarefree exponent vectors in n variables of the support
    bitmasks, in order.  The masks' n-digit binary strings are joined
    and reversed, so that each mask's x1 comes first and the masks come last
    to first; the digits become bytes 0 and 1 in one pass, and consecutive
    runs of n bytes are the vectors."""
    spec = f"0{n}b"
    data = "".join([format(m, spec) for m in masks])[::-1].encode().translate(_BITS)
    return list(zip(*[iter(data)] * n))[::-1]


def _squarefree_ideal(n: int, masks) -> MonomialIdeal:
    """The ideal generated by the squarefree monomials whose supports are
    the given bitmasks, an antichain (facets, minimal nonfaces, edges or sets
    of one size) of distinct nonzero masks in range, stored unchecked.

    The masks are sorted straight into the canonical order of their
    exponent vectors: by size, then by the binary string read from x1 up,
    ascending (within a size, the reverse of ``complexes._facet_order``, and
    for the same reason no key depends on n); :func:`_mask_vectors` then
    converts them once."""
    order = sorted(masks, key=lambda m: bin(m)[:1:-1])
    order.sort(key=int.bit_count)
    return _stored_ideal(n, _mask_vectors(n, order), list(map(int.bit_count, order)))


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
    supports = list(map(_support_mask, ideal.exponents))
    if mode == "facet":
        return _antichain_complex(n, supports)
    if mode != "stanley-reisner":
        raise DomainError(f"unknown mode {mode!r}")
    full = (1 << n) - 1
    return _antichain_complex(n, [full ^ t for t in minimal_transversals(supports)])


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

    Each product is a sum of packed exponent vectors (:func:`_packing`, with
    the degree field) whose fields are wide enough for k times the largest
    exponent, so only distinct products are unpacked into exponent vectors,
    in the order of one sort of their ints.  More than ``MAX_POWER_FACTORS``
    factors over all products is a ResourceLimitError.
    """
    if type(k) is not int or k < 1:  # bool is rejected too
        raise DomainError(f"power exponent must be an integer >= 1, got {k!r}")
    if ideal.is_zero:
        return ideal
    exps = ideal.exponents
    count = math.comb(len(exps) + k - 1, k)
    if count * k > MAX_POWER_FACTORS:
        raise over_cap(
            f"power-{k} factors", count * k, "ideals.MAX_POWER_FACTORS", MAX_POWER_FACTORS
        )
    packed, stride, _ones, _guards = _packing(exps, k * max(map(max, exps)), degree=True)
    products = set(map(sum, itertools.combinations_with_replacement(packed, k)))
    return _ideal_from_packed(sorted(products), stride, ideal.num_vars)


def graded_component_ideal(ideal: MonomialIdeal, j: int) -> MonomialIdeal:
    """The ideal generated by the degree-j component of the given ideal.

    g times each monomial of degree j - deg g is a packed g plus packed unit
    vectors (:func:`_packing`, with the degree field), and each distinct sum
    is unpacked once, in the order of one sort of the ints."""
    if type(j) is not int:  # bool is rejected too
        raise DomainError(f"degree must be an integer, got {j!r}")
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
    below = [(g, e) for g, e in zip(ideal.exponents, extras) if e >= 0]
    top = max(max(g) + e for g, e in below)
    packed, stride, _ones, _guards = _packing([g for g, _ in below], top, degree=True)
    degree_one = 1 << n * stride
    units = [degree_one + (1 << s) for s in range(0, n * stride, stride)]
    sums = set()
    for p, (_, extra) in zip(packed, below):
        sums.update(map(p.__add__, map(sum, itertools.combinations_with_replacement(units, extra))))
    return _ideal_from_packed(sorted(sums), stride, n)


def restrict_ideal(ideal: MonomialIdeal, bound) -> MonomialIdeal:
    """Keep the generators whose exponent vector is componentwise <= bound:
    a sub-tuple of the minimal, canonical ``exponents`` is one itself."""
    a = listed("exponents", bound)
    if len(a) != ideal.num_vars or any(type(v) is not int or v < 0 for v in a):
        raise DomainError(
            f"bound must be a length-{ideal.num_vars} vector of nonnegative integers"
        )
    kept = [e for e in ideal.exponents if all(map(int.__le__, e, a))]
    return _stored_ideal(ideal.num_vars, kept, list(map(sum, kept)))


def skeleton_ideal_from_one_skeleton(i1: MonomialIdeal, ell: int, n: int) -> MonomialIdeal:
    """All squarefree degree-(ell+1) monomials divisible by a generator of i1.

    When i1 is the facet ideal of the complement of a flag complex's
    1-skeleton, this reproduces the facet ideal of the complement of its
    ell-skeleton without touching the complex itself.  Each generator's
    support is extended by every (ell - 1)-set of the other variables.
    """
    if type(ell) is not int or type(n) is not int:  # bool is rejected too
        raise DomainError(f"ell and n must be integers, got {ell!r} and {n!r}")
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
    bits = [1 << v for v in range(n)]
    masks = set()
    for gm in map(_support_mask, i1.exponents):
        rest = [b for b in bits if not b & gm]
        masks.update(map(gm.__add__, map(sum, itertools.combinations(rest, ell - 1))))
    return _squarefree_ideal(n, masks)


def linear_quotients_order(ideal: MonomialIdeal) -> list[Monomial] | None:
    """Search for an ordering of G(I) with linear quotients.

    Returns the lexicographically first valid ordering of the generator
    indices, or None when none works.  Whether a prefix can be extended
    depends only on the prefix as a set, so the depth-first search (with
    candidates in index order) memoizes failed sets.  More than
    ``MAX_SEARCH_NODES`` search nodes is a ResourceLimitError.

    One pass over the pairs fills two bitmask tables: ``by_var[i][v]``
    holds the j with x_v dividing g_j : g_i, and ``colon[i][v]`` the k with
    g_k : g_i = x_v.  Candidate i may follow the placed set when it lies in
    the OR of ``by_var[i][v]`` over the v with ``colon[i][v] & placed``.
    """
    if ideal.is_zero:
        raise DomainError("the zero ideal has no generators to order")
    exps = ideal.exponents
    t, n = len(exps), ideal.num_vars
    by_var = [[0] * n for _ in range(t)]
    colon = [[0] * n for _ in range(t)]
    for ei, above, linear in zip(exps, by_var, colon):
        for k, ek in enumerate(exps):
            bit = 1 << k
            excess = var = 0
            for v, (a, b) in enumerate(zip(ek, ei)):
                if a > b:
                    above[v] |= bit
                    excess += a - b
                    var = v
            if excess == 1:
                linear[var] |= bit
    everyone = (1 << t) - 1
    dead: set[int] = set()  # masks of remaining generators that cannot be ordered
    nodes = 0

    def extend(prefix: list[int], placed: int) -> bool:
        nonlocal nodes
        left = everyone ^ placed
        if not left:
            return True
        if left in dead:
            return False
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise over_cap(
                "linear-quotients search nodes", nodes, "ideals.MAX_SEARCH_NODES", MAX_SEARCH_NODES
            )
        for i in range(t):
            if not left >> i & 1 or left ^ 1 << i in dead:  # a dead rest costs no call
                continue
            certified = 0
            for above, linear in zip(by_var[i], colon[i]):
                if linear & placed:
                    certified |= above
            if placed & ~certified:
                continue
            prefix.append(i)
            if extend(prefix, placed | 1 << i):
                return True
            prefix.pop()
        dead.add(left)
        return False

    try:
        for first in range(t):
            prefix = [first]
            if extend(prefix, 1 << first):
                return [ideal.generators[i] for i in prefix]
        return None
    finally:
        del extend  # it refers to itself; this frees the memo now


def _value_columns(columns) -> list[dict[int, int]]:
    """For each column (one variable's exponents at the generator
    positions), a dict from each exponent c in it to the bit column of the
    positions j where it occurs (bit j for position j).

    A column of exponents below 256 is one ``bytes`` string; for each value
    c in it, ``bytes.translate`` writes ASCII 1s where the byte is c and 0s
    elsewhere, and ``int`` reads that reversed in base 2.  A column with an
    exponent of 256 or more is scanned in Python.
    """
    zeros = b"0" * 256
    tables = []
    for column in columns:
        table: dict[int, int] = {}
        try:
            data = bytes(column)
        except ValueError:  # an exponent of 256 or more
            for j, c in enumerate(column):
                table[c] = table.get(c, 0) | 1 << j
        else:
            for c in set(data):
                table[c] = int(data.translate(zeros[:c] + b"1" + zeros[c + 1 :])[::-1], 2)
        tables.append(table)
    return tables


def verify_linear_quotients(order: Sequence[Monomial | tuple[int, ...]]) -> bool:
    """Independent check of the linear-quotients condition on an ordering
    of monomials, each given as a :class:`Monomial` or as its exponent
    tuple (as ``MonomialIdeal.exponents`` holds them, taken as valid).

    For each g_i, the colon ideal (g_1, ..., g_{i-1}) : g_i must be
    generated by variables: every g_j : g_i (j < i) must be divisible by
    some g_k : g_i (k < i) that is a single variable.  It reads nothing from
    :func:`linear_quotients_order`.

    The scan works on bit columns over generator positions: for each
    variable v and each exponent c that occurs at v, one int holds the
    positions j with ``g_j[v] == c`` and one the positions with
    ``g_j[v] > c``, in dicts keyed by the exponents that occur; the ``== c``
    columns are built one variable at a time by :func:`_value_columns`.
    For g_i, the ``> g_i[v]`` column of each v, masked to the prefix j < i,
    holds the j where x_v divides g_j : g_i.  Two accumulators give the j
    that exceed g_i at exactly one variable; g_j : g_i is x_v exactly when j
    is one of them and lies in the ``== g_i[v] + 1`` column of v, which
    makes v a colon variable.  g_i fails iff some j < i lies in none of the
    ``> g_i[v]`` columns of the colon variables.  That is a constant number
    of int operations per generator and variable, each over the prefix.
    """
    exps = [getattr(m, "exponents", m) for m in listed("monomials", order)]
    try:  # items that are no vectors of integers: ints, or a string's characters
        if len(set(map(len, exps))) > 1:
            raise DomainError("monomials have mixed variable counts")
        columns = list(zip(*exps))
        values = _value_columns(columns)
    except TypeError:
        raise not_iterable("monomials", order) from None
    if len(exps) < 2:
        return True
    tables = []  # per variable: c -> (the > c column, the == c + 1 column)
    for at in values:
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
