"""Monomials, monomial ideals and the complex/ideal bridges.

Everything here is field-free: a monomial is an exponent vector, an
ideal is its unique minimal generating set, canonically ordered by
(degree, lexicographic on exponents).  The zero ideal is a first-class
value (empty generator list); the unit ideal is rejected everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .complexes import SimplicialComplex, face_mask
from .errors import DomainError, ResourceLimitError


@dataclass(frozen=True)
class Monomial:
    """A monomial in n variables, stored as its exponent vector."""

    exponents: tuple[int, ...]

    def __init__(self, exponents):
        exps = tuple(exponents)
        if not exps:
            raise DomainError("a monomial needs at least one variable")
        if any(not isinstance(e, int) or e < 0 for e in exps):
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
        mask = 0
        for i, e in enumerate(self.exponents):
            if e:
                mask |= 1 << i
        return mask

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
        if self.degree == 0:
            return "Monomial(1)"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "Monomial(" + "*".join(parts) + ")"


def _gen_sort_key(m: Monomial):
    return (m.degree, m.exponents)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, held as its minimal generating set G(I).

    The constructor insists that the given generators already form the
    minimal system (pairwise non-dividing); use :func:`minimalize` to
    reduce an arbitrary generating set first.  An empty generator list
    is the zero ideal.
    """

    num_vars: int
    generators: tuple[Monomial, ...]

    def __init__(self, num_vars: int, generators):
        if not isinstance(num_vars, int) or num_vars < 1:
            raise DomainError(f"num_vars must be a positive integer, got {num_vars!r}")
        gens = sorted(set(generators), key=_gen_sort_key)
        for g in gens:
            if g.num_vars != num_vars:
                raise DomainError(
                    f"generator {g} has {g.num_vars} variables, expected {num_vars}"
                )
            if g.degree == 0:
                raise DomainError("the unit ideal is not supported")
        for i, gi in enumerate(gens):
            for gj in gens[i + 1 :]:
                if gi.divides(gj) or gj.divides(gi):
                    raise DomainError(
                        f"generators are not minimal: {gi} and {gj} are comparable"
                    )
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "generators", tuple(gens))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.generators)

    @cached_property
    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.generators)

    def contains(self, m: Monomial) -> bool:
        """Ideal membership for a monomial."""
        return any(g.divides(m) for g in self.generators)

    def __repr__(self):
        if self.is_zero:
            return f"MonomialIdeal(0 in {self.num_vars} vars)"
        inner = ", ".join(repr(g)[len("Monomial(") : -1] for g in self.generators)
        return f"MonomialIdeal(({inner}) in {self.num_vars} vars)"


def minimalize(monomials) -> MonomialIdeal:
    """Reduce a nonempty list of monomials to the minimal generating set."""
    mons = list(monomials)
    if not mons:
        raise DomainError("minimalize needs at least one monomial")
    n = mons[0].num_vars
    if any(m.num_vars != n for m in mons):
        raise DomainError("monomials have mixed variable counts")
    # Only lower-degree monomials can strictly divide higher-degree ones.
    unique = sorted(set(mons), key=_gen_sort_key)
    kept: list[Monomial] = []
    for m in unique:
        if not any(k.divides(m) for k in kept):
            kept.append(m)
    return MonomialIdeal(n, kept)


def stanley_reisner_ideal(cx: SimplicialComplex) -> MonomialIdeal:
    """I_cx, generated by the monomials of the minimal nonfaces."""
    from .complexes import minimal_nonfaces

    nonfaces, _ = minimal_nonfaces(cx)
    if nonfaces and nonfaces[0] == ():
        raise DomainError("the void complex has no Stanley-Reisner ideal")
    gens = [Monomial.from_support(f, cx.n) for f in nonfaces]
    return MonomialIdeal(cx.n, gens)


def facet_ideal(cx: SimplicialComplex) -> MonomialIdeal:
    """I(cx), generated by the monomials of the facets."""
    if cx.is_void:
        raise DomainError("facet ideal requires at least one facet")
    gens = [Monomial.from_support(f, cx.n) for f in cx.facets]
    return MonomialIdeal(cx.n, gens)


def complex_from_ideal(ideal: MonomialIdeal, mode: str) -> SimplicialComplex:
    """Invert the two complex-to-ideal bridges.

    mode "stanley-reisner": the unique complex whose Stanley-Reisner
    ideal is the given squarefree ideal (faces are the subsets whose
    monomial lies outside the ideal).  mode "facet": the complex whose
    facets are the supports of the generators.
    """
    if not ideal.is_squarefree:
        raise DomainError("complex_from_ideal requires a squarefree ideal")
    n = ideal.num_vars
    if mode == "facet":
        return SimplicialComplex(n, [g.support for g in ideal.generators])
    if mode != "stanley-reisner":
        raise DomainError(f"unknown mode {mode!r}")
    if ideal.is_zero:
        return SimplicialComplex(n, [tuple(range(1, n + 1))])
    gen_masks = [g.support_mask for g in ideal.generators]
    faces = [
        combo
        for size in range(n + 1)
        for combo in itertools.combinations(range(1, n + 1), size)
        if not any(gm & face_mask(combo) == gm for gm in gen_masks)
    ]
    return SimplicialComplex.from_faces(n, faces)


def power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """Minimal generating set of the k-th power, k >= 1."""
    if k < 1:
        raise DomainError(f"power exponent must be >= 1, got {k}")
    if ideal.is_zero:
        return ideal
    products = set()
    for combo in itertools.combinations_with_replacement(ideal.generators, k):
        m = combo[0]
        for g in combo[1:]:
            m = m * g
        products.add(m)
    return minimalize(products)


def graded_component_ideal(
    ideal: MonomialIdeal, j: int, max_degree_above_min: int = 8
) -> MonomialIdeal:
    """The ideal generated by the degree-j component of the given ideal."""
    if ideal.is_zero:
        raise DomainError("graded component of the zero ideal")
    min_deg = min(ideal.generator_degrees)
    if j < min_deg:
        raise DomainError(f"degree {j} is below the minimal generator degree {min_deg}")
    if j > min_deg + max_degree_above_min:
        raise ResourceLimitError(
            f"degree {j} exceeds the cap min_degree + {max_degree_above_min}"
        )
    n = ideal.num_vars
    out = set()
    for g in ideal.generators:
        extra = j - g.degree
        if extra < 0:
            continue
        for combo in itertools.combinations_with_replacement(range(n), extra):
            exps = list(g.exponents)
            for i in combo:
                exps[i] += 1
            out.add(Monomial(exps))
    return minimalize(out)


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
    gen_masks = [g.support_mask for g in i1.generators]
    gens = [
        Monomial.from_support(combo, n)
        for combo in itertools.combinations(range(1, n + 1), ell + 1)
        if any(gm & face_mask(combo) == gm for gm in gen_masks)
    ]
    if not gens:
        return MonomialIdeal(n, [])
    return MonomialIdeal(n, gens)


def linear_quotients_order(
    ideal: MonomialIdeal, max_nodes: int | None = None
) -> list[Monomial] | None:
    """Search for an ordering of G(I) with linear quotients.

    Returns one valid ordering, or None when an exhaustive backtracking
    search proves that no ordering works.  Whether a prefix can be
    extended depends only on the prefix as a set, so failed prefix sets
    are memoized; greedy extension alone is not sound for None answers,
    hence the backtracking.  max_nodes caps the number of search nodes
    (default: unlimited for <= 12 generators, 500000 above).
    """
    if ideal.is_zero:
        raise DomainError("the zero ideal has no generators to order")
    gens = list(ideal.generators)
    t = len(gens)
    if t == 1:
        return gens
    if max_nodes is None:
        max_nodes = None if t <= 12 else 500_000

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
        if max_nodes is not None and nodes > max_nodes:
            raise ResourceLimitError(
                f"linear-quotients search exceeded {max_nodes} nodes"
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


def verify_linear_quotients(order: list[Monomial]) -> bool:
    """Independent check of the linear-quotients condition on an ordering."""
    for i in range(1, len(order)):
        fi = order[i]
        linear_vars = []
        for k in range(i):
            q = order[k].exponents
            deg = var = 0
            for idx, (a, b) in enumerate(zip(q, fi.exponents)):
                if a > b:
                    deg += a - b
                    var = idx
            if deg == 1:
                linear_vars.append(var)
        for j in range(i):
            ej = order[j].exponents
            if not any(ej[v] > fi.exponents[v] for v in linear_vars):
                return False
    return True
