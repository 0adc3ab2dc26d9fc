"""Bulk cross-check suites: every structural identity in the library is
re-verified on exhaustive small families and seeded random families.

A suite is a family plus a check.  The family is a lazy iterable that
yields exactly the instances: it holds every random draw and every skip
(the full simplex, a complex with no leaf order, a zero ideal, a failed
premise).  The check maps one instance to its failure witnesses, usually
none or one, by pitting two independently computed predicates against
each other (for example shellability of a complex versus linear
quotients of the dual ideal).  :func:`_run_family` runs the check on
every instance and writes the report, so each ``check_*`` function only
builds the two.  All randomness flows through a seeded ``random.Random``,
so reports are reproducible byte for byte.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
from functools import lru_cache, partial, reduce, wraps

from .complexes import (
    SimplicialComplex,
    alexander_dual,
    complement_complex,
    dimension_info,
    minimal_nonfaces,
    minimal_nonfaces_masks,
    pure_complement,
    skeleton,
    skeleton_complement,
)
from .errors import DomainError, ResourceLimitError, over_cap
from .graphs import (
    Graph,
    _is_peo,
    clique_complex,
    complement_graph,
    edge_ideal,
    higher_dirac_check,
    maximal_clique_masks,
    mcs_order,
)
from .homological import (
    MAX_SHELLING_FACETS,
    RATIONALS,
    FieldChoice,
    _betti_table,
    _characteristic,
    _shelling_search,
    betti_table,
    is_cohen_macaulay,
    shelling_order,
    squarefree_betti_masks,
    squarefree_projdim_masks,
    verify_shelling,
)
from .ideals import (
    Monomial,
    MonomialIdeal,
    facet_ideal,
    complex_from_ideal,
    linear_quotients_order,
    minimalize,
    power,
    restrict_ideal,
    skeleton_ideal_from_one_skeleton,
    stanley_reisner_ideal,
    verify_linear_quotients,
)
from .quasitrees import (
    _is_tree,
    facet_complement_generators,
    is_quasi_tree,
    leaf_order_masks,
    leaf_report,
    minor_certificates,
    reconstructs,
    relation_trees,
)
from .serialization import complex_to_json, ideal_to_json

MAX_RECORDED_FAILURES = 10

# Cap on the instances an exhaustive family may enumerate, checked against
# a closed-form count or bound before the first one is built.  At their
# suite defaults the capped families reach 2,238 (lemma-1.1, max_n 5),
# 33,867 (thm-3.3, max_n 6), 38,501 (lemma-2.1, max_n 5, max_facets 4)
# and 129,595 (cor-2.2, max_n 6, max_facets 4); one step up in max_n
# reaches 1.1 M, 2.1 M, 0.68 M and 0.77 M.  The complexes on [n] for
# n <= exhaustive_n number 7,768 at exhaustive_n 5 and 7.8 M at 6.
MAX_EXHAUSTIVE_INSTANCES = 250_000


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def iter_complexes_masks(n, max_facets=None, max_size=None):
    """All complexes on [n] as tuples of facet bitmasks (nonempty antichains
    of nonempty subsets of at most max_size vertices), in DFS order."""
    max_size = n if max_size is None else min(max_size, n)
    candidates = sorted(
        (m for m in range(1, 1 << n) if m.bit_count() <= max_size),
        key=lambda m: (m.bit_count(), m),
    )
    chosen: list[int] = []

    def rec(start):
        for idx in range(start, len(candidates)):
            m = candidates[idx]
            ok = True
            for c in chosen:
                inter = c & m
                if inter == c or inter == m:
                    ok = False
                    break
            if not ok:
                continue
            chosen.append(m)
            yield tuple(chosen)
            if max_facets is None or len(chosen) < max_facets:
                yield from rec(idx + 1)
            chosen.pop()

    try:
        yield from rec(0)
    finally:
        del rec  # it refers to itself; this frees the search now


def _check_family(sizes, knob: str) -> None:
    """Sum the family sizes until they pass MAX_EXHAUSTIVE_INSTANCES, which
    is a ResourceLimitError naming `knob`; stopping there keeps every
    term small even for a huge budget."""
    total = 0
    for size in sizes:
        total += size
        if total > MAX_EXHAUSTIVE_INSTANCES:
            raise over_cap(
                "instances counted", total, "verification.MAX_EXHAUSTIVE_INSTANCES",
                MAX_EXHAUSTIVE_INSTANCES, f"lower {knob}",
            )


def _small_complexes(max_n):
    """Every complex on [n] for n = 1..max_n, in enumeration order."""
    for n in range(1, max_n + 1):
        for masks in iter_complexes_masks(n):
            yield SimplicialComplex.from_masks(n, masks)


# The number of complexes on [n] for n = 1..6: nonempty antichains of
# nonempty subsets, the Dedekind numbers D(n) - 2 (OEIS A000372).  Through
# n = 6 they already pass MAX_EXHAUSTIVE_INSTANCES, so no larger n is needed.
_COMPLEX_COUNTS = (1, 4, 18, 166, 7_579, 7_828_352)


# Cap on the vertex count that a sampled family draws from max_n: a random
# instance is built in time and memory polynomial in n, but of high degree
# (thm-1.4c lists all C(n, d) candidate facets), and the suite defaults
# draw at most 10 vertices.
MAX_SAMPLED_VERTICES = 24


def _check_range(lo: int, hi: int, budget: str = "max_n"):
    """An empty range lo..hi is a DomainError naming the budget that emptied
    it; a max_n above MAX_SAMPLED_VERTICES is a ResourceLimitError."""
    if hi < lo:
        raise DomainError(f"{budget} is too small for this suite: it must be at least {lo}")
    if budget == "max_n" and hi > MAX_SAMPLED_VERTICES:
        raise over_cap(
            budget, hi, "verification.MAX_SAMPLED_VERTICES", MAX_SAMPLED_VERTICES, "lower --max-n"
        )


def _sampled(seed: int, samples: int, lo: int, hi: int, draw):
    """The lazy family ``draw(rng, rng.randint(lo, hi))``, ``samples`` times,
    with ``rng = random.Random(seed)``.

    The range is checked now, so a budget that cannot be sampled fails
    before an exhaustive prefix chained in front of the family is run.
    """
    if samples > 0:
        _check_range(lo, hi)
    rng = random.Random(seed)
    return (draw(rng, rng.randint(lo, hi)) for _ in range(samples))


def random_complex(rng: random.Random, n: int, max_facets: int = 6):
    """A complex built from random faces, minimalized."""
    faces = [
        rng.sample(range(1, n + 1), rng.randint(1, n))
        for _ in range(rng.randint(1, max_facets))
    ]
    return SimplicialComplex.from_faces(n, faces)


def random_pure_complex(rng: random.Random, n: int, d: int, count: int):
    """A pure complex with `count` distinct facets of size d."""
    pool = list(itertools.combinations(range(1, n + 1), d))
    if count > len(pool):
        raise DomainError(f"cannot pick {count} distinct {d}-subsets of [{n}]")
    return SimplicialComplex(n, rng.sample(pool, count))


def _random_pure(rng: random.Random, n: int, max_count: int) -> SimplicialComplex:
    """A pure complex of 1 to max_count random facets of one random size 2..4."""
    d = rng.randint(2, min(4, n))
    return random_pure_complex(rng, n, d, rng.randint(1, min(max_count, math.comb(n, d))))


def random_quasi_tree(rng: random.Random, n: int, max_facets: int = 6):
    """Grow a quasi-tree from a first facet of 2 to 4 vertices by leaf attachment.

    Each new facet is S | T with S a proper subset of an existing facet G
    and T a nonempty set of fresh vertices, which makes it a leaf (its
    intersection with every older facet is contained in S = G & new) and
    keeps the facets an antichain.  The construction order is therefore
    itself a leaf order.
    """
    size = rng.randint(2, min(4, n))
    facets = [sorted(rng.sample(range(1, n + 1), size))]
    used = set(facets[0])
    while len(facets) < max_facets:
        unused = [v for v in range(1, n + 1) if v not in used]
        if not unused or rng.random() < 0.2:
            break
        g = rng.choice(facets)
        stick = rng.sample(g, rng.randint(0, len(g) - 1))
        fresh = rng.sample(unused, rng.randint(1, min(2, len(unused))))
        new = sorted(set(stick) | set(fresh))
        facets.append(new)
        used.update(new)
    return SimplicialComplex(n, facets)


def random_graph(rng: random.Random, n: int) -> Graph:
    """A graph on [n] whose edges are each kept with one random probability."""
    p = rng.random()
    edges = [
        e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p
    ]
    return Graph(n, edges)


def _coded_graphs(n: int, codes):
    """(n, adjacency masks) for each code: the graph on [n] whose edges are
    the vertex pairs, in lexicographic order, at the set bits of the code.
    Each pair's vertices and bits are listed once for all codes."""
    pairs = [(a, 1 << a, b, 1 << b) for a, b in itertools.combinations(range(n), 2)]
    for code in codes:
        adj = [0] * n
        while code:
            low = code & -code
            a, bit_a, b, bit_b = pairs[low.bit_length() - 1]
            adj[a] |= bit_b
            adj[b] |= bit_a
            code ^= low
        yield n, tuple(adj)


def random_chordal_graph(rng: random.Random, n: int) -> Graph:
    """Build a chordal graph by attaching each new vertex to a clique."""
    edges = []
    cliques = [[1]]
    for v in range(2, n + 1):
        base = rng.choice(cliques)
        attach = rng.sample(base, rng.randint(0, len(base)))
        edges.extend((u, v) for u in attach)
        cliques.append(attach + [v])
    return Graph(n, edges)


def random_monomial_ideal(rng: random.Random, n: int, degree: int, count: int) -> MonomialIdeal:
    """A random ideal in a single degree, exponents at most 2 (duplicates dropped)."""
    max_exp = 2
    if degree > n * max_exp:
        raise DomainError(f"degree {degree} exceeds n * max_exp = {n} * {max_exp}")
    gens = set()
    for _ in range(count):
        exps = [0] * n
        for _ in range(degree):
            while True:
                i = rng.randrange(n)
                if exps[i] < max_exp:
                    exps[i] += 1
                    break
        gens.add(Monomial(exps))
    return minimalize(gens)


# ---------------------------------------------------------------------------
# families and the runner
# ---------------------------------------------------------------------------


def _is_proper(cx: SimplicialComplex) -> bool:
    """Not the full simplex, whose dual is void and whose complement is undefined."""
    return cx.facet_masks[-1] != (1 << cx.n) - 1


def _complexes(
    seed, exhaustive_n, samples, lo, hi, draw=partial(random_complex, max_facets=8), keep=_is_proper
):
    """The complexes that pass ``keep`` (by default all but the full
    simplex): every complex on [n] for n <= exhaustive_n, then
    :func:`_sampled` ones on lo..hi vertices (by default random complexes
    of at most 8 faces).

    Both budgets are checked before the first complex is built: the
    sampled range, then the exhaustive family against
    MAX_EXHAUSTIVE_INSTANCES.
    """
    sampled = _sampled(seed, samples, lo, hi, draw)
    _check_family(_COMPLEX_COUNTS[: max(exhaustive_n, 0)], "exhaustive_n")
    return filter(keep, itertools.chain(_small_complexes(exhaustive_n), sampled))


def _antichains(max_n: int, max_facets: int, max_size):
    """(n, masks) for every complex on [n], 2 <= n <= max_n, with 2 to
    max_facets facets of at most max_size(n) vertices, after a bound on
    the family's size is checked and each budget is checked to leave the
    family nonempty."""

    def bound(n):
        """Sum_{r <= max_facets} C(c, r) over the c candidate faces on [n]."""
        c = sum(math.comb(n, k) for k in range(1, min(max_size(n), n) + 1))
        return sum(math.comb(c, r) for r in range(1, min(max(max_facets, 1), c) + 1))

    _check_family(map(bound, range(2, max_n + 1)), "--max-n or --max-facets")
    # with two vertices, two facets and facets of one vertex (max_size(2) is
    # at least 1 for every caller) the family is not empty: {1} and {2}
    _check_range(2, max_n)
    _check_range(2, max_facets, "max_facets")
    return (
        (n, masks)
        for n in range(2, max_n + 1)
        for masks in iter_complexes_masks(n, max_facets=max_facets, max_size=max_size(n))
        if len(masks) >= 2
    )


def _skeleton_ideals(complexes, min_ell: int = 1, nonzero: bool = True):
    """(sigma, ell, ideal) for each complex sigma and each ell from min_ell
    to dim sigma, where ideal is the facet ideal of the ell-skeleton
    complement; zero ideals are left out unless ``nonzero`` is False."""
    for sigma in complexes:
        dim, _pure = dimension_info(sigma)
        for ell in range(min_ell, dim + 1):
            ideal = _complement_ideal(sigma, ell)
            if not (nonzero and ideal.is_zero):
                yield sigma, ell, ideal


def _run_family(suite: str, family, check, **notes) -> dict:
    """The report of ``check`` run on every instance of ``family``.

    ``check`` yields the failure witnesses of one instance; the report
    keeps the first MAX_RECORDED_FAILURES of them and counts them all.
    """
    instances = 0
    failures = []
    for item in family:
        instances += 1
        failures.extend(check(item))
    return {
        "suite": suite,
        "passed": not failures,
        "instances": instances,
        "failures": failures[:MAX_RECORDED_FAILURES],
        "failure_count": len(failures),
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def has_linear_resolution(ideal: MonomialIdeal, field: FieldChoice = RATIONALS) -> bool:
    """Decide whether I has a linear resolution over the chosen field.

    Mixed degrees never have one.  An equigenerated ideal with linear
    quotients has one over every field (Herzog-Takayama, "Resolutions by
    mapping cones", 2002), so the canonical and reversed orders and then
    the search are tried as certificates.  Only when none is found does
    the Betti table over the field decide, capped only at its lcm lattice
    (``homological.MAX_LCMS``), so a False answer is exact.
    """
    p = _characteristic(field)
    if ideal.is_zero:
        raise DomainError("the zero ideal has no resolution to classify")
    degrees = set(ideal.generator_degrees)
    if len(degrees) > 1:
        return False
    gens = ideal.exponents
    # The reversed order alone certifies 24 of the 1,197 ideals of three
    # passes over the `powers` benchmark corpus; running the search on those
    # instead halves that workload's throughput.
    for candidate in (gens, gens[::-1]):
        if verify_linear_quotients(candidate):
            return True
    try:
        if linear_quotients_order(ideal) is not None:
            return True
    except ResourceLimitError:
        pass
    return _betti_table(ideal, p).is_linear(next(iter(degrees)))


def _complement_ideal(cx: SimplicialComplex, ell: int) -> MonomialIdeal:
    """The facet ideal of the ell-skeleton complement of cx; zero if it is void."""
    bar = skeleton_complement(cx, ell)
    return MonomialIdeal(cx.n, []) if bar.is_void else facet_ideal(bar)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

# Each suite with the budgets that keep `verify all` interactive; a suite
# run on its own starts from its keyword defaults instead.
SUITES: dict = {}


def _check_types(given: dict, defaults: dict) -> None:
    """A seed or budget whose type is not that of its parameter's default
    (an int, a FieldChoice, a list of SimplicialComplex for ``complexes``),
    or a negative budget other than the seed, is a DomainError that names it."""
    for key, value in given.items():
        default = defaults.get(key, 0)  # a seed that no suite in the run takes
        kind, ok = "an integer", type(value) is int  # bool is rejected too
        if isinstance(default, FieldChoice):
            kind, ok = "a FieldChoice", isinstance(value, FieldChoice)
        elif default is None:  # complexes, the one budget that defaults to None
            kind = "a list of SimplicialComplex"
            ok = isinstance(value, list) and all(isinstance(c, SimplicialComplex) for c in value)
        if not ok:
            raise DomainError(f"budget {key} must be {kind}, got {value!r}")
        if type(value) is int and value < 0 and key != "seed":
            raise DomainError(f"budget {key} must not be negative")


def _suite(name: str, **quick):
    """Register a ``check_*`` function in SUITES under `name` with its quick
    budgets, and apply :func:`_check_types` to every call, also a direct
    one, against its defaults, read here once and kept as ``defaults``."""

    def register(fn):
        defaults = {key: par.default for key, par in inspect.signature(fn).parameters.items()}

        @wraps(fn)
        def checked(*args, **budgets):
            _check_types({**dict(zip(defaults, args)), **budgets}, defaults)
            return fn(*args, **budgets)

        checked.defaults = defaults
        SUITES[name] = (checked, quick)
        return checked

    return register


@_suite("lemma-1.1", max_n=4)
def check_pure_complement_skeleton(max_n: int = 5):
    """For pure (d-1)-dimensional complexes, the complement within the
    d-subsets equals the (d-1)-skeleton of the complex whose
    Stanley-Reisner ideal is the facet ideal."""
    _check_family(
        (2 ** math.comb(n, d) for n in range(1, max_n + 1) for d in range(1, n + 1)),
        "--max-n",
    )
    _check_range(1, max_n)
    family = (
        SimplicialComplex(n, facets)
        for n in range(1, max_n + 1)
        for d in range(1, n + 1)
        for r in range(1, math.comb(n, d) + 1)
        for facets in itertools.combinations(itertools.combinations(range(1, n + 1), d), r)
    )

    def check(cx):
        d = len(cx.facets[0])
        bar = pure_complement(cx)
        gamma = complex_from_ideal(facet_ideal(cx), "stanley-reisner")
        if gamma.is_void or dimension_info(gamma)[0] < d - 1:
            got = SimplicialComplex(cx.n, [])
        else:
            got = skeleton(gamma, d - 1)
        if got != bar:
            yield complex_to_json(cx)

    return _run_family("lemma-1.1", family, check, max_n=max_n)


@_suite("lemma-1.2", exhaustive_n=4, samples=300)
def check_dual_ideal_identity(
    seed: int = 0, exhaustive_n: int = 5, samples: int = 10_000, max_n: int = 10
):
    """Stanley-Reisner ideal of the Alexander dual == facet ideal of the
    facet-complement complex."""

    def check(cx):
        if stanley_reisner_ideal(alexander_dual(cx)) != facet_ideal(complement_complex(cx)):
            yield complex_to_json(cx)

    family = _complexes(seed, exhaustive_n, samples, 2, max_n)
    return _run_family("lemma-1.2", family, check, exhaustive_n=exhaustive_n, samples=samples)


@_suite("prop-1.3", samples=40)
def check_skeleton_ideal_duality(seed: int = 0, samples: int = 150, max_n: int = 8):
    """For a flag complex, the dual of the complex attached to the
    ell-skeleton complement ideal is a skeleton of the dual attached to
    the 1-skeleton complement ideal."""
    # A flag complex whose 1-skeleton complement ideal is zero is the full
    # simplex, so all its ell-skeleton complement ideals are zero as well.
    sigmas = _sampled(seed, samples, 4, max_n, lambda rng, n: clique_complex(random_graph(rng, n)))

    @lru_cache(maxsize=1)  # the instances of one complex come in a row
    def dual_prime(sigma):
        i1 = _complement_ideal(sigma, 1)
        return alexander_dual(complex_from_ideal(i1, "stanley-reisner"))

    def check(item):
        sigma, ell, ideal = item
        got = alexander_dual(complex_from_ideal(ideal, "stanley-reisner"))
        if got != skeleton(dual_prime(sigma), sigma.n - ell - 2):
            yield {"complex": complex_to_json(sigma), "ell": ell}

    return _run_family("prop-1.3", _skeleton_ideals(sigmas), check, samples=samples, max_n=max_n)


@_suite("thm-1.4a", exhaustive_n=3, samples=60)
def check_cm_vs_linear_resolution(
    seed: int = 0,
    exhaustive_n: int = 4,
    samples: int = 200,
    max_n: int = 6,
    field: FieldChoice = RATIONALS,
):
    """Cohen-Macaulayness of the complex == linear resolution of the
    facet ideal of the complement complex (the dual Stanley-Reisner
    ideal)."""

    def check(cx):
        cm = is_cohen_macaulay(cx, field)
        if cm != has_linear_resolution(facet_ideal(complement_complex(cx)), field):
            yield complex_to_json(cx)

    family = _complexes(seed, exhaustive_n, samples, exhaustive_n + 1, max_n)
    return _run_family(
        "thm-1.4a", family, check, exhaustive_n=exhaustive_n, samples=samples, field=repr(field)
    )


# The fewest vertices of a thm-1.4b sample.
_DUALITY_MIN_SAMPLE_N = 7


@_suite("thm-1.4b", exhaustive_n=4, samples=30)
def check_projdim_regularity_duality(
    seed: int = 0,
    exhaustive_n: int = 5,
    samples: int = 150,
    max_n: int = 8,
    field: FieldChoice = RATIONALS,
):
    """projdim of the face ring (projdim of the nonface ideal + 1) equals
    the regularity of the Stanley-Reisner ideal of the Alexander dual.

    Both ideals are recomputed from scratch at the bitmask level: the
    dual's generators come from the dual's own minimal nonfaces, not
    from the facet-complement identity, so the two sides stay
    independent.
    """
    p = field.p

    def check(cx):
        n, full = cx.n, (1 << cx.n) - 1
        nonfaces = minimal_nonfaces_masks(list(cx.facet_masks), n)
        pd = squarefree_projdim_masks(nonfaces, p)
        dual_facets = [full ^ m for m in nonfaces]
        dual_nonfaces = minimal_nonfaces_masks(dual_facets, n)
        dual_betti = squarefree_betti_masks(dual_nonfaces, p)
        reg = max(b.bit_count() - i for i, b in dual_betti)
        if pd + 1 != reg:
            yield complex_to_json(cx)

    family = _complexes(seed, exhaustive_n, samples, _DUALITY_MIN_SAMPLE_N, max_n)
    return _run_family(
        "thm-1.4b", family, check, exhaustive_n=exhaustive_n, samples=samples, field=repr(field)
    )


@_suite("thm-1.4c", samples=120)
def check_shellable_vs_linear_quotients(
    seed: int = 0, samples: int = 400, max_n: int = 8, max_facets: int = 8
):
    """Shellability of a pure complex == linear quotients of the facet
    ideal of the complement complex; additionally every skeleton of a
    shellable complex must be shellable."""

    def draw(rng, n):
        d = rng.randint(2, min(4, n - 1))
        count = rng.randint(2, min(max_facets, math.comb(n, d)))
        return random_pure_complex(rng, n, d, count)

    shellable = 0

    def check(cx):
        nonlocal shellable
        order = shelling_order(cx)
        if order is not None and not verify_shelling(cx, order):
            yield {"bad_shelling": complex_to_json(cx), "order": order}
            return
        lq = linear_quotients_order(facet_ideal(complement_complex(cx)))
        if lq is not None and not verify_linear_quotients(lq):
            yield {"bad_quotients": complex_to_json(cx)}
            return
        if (order is not None) != (lq is not None):
            yield complex_to_json(cx)
            return
        if order is not None:
            shellable += 1
            for i in range(dimension_info(cx)[0]):
                if _shelling_search(skeleton(cx, i).facet_masks) is None:
                    yield {"complex": complex_to_json(cx), "skeleton": i}

    family = _sampled(seed, samples, 3, max_n, draw)
    if samples > 0:  # C(n, d) >= 3 for 2 <= d < n, so only max_facets can empty the range
        _check_range(2, max_facets, "max_facets")
        # C(n, d) peaks at n = max_n, d = min(4, max_n // 2): past the cap a
        # draw could only fail in shelling_order, so refuse before the first.
        if min(max_facets, math.comb(max_n, min(4, max_n // 2))) > MAX_SHELLING_FACETS:
            cap = "homological.MAX_SHELLING_FACETS"
            raise over_cap("max_facets", max_facets, cap, MAX_SHELLING_FACETS, "lower --max-facets")
    report = _run_family("thm-1.4c", family, check, samples=samples)
    report["notes"].update(shellable=shellable, not_shellable=report["instances"] - shellable)
    return report


@_suite("cor-1.5", samples=25)
def check_skeleton_ideal_linear_quotients(seed: int = 0, samples: int = 60, max_n: int = 8):
    """If the 1-skeleton complement ideal of a flag complex has linear
    quotients, so do all higher skeleton complement ideals."""

    def premise(sigma):
        if dimension_info(sigma)[0] < 2:
            return False
        i1 = _complement_ideal(sigma, 1)
        return not i1.is_zero and linear_quotients_order(i1) is not None

    def check(item):
        sigma, ell, ideal = item
        if linear_quotients_order(ideal) is None:
            yield {"complex": complex_to_json(sigma), "ell": ell}

    sigmas = _sampled(
        seed, samples, 4, max_n, lambda rng, n: clique_complex(random_chordal_graph(rng, n))
    )
    family = _skeleton_ideals(filter(premise, sigmas), min_ell=2)
    return _run_family("cor-1.5", family, check, samples=samples)


@_suite("lemma-1.6", samples=50)
def check_skeleton_shellability(seed: int = 0, samples: int = 150, max_n: int = 8):
    """Every skeleton of a shellable pure complex is shellable."""
    family = (
        (cx, i)
        for cx in _sampled(seed, samples, 3, max_n, partial(_random_pure, max_count=7))
        if shelling_order(cx) is not None
        for i in range(dimension_info(cx)[0])
    )

    def check(item):
        cx, i = item
        if _shelling_search(skeleton(cx, i).facet_masks) is None:
            yield {"complex": complex_to_json(cx), "skeleton": i}

    return _run_family("lemma-1.6", family, check, samples=samples)


@_suite("lemma-2.1", max_n=4)
def check_relation_tree_determinants(max_n: int = 5, max_facets: int = 4):
    """A complex admits a leaf order iff some spanning tree of its facets
    passes the determinant certificate; moreover the trees that pass are
    exactly the relation trees, and each reconstructs the generators.

    The family is restricted to complexes whose facets cover [n]: with
    an uncovered vertex the facet-complement generators share a common
    factor that no matrix minor can reproduce, so the determinant
    identity is stated for covering complexes only.
    """
    family = (
        (n, masks)
        for n, masks in _antichains(max_n, max_facets, lambda n: n)
        if reduce(int.__or__, masks) == (1 << n) - 1
    )

    def check(item):
        n, masks = item
        t = len(masks)
        cx = SimplicialComplex.from_masks(n, masks)
        all_edges = list(itertools.combinations(range(t), 2))
        spanning = [
            tree for tree in itertools.combinations(all_edges, t - 1) if _is_tree(t, tree)
        ]
        passing = {
            tree for tree, ok in zip(spanning, minor_certificates(cx, spanning)) if ok
        }
        is_qt = leaf_order_masks(list(masks)) is not None
        if is_qt != bool(passing):
            yield complex_to_json(cx)
            return
        if not is_qt:
            return
        trees = relation_trees(cx, limit=1000)
        if {tuple(sorted(tr.edges)) for tr in trees} != passing:
            yield {"complex": complex_to_json(cx), "mismatch": "tree sets"}
            return
        gens = facet_complement_generators(cx)
        for tr, ok in zip(trees, reconstructs(trees, gens)):
            if not ok:
                yield {"complex": complex_to_json(cx), "tree": [list(e) for e in tr.edges]}
                return

    return _run_family("lemma-2.1", family, check, max_n=max_n, max_facets=max_facets)


# The most vertices of a cor-2.2 facet.
_QUASI_TREE_FACET_SIZE = 3


@_suite("cor-2.2", max_n=5)
def check_quasi_tree_projdim(max_n: int = 6, max_facets: int = 4, field: FieldChoice = RATIONALS):
    """Leaf order exists iff the facet ideal of the complement complex
    has projective dimension 1 (complexes with >= 2 facets; a single
    facet gives a principal ideal of projective dimension 0)."""
    p = field.p

    def check(item):
        n, masks = item
        is_qt = leaf_order_masks(list(masks)) is not None
        pd = squarefree_projdim_masks([((1 << n) - 1) ^ m for m in masks], p)
        if is_qt != (pd == 1):
            yield complex_to_json(SimplicialComplex.from_masks(n, masks))

    family = _antichains(max_n, max_facets, lambda n: min(_QUASI_TREE_FACET_SIZE, n - 1))
    return _run_family(
        "cor-2.2",
        family,
        check,
        max_n=max_n,
        max_facets=max_facets,
        max_size=_QUASI_TREE_FACET_SIZE,
        field=repr(field),
    )


@_suite("lemma-3.2", exhaustive_n=3, samples=100)
def check_quasi_trees_are_flag(seed: int = 0, exhaustive_n: int = 4, samples: int = 300):
    """Complexes with a leaf order have only 2-element minimal nonfaces."""

    def check(cx):
        _nf, is_flag = minimal_nonfaces(cx)
        if not is_flag:
            yield complex_to_json(cx)

    family = _complexes(seed, exhaustive_n, samples, 3, 9, random_quasi_tree, is_quasi_tree)
    return _run_family("lemma-3.2", family, check, exhaustive_n=exhaustive_n, samples=samples)


# The vertex count of thm-3.3's random and constructively-chordal samples.
_SAMPLE_N = 7


@_suite("thm-3.3", max_n=5, samples=2000, chordal_samples=200)
def check_chordal_quasi_tree(
    seed: int = 0, max_n: int = 6, samples: int = 100_000, chordal_samples: int = 2_000
):
    """A graph is chordal iff its maximal-clique complex has a leaf order:
    exhaustive over all graphs on up to max_n vertices, plus seeded
    random and constructively-chordal samples at _SAMPLE_N vertices."""
    _check_family((2 ** math.comb(n, 2) for n in range(1, max_n + 1)), "--max-n")
    rng, bits = random.Random(seed), math.comb(_SAMPLE_N, 2)
    chordal_graphs = (random_chordal_graph(rng, _SAMPLE_N) for _ in range(chordal_samples))
    family = itertools.chain(
        *(_coded_graphs(n, range(1 << math.comb(n, 2))) for n in range(1, max_n + 1)),
        _coded_graphs(_SAMPLE_N, (rng.getrandbits(bits) for _ in range(samples))),
        ((g.n, g.adjacency) for g in chordal_graphs),
    )

    def check(item):
        n, adj = item
        cliques = maximal_clique_masks(adj)
        if _is_peo(adj, mcs_order(adj)) != (leaf_order_masks(cliques) is not None):
            pairs = itertools.combinations(range(n), 2)
            yield {"n": n, "edges": [[a + 1, b + 1] for a, b in pairs if adj[a] >> b & 1]}

    return _run_family(
        "thm-3.3",
        family,
        check,
        max_n=max_n,
        samples=samples,
        sample_n=_SAMPLE_N,
        chordal_samples=chordal_samples,
    )


@_suite("cor-3.5", exhaustive_n=3, samples=100)
def check_leaf_removal_closure(seed: int = 0, exhaustive_n: int = 4, samples: int = 300):
    """Removing any leaf from a quasi-tree leaves a quasi-tree."""
    family = (
        (cx, f)
        for cx in _complexes(seed, exhaustive_n, samples, 3, 9, random_quasi_tree, is_quasi_tree)
        if len(cx.facets) >= 2
        for f in range(len(cx.facets))
        if leaf_report(cx, f).is_leaf
    )

    def check(item):
        cx, f = item
        rest = [g for i, g in enumerate(cx.facets) if i != f]
        if not is_quasi_tree(SimplicialComplex(cx.n, rest)):
            yield {"complex": complex_to_json(cx), "removed": f}

    return _run_family("cor-3.5", family, check, exhaustive_n=exhaustive_n, samples=samples)


@_suite("thm-3.6", samples=100)
def check_pure_skeleton_recognition(seed: int = 0, samples: int = 400, max_n: int = 8):
    """Both sides of the skeleton-of-a-quasi-tree recognition agree on
    pure complexes: quasi-tree side versus chordal-1-skeleton side."""

    def draw(rng, n):
        if rng.random() < 0.5:
            qt = random_quasi_tree(rng, n)
            return skeleton(qt, rng.randint(0, dimension_info(qt)[0]))
        return _random_pure(rng, n, 8)

    def check(cx):
        if not higher_dirac_check(cx).holds:
            yield complex_to_json(cx)

    family = _sampled(seed, samples, 3, max_n, draw)
    return _run_family("thm-3.6", family, check, samples=samples, max_n=max_n)


@_suite("thm-4.1", samples=30)
def check_skeleton_complement_linear_quotients(seed: int = 0, samples: int = 100, max_n: int = 8):
    """For every quasi-tree and every skeleton level, the facet ideal of
    the skeleton complement has linear quotients."""

    def check(item):
        qt, ell, ideal = item
        order = linear_quotients_order(ideal)
        if order is None or not verify_linear_quotients(order):
            yield {"complex": complex_to_json(qt), "ell": ell}

    family = _skeleton_ideals(_sampled(seed, samples, 3, max_n, random_quasi_tree))
    return _run_family("thm-4.1", family, check, samples=samples, max_n=max_n)


@_suite("lemma-4.2", samples=50)
def check_skeleton_ideal_from_edges(seed: int = 0, samples: int = 200, max_n: int = 8):
    """For flag complexes the skeleton complement ideal is reproducible
    from the 1-skeleton complement ideal alone."""

    def draw(rng, n):
        if rng.random() < 0.5:
            return clique_complex(random_graph(rng, n))
        return random_quasi_tree(rng, n)

    def check(item):
        sigma, ell, ideal = item
        i1 = _complement_ideal(sigma, 1)
        if skeleton_ideal_from_one_skeleton(i1, ell, sigma.n) != ideal:
            yield {"complex": complex_to_json(sigma), "ell": ell}

    sigmas = _sampled(seed, samples, 4, max_n, draw)
    family = _skeleton_ideals(sigmas, min_ell=2, nonzero=False)
    return _run_family("lemma-4.2", family, check, samples=samples, max_n=max_n)


# lemma-4.3 restricts each ideal it finds to this many random bounds, and
# draws at most _RESTRICTION_ATTEMPTS ideals in all.
_BOUNDS_PER_IDEAL = 3
_RESTRICTION_ATTEMPTS = 5_000


@_suite("lemma-4.3", ideals=20)
def check_restriction_resolution(
    seed: int = 0, ideals: int = 100, max_n: int = 8, field: FieldChoice = RATIONALS
):
    """Restricting a linear-resolution ideal to the generators below a
    bound keeps the resolution linear; moreover its Betti table is
    exactly the sub-table of multidegrees below the bound."""
    if ideals > 0:
        _check_range(4, max_n)  # the lower bound of the edge-ideal draws
    rng = random.Random(seed)
    found = 0

    def family():
        """(ideal, its Betti table, bound) for _BOUNDS_PER_IDEAL random bounds
        below each random ideal that has a linear resolution, until ideals
        of them are found or _RESTRICTION_ATTEMPTS ideals are drawn."""
        nonlocal found
        for _ in range(_RESTRICTION_ATTEMPTS):
            if found >= ideals:
                return
            kind = rng.randrange(3)
            if kind == 0:
                n = rng.randint(4, max_n)
                ideal = edge_ideal(complement_graph(random_chordal_graph(rng, n)))
            elif kind == 1:
                n = rng.randint(3, 6)
                ideal = random_monomial_ideal(rng, n, rng.randint(2, 3), rng.randint(2, 8))
            else:
                n = rng.randint(3, max_n)
                qt = random_quasi_tree(rng, n, max_facets=4)
                dim, _pure = dimension_info(qt)
                ideal = _complement_ideal(qt, rng.randint(1, dim))
            # only the edge and skeleton ideals can be zero or have over 8 generators
            if ideal.is_zero or len(ideal.exponents) > 8:
                continue
            degrees = set(ideal.generator_degrees)
            if len(degrees) != 1:
                continue
            table = betti_table(ideal, field)
            if not table.is_linear(next(iter(degrees))):
                continue
            found += 1
            caps = list(map(max, zip(*ideal.exponents)))
            for _ in range(_BOUNDS_PER_IDEAL):
                yield ideal, table, tuple(rng.randint(0, c) for c in caps)

    def check(item):
        ideal, table, a = item
        sub = restrict_ideal(ideal, a)
        expected = {
            key: r
            for key, r in table.entries
            if all(bi <= ai for bi, ai in zip(key[1], a))
        }
        if sub.is_zero:
            ok = not expected
        else:
            ok = betti_table(sub, field).as_dict() == expected and has_linear_resolution(sub, field)
        if not ok:
            yield {"ideal": ideal_to_json(ideal), "bound": list(a)}

    report = _run_family(
        "lemma-4.3", family(), check, bounds_per_ideal=_BOUNDS_PER_IDEAL, field=repr(field)
    )
    report["notes"]["linear_ideals"] = found
    return report


@_suite("thm-4.4", samples=5, max_n=6)
def check_power_linear_resolutions(
    seed: int = 0,
    samples: int = 20,
    max_n: int = 7,
    max_power: int = 3,
    complexes=None,
    field: FieldChoice = RATIONALS,
):
    """All powers of a skeleton-complement facet ideal of a quasi-tree
    have linear resolutions (checked for exponents 1..max_power)."""
    _check_range(1, max_power, "max_power")
    explicit = list(complexes) if complexes else []
    sampled = _sampled(seed, samples, 3, max_n, random_quasi_tree)
    # the sampled complexes are quasi-trees by construction
    if not all(map(is_quasi_tree, explicit)):
        raise DomainError("the power suite needs quasi-tree inputs")

    def check(item):
        qt, ell, ideal, k = item
        if not has_linear_resolution(power(ideal, k), field):
            yield {"complex": complex_to_json(qt), "ell": ell, "power": k}

    family = (
        (qt, ell, ideal, k)
        for qt, ell, ideal in _skeleton_ideals(itertools.chain(explicit, sampled))
        for k in range(1, max_power + 1)
    )
    return _run_family(
        "thm-4.4",
        family,
        check,
        samples=samples,
        max_power=max_power,
        explicit_complexes=len(explicit),
        field=repr(field),
    )


def _run(suites, seed, budgets) -> list[dict]:
    """Run each (function, base keywords) pair with ``seed`` and every budget
    it takes.  A budget that no suite in the run takes, or one that
    :func:`_check_types` rejects, is a DomainError before any suite runs,
    rather than dropped or a late failure."""
    takes = [fn.defaults for fn, _base in suites]
    unused = [key for key in budgets if not any(key in params for params in takes)]
    if unused:
        raise DomainError(f"no selected suite takes the budget {', '.join(unused)}")
    given = {"seed": seed, **budgets}
    _check_types(given, {key: value for params in takes for key, value in params.items()})
    return [
        fn(**{**base, **{key: value for key, value in given.items() if key in params}})
        for (fn, base), params in zip(suites, takes)
    ]


def run_all(seed: int = 0, **budgets) -> list[dict]:
    """Run every suite at its quick budgets, overridden by ``budgets`` in
    every suite that takes them."""
    return _run(list(SUITES.values()), seed, budgets)


def run_suite(name: str, seed: int = 0, **budgets) -> dict:
    """Run one suite at its keyword defaults, overridden by ``budgets``."""
    if type(name) is not str or name not in SUITES:
        raise DomainError(f"unknown suite {name!r}")
    (report,) = _run([(SUITES[name][0], {})], seed, budgets)
    return report
