"""Bulk cross-check suites: every structural identity in the library is
re-verified on exhaustive small families and seeded random families.

Each suite pits two independently computed predicates against each other
(for example shellability of a complex versus linear quotients of the
dual ideal) and reports every disagreement with a serialized witness.
All randomness flows through a seeded ``random.Random``, so reports are
reproducible byte for byte.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
from functools import partial

from .complexes import (
    SimplicialComplex,
    alexander_dual,
    complement_complex,
    dimension_info,
    mask_face,
    minimal_nonfaces,
    minimal_nonfaces_masks,
    pure_complement,
    skeleton,
    skeleton_complement,
)
from .errors import DomainError, ResourceLimitError
from .graphs import (
    Graph,
    _bron_kerbosch,
    _is_peo,
    clique_complex,
    complement_graph,
    edge_ideal,
    higher_dirac_check,
    mcs_order,
)
from .homological import (
    RATIONALS,
    FieldChoice,
    betti_table,
    is_cohen_macaulay,
    shelling_order,
    squarefree_betti_masks,
    squarefree_projdim_masks,
    verify_shelling,
)
from .ideals import (
    MonomialIdeal,
    facet_ideal,
    complex_from_ideal,
    linear_quotients_order,
    power,
    restrict_ideal,
    skeleton_ideal_from_one_skeleton,
    stanley_reisner_ideal,
    verify_linear_quotients,
)
from .quasitrees import (
    _is_tree,
    facet_complement_generators,
    leaf_order,
    leaf_order_masks,
    leaf_report,
    reconstruct_generators,
    relation_trees,
    verify_minor_certificate,
)
from .serialization import complex_to_json, ideal_to_json

MAX_RECORDED_FAILURES = 10

# Cap on the instances an exhaustive family may enumerate, checked against
# a closed-form count or bound before the first one is built.  At their
# suite defaults the capped families reach 2,238 (lemma-1.1, max_n 5),
# 33,867 (thm-3.3, max_n 6), 38,501 (lemma-2.1, max_n 5, max_facets 4)
# and 129,595 (cor-2.2, max_n 6, max_facets 4); one step up in max_n
# reaches 1.1 M, 2.1 M, 0.68 M and 0.77 M.
MAX_EXHAUSTIVE_INSTANCES = 250_000


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def iter_complexes_masks(n, max_facets=None, max_size=None, min_size=1):
    """All complexes on [n] as tuples of facet bitmasks (nonempty antichains
    of subsets with sizes in [min_size, max_size]), in DFS order."""
    max_size = n if max_size is None else min(max_size, n)
    candidates = sorted(
        (m for m in range(1, 1 << n) if min_size <= m.bit_count() <= max_size),
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

    yield from rec(0)


def _check_family(sizes, knob: str) -> None:
    """Sum the family sizes until they pass MAX_EXHAUSTIVE_INSTANCES, which
    is a ResourceLimitError naming `knob`; stopping there keeps every
    term small even for a huge budget."""
    total = 0
    for size in sizes:
        total += size
        if total > MAX_EXHAUSTIVE_INSTANCES:
            raise ResourceLimitError(
                f"the exhaustive family exceeds MAX_EXHAUSTIVE_INSTANCES = "
                f"{MAX_EXHAUSTIVE_INSTANCES:,} instances; lower {knob}"
            )


def _antichain_bound(n, max_facets, max_size):
    """Sum_{r <= max_facets} C(c, r) over the c candidate faces of
    iter_complexes_masks(n, max_facets, max_size): a bound on its length."""
    c = sum(math.comb(n, k) for k in range(1, min(max_size, n) + 1))
    return sum(math.comb(c, r) for r in range(1, min(max(max_facets, 1), c) + 1))


def complex_from_masks(n, masks) -> SimplicialComplex:
    return SimplicialComplex(n, [mask_face(m) for m in masks])


def _small_complexes(max_n):
    """Every complex on [n] for n = 1..max_n, in enumeration order."""
    for n in range(1, max_n + 1):
        for masks in iter_complexes_masks(n):
            yield complex_from_masks(n, masks)


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
        raise ResourceLimitError(
            f"max_n = {hi} exceeds MAX_SAMPLED_VERTICES = {MAX_SAMPLED_VERTICES}; "
            f"lower --max-n"
        )


def _randint(rng: random.Random, lo: int, hi: int, budget: str = "max_n") -> int:
    """``rng.randint(lo, hi)``, checked by :func:`_check_range`."""
    _check_range(lo, hi, budget)
    return rng.randint(lo, hi)


def _sampled(rng: random.Random, samples: int, lo: int, hi: int, draw):
    """The lazy family ``draw(rng, rng.randint(lo, hi))``, ``samples`` times.

    The range is checked now, so a budget that cannot be sampled fails
    before an exhaustive prefix chained in front of the family is run.
    """
    if samples > 0:
        _check_range(lo, hi)
    return (draw(rng, rng.randint(lo, hi)) for _ in range(samples))


def random_complex(rng: random.Random, n: int, max_facets: int = 6, max_size=None):
    """A complex built from random faces, minimalized."""
    max_size = n if max_size is None else min(max_size, n)
    faces = [
        rng.sample(range(1, n + 1), rng.randint(1, max_size))
        for _ in range(rng.randint(1, max_facets))
    ]
    return SimplicialComplex.from_faces(n, faces)


def random_pure_complex(rng: random.Random, n: int, d: int, count: int):
    """A pure complex with `count` distinct facets of size d."""
    pool = list(itertools.combinations(range(1, n + 1), d))
    if count > len(pool):
        raise DomainError(f"cannot pick {count} distinct {d}-subsets of [{n}]")
    return SimplicialComplex(n, rng.sample(pool, count))


def random_quasi_tree(rng: random.Random, n: int, max_facets: int = 6, max_size: int = 4):
    """Grow a quasi-tree by repeated leaf attachment.

    Each new facet is S | T with S a proper subset of an existing facet G
    and T a nonempty set of fresh vertices, which makes it a leaf (its
    intersection with every older facet is contained in S = G & new) and
    keeps the facets an antichain.  The construction order is therefore
    itself a leaf order.
    """
    size = rng.randint(2, min(max_size, n))
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


def random_graph(rng: random.Random, n: int, p=None) -> Graph:
    p = rng.random() if p is None else p
    edges = [
        e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p
    ]
    return Graph(n, edges)


def _coded_graph(n: int, code: int):
    """(n, adjacency masks) of the graph on [n] whose edges are the vertex
    pairs, in lexicographic order, at the set bits of code."""
    adj = [0] * n
    for idx, (a, b) in enumerate(itertools.combinations(range(n), 2)):
        if code >> idx & 1:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return n, tuple(adj)


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


def random_monomial_ideal(
    rng: random.Random, n: int, degree: int, count: int, max_exp: int = 2
) -> MonomialIdeal:
    """A random ideal generated in a single degree (duplicates dropped)."""
    from .ideals import Monomial, minimalize

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
# shared helpers
# ---------------------------------------------------------------------------


def has_linear_resolution(ideal: MonomialIdeal, field: FieldChoice = RATIONALS) -> bool:
    """Decide whether I has a linear resolution over the chosen field.

    Small generating sets go straight to the Betti table.  For large ones
    a linear-quotients order is a sound positive certificate (quotients
    imply a linear resolution for equigenerated ideals); canonical and
    reversed generator order are tried before the backtracking search.
    Only when no certificate is found does the full Betti computation
    run, so a True answer is always cheap and a False answer is exact.
    """
    if ideal.is_zero:
        raise DomainError("the zero ideal has no resolution to classify")
    degrees = set(ideal.generator_degrees)
    if len(degrees) > 1:
        return False
    d = next(iter(degrees))
    t = len(ideal.generators)
    if t <= 11:
        return betti_table(ideal, field, max_generators=t).is_linear(d)
    gens = list(ideal.generators)
    for candidate in (gens, gens[::-1]):
        if verify_linear_quotients(candidate):
            return True
    try:
        if linear_quotients_order(ideal, max_nodes=200_000) is not None:
            return True
    except ResourceLimitError:
        pass
    table = betti_table(
        ideal, field, max_generators=t, max_vars=ideal.num_vars, max_lcms=200_000
    )
    return table.is_linear(d)


def _report(suite, instances, failures, **notes):
    return {
        "suite": suite,
        "passed": not failures,
        "instances": instances,
        "failures": failures[:MAX_RECORDED_FAILURES],
        "failure_count": len(failures),
        "notes": notes,
    }


def _complement_ideal(cx: SimplicialComplex, ell: int) -> MonomialIdeal:
    """The facet ideal of the ell-skeleton complement of cx; zero if it is void."""
    bar = skeleton_complement(cx, ell)
    return MonomialIdeal(cx.n, []) if bar.is_void else facet_ideal(bar)


def _masks_witness(n, masks) -> dict:
    return {"ambient": n, "facets": [list(mask_face(m)) for m in masks]}


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def check_pure_complement_skeleton(max_n: int = 5):
    """For pure (d-1)-dimensional complexes, the complement within the
    d-subsets equals the (d-1)-skeleton of the complex whose
    Stanley-Reisner ideal is the facet ideal."""
    _check_family(
        (2 ** math.comb(n, d) for n in range(1, max_n + 1) for d in range(1, n + 1)),
        "--max-n",
    )
    instances = 0
    failures = []
    for n in range(1, max_n + 1):
        for d in range(1, n + 1):
            pool = list(itertools.combinations(range(1, n + 1), d))
            for r in range(1, len(pool) + 1):
                for facets in itertools.combinations(pool, r):
                    cx = SimplicialComplex(n, facets)
                    instances += 1
                    bar = pure_complement(cx)
                    gamma = complex_from_ideal(facet_ideal(cx), "stanley-reisner")
                    if gamma.is_void or dimension_info(gamma)[0] < d - 1:
                        got = SimplicialComplex(n, [])
                    else:
                        got = skeleton(gamma, d - 1)
                    if got != bar:
                        failures.append(complex_to_json(cx))
    return _report("lemma-1.1", instances, failures, max_n=max_n)


def check_dual_ideal_identity(
    seed: int = 0, exhaustive_n: int = 5, samples: int = 10_000, max_n: int = 10
):
    """Stanley-Reisner ideal of the Alexander dual == facet ideal of the
    facet-complement complex."""
    rng = random.Random(seed)
    instances = 0
    failures = []
    samples_drawn = _sampled(
        rng, samples, 2, max_n, partial(random_complex, max_facets=8)
    )
    for cx in itertools.chain(_small_complexes(exhaustive_n), samples_drawn):
        if cx.facet_masks[-1] == (1 << cx.n) - 1:
            continue  # full simplex: dual is void, complement undefined
        instances += 1
        left = stanley_reisner_ideal(alexander_dual(cx))
        right = facet_ideal(complement_complex(cx))
        if left != right:
            failures.append(complex_to_json(cx))
    return _report(
        "lemma-1.2", instances, failures, exhaustive_n=exhaustive_n, samples=samples
    )


def check_skeleton_ideal_duality(seed: int = 0, samples: int = 150, max_n: int = 8):
    """For a flag complex, the dual of the complex attached to the
    ell-skeleton complement ideal is a skeleton of the dual attached to
    the 1-skeleton complement ideal."""
    rng = random.Random(seed)
    instances = 0
    failures = []
    for _ in range(samples):
        n = _randint(rng, 4, max_n)
        sigma = clique_complex(random_graph(rng, n))
        dim, _pure = dimension_info(sigma)
        if dim < 1:
            continue
        i1 = _complement_ideal(sigma, 1)
        if i1.is_zero:
            continue
        dual_prime = alexander_dual(complex_from_ideal(i1, "stanley-reisner"))
        for ell in range(1, dim + 1):
            ideal = _complement_ideal(sigma, ell)
            if ideal.is_zero:
                continue
            delta = complex_from_ideal(ideal, "stanley-reisner")
            instances += 1
            got = alexander_dual(delta)
            expected = skeleton(dual_prime, n - ell - 2)
            if got != expected:
                failures.append(
                    {"complex": complex_to_json(sigma), "ell": ell}
                )
    return _report("prop-1.3", instances, failures, samples=samples, max_n=max_n)


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
    rng = random.Random(seed)
    instances = 0
    failures = []
    samples_drawn = _sampled(
        rng, samples, exhaustive_n + 1, max_n, partial(random_complex, max_facets=8)
    )
    for cx in itertools.chain(_small_complexes(exhaustive_n), samples_drawn):
        if cx.facet_masks[-1] == (1 << cx.n) - 1:
            continue
        instances += 1
        cm = is_cohen_macaulay(cx, field)
        ideal = facet_ideal(complement_complex(cx))
        if cm != has_linear_resolution(ideal, field):
            failures.append(complex_to_json(cx))
    return _report(
        "thm-1.4a",
        instances,
        failures,
        exhaustive_n=exhaustive_n,
        samples=samples,
        field=repr(field),
    )


def check_projdim_regularity_duality(
    seed: int = 0,
    exhaustive_n: int = 5,
    samples: int = 150,
    min_sample_n: int = 7,
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
    rng = random.Random(seed)
    p = field.p
    instances = 0
    failures = []
    samples_drawn = _sampled(
        rng, samples, min_sample_n, max_n, partial(random_complex, max_facets=8)
    )
    for cx in itertools.chain(_small_complexes(exhaustive_n), samples_drawn):
        n, full = cx.n, (1 << cx.n) - 1
        if cx.facet_masks[-1] == full:
            continue
        instances += 1
        nonfaces = minimal_nonfaces_masks(list(cx.facet_masks), n)
        pd = squarefree_projdim_masks(nonfaces, p)
        dual_facets = [full ^ m for m in nonfaces]
        dual_nonfaces = minimal_nonfaces_masks(dual_facets, n)
        dual_betti = squarefree_betti_masks(dual_nonfaces, p)
        reg = max(b.bit_count() - i for i, b in dual_betti)
        if pd + 1 != reg:
            failures.append(complex_to_json(cx))
    return _report(
        "thm-1.4b",
        instances,
        failures,
        exhaustive_n=exhaustive_n,
        samples=samples,
        field=repr(field),
    )


def check_shellable_vs_linear_quotients(
    seed: int = 0, samples: int = 400, max_n: int = 8, max_facets: int = 8
):
    """Shellability of a pure complex == linear quotients of the facet
    ideal of the complement complex; additionally every skeleton of a
    shellable complex must be shellable."""
    rng = random.Random(seed)
    instances = 0
    failures = []
    shellable_count = 0
    for _ in range(samples):
        n = _randint(rng, 3, max_n)
        d = rng.randint(2, min(4, n - 1))
        count = _randint(rng, 2, min(max_facets, math.comb(n, d)), "max_facets")
        cx = random_pure_complex(rng, n, d, count)
        instances += 1
        order = shelling_order(cx)
        if order is not None and not verify_shelling(cx, order):
            failures.append({"bad_shelling": complex_to_json(cx), "order": order})
            continue
        lq = linear_quotients_order(facet_ideal(complement_complex(cx)))
        if lq is not None and not verify_linear_quotients(lq):
            failures.append({"bad_quotients": complex_to_json(cx)})
            continue
        if (order is not None) != (lq is not None):
            failures.append(complex_to_json(cx))
            continue
        if order is not None:
            shellable_count += 1
            dim, _pure = dimension_info(cx)
            for i in range(dim):
                sub = skeleton(cx, i)
                if shelling_order(sub, max_facets=64) is None:
                    failures.append(
                        {"complex": complex_to_json(cx), "skeleton": i}
                    )
    return _report(
        "thm-1.4c",
        instances,
        failures,
        samples=samples,
        shellable=shellable_count,
        not_shellable=instances - shellable_count,
    )


def check_skeleton_ideal_linear_quotients(
    seed: int = 0, samples: int = 60, max_n: int = 8
):
    """If the 1-skeleton complement ideal of a flag complex has linear
    quotients, so do all higher skeleton complement ideals."""
    rng = random.Random(seed)
    instances = 0
    failures = []
    for _ in range(samples):
        n = _randint(rng, 4, max_n)
        sigma = clique_complex(random_chordal_graph(rng, n))
        dim, _pure = dimension_info(sigma)
        if dim < 2:
            continue
        i1 = _complement_ideal(sigma, 1)
        if i1.is_zero or linear_quotients_order(i1) is None:
            continue  # premise fails; nothing to check
        for ell in range(2, dim + 1):
            ideal = _complement_ideal(sigma, ell)
            if ideal.is_zero:
                continue
            instances += 1
            if linear_quotients_order(ideal) is None:
                failures.append({"complex": complex_to_json(sigma), "ell": ell})
    return _report("cor-1.5", instances, failures, samples=samples)


def check_skeleton_shellability(seed: int = 0, samples: int = 150, max_n: int = 8):
    """Every skeleton of a shellable pure complex is shellable."""
    rng = random.Random(seed)
    instances = 0
    failures = []
    for _ in range(samples):
        n = _randint(rng, 3, max_n)
        d = rng.randint(2, min(4, n))
        pool_size = math.comb(n, d)
        cx = random_pure_complex(rng, n, d, rng.randint(1, min(7, pool_size)))
        if shelling_order(cx) is None:
            continue
        dim, _pure = dimension_info(cx)
        for i in range(dim):
            instances += 1
            if shelling_order(skeleton(cx, i), max_facets=64) is None:
                failures.append({"complex": complex_to_json(cx), "skeleton": i})
    return _report("lemma-1.6", instances, failures, samples=samples)


def check_relation_tree_determinants(max_n: int = 5, max_facets: int = 4):
    """A complex admits a leaf order iff some spanning tree of its facets
    passes the determinant certificate; moreover the trees that pass are
    exactly the relation trees, and each reconstructs the generators.

    The family is restricted to complexes whose facets cover [n]: with
    an uncovered vertex the facet-complement generators share a common
    factor that no matrix minor can reproduce, so the determinant
    identity is stated for covering complexes only.
    """
    _check_family(
        (_antichain_bound(n, max_facets, n) for n in range(2, max_n + 1)),
        "--max-n or --max-facets",
    )
    instances = 0
    failures = []
    for n in range(2, max_n + 1):
        full = (1 << n) - 1
        for masks in iter_complexes_masks(n, max_facets=max_facets):
            t = len(masks)
            union = 0
            for m in masks:
                union |= m
            if t < 2 or union != full or masks[-1] == full:
                continue
            instances += 1
            cx = complex_from_masks(n, masks)
            all_edges = list(itertools.combinations(range(t), 2))
            passing = {
                tree
                for tree in itertools.combinations(all_edges, t - 1)
                if _is_tree(t, tree) and verify_minor_certificate(cx, tree)
            }
            is_qt = leaf_order_masks(list(masks)) is not None
            if is_qt != bool(passing):
                failures.append(_masks_witness(n, masks))
                continue
            if not is_qt:
                continue
            trees = relation_trees(cx, limit=1000)
            if {tuple(sorted(tr.edges)) for tr in trees} != passing:
                failures.append(
                    {"complex": _masks_witness(n, masks), "mismatch": "tree sets"}
                )
                continue
            gens = facet_complement_generators(cx)
            for tr in trees:
                if reconstruct_generators(tr) != gens:
                    failures.append(
                        {
                            "complex": _masks_witness(n, masks),
                            "tree": [list(e) for e in tr.edges],
                        }
                    )
                    break
    return _report("lemma-2.1", instances, failures, max_n=max_n, max_facets=max_facets)


def check_quasi_tree_projdim(
    max_n: int = 6,
    max_facets: int = 4,
    max_size: int = 3,
    field: FieldChoice = RATIONALS,
):
    """Leaf order exists iff the facet ideal of the complement complex
    has projective dimension 1 (complexes with >= 2 facets; a single
    facet gives a principal ideal of projective dimension 0)."""
    _check_family(
        (_antichain_bound(n, max_facets, min(max_size, n - 1)) for n in range(2, max_n + 1)),
        "--max-n or --max-facets",
    )
    p = field.p
    instances = 0
    failures = []
    for n in range(2, max_n + 1):
        full = (1 << n) - 1
        for masks in iter_complexes_masks(
            n, max_facets=max_facets, max_size=min(max_size, n - 1)
        ):
            if len(masks) < 2:
                continue
            instances += 1
            is_qt = leaf_order_masks(list(masks)) is not None
            pd = squarefree_projdim_masks([full ^ m for m in masks], p)
            if is_qt != (pd == 1):
                failures.append(_masks_witness(n, masks))
    return _report(
        "cor-2.2",
        instances,
        failures,
        max_n=max_n,
        max_facets=max_facets,
        max_size=max_size,
        field=repr(field),
    )


def check_quasi_trees_are_flag(seed: int = 0, exhaustive_n: int = 4, samples: int = 300):
    """Complexes with a leaf order have only 2-element minimal nonfaces."""
    rng = random.Random(seed)
    instances = 0
    failures = []
    samples_drawn = _sampled(rng, samples, 3, 9, random_quasi_tree)
    for cx in itertools.chain(_small_complexes(exhaustive_n), samples_drawn):
        if leaf_order(cx) is None:
            continue
        instances += 1
        _nf, is_flag = minimal_nonfaces(cx)
        if not is_flag:
            failures.append(complex_to_json(cx))
    return _report(
        "lemma-3.2", instances, failures, exhaustive_n=exhaustive_n, samples=samples
    )


def check_chordal_quasi_tree(
    seed: int = 0,
    max_n: int = 6,
    samples: int = 100_000,
    sample_n: int = 7,
    chordal_samples: int = 2_000,
):
    """A graph is chordal iff its maximal-clique complex has a leaf order:
    exhaustive over all graphs on up to max_n vertices, plus seeded
    random and constructively-chordal samples at sample_n vertices."""
    _check_family((2 ** math.comb(n, 2) for n in range(1, max_n + 1)), "--max-n")
    rng = random.Random(seed)
    instances = 0
    failures = []
    sample_pairs = math.comb(sample_n, 2)
    chordal_graphs = (random_chordal_graph(rng, sample_n) for _ in range(chordal_samples))
    family = itertools.chain(
        (_coded_graph(n, code) for n in range(1, max_n + 1) for code in range(1 << math.comb(n, 2))),
        (_coded_graph(sample_n, rng.getrandbits(sample_pairs)) for _ in range(samples)),
        ((g.n, g.adjacency) for g in chordal_graphs),
    )
    for n, adj in family:
        instances += 1
        cliques: list[int] = []
        _bron_kerbosch(adj, 0, (1 << n) - 1, 0, cliques)
        chordal = _is_peo(adj, mcs_order(adj))
        if chordal != (leaf_order_masks(cliques) is not None):
            pairs = itertools.combinations(range(n), 2)
            edges = [[a + 1, b + 1] for a, b in pairs if adj[a] >> b & 1]
            failures.append({"n": n, "edges": edges})
    return _report(
        "thm-3.3",
        instances,
        failures,
        max_n=max_n,
        samples=samples,
        sample_n=sample_n,
        chordal_samples=chordal_samples,
    )


def check_leaf_removal_closure(seed: int = 0, exhaustive_n: int = 4, samples: int = 300):
    """Removing any leaf from a quasi-tree leaves a quasi-tree."""
    rng = random.Random(seed)
    instances = 0
    failures = []
    samples_drawn = _sampled(rng, samples, 3, 9, random_quasi_tree)
    for cx in itertools.chain(_small_complexes(exhaustive_n), samples_drawn):
        if len(cx.facets) < 2 or leaf_order(cx) is None:
            continue
        for f in range(len(cx.facets)):
            if not leaf_report(cx, f).is_leaf:
                continue
            instances += 1
            rest = [g for i, g in enumerate(cx.facets) if i != f]
            if leaf_order(SimplicialComplex(cx.n, rest)) is None:
                failures.append({"complex": complex_to_json(cx), "removed": f})
    return _report(
        "cor-3.5", instances, failures, exhaustive_n=exhaustive_n, samples=samples
    )


def check_pure_skeleton_recognition(seed: int = 0, samples: int = 400, max_n: int = 8):
    """Both sides of the skeleton-of-a-quasi-tree recognition agree on
    pure complexes: quasi-tree side versus chordal-1-skeleton side."""
    rng = random.Random(seed)
    instances = 0
    failures = []

    def check(cx: SimplicialComplex):
        nonlocal instances
        instances += 1
        if not higher_dirac_check(cx).holds:
            failures.append(complex_to_json(cx))

    for _ in range(samples):
        n = _randint(rng, 3, max_n)
        if rng.random() < 0.5:
            qt = random_quasi_tree(rng, n)
            dim, _pure = dimension_info(qt)
            check(skeleton(qt, rng.randint(0, dim)))
        else:
            d = rng.randint(2, min(4, n))
            pool_size = math.comb(n, d)
            check(random_pure_complex(rng, n, d, rng.randint(1, min(8, pool_size))))
    return _report("thm-3.6", instances, failures, samples=samples, max_n=max_n)


def check_skeleton_complement_linear_quotients(
    seed: int = 0, samples: int = 100, max_n: int = 8
):
    """For every quasi-tree and every skeleton level, the facet ideal of
    the skeleton complement has linear quotients."""
    rng = random.Random(seed)
    instances = 0
    failures = []
    for _ in range(samples):
        n = _randint(rng, 3, max_n)
        qt = random_quasi_tree(rng, n)
        dim, _pure = dimension_info(qt)
        for ell in range(1, dim + 1):
            ideal = _complement_ideal(qt, ell)
            if ideal.is_zero:
                continue
            instances += 1
            order = linear_quotients_order(ideal)
            if order is None or not verify_linear_quotients(order):
                failures.append({"complex": complex_to_json(qt), "ell": ell})
    return _report("thm-4.1", instances, failures, samples=samples, max_n=max_n)


def check_skeleton_ideal_from_edges(seed: int = 0, samples: int = 200, max_n: int = 8):
    """For flag complexes the skeleton complement ideal is reproducible
    from the 1-skeleton complement ideal alone."""
    rng = random.Random(seed)
    instances = 0
    failures = []
    for _ in range(samples):
        n = _randint(rng, 4, max_n)
        if rng.random() < 0.5:
            sigma = clique_complex(random_graph(rng, n))
        else:
            sigma = random_quasi_tree(rng, n)
        dim, _pure = dimension_info(sigma)
        if dim < 2:
            continue
        i1 = _complement_ideal(sigma, 1)
        for ell in range(2, dim + 1):
            instances += 1
            if skeleton_ideal_from_one_skeleton(i1, ell, n) != _complement_ideal(sigma, ell):
                failures.append({"complex": complex_to_json(sigma), "ell": ell})
    return _report("lemma-4.2", instances, failures, samples=samples, max_n=max_n)


def check_restriction_resolution(
    seed: int = 0,
    ideals: int = 100,
    bounds_per_ideal: int = 3,
    max_n: int = 8,
    field: FieldChoice = RATIONALS,
    max_attempts: int = 5_000,
):
    """Restricting a linear-resolution ideal to the generators below a
    bound keeps the resolution linear; moreover its Betti table is
    exactly the sub-table of multidegrees below the bound."""
    rng = random.Random(seed)
    found = 0
    instances = 0
    failures = []
    attempts = 0
    while found < ideals and attempts < max_attempts:
        attempts += 1
        kind = rng.randrange(3)
        if kind == 0:
            n = _randint(rng, 4, max_n)
            ideal = edge_ideal(complement_graph(random_chordal_graph(rng, n)))
            if ideal.is_zero or len(ideal.generators) > 8:
                continue
        elif kind == 1:
            n = rng.randint(3, 6)
            ideal = random_monomial_ideal(rng, n, rng.randint(2, 3), rng.randint(2, 8))
        else:
            n = _randint(rng, 3, max_n)
            qt = random_quasi_tree(rng, n, max_facets=4)
            dim, _pure = dimension_info(qt)
            ideal = _complement_ideal(qt, rng.randint(1, dim))
            if ideal.is_zero or len(ideal.generators) > 8:
                continue
        degrees = set(ideal.generator_degrees)
        if len(degrees) != 1:
            continue
        d = next(iter(degrees))
        table = betti_table(ideal, field)
        if not table.is_linear(d):
            continue
        found += 1
        caps = [max(g.exponents[i] for g in ideal.generators) for i in range(ideal.num_vars)]
        for _ in range(bounds_per_ideal):
            a = tuple(rng.randint(0, c) for c in caps)
            instances += 1
            sub = restrict_ideal(ideal, a)
            expected = {
                key: r
                for key, r in table.entries
                if all(bi <= ai for bi, ai in zip(key[1], a))
            }
            if sub.is_zero:
                if expected:
                    failures.append({"ideal": ideal_to_json(ideal), "bound": list(a)})
                continue
            got = betti_table(sub, field).as_dict()
            if got != expected or not has_linear_resolution(sub, field):
                failures.append({"ideal": ideal_to_json(ideal), "bound": list(a)})
    return _report(
        "lemma-4.3",
        instances,
        failures,
        linear_ideals=found,
        bounds_per_ideal=bounds_per_ideal,
        field=repr(field),
    )


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
    rng = random.Random(seed)
    instances = 0
    failures = []
    family = list(complexes) if complexes else []
    for _ in range(samples):
        family.append(random_quasi_tree(rng, _randint(rng, 3, max_n)))
    for qt in family:
        if leaf_order(qt) is None:
            raise DomainError("the power suite needs quasi-tree inputs")
        dim, _pure = dimension_info(qt)
        for ell in range(1, dim + 1):
            ideal = _complement_ideal(qt, ell)
            if ideal.is_zero:
                continue
            for k in range(1, max_power + 1):
                instances += 1
                if not has_linear_resolution(power(ideal, k), field):
                    failures.append(
                        {"complex": complex_to_json(qt), "ell": ell, "power": k}
                    )
    return _report(
        "thm-4.4",
        instances,
        failures,
        samples=samples,
        max_power=max_power,
        explicit_complexes=len(family) - samples,
        field=repr(field),
    )


# Each suite with the budgets that keep `verify all` interactive; a suite
# run on its own starts from its keyword defaults instead.
SUITES = {
    "lemma-1.1": (check_pure_complement_skeleton, {"max_n": 4}),
    "lemma-1.2": (check_dual_ideal_identity, {"exhaustive_n": 4, "samples": 300}),
    "prop-1.3": (check_skeleton_ideal_duality, {"samples": 40}),
    "thm-1.4a": (check_cm_vs_linear_resolution, {"exhaustive_n": 3, "samples": 60}),
    "thm-1.4b": (check_projdim_regularity_duality, {"exhaustive_n": 4, "samples": 30}),
    "thm-1.4c": (check_shellable_vs_linear_quotients, {"samples": 120}),
    "cor-1.5": (check_skeleton_ideal_linear_quotients, {"samples": 25}),
    "lemma-1.6": (check_skeleton_shellability, {"samples": 50}),
    "lemma-2.1": (check_relation_tree_determinants, {"max_n": 4}),
    "cor-2.2": (check_quasi_tree_projdim, {"max_n": 5}),
    "lemma-3.2": (check_quasi_trees_are_flag, {"exhaustive_n": 3, "samples": 100}),
    "thm-3.3": (check_chordal_quasi_tree, {"max_n": 5, "samples": 2000, "chordal_samples": 200}),
    "cor-3.5": (check_leaf_removal_closure, {"exhaustive_n": 3, "samples": 100}),
    "thm-3.6": (check_pure_skeleton_recognition, {"samples": 100}),
    "thm-4.1": (check_skeleton_complement_linear_quotients, {"samples": 30}),
    "lemma-4.2": (check_skeleton_ideal_from_edges, {"samples": 50}),
    "lemma-4.3": (check_restriction_resolution, {"ideals": 20}),
    "thm-4.4": (check_power_linear_resolutions, {"samples": 5, "max_n": 6}),
}


def _run(suites, seed, budgets) -> list[dict]:
    """Run each (function, base keywords) pair with ``seed`` and every budget
    it takes.  A budget that no suite in the run takes, or a negative count,
    is a DomainError rather than silently dropped."""
    takes = [inspect.signature(fn).parameters for fn, _base in suites]
    unused = [key for key in budgets if not any(key in params for params in takes)]
    if unused:
        raise DomainError(f"no selected suite takes the budget {', '.join(unused)}")
    negative = [key for key, value in budgets.items() if type(value) is int and value < 0]
    if negative:
        raise DomainError(f"budget {', '.join(negative)} must not be negative")
    given = {"seed": seed, **budgets}
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
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}")
    (report,) = _run([(SUITES[name][0], {})], seed, budgets)
    return report
