"""The acceptance gate: nine end-to-end checks, each exact.

Every test prints one PASS/FAIL line (run pytest with -s or read the
captured output) and asserts the same verdict, so the gate can be read
off the log at a glance.  All comparisons are exact symbolic equality;
there are no tolerances anywhere.
"""

import itertools
import random
import time

import pytest

from srideals import (
    GF2,
    RATIONALS,
    Monomial,
    MonomialIdeal,
    SimplicialComplex,
    betti_table,
    complement_complex,
    facet_ideal,
    facet_complement_generators,
    leaf_order,
    linear_quotients_order,
    power,
    pure_complement,
    reconstruct_generators,
    relation_trees,
    stanley_reisner_ideal,
    taylor_betti_table,
    verify_linear_quotients,
)
from srideals.verification import (
    check_chordal_quasi_tree,
    check_dual_ideal_identity,
    check_power_linear_resolutions,
    check_projdim_regularity_duality,
    check_quasi_tree_projdim,
    check_restriction_resolution,
    check_shellable_vs_linear_quotients,
    check_skeleton_complement_linear_quotients,
    iter_complexes_masks,
    random_monomial_ideal,
)


def _verdict(label: str, ok: bool, detail: str = ""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {label}{suffix}")
    assert ok, f"{label}{suffix}"


def _suite_verdict(label: str, report: dict):
    detail = f"instances={report['instances']}"
    if report["failures"]:
        detail += f" first_failure={report['failures'][0]}"
    _verdict(label, report["passed"], detail)
    return report


def test_acceptance_1_worked_example(worked_example):
    start = time.perf_counter()
    gens = facet_complement_generators(worked_example)
    expected = [
        Monomial((0, 0, 0, 1, 1, 1)),
        Monomial((1, 0, 0, 0, 1, 1)),
        Monomial((1, 1, 0, 0, 0, 1)),
        Monomial((1, 1, 0, 0, 1, 0)),
    ]
    ok = gens == expected
    ok &= facet_ideal(complement_complex(worked_example)) == MonomialIdeal(6, expected)
    trees = relation_trees(worked_example)
    ok &= {tuple(t.edges) for t in trees} == {
        ((0, 1), (1, 2), (1, 3)),
        ((0, 1), (1, 2), (2, 3)),
        ((0, 1), (1, 3), (2, 3)),
    }
    ok &= all(reconstruct_generators(t) == gens for t in trees)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _verdict(
        "acceptance 1: quasi-tree worked example (generators, 3 relation "
        "trees, reconstruction)",
        ok,
        f"{elapsed:.3f}s",
    )


def test_acceptance_2_leaf_order_iff_projdim_one():
    start = time.perf_counter()
    report = check_quasi_tree_projdim(max_n=6, max_facets=4)
    elapsed = time.perf_counter() - start
    assert report["instances"] == 40741
    assert elapsed < 300
    _suite_verdict(
        f"acceptance 2: leaf order <=> projdim 1, exhaustive "
        f"({elapsed:.1f}s)",
        report,
    )


def test_acceptance_3_chordal_iff_clique_complex_quasi_tree():
    start = time.perf_counter()
    report = check_chordal_quasi_tree(
        seed=0, max_n=6, samples=100_000, sample_n=7, chordal_samples=2_000
    )
    elapsed = time.perf_counter() - start
    assert report["instances"] >= 100_000 + 2 ** 15  # samples + exhaustive part
    assert elapsed < 300
    _suite_verdict(
        f"acceptance 3: chordal <=> clique complex has a leaf order "
        f"({elapsed:.1f}s)",
        report,
    )


def test_acceptance_4_dual_ideal_identity():
    # Exhaustive families stop at n = 5: the 7,828,352 complexes on [6]
    # (the Dedekind number D(6) - 2) exceed MAX_EXHAUSTIVE_INSTANCES, so
    # the suite refuses exhaustive_n=6.
    report = check_dual_ideal_identity(seed=0, exhaustive_n=5, samples=10_000, max_n=10)
    assert report["instances"] >= 10_000
    _suite_verdict(
        "acceptance 4: nonface ideal of the dual == facet ideal of the "
        "complement (exhaustive n<=5 + 10^4 random)",
        report,
    )


def test_acceptance_5_projdim_regularity_duality():
    report = check_projdim_regularity_duality(seed=0, exhaustive_n=5, samples=150)
    assert report["instances"] >= 7_000
    _suite_verdict(
        "acceptance 5: projdim(face ring) == reg(dual nonface ideal) "
        "(exhaustive n<=5 + random n=7..8)",
        report,
    )


def test_acceptance_6_shellable_iff_linear_quotients():
    report = check_shellable_vs_linear_quotients(seed=0, samples=1_000)
    assert report["notes"]["shellable"] > 0
    assert report["notes"]["not_shellable"] > 0
    _suite_verdict(
        "acceptance 6: shellable <=> dual ideal has linear quotients, "
        "plus skeleton shellability (both verdicts represented)",
        report,
    )


def test_acceptance_7_skeleton_ideals_and_powers(worked_example, near_miss):
    start = time.perf_counter()
    report_a = check_skeleton_complement_linear_quotients(seed=0, samples=100, max_n=8)
    _suite_verdict(
        "acceptance 7a: skeleton-complement ideals of 100 quasi-trees "
        "have linear quotients",
        report_a,
    )
    report_b = check_power_linear_resolutions(
        seed=0, samples=20, max_n=7, max_power=3, complexes=[worked_example]
    )
    assert report_b["notes"]["explicit_complexes"] == 1
    _suite_verdict(
        "acceptance 7b: powers k=1,2,3 keep a linear resolution "
        "(worked example + 20 random quasi-trees)",
        report_b,
    )
    # The one-way direction is strict: this complex is not a quasi-tree,
    # yet the facet ideal of its pure complement has linear quotients.
    order = linear_quotients_order(facet_ideal(pure_complement(near_miss)))
    ok = (
        order is not None
        and verify_linear_quotients(order)
        and leaf_order(near_miss) is None
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    _verdict(
        "acceptance 7c: non-quasi-tree with linear quotients "
        "(converse fails as expected)",
        ok,
        f"total {elapsed:.1f}s",
    )


def test_acceptance_8_restriction_keeps_linearity():
    report = check_restriction_resolution(seed=0, ideals=100)
    assert report["notes"]["linear_ideals"] == 100
    _suite_verdict(
        "acceptance 8: restricting 100 linear-resolution ideals below "
        "random bounds keeps the resolution linear",
        report,
    )


def _oracle_corpus():
    """Monomial ideals with at most 6 generators, from several sources."""
    corpus = []
    # every complex on up to 4 vertices contributes its nonface ideal
    # and the facet ideal of its facet-complement complex
    for n in range(2, 5):
        full = (1 << n) - 1
        for masks in iter_complexes_masks(n):
            cx = SimplicialComplex(n, [tuple(
                v + 1 for v in range(n) if m >> v & 1
            ) for m in masks])
            sr = stanley_reisner_ideal(cx)
            if not sr.is_zero and len(sr.generators) <= 6:
                corpus.append(sr)
            if masks[-1] != full:
                fc = facet_ideal(complement_complex(cx))
                if len(fc.generators) <= 6:
                    corpus.append(fc)
    # seeded non-squarefree ideals in a single degree
    rng = random.Random(20260823)
    for _ in range(120):
        ideal = random_monomial_ideal(
            rng, rng.randint(2, 5), rng.randint(2, 4), rng.randint(2, 6)
        )
        if len(ideal.generators) <= 6:
            corpus.append(ideal)
    # mixed-degree ideals
    for exps in itertools.permutations([(2, 0, 1), (0, 3, 0), (1, 1, 1)]):
        corpus.append(MonomialIdeal(3, [Monomial(e) for e in exps]))
    return corpus


def test_acceptance_9_betti_oracles_agree(worked_example):
    corpus = _oracle_corpus()
    corpus.append(facet_ideal(complement_complex(worked_example)))
    mismatches = 0
    for ideal in corpus:
        for field in (RATIONALS, GF2):
            if betti_table(ideal, field) != taylor_betti_table(ideal, field):
                mismatches += 1
    _verdict(
        "acceptance 9: upper-Koszul and Taylor-complex Betti oracles "
        "agree over QQ and GF(2)",
        mismatches == 0,
        f"ideals={len(corpus)}",
    )
