"""The bulk verification drivers at quick budgets, plus their generators."""

import hashlib

import pytest

from srideals import DomainError, ResourceLimitError, SimplicialComplex, run_all
from srideals import serialization, verification
from srideals.verification import (
    SUITES,
    check_chordal_quasi_tree,
    check_cm_vs_linear_resolution,
    check_dual_ideal_identity,
    check_power_linear_resolutions,
    check_projdim_regularity_duality,
    check_quasi_trees_are_flag,
    check_restriction_resolution,
    has_linear_resolution,
    iter_complexes_masks,
    random_chordal_graph,
    random_complex,
    random_monomial_ideal,
    random_quasi_tree,
)
import random

from srideals import MonomialIdeal, Monomial
from srideals.graphs import Graph, complement_graph, edge_ideal, is_chordal
from srideals.quasitrees import leaf_order


class TestGenerators:
    def test_complex_enumeration_counts(self):
        # number of nonempty antichains on an n-set (Dedekind numbers
        # minus the empty and {emptyset} antichains): 1, 4, 18, 166, 7579;
        # the exhaustive-family cap is checked against the same table
        counts = [sum(1 for _ in iter_complexes_masks(n)) for n in range(1, 6)]
        assert counts == [1, 4, 18, 166, 7579]
        assert verification._COMPLEX_COUNTS == (1, 4, 18, 166, 7579, 7828352)

    def test_enumeration_yields_valid_complexes(self):
        for masks in iter_complexes_masks(3):
            cx = SimplicialComplex.from_masks(3, masks)
            assert isinstance(cx, SimplicialComplex)

    def test_random_complex_is_reproducible(self):
        a = random_complex(random.Random(7), 6)
        b = random_complex(random.Random(7), 6)
        assert a == b

    def test_random_quasi_tree_has_a_leaf_order(self):
        rng = random.Random(3)
        for _ in range(25):
            assert leaf_order(random_quasi_tree(rng, rng.randint(3, 8))) is not None

    def test_random_chordal_graph_is_chordal(self):
        rng = random.Random(5)
        for _ in range(25):
            assert is_chordal(random_chordal_graph(rng, rng.randint(2, 8)))[0]

    def test_random_monomial_ideal_rejects_an_unreachable_degree(self):
        # one variable with exponents at most 2 has no monomial of degree 3
        with pytest.raises(DomainError, match="exceeds n \\* max_exp"):
            random_monomial_ideal(random.Random(0), 1, 3, 1)
        ideal = random_monomial_ideal(random.Random(0), 1, 2, 3)
        assert [g.exponents for g in ideal.generators] == [(2,)]


# Edge ideals of 12 generators, one for each route that has_linear_resolution
# takes past 11 generators: (n, edges, the (step, verdict) calls in order).
_LONG_ROUTES = {
    "canonical order": (
        6,
        [
            (1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (2, 5),
            (2, 6), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
        ],
        [("verify_linear_quotients", True)],
    ),
    "reversed order": (
        6,
        [
            (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3),
            (2, 4), (2, 6), (3, 4), (3, 5), (4, 5), (5, 6),
        ],
        [("verify_linear_quotients", False), ("verify_linear_quotients", True)],
    ),
    "search": (
        7,
        [
            (1, 2), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5),
            (2, 6), (2, 7), (3, 6), (4, 7), (5, 6), (6, 7),
        ],
        [
            ("verify_linear_quotients", False),
            ("verify_linear_quotients", False),
            ("linear_quotients_order", True),
        ],
    ),
    "Betti fallback": (
        7,
        [
            (1, 2), (1, 3), (1, 5), (1, 7), (2, 3), (2, 4),
            (3, 4), (3, 5), (4, 6), (5, 6), (5, 7), (6, 7),
        ],
        [
            ("verify_linear_quotients", False),
            ("verify_linear_quotients", False),
            ("linear_quotients_order", False),
            ("_packed_betti_table", False),
        ],
    ),
}


class TestLinearResolutionDecider:
    def test_mixed_degrees_are_never_linear(self):
        ideal = MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, 2))])
        assert not has_linear_resolution(ideal)

    def test_small_positive_and_negative_cases(self):
        linear = MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, 1))])
        assert has_linear_resolution(linear)
        not_linear = MonomialIdeal(4, [Monomial((1, 1, 0, 0)), Monomial((0, 0, 1, 1))])
        assert not has_linear_resolution(not_linear)

    def test_zero_ideal_rejected(self):
        with pytest.raises(DomainError):
            has_linear_resolution(MonomialIdeal(2, []))

    @pytest.mark.parametrize("route", _LONG_ROUTES)
    def test_each_route_past_eleven_generators(self, monkeypatch, route):
        n, edges, expected = _LONG_ROUTES[route]
        calls = []

        def spy(step, verdict):
            real = getattr(verification, step)

            def wrapped(*args):
                out = real(*args)
                calls.append((step, verdict(out)))
                return out

            monkeypatch.setattr(verification, step, wrapped)

        spy("betti_table", lambda table: table.is_linear(2))
        spy("verify_linear_quotients", bool)
        spy("linear_quotients_order", lambda order: order is not None)
        spy("_packed_betti_table", lambda table: table.is_linear(2))
        graph = Graph(n, edges)
        ideal = edge_ideal(graph)
        assert len(ideal.generators) == len(edges) > 11
        verdict = has_linear_resolution(ideal)
        assert calls == expected
        # Froberg: an edge ideal has a linear resolution iff the complement
        # of its graph is chordal
        assert verdict == is_chordal(complement_graph(graph))[0]

    def test_fallback_cap_names_its_constant(self, monkeypatch):
        n, edges, _ = _LONG_ROUTES["Betti fallback"]
        monkeypatch.setattr(verification, "MAX_FALLBACK_LCMS", 10)
        with pytest.raises(ResourceLimitError, match="verification.MAX_FALLBACK_LCMS = 10 "):
            has_linear_resolution(edge_ideal(Graph(n, edges)))


# sha256 of dumps_report(run_all(seed=s)): a change to any family (its draws,
# skips or order), check or report note shows up here, so only a change that
# means to alter the reports records new digests.
RUN_ALL_DIGESTS = {
    0: "644a9770c9e7c4a3804f47bc86db059a7145b60821e5ed3762f1aef910c0956d",
    1: "2b64b632f9b040338859d0a7b9006c115ffd0da554c9d506cf80ae34f7530332",
}
_TOO_SMALL = "max_n is too small"


class TestSuites:
    def test_run_all_passes_at_quick_budgets(self):
        for seed, digest in RUN_ALL_DIGESTS.items():
            reports = run_all(seed=seed)
            assert {r["suite"] for r in reports} == set(SUITES)
            failed = [r["suite"] for r in reports if not r["passed"]]
            assert failed == []
            assert all(r["instances"] > 0 for r in reports)
            text = serialization.dumps_report(reports)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, seed

    def test_power_suite_rejects_non_quasi_tree_input(self, near_miss):
        with pytest.raises(DomainError):
            check_power_linear_resolutions(samples=0, complexes=[near_miss])

    def test_reports_carry_witnesses_on_failure(self, monkeypatch):
        # every instance of the power suite fails once its predicate does:
        # the report counts them all and keeps the first few as witnesses,
        # on a run below MAX_RECORDED_FAILURES and on one above it
        monkeypatch.setattr(verification, "has_linear_resolution", lambda ideal, field: False)
        keys = {"suite", "passed", "instances", "failures", "failure_count", "notes"}
        counts = []
        for samples, max_power in ((1, 1), (5, 3)):
            report = check_power_linear_resolutions(samples=samples, max_n=6, max_power=max_power)
            assert set(report) == keys
            assert report["passed"] is False
            assert report["failure_count"] == report["instances"] > 0
            recorded = min(report["failure_count"], verification.MAX_RECORDED_FAILURES)
            assert len(report["failures"]) == recorded
            for witness in report["failures"]:
                assert set(witness) == {"complex", "ell", "power"}
                assert 1 <= witness["power"] <= max_power
            counts.append(report["failure_count"])
        assert counts[0] < verification.MAX_RECORDED_FAILURES < counts[1]

    @pytest.mark.parametrize(
        "suite, budgets, error, match",
        [
            (check_dual_ideal_identity, {"max_n": 1, "samples": 2}, DomainError, _TOO_SMALL),
            (check_cm_vs_linear_resolution, {"max_n": 4, "samples": 2}, DomainError, _TOO_SMALL),
            (check_projdim_regularity_duality, {"max_n": 6, "samples": 2}, DomainError, _TOO_SMALL),
            # its edge-ideal draws need 4 vertices, whichever kinds the seed draws first
            (check_restriction_resolution, {"ideals": 1, "max_n": 3}, DomainError, _TOO_SMALL),
            # 7,828,352 complexes on [6]
            (
                check_quasi_trees_are_flag,
                {"exhaustive_n": 6, "samples": 0},
                ResourceLimitError,
                "MAX_EXHAUSTIVE_INSTANCES .*exhaustive_n",
            ),
            # C(200000, 2) random bits per sampled graph
            (
                check_chordal_quasi_tree,
                {"max_n": 1, "samples": 1, "chordal_samples": 0, "sample_n": 200_000},
                ResourceLimitError,
                "sample_n = 200000 exceeds MAX_SAMPLED_VERTICES .*sample_n",
            ),
        ],
        ids=[
            "lemma-1.2",
            "thm-1.4a",
            "thm-1.4b",
            "lemma-4.3",
            "lemma-3.2-exhaustive_n",
            "thm-3.3-sample_n",
        ],
    )
    def test_unsampleable_budget_fails_before_the_exhaustive_family(
        self, suite, budgets, error, match, monkeypatch
    ):
        def unconsumed(max_n):
            raise AssertionError("the exhaustive family was enumerated")
            yield

        monkeypatch.setattr(verification, "_small_complexes", unconsumed)
        with pytest.raises(error, match=match):
            suite(**budgets)
