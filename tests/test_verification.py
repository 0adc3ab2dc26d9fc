"""The bulk verification drivers at quick budgets, plus their generators."""

import pytest

from srideals import DomainError, SimplicialComplex, run_all
from srideals import verification
from srideals.verification import (
    SUITES,
    check_cm_vs_linear_resolution,
    check_dual_ideal_identity,
    check_power_linear_resolutions,
    check_projdim_regularity_duality,
    complex_from_masks,
    has_linear_resolution,
    iter_complexes_masks,
    random_chordal_graph,
    random_complex,
    random_quasi_tree,
)
import random

from srideals import MonomialIdeal, Monomial
from srideals.graphs import is_chordal
from srideals.quasitrees import leaf_order


class TestGenerators:
    def test_complex_enumeration_counts(self):
        # number of nonempty antichains on an n-set (Dedekind numbers
        # minus the empty and {emptyset} antichains): 1, 4, 18, 166
        counts = [sum(1 for _ in iter_complexes_masks(n)) for n in range(1, 5)]
        assert counts == [1, 4, 18, 166]

    def test_enumeration_yields_valid_complexes(self):
        for masks in iter_complexes_masks(3):
            cx = complex_from_masks(3, masks)
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


class TestSuites:
    def test_run_all_passes_at_quick_budgets(self):
        reports = run_all(seed=0)
        assert {r["suite"] for r in reports} == set(SUITES)
        failed = [r["suite"] for r in reports if not r["passed"]]
        assert failed == []
        assert all(r["instances"] > 0 for r in reports)

    def test_power_suite_rejects_non_quasi_tree_input(self, near_miss):
        with pytest.raises(DomainError):
            check_power_linear_resolutions(samples=0, complexes=[near_miss])

    def test_reports_carry_witnesses_on_failure(self):
        # feed the power suite a complex whose report must stay green,
        # then check the report shape contract on a real run
        report = check_power_linear_resolutions(samples=2, max_n=5, max_power=2)
        for key in ("suite", "passed", "instances", "failures", "failure_count", "notes"):
            assert key in report

    @pytest.mark.parametrize(
        "suite, budgets",
        [
            (check_dual_ideal_identity, {"max_n": 1, "samples": 2}),
            (check_cm_vs_linear_resolution, {"max_n": 4, "samples": 2}),
            (check_projdim_regularity_duality, {"max_n": 6, "samples": 2}),
        ],
        ids=["lemma-1.2", "thm-1.4a", "thm-1.4b"],
    )
    def test_unsampleable_budget_fails_before_the_exhaustive_family(
        self, suite, budgets, monkeypatch
    ):
        def unconsumed(max_n):
            raise AssertionError("the exhaustive family was enumerated")
            yield

        monkeypatch.setattr(verification, "_small_complexes", unconsumed)
        with pytest.raises(DomainError, match="max_n is too small"):
            suite(**budgets)
