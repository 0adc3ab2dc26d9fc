"""The bulk verification drivers at quick budgets, plus their generators."""

import functools
import hashlib
import itertools

import pytest

from srideals import DomainError, ResourceLimitError, SimplicialComplex, run_all
from srideals import betti_table, homological, serialization, verification
from srideals.verification import (
    SUITES,
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

from srideals import MonomialIdeal, Monomial, facet_ideal, power
from srideals.complexes import skeleton_complement
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

    def test_enumeration_leaves_no_reference_cycle(self, cyclic_garbage):
        # the recursive search is a closure that refers to itself
        assert cyclic_garbage(lambda: sum(1 for _ in iter_complexes_masks(4))) == 0

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


# Edge ideals, one for each route that has_linear_resolution takes, on 12
# generators and on fewer: (n, edges, the (step, verdict) calls in order).
# Whatever the generator count, a Betti table is built only when every
# certificate fails.
_LONG_ROUTES = {
    "canonical order, 5 generators": (
        5,
        [(1, 5), (2, 5), (3, 5), (4, 5), (3, 4)],
        [("verify_linear_quotients", True)],
    ),
    "Betti table, 2 generators": (
        4,
        [(1, 2), (3, 4)],
        [
            ("verify_linear_quotients", False),
            ("verify_linear_quotients", False),
            ("linear_quotients_order", False),
            ("_betti_table", False),
        ],
    ),
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
            ("_betti_table", False),
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
        spy("_betti_table", lambda table: table.is_linear(2))
        graph = Graph(n, edges)
        ideal = edge_ideal(graph)
        assert len(ideal.generators) == len(edges)
        verdict = has_linear_resolution(ideal)
        assert calls == expected
        # Froberg: an edge ideal has a linear resolution iff the complement
        # of its graph is chordal
        assert verdict == is_chordal(complement_graph(graph))[0]

    def test_power_path_builds_no_monomial(self, monkeypatch, worked_example):
        # thm-4.4's path past eleven generators reads exponent vectors only;
        # a computed ideal builds its Monomials when they are first read
        ideal = facet_ideal(skeleton_complement(worked_example, 1))
        built = []
        real = Monomial.__init__

        def counting(self, exponents):
            built.append(exponents)
            real(self, exponents)

        monkeypatch.setattr(Monomial, "__init__", counting)
        cube = power(ideal, 3)
        assert len(cube.exponents) > 11
        assert has_linear_resolution(cube)
        assert built == []
        monkeypatch.undo()
        # the cube is generated in one degree, so every product is minimal
        triples = itertools.combinations_with_replacement(ideal.generators, 3)
        products = {a * b * c for a, b, c in triples}
        expected = MonomialIdeal(ideal.num_vars, products)
        assert cube.generators == expected.generators
        assert cube == expected

    def test_fallback_cap_names_its_constant(self, monkeypatch):
        n, edges, _ = _LONG_ROUTES["Betti fallback"]
        monkeypatch.setattr(homological, "MAX_LCMS", 10)
        with pytest.raises(ResourceLimitError, match="homological.MAX_LCMS = 10 "):
            has_linear_resolution(edge_ideal(Graph(n, edges)))

    def test_certificate_needs_no_betti_caps(self):
        # five generators in 17 variables: past MAX_BETTI_VARS, so betti_table
        # refuses the ideal, but its canonical order has linear quotients
        _, edges, _ = _LONG_ROUTES["canonical order, 5 generators"]
        ideal = edge_ideal(Graph(17, edges))
        assert len(ideal.exponents) <= 11 and ideal.num_vars > homological.MAX_BETTI_VARS
        with pytest.raises(ResourceLimitError, match="homological.MAX_BETTI_VARS"):
            betti_table(ideal)
        assert has_linear_resolution(ideal)


# sha256 of dumps_report(run_all(seed=s)): a change to any family (its draws,
# skips or order), check or report note shows up here, so only a change that
# means to alter the reports records new digests.
RUN_ALL_DIGESTS = {
    0: "644a9770c9e7c4a3804f47bc86db059a7145b60821e5ed3762f1aef910c0956d",
    1: "2b64b632f9b040338859d0a7b9006c115ffd0da554c9d506cf80ae34f7530332",
}
# sha256 of dumps_report(run_suite("thm-4.4", seed=s)) at its keyword
# defaults (20 samples on up to 7 vertices, powers up to 3), which reach far
# larger powers than run_all's quick budgets.  A suite report carries no
# timing field, so the digest covers the whole report.
THM_44_DIGESTS = {
    0: "ed893b0fc004d27552272d6643e909a8f4f377d137b0e3ea9d5089c3c8d800ba",
    1: "7167138674ca755a2386f54b21b143db87101579ecb72513bed8bede9063b9fd",
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

    def test_power_suite_at_its_defaults(self):
        for seed, digest in THM_44_DIGESTS.items():
            report = verification.run_suite("thm-4.4", seed=seed)
            assert report["passed"]
            text = serialization.dumps_report(report)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, seed

    def test_power_suite_rejects_non_quasi_tree_input(self, near_miss):
        with pytest.raises(DomainError):
            check_power_linear_resolutions(samples=0, complexes=[near_miss])

    @pytest.mark.parametrize("suite", ["lemma-2.1", "cor-2.2"])
    def test_bitmask_suite_witnesses_are_canonical_complexes(self, suite, monkeypatch):
        # these suites draw facet bitmasks; each failure witness is still
        # the complex's own JSON, its facets in canonical order
        monkeypatch.setattr(verification, "leaf_order_masks", lambda masks: None)
        monkeypatch.setattr(verification, "MAX_RECORDED_FAILURES", 10**6)
        report = verification.run_suite(suite, max_n=4)
        assert len(report["failures"]) == report["failure_count"] > 0
        for witness in report["failures"]:
            found = witness.get("complex", witness)
            assert serialization.complex_to_json(serialization.complex_from_json(found)) == found

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
            # thm-3.3 samples at a fixed vertex count: sample_n is no budget
            (
                functools.partial(verification.run_suite, "thm-3.3"),
                {"max_n": 1, "samples": 1, "chordal_samples": 0, "sample_n": 200_000},
                DomainError,
                "no selected suite takes the budget sample_n$",
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

    @pytest.mark.parametrize(
        "suite, budget, value",
        [
            ("thm-4.4", "samples", 2.0),
            ("thm-4.4", "samples", True),
            ("thm-4.4", "max_power", 2.0),
            ("thm-4.4", "seed", 1.5),
            ("lemma-1.1", "seed", True),  # a suite that takes no seed
            ("thm-1.4a", "field", 0),
            ("thm-4.4", "complexes", [[1, 2]]),
            ("thm-4.4", "complexes", None),
        ],
        ids=lambda case: str(case).replace(" ", ""),
    )
    def test_budget_of_the_wrong_type_is_a_domain_error(self, suite, budget, value):
        # each budget must have the type of its suite parameter's default
        kind = {"field": "a FieldChoice", "complexes": "a list of SimplicialComplex"}
        match = f"^budget {budget} must be {kind.get(budget, 'an integer')}, got "
        with pytest.raises(DomainError, match=match):
            verification.run_suite(suite, **{budget: value})

    @pytest.mark.parametrize(
        "call, message",
        [
            (functools.partial(check_power_linear_resolutions, samples=True), "samples must be "),
            (functools.partial(check_power_linear_resolutions, samples=2.0), "samples must be "),
            (functools.partial(check_power_linear_resolutions, 1.5), "seed must be "),
            (functools.partial(check_cm_vs_linear_resolution, field=0), "field must be "),
            (
                functools.partial(check_quasi_trees_are_flag, exhaustive_n=None),
                "exhaustive_n must be ",
            ),
            (
                functools.partial(check_dual_ideal_identity, samples=-3, exhaustive_n=2),
                "samples must not be negative$",
            ),
            (functools.partial(check_power_linear_resolutions, 0, -1), "samples must not be "),
            (functools.partial(check_quasi_trees_are_flag, -1, -1), "exhaustive_n must not be "),
        ],
        ids=[
            "samples-True",
            "samples-2.0",
            "positional-seed",
            "field-0",
            "exhaustive_n-None",
            "samples--3",
            "positional-samples--1",
            "positional-exhaustive_n--1",
        ],
    )
    def test_a_direct_suite_call_checks_its_budget_types(self, call, message, monkeypatch):
        # the rule of run_suite, from defaults read once when the suite was
        # defined: no signature is taken per call; a negative seed is a seed
        monkeypatch.setattr(verification, "inspect", None)
        with pytest.raises(DomainError, match=f"^budget {message}"):
            call()
        assert check_power_linear_resolutions(samples=0)["instances"] == 0
        assert check_power_linear_resolutions(-1, samples=0)["instances"] == 0
