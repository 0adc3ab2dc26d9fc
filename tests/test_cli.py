"""The command-line surface: report schema, exit codes, determinism."""

import contextlib
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srideals import SimplicialComplex, cli, run_suite, stanley_reisner_ideal, verification
from srideals.quasitrees import (
    _is_tree,
    facet_complement_generators,
    minor_certificates,
    relation_tree_from_edges,
    relation_trees,
)
from srideals.serialization import ideal_to_json, relation_tree_to_json
from srideals.verification import SUITES

WORKED_EXAMPLE = {"ambient": 6, "facets": [[1, 2, 3], [2, 3, 4], [3, 4, 5], [3, 4, 6]]}
NEAR_MISS = {"ambient": 6, "facets": [[1, 2, 3], [3, 4, 5], [2, 4, 6]]}


@pytest.fixture
def run(tmp_path, capsys):
    """Run the CLI with JSON input from a temp file; returns (exit, report)."""

    def _run(command, payload=None, *extra, raw=None):
        argv = [command]
        if payload is not None or raw is not None:
            path = tmp_path / "input.json"
            path.write_text(raw if raw is not None else json.dumps(payload))
            argv += ["-f", str(path)]
        argv += list(extra)
        code = cli.main(argv)
        out = capsys.readouterr().out
        return code, json.loads(out) if out else None

    return _run


class TestReports:
    def test_schema_and_envelope(self, run):
        code, report = run("dual", WORKED_EXAMPLE)
        assert code == 0
        assert report["schema"] == "v1"
        assert report["command"] == "dual"
        assert report["inputs"] == WORKED_EXAMPLE
        assert isinstance(report["timing_ms"], int)

    def test_dual_of_simplex_is_void(self, run):
        code, report = run("dual", {"ambient": 2, "facets": [[1, 2]]})
        assert code == 0
        assert report["result"]["dual"] == "void"

    def test_complement(self, run):
        code, report = run("complement", WORKED_EXAMPLE)
        assert code == 0
        assert report["result"]["complement"]["facets"] == [
            [1, 2, 5],
            [1, 2, 6],
            [1, 5, 6],
            [4, 5, 6],
        ]

    def test_skeleton(self, run):
        code, report = run("skeleton", {"ambient": 3, "facets": [[1, 2, 3]]}, "-i", "0")
        assert code == 0
        assert report["result"]["skeleton"]["facets"] == [[1], [2], [3]]

    def test_nonfaces_and_flag(self, run):
        code, report = run("nonfaces", WORKED_EXAMPLE)
        assert code == 0
        assert report["result"]["flag"] is True
        assert [5, 6] in report["result"]["nonfaces"]

    @pytest.mark.parametrize("ambient", [63, 1024])
    @pytest.mark.parametrize("command", ["nonfaces", "dual", "sr-ideal"])
    def test_large_ambient_is_output_sensitive(self, run, command, ambient):
        payload = {"ambient": ambient, "facets": [[1, 2], [3, 4]]}
        nonfaces = [[v] for v in range(5, ambient + 1)] + [[1, 3], [1, 4], [2, 3], [2, 4]]
        start = time.perf_counter()
        code, report = run(command, payload)
        assert time.perf_counter() - start < 10
        assert code == 0
        result = report["result"]
        if command == "nonfaces":
            assert result == {"flag": True, "nonfaces": nonfaces}
        elif command == "dual":
            full = set(range(1, ambient + 1))
            dual = {tuple(sorted(full - set(f))) for f in nonfaces}
            assert {tuple(f) for f in result["dual"]["facets"]} == dual
        else:
            supports = [
                [v + 1 for v, e in enumerate(g) if e] for g in result["ideal"]["generators"]
            ]
            assert sorted(supports) == sorted(nonfaces)

    def test_facet_ideal_pretty(self, run):
        code, report = run(
            "facet-ideal", {"ambient": 3, "facets": [[1, 2], [3]]}, "--pretty"
        )
        assert code == 0
        assert report["result"]["ideal"]["generators"] == ["x3", "x1*x2"]

    def test_quasitree_leaf_order_is_one_based_and_verified(self, run):
        code, report = run("quasitree", WORKED_EXAMPLE)
        assert code == 0
        assert report["result"]["is_quasi_tree"] is True
        order = report["result"]["leaf_order"]
        assert sorted(order) == [1, 2, 3, 4]
        assert any(c["name"] == "leaf-order-verified" and c["passed"] for c in report["checks"])

    def test_quasitree_negative(self, run):
        code, report = run("quasitree", NEAR_MISS)
        assert code == 0
        assert report["result"]["is_quasi_tree"] is False
        assert report["result"]["leaf_order"] is None

    def test_quasitree_minimalize_flag(self, run):
        payload = {"ambient": 3, "facets": [[1], [1, 2]]}
        code, _ = run("quasitree", payload)
        assert code == 1  # not an antichain
        code, report = run("quasitree", payload, "--minimalize")
        assert code == 0
        assert report["inputs"]["facets"] == [[1, 2]]

    def test_relation_trees(self, run):
        code, report = run("relation-trees", WORKED_EXAMPLE)
        assert code == 0
        assert report["result"]["count"] == 3
        edge_sets = {tuple(map(tuple, t["edges"])) for t in report["result"]["trees"]}
        assert edge_sets == {
            ((1, 2), (2, 3), (2, 4)),
            ((1, 2), (2, 3), (3, 4)),
            ((1, 2), (2, 4), (3, 4)),
        }
        assert all(c["passed"] for c in report["checks"])

    def test_relation_trees_reply_leaves_no_reference_cycle(self, run, cyclic_garbage):
        run("relation-trees", WORKED_EXAMPLE)  # the first call builds the parser
        assert cyclic_garbage(run, "relation-trees", WORKED_EXAMPLE) == 0

    def test_relation_trees_without_covering_facets(self, run):
        # vertex 3 unused: reconstruction works up to the common factor
        payload = {"ambient": 3, "facets": [[1], [2]]}
        code, report = run("relation-trees", payload)
        assert code == 0
        assert all(c["passed"] for c in report["checks"])

    def test_mdelta(self, run):
        code, report = run("mdelta", WORKED_EXAMPLE, "--pretty")
        assert code == 0
        assert report["result"]["cols"] == 4
        first = report["result"]["rows"][0]
        assert first["pair"] == [1, 2]
        assert {"col": 1, "sign": 1, "monomial": "x1"} in first["entries"]

    @pytest.mark.parametrize("pretty", [False, True], ids=["exponents", "pretty"])
    def test_mdelta_reply_holds_every_row_in_order(self, run, pretty):
        # (i, j, F_i \ F_j, F_j \ F_i), 1-based, for i < j in order; each row
        # holds +x_{F_i \ F_j} in column i, then -x_{F_j \ F_i} in column j
        differences = [
            (1, 2, [1], [4]),
            (1, 3, [1, 2], [4, 5]),
            (1, 4, [1, 2], [4, 6]),
            (2, 3, [2], [5]),
            (2, 4, [2], [6]),
            (3, 4, [5], [6]),
        ]

        def monomial(support):
            if pretty:
                return "*".join(f"x{v}" for v in support)
            return [int(v in support) for v in range(1, 7)]

        code, report = run("mdelta", WORKED_EXAMPLE, *["--pretty"][: int(pretty)])
        assert code == 0
        assert report["result"] == {
            "cols": 4,
            "rows": [
                {
                    "pair": [i, j],
                    "entries": [
                        {"col": i, "sign": 1, "monomial": monomial(f_i)},
                        {"col": j, "sign": -1, "monomial": monomial(f_j)},
                    ],
                }
                for i, j, f_i, f_j in differences
            ],
        }

    def test_betti_projdim_reg(self, run):
        ideal = {"vars": 2, "generators": [[1, 0], [0, 1]]}
        code, report = run("betti", ideal)
        assert code == 0
        assert report["result"]["projdim"] == 1
        assert report["result"]["linear"] is True
        code, report = run("projdim", ideal, "--field", "gf2")
        assert report["result"]["projdim"] == 1
        code, report = run("reg", ideal)
        assert report["result"]["reg"] == 1

    def test_chordal_with_witness(self, run):
        code, report = run("chordal", {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]})
        assert code == 0
        assert report["result"]["chordal"] is False
        assert report["checks"][0]["name"] == "witness-chordless-cycle"
        assert report["checks"][0]["passed"] is True

    def test_chordal_graph6(self, run):
        code, report = run("chordal", None, "--graph6", raw="A_\n")
        assert code == 0
        assert report["result"]["chordal"] is True

    def test_clique_complex_and_dirac(self, run):
        graph = {"n": 5, "edges": [[1, 2], [1, 3], [2, 3], [3, 4], [4, 5]]}
        code, report = run("clique-complex", graph)
        assert code == 0
        assert report["result"]["complex"]["facets"] == [[3, 4], [4, 5], [1, 2, 3]]
        code, report = run("dirac", graph)
        assert code == 0
        assert report["result"]["agree"] is True

    def test_higher_dirac(self, run):
        code, report = run("higher-dirac", NEAR_MISS)
        assert code == 0
        assert report["result"]["holds"] is True
        assert report["result"]["isolated_vertices"] == []

    def test_higher_dirac_stops_at_the_first_missing_face(self, run):
        # four blocks of 6 vertices, one facet per pair of blocks: the
        # 1-skeleton is complete, so the candidate's 11-skeleton has
        # C(24, 12) = 2,704,156 faces, and its second face is already missing
        blocks = [list(range(6 * b + 1, 6 * b + 7)) for b in range(4)]
        facets = [a + b for i, a in enumerate(blocks) for b in blocks[i + 1 :]]
        start = time.perf_counter()
        code, report = run("higher-dirac", {"ambient": 24, "facets": facets})
        assert time.perf_counter() - start < 2
        assert code == 0
        result = report["result"]
        assert result["holds"] is True
        assert result["chordal"] is True
        assert result["skeleton_of_quasi_tree"] is False
        assert result["chordal_and_skeleton_of_clique_complex"] is False

    def test_power_and_restrict(self, run):
        ideal = {"vars": 2, "generators": [[1, 0], [0, 1]]}
        code, report = run("power", ideal, "-k", "2")
        assert code == 0
        assert report["result"]["ideal"]["generators"] == [[0, 2], [1, 1], [2, 0]]
        code, report = run(
            "restrict", {"vars": 2, "generators": [[2, 0], [1, 1], [0, 2]]}, "-a", "1,1"
        )
        assert code == 0
        assert report["result"]["ideal"]["generators"] == [[1, 1]]

    def test_shelling(self, run):
        code, report = run("shelling", {"ambient": 4, "facets": [[1, 2], [3, 4]]})
        assert code == 0
        assert report["result"]["shellable"] is False

    def test_linear_quotients(self, run):
        code, report = run(
            "linear-quotients",
            {"vars": 4, "generators": [[1, 1, 0, 0], [0, 0, 1, 1]]},
        )
        assert code == 0
        assert report["result"]["has_linear_quotients"] is False

    def test_verify_single_suite(self, run):
        code, report = run("verify", None, "lemma-1.1", "--max-n", "3")
        assert code == 0
        (suite_report,) = report["result"]["reports"]
        assert suite_report["suite"] == "lemma-1.1"
        assert suite_report["passed"] is True
        assert suite_report["instances"] > 0

    def test_verify_all_applies_each_budget_to_every_suite_that_takes_it(self, run):
        code, report = run("verify", None, "all", "--field", "gf2", "--samples", "1")
        assert code == 0
        notes = {r["suite"]: r["notes"] for r in report["result"]["reports"]}
        with_field = {s for s, n in notes.items() if "field" in n}
        assert with_field == {"thm-1.4a", "thm-1.4b", "cor-2.2", "lemma-4.3", "thm-4.4"}
        assert all(notes[s]["field"] == "GF(2)" for s in with_field)
        with_samples = [s for s, n in notes.items() if "samples" in n]
        assert len(with_samples) == 14
        assert all(notes[s]["samples"] == 1 for s in with_samples)

    def test_verify_power_suite_with_explicit_complex(self, run, tmp_path):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(WORKED_EXAMPLE))
        code, report = run(
            "verify", None, "thm-4.4", "--complex", str(path), "--max-power", "2"
        )
        assert code == 0
        (suite_report,) = report["result"]["reports"]
        assert suite_report["notes"]["explicit_complexes"] == 1
        assert suite_report["passed"] is True


class TestExitCodes:
    def test_malformed_json_is_usage_error(self, run, capsys):
        code, report = run("dual", None, raw="{not json")
        assert code == 1
        assert report is None

    def test_unknown_suite(self, run):
        code, _ = run("verify", None, "lemma-9.9")
        assert code == 1

    def test_bad_field(self, run):
        code, _ = run("projdim", {"vars": 2, "generators": [[1, 0]]}, "--field", "gf6")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["lemma-4.3", "--samples", "1"],  # a budget the suite does not take
            ["lemma-1.2", "--field", "gf2"],
            ["prop-1.3", "--max-n", "3"],  # budgets the suite cannot run
            ["thm-1.4c", "--max-n", "2"],
            ["thm-1.4c", "--max-facets", "1"],
            ["thm-4.4", "--max-n", "2"],
            ["thm-1.4a", "--max-n", "4", "--samples", "2"],
            ["thm-1.4b", "--max-n", "6", "--samples", "2"],
            ["lemma-1.2", "--samples", "-1"],
            ["thm-4.4", "--max-power", "-1"],
            ["thm-4.4", "--complex", "{missing}"],
            ["all", "--complex", "{complex}"],
        ],
        ids=" ".join,
    )
    def test_unusable_verify_budget_is_exit_1(self, argv, tmp_path, capsys):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(WORKED_EXAMPLE))
        paths = {"missing": tmp_path / "missing.json", "complex": path}
        argv = [arg.format_map(paths) for arg in argv]
        assert cli.main(["verify", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, budget",
        [
            (["lemma-2.1", "--max-facets", "1"], "max_facets"),
            (["cor-2.2", "--max-n", "1"], "max_n"),
            (["lemma-1.1", "--max-n", "0"], "max_n"),
            (["thm-4.4", "--max-power", "0"], "max_power"),
            (["thm-4.4", "--max-power", "0", "--complex", "{complex}"], "max_power"),
        ],
        ids=["lemma-2.1", "cor-2.2", "lemma-1.1", "thm-4.4", "thm-4.4 --complex"],
    )
    def test_budget_that_empties_a_family_is_exit_1(self, argv, budget, tmp_path, capsys):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(WORKED_EXAMPLE))
        argv = [arg.format(complex=path) for arg in argv]
        assert cli.main(["verify", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {budget} is too small for this suite")

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("dual", {"ambient": 3, "facets": [[1, "a"]]}),
            ("chordal", {"n": 3, "edges": [[1, 2, 3]]}),
            ("chordal", {"n": 3, "edges": 5}),
            ("betti", {"vars": "2", "generators": ["x1"]}),
            ("dual", {"ambient": True, "facets": [[1]]}),
            ("chordal", {"n": True, "edges": []}),
            ("betti", {"vars": 2, "generators": [[True, 0]]}),
        ],
    )
    def test_malformed_input_is_exit_1(self, command, payload, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert cli.main([command, "-f", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, payload, extra",
        [
            ("betti", {"vars": 10**18, "generators": ["x1"]}, []),
            # the cap runs before a list generator's length is compared with "vars"
            ("betti", {"vars": 10**18, "generators": [[1]]}, []),
            ("power", {"vars": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, ["-k", "500"]),
            ("power", {"vars": 2, "generators": [[1, 0]]}, ["-k", str(10**20)]),
        ],
        ids=["huge-vars", "huge-vars-list", "power-products", "power-factors"],
    )
    def test_input_beyond_a_cap_is_exit_3(self, command, payload, extra, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert cli.main([command, "-f", str(path), *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "MAX_" in captured.err

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("dual", {"ambient": 10**18, "facets": [[1]]}),
            ("facet-ideal", {"ambient": 10**18, "facets": [[1]]}),
            ("chordal", {"n": 10**12, "edges": [[1, 2]]}),
        ],
        ids=["dual", "facet-ideal", "chordal"],
    )
    def test_huge_vertex_count_is_exit_3(self, command, payload, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert cli.main([command, "-f", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "MAX_VARS" in captured.err

    @pytest.mark.parametrize("command", ["nonfaces", "dual", "sr-ideal"])
    def test_too_many_transversals_is_prompt_exit_3(self, command, tmp_path, capsys):
        # facet i misses only {2i-1, 2i}: 2^40 minimal nonfaces
        facets = [[v for v in range(1, 81) if (v + 1) // 2 != i] for i in range(1, 41)]
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"ambient": 80, "facets": facets}))
        start = time.perf_counter()
        assert cli.main([command, "-f", str(path)]) == 3
        assert time.perf_counter() - start < 10
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: resource limit: ")
        assert "MAX_TRANSVERSALS" in captured.err

    @pytest.mark.parametrize("command", ["dirac", "clique-complex", "higher-dirac"])
    def test_clique_complex_cap_is_named(self, command, tmp_path, capsys):
        if command == "higher-dirac":
            payload = {"ambient": 40, "facets": [[1, 2], [2, 3]]}
        else:
            payload = {"n": 40, "edges": [[1, 2]]}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert cli.main([command, "-f", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: resource limit: ")
        assert "MAX_CLIQUE_VERTICES" in captured.err

    def test_field_beyond_the_characteristic_cap_is_prompt_exit_3(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"vars": 2, "generators": [[1, 0], [0, 1]]}))
        field = "gf1000000000000000000000000000057"
        start = time.perf_counter()
        assert cli.main(["betti", "-f", str(path), "--field", field]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "MAX_CHARACTERISTIC" in captured.err

    def test_largest_allowed_characteristic_is_accepted(self, run):
        ideal = {"vars": 2, "generators": [[1, 0], [0, 1]]}
        code, report = run("projdim", ideal, "--field", "gf2147483647")
        assert code == 0
        assert report["result"] == {"projdim": 1}

    def test_linear_quotients_takes_no_field(self, run):
        code, _ = run("linear-quotients", {"vars": 2, "generators": [[1, 0]]}, "--field", "gf2")
        assert code == 1

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_resource_limit_is_exit_3(self, tmp_path, capsys):
        gens = [[1 if k in (i, 13) else 0 for k in range(14)] for i in range(13)]
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"vars": 14, "generators": gens}))
        assert cli.main(["betti", "-f", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: resource limit: generators = 13 exceeds "
            "homological.MAX_BETTI_GENERATORS = 12\n"
        )

    def test_reply_integer_past_the_digit_limit_is_exit_3(self, tmp_path, capsys):
        # 100 times a 4,299-digit exponent has 4,301 digits, one past what
        # the interpreter converts to a string
        path = tmp_path / "input.json"
        path.write_text('{"vars": 1, "generators": [[' + "9" * 4299 + "]]}")
        assert cli.main(["power", "-f", str(path), "-k", "100"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: resource limit: the reply cannot be written: ")
        assert "integer string conversion" in captured.err

    def test_pretty_reply_integer_past_the_digit_limit_is_exit_3(self, tmp_path, capsys):
        # --pretty writes the exponent into an x1^e string inside the step
        path = tmp_path / "input.json"
        path.write_text('{"vars": 1, "generators": [[' + "9" * 4299 + "]]}")
        assert cli.main(["power", "--pretty", "-f", str(path), "-k", "100"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: resource limit: the reply cannot be written: ")
        assert "integer string conversion" in captured.err

    @pytest.mark.parametrize(
        "command, payload, cap",
        [
            (
                "shelling",
                {"ambient": 13, "facets": [[v] for v in range(1, 14)]},
                "facets = 13 exceeds homological.MAX_SHELLING_FACETS = 12",
            ),
            (
                "projdim",
                {"vars": 17, "generators": [[1] * 17]},
                "variables = 17 exceeds homological.MAX_BETTI_VARS = 16",
            ),
            (
                # over both input caps: the generator cap is checked first
                "projdim",
                {
                    "vars": 17,
                    "generators": [[int(k in (i, 16)) for k in range(17)] for i in range(13)],
                },
                "generators = 13 exceeds homological.MAX_BETTI_GENERATORS = 12",
            ),
        ],
        ids=["shelling", "projdim", "projdim-generators"],
    )
    def test_cap_error_names_its_constant(self, command, payload, cap, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert cli.main([command, "-f", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: resource limit: {cap}\n"

    def test_projdim_of_the_zero_ideal_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"vars": 2, "generators": []}))
        assert cli.main(["projdim", "-f", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Betti table of the zero ideal is undefined\n"

    def test_failed_check_is_exit_2(self, run, monkeypatch):
        # force the verifier to report a failure to exercise the exit path
        monkeypatch.setattr(cli, "verify_leaf_order", lambda cx, order: False)
        code, report = run("quasitree", WORKED_EXAMPLE)
        assert code == 2
        assert any(not c["passed"] for c in report["checks"])

    @pytest.mark.parametrize(
        "payload, covering",
        [(WORKED_EXAMPLE, True), ({"ambient": 5, "facets": [[1], [2, 3], [2, 4]]}, False)],
    )
    def test_one_bad_tree_among_relation_trees_is_one_failed_check(
        self, run, monkeypatch, payload, covering
    ):
        # A spanning tree that is no relation tree, with Taylor labels, slipped
        # into the middle of the list: on a covering complex the minor
        # certificate rejects it, otherwise only reconstruction can.
        cx = SimplicialComplex(payload["ambient"], payload["facets"])
        trees = relation_trees(cx)
        t = len(cx.facets)
        bad = next(
            relation_tree_from_edges(facet_complement_generators(cx), edges)
            for edges in itertools.combinations(itertools.combinations(range(t), 2), t - 1)
            if _is_tree(t, edges) and edges not in {tr.edges for tr in trees}
        )
        if covering:
            assert minor_certificates(cx, [bad]) == [False]
        middle = len(trees) // 2
        monkeypatch.setattr(
            cli, "relation_trees", lambda cx, limit: trees[:middle] + [bad] + trees[middle:]
        )
        code, report = run("relation-trees", payload)
        assert code == 2
        assert report["result"]["count"] == len(trees) + 1
        assert report["checks"] == [
            {"name": "tree-certificate", "passed": False, "witness": relation_tree_to_json(bad)}
        ]


class TestDeterminism:
    def test_same_input_same_report(self, run):
        _, first = run("verify", None, "thm-3.6", "--samples", "20")
        _, second = run("verify", None, "thm-3.6", "--samples", "20")
        first.pop("timing_ms")
        second.pop("timing_ms")
        assert first == second

    def test_seed_changes_the_sampled_family(self, run):
        _, a = run("verify", None, "prop-1.3", "--samples", "10", "--seed", "1")
        _, b = run("verify", None, "prop-1.3", "--samples", "10", "--seed", "2")
        assert a["result"]["reports"] != b["result"]["reports"]


# The 6-vertex real projective plane: its face ring has a Betti table
# that differs over QQ and GF(2).
RP2 = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]
CLI_CORPUS = Path(__file__).resolve().parents[1] / "bench" / "data" / "cli.json"


class TestReentrancy:
    """``main`` may be called any number of times in one process."""

    def test_frozen_corpus_replays_in_either_order(self, monkeypatch, capsys):
        # each reply is also byte for byte what json.dumps writes
        requests = json.loads(CLI_CORPUS.read_text())["requests"]
        assert len(requests) == 100
        for request in requests + requests[::-1]:
            monkeypatch.setattr(sys, "stdin", io.StringIO(request["stdin"]))
            code = cli.main(list(request["argv"]))
            out = capsys.readouterr().out
            report = json.loads(out)
            assert out == json.dumps(report, indent=2, sort_keys=True) + "\n", request["argv"]
            report.pop("timing_ms")
            assert (code, report) == (request["exit"], request["report"]), request["argv"]

    def test_verify_budget_does_not_stick(self, run):
        _, sampled = run("verify", None, "thm-3.6", "--samples", "5")
        assert sampled["result"]["reports"][0]["notes"]["samples"] == 5
        code, plain = run("verify", None, "thm-3.6")
        assert code == 0
        assert plain["result"]["reports"] == [run_suite("thm-3.6")]

    def test_field_does_not_stick(self, run):
        ideal = ideal_to_json(stanley_reisner_ideal(SimplicialComplex(6, RP2)))
        _, over_qq = run("betti", ideal, "--field", "q")
        _, over_gf2 = run("betti", ideal, "--field", "gf2")
        assert over_gf2["result"] != over_qq["result"]
        _, default = run("betti", ideal)
        assert default["result"] == over_qq["result"]

    def test_parser_is_built_once(self, run, monkeypatch):
        cli._build_parser.cache_clear()
        builds = []
        add_subparsers = cli._Parser.add_subparsers

        def spy(parser, **kwargs):
            builds.append(parser)
            return add_subparsers(parser, **kwargs)

        monkeypatch.setattr(cli._Parser, "add_subparsers", spy)
        for command in ("dual", "quasitree", "dual"):
            assert run(command, WORKED_EXAMPLE)[0] == 0
        assert run("betti", {"vars": 2, "generators": [[1, 0]]}, "--field", "gf2")[0] == 0
        assert cli.main(["frobnicate"]) == 1
        assert len(builds) == 1


def _run_module(argv, stdout):
    """``python -m srideals`` on argv in a child writing to stdout."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "srideals", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


class TestModuleEntryPoint:
    ARGV = ["verify", "lemma-1.1", "--max-n", "2"]

    def test_python_dash_m_runs_the_cli(self):
        proc = _run_module(self.ARGV, subprocess.PIPE)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout)["result"]["reports"][0]["instances"] == 5

    def test_closed_stdout_keeps_the_exit_code(self):
        # the read end is closed before the child starts, so its report
        # write fails with EPIPE for certain
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _run_module(self.ARGV, write)
        finally:
            os.close(write)
        assert proc.returncode == 0
        assert proc.stderr == ""


def _capped_exit_3(tmp_path, payload, argv, cap):
    """Run the CLI on payload (if any; its file name ends argv) in a child
    under a 1 GB address-space limit, so exhausting memory fails the test
    instead of the machine, and check that it stops promptly with exit 3
    naming the cap."""
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        argv = [*argv, str(path)]
    child = textwrap.dedent(
        """
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from srideals import cli
        sys.exit(cli.main(sys.argv[1:]))
        """
    )
    src = Path(cli.__file__).resolve().parents[1]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert time.perf_counter() - start < 20
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: resource limit: ")
    assert cap in proc.stderr


class TestRelationTreeCap:
    def test_large_star_is_prompt_exit_3(self, tmp_path):
        # 14 facets meeting only in vertex 1: 14^12 relation trees
        facets = [[1, 2 * i, 2 * i + 1] for i in range(1, 15)]
        payload = {"ambient": 29, "facets": facets}
        _capped_exit_3(tmp_path, payload, ["relation-trees", "-f"], "MAX_RELATION_TREES")


class TestSuiteCaps:
    @pytest.mark.parametrize(
        "argv",
        [
            # 2^C(6, 3) = 1,048,576 sets of triangles on 6 vertices
            ["verify", "lemma-1.1", "--max-n", "6"],
            # C(63, 4) = 595,665 four-facet candidates on 6 vertices
            ["verify", "lemma-2.1", "--max-n", "6"],
            ["verify", "lemma-2.1", "--max-facets", "1000000000"],
            ["verify", "cor-2.2", "--max-n", "8"],
            # 2^C(8, 2) = 2^28 graphs on 8 vertices
            ["verify", "thm-3.3", "--max-n", "8"],
            ["verify", "all", "--max-n", "6"],
        ],
        ids=["lemma-1.1", "lemma-2.1", "lemma-2.1-facets", "cor-2.2", "thm-3.3", "all"],
    )
    def test_large_exhaustive_family_is_prompt_exit_3(self, tmp_path, argv):
        _capped_exit_3(tmp_path, None, argv, "MAX_EXHAUSTIVE_INSTANCES")

    @pytest.mark.parametrize(
        "argv",
        [
            # n beyond a C ssize_t: listing the candidate facets overflowed
            ["verify", "thm-1.4c", "--samples", "2", "--max-n", str(10**30)],
            # a random graph on up to 10^5 vertices draws C(n, 2) coins
            ["verify", "prop-1.3", "--samples", "1", "--max-n", "100000"],
        ],
        ids=["thm-1.4c", "prop-1.3"],
    )
    def test_huge_sampled_vertex_count_is_prompt_exit_3(self, tmp_path, argv):
        _capped_exit_3(tmp_path, None, argv, "verification.MAX_SAMPLED_VERTICES")

    def test_shelling_budget_beyond_the_search_cap_is_refused_up_front(
        self, monkeypatch, capsys
    ):
        # thm-1.4c would draw complexes of up to 30 facets and then stop at
        # the first shelling search over 12; no complex may be drawn at all
        def no_draw(*args):
            raise AssertionError("a complex was drawn")

        monkeypatch.setattr(verification, "random_pure_complex", no_draw)
        argv = ["verify", "thm-1.4c", "--max-facets", "30", "--samples", "200"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == (
            "error: resource limit: max_facets = 30 exceeds "
            "homological.MAX_SHELLING_FACETS = 12 (lower --max-facets)\n"
        )
        # on 5 vertices no draw has more than C(5, 2) = 10 facets
        monkeypatch.undo()
        assert cli.main([*argv[:4], "--samples", "5", "--max-n", "5"]) == 0

    def test_names_the_flag(self, capsys):
        assert cli.main(["verify", "thm-3.3", "--max-n", "7"]) == 3
        assert "--max-n" in capsys.readouterr().err
        assert cli.main(["verify", "cor-2.2", "--max-facets", "5"]) == 3
        assert "--max-facets" in capsys.readouterr().err


class TestSkeletonCap:
    @pytest.mark.parametrize(
        "payload, argv",
        [
            # the 1-skeleton complement scans C(1024, 2) = 523,776 pairs
            ({"ambient": 1024, "facets": [[1, 2, 3]]}, ["verify", "thm-4.4", "--complex"]),
            # the 19-skeleton of the 40-simplex has C(40, 20) faces
            ({"ambient": 40, "facets": [list(range(1, 41))]}, ["skeleton", "-i", "19", "-f"]),
        ],
        ids=["skeleton-complement", "skeleton"],
    )
    def test_large_skeleton_is_prompt_exit_3(self, tmp_path, payload, argv):
        _capped_exit_3(tmp_path, payload, argv, "MAX_SKELETON_FACES")


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 12)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3)
)
_FACET = st.lists(st.integers(0, 11), max_size=6) | st.lists(_SCALARS, max_size=3) | _SCALARS


@st.composite
def _antichains(draw):
    n = draw(st.integers(1, 10))
    faces = draw(st.lists(st.frozensets(st.integers(1, n), min_size=1), max_size=6, unique=True))
    return {"ambient": n, "facets": [sorted(f) for f in faces if not any(f < g for g in faces)]}


# well-formed complexes, then ill-formed ones of every kind
_COMPLEX = (
    _antichains()
    | st.fixed_dictionaries(
        {
            "ambient": st.integers(-1, 10) | _SCALARS,
            "facets": st.lists(_FACET, max_size=6) | _SCALARS,
        }
    )
    | st.dictionaries(st.sampled_from(["ambient", "facets", "n"]), _SCALARS, max_size=2)
    | st.lists(_SCALARS, max_size=3)
    | _SCALARS
)
_NO_FLAGS = st.just([])
_PRETTY = st.sampled_from([[], ["--pretty"]])
# the subcommands that read a complex, each with the flags it takes
_COMPLEX_COMMANDS = {
    "dual": _NO_FLAGS,
    "complement": _NO_FLAGS,
    "skeleton": (st.integers(-1, 10) | st.integers()).map(lambda i: ["-i", str(i)])
    | st.text(max_size=4).map(lambda i: ["-i", i]),
    "nonfaces": _NO_FLAGS,
    "sr-ideal": _PRETTY,
    "facet-ideal": _PRETTY,
    "quasitree": st.sampled_from([[], ["--minimalize"]]),
    "relation-trees": _NO_FLAGS | st.integers(-2, 5).map(lambda k: ["--limit", str(k)]),
    "mdelta": _PRETTY,
    "higher-dirac": _NO_FLAGS,
    "shelling": _NO_FLAGS,
}


def _monomial_texts(lo, hi):
    """Products like x2^3*x1^0 of variables in lo..hi."""
    factor = st.tuples(st.integers(lo, hi), st.integers(0, 3)).map(lambda ve: f"x{ve[0]}^{ve[1]}")
    return st.lists(factor, min_size=1, max_size=3).map("*".join)


@st.composite
def _ideals(draw):
    n = draw(st.integers(1, 5))
    vectors = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    gens = draw(st.lists(vectors | _monomial_texts(1, n), max_size=5))
    return {"vars": n, "generators": gens}


# well-formed ideals, then ill-formed ones of every kind
_IDEAL = (
    _ideals()
    | st.fixed_dictionaries(
        {
            "vars": st.integers(-1, 6) | _SCALARS,
            "generators": st.lists(_FACET | _monomial_texts(-1, 7), max_size=5) | _SCALARS,
        }
    )
    | st.dictionaries(st.sampled_from(["vars", "generators", "n"]), _SCALARS, max_size=2)
    | _SCALARS
)
_FIELD = st.sampled_from(
    ["q", "gf2", "gf3", "gf4", "gf", "gf0", "gf-3", "gfx", "r", "gf2147483647", "gf2147483648"]
)
_COUNT = st.integers(-2, 5) | st.integers() | st.text(max_size=3)
_WITH_FIELD = _NO_FLAGS | _FIELD.map(lambda f: ["--field", f])
# the subcommands that read an ideal, each with the flags it takes
_IDEAL_COMMANDS = {
    "betti": _WITH_FIELD,
    "projdim": _WITH_FIELD,
    "reg": _WITH_FIELD,
    "power": st.tuples(_COUNT, _PRETTY).map(lambda kp: ["-k", str(kp[0]), *kp[1]]),
    "restrict": st.tuples(
        st.lists(st.integers(0, 3), min_size=1, max_size=5).map(lambda a: ",".join(map(str, a)))
        | st.lists(st.integers(-1, 3), max_size=6).map(lambda a: ",".join(map(str, a)))
        | st.text(max_size=6),
        _PRETTY,
    ).map(lambda ap: ["-a", ap[0], *ap[1]]),
    "linear-quotients": _PRETTY,
}


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    return {"n": n, "edges": [list(e) for e in draw(st.lists(pairs, max_size=12))]}


# well-formed graphs, then ill-formed ones of every kind
_GRAPH = (
    _graphs()
    | st.fixed_dictionaries(
        {
            "n": st.integers(-1, 9) | _SCALARS,
            "edges": st.lists(_FACET, max_size=6) | _SCALARS,
        }
    )
    | st.dictionaries(st.sampled_from(["n", "edges", "ambient"]), _SCALARS, max_size=2)
    | _SCALARS
)

# lemma-1.2 and thm-1.4b, and "all", are left out: their fixed exhaustive
# prefix (n <= 5, set by no flag) takes seconds per run whatever the flags;
# their flags pass through the same parsing and budget checks as these.
_FUZZED_SUITES = sorted(set(SUITES) - {"lemma-1.2", "thm-1.4b"})
_BUDGET = st.integers(-1, 4) | st.sampled_from([10**6, 10**30, "", "x", "2.5"])
# each optional verify flag, the suite keyword it sets, and its values
_VERIFY_FLAGS = {
    "--seed": ("seed", st.integers(-3, 3) | st.text(max_size=3)),
    "--max-facets": ("max_facets", _BUDGET),
    "--max-power": ("max_power", _BUDGET),
    "--field": ("field", _FIELD),
    "--complex": ("complexes", st.sampled_from(["", "no-such-file.json"])),
}


@st.composite
def _verify_argv(draw):
    suite = draw(st.sampled_from([*_FUZZED_SUITES, "", "Lemma-1.1", "thm-4"]))
    takes = inspect.signature(SUITES[suite][0]).parameters if suite in SUITES else {}
    # at most 2 samples and an explicit max_n, for the suites that take
    # them, keep every run short
    argv = ["verify", suite]
    if "samples" in takes:
        argv += ["--samples", str(draw(st.integers(-1, 2)))]
    if "max_n" in takes:
        argv += ["--max-n", str(draw(_BUDGET))]
    # mostly flags the suite takes, sometimes one it does not
    own = [flag for flag, (key, _) in _VERIFY_FLAGS.items() if key in takes or key == "seed"]
    flags = draw(st.lists(st.sampled_from(own), unique=True, max_size=3))
    if draw(st.integers(0, 3)) == 0:
        flags.append(draw(st.sampled_from(sorted(set(_VERIFY_FLAGS) - set(flags)))))
    for flag in flags:
        argv += [flag, str(draw(_VERIFY_FLAGS[flag][1]))]
    return argv


_VERIFY_ARGV = _verify_argv()


def _exit_code(argv, stdin_text) -> int:
    """cli.main on argv with stdin_text as its stdin and its output dropped."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)
    finally:
        sys.stdin = saved


class TestFuzz:
    """Every input, however malformed, exits 0, 1, 2 or 3 with no traceback."""

    @given(
        st.sampled_from(sorted(_COMPLEX_COMMANDS)).flatmap(
            lambda c: st.tuples(st.just(c), _COMPLEX_COMMANDS[c])
        ),
        _COMPLEX.map(json.dumps) | st.text(max_size=8),
    )
    @example(("relation-trees", []), '{"ambient": 1, "facets": []}')
    @settings(max_examples=400, deadline=None)
    def test_every_complex_input_gets_a_documented_exit(self, command, text):
        name, flags = command
        assert _exit_code([name, *flags], text) in (0, 1, 2, 3)

    @given(
        st.sampled_from(sorted(_IDEAL_COMMANDS)).flatmap(
            lambda c: st.tuples(st.just(c), _IDEAL_COMMANDS[c])
        ),
        _IDEAL.map(json.dumps) | st.text(max_size=8),
    )
    # integers past the interpreter's 4,300-digit limit on int-str conversion
    @example(("betti", []), '{"vars": 1, "generators": [[' + "1" * 5000 + "]]}")
    @example(("betti", []), '{"vars": 1, "generators": ["x1^' + "1" * 5000 + '"]}')
    @settings(max_examples=300, deadline=None)
    def test_every_ideal_input_gets_a_documented_exit(self, command, text):
        name, flags = command
        assert _exit_code([name, *flags], text) in (0, 1, 2, 3)

    @given(
        st.sampled_from(["chordal", "clique-complex", "dirac"]),
        st.one_of(
            st.tuples(st.just([]), _GRAPH.map(json.dumps) | st.text(max_size=8)),
            st.tuples(st.just(["--graph6"]), st.text(max_size=12)),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_graph_input_gets_a_documented_exit(self, name, case):
        flags, text = case
        assert _exit_code([name, *flags], text) in (0, 1, 2, 3)

    @given(_VERIFY_ARGV, _COMPLEX.map(json.dumps))
    @settings(max_examples=150, deadline=None)
    def test_every_verify_flag_gets_a_documented_exit(self, argv, text):
        # "--complex" names a file; an empty name reads the complex from stdin
        assert _exit_code(argv, text) in (0, 1, 2, 3)
