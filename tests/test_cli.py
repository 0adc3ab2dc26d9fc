"""The command-line surface: report schema, exit codes, determinism."""

import json
import time

import pytest

from srideals import cli

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
            ("power", {"vars": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, ["-k", "500"]),
            ("power", {"vars": 2, "generators": [[1, 0]]}, ["-k", str(10**20)]),
        ],
        ids=["huge-vars", "power-products", "power-factors"],
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

    def test_resource_limit_is_exit_3(self, run):
        gens = [[1 if k in (i, 13) else 0 for k in range(14)] for i in range(13)]
        code, report = run("betti", {"vars": 14, "generators": gens})
        assert code == 3
        assert report is None

    def test_failed_check_is_exit_2(self, run, monkeypatch):
        # force the verifier to report a failure to exercise the exit path
        monkeypatch.setattr(cli, "verify_leaf_order", lambda cx, order: False)
        code, report = run("quasitree", WORKED_EXAMPLE)
        assert code == 2
        assert any(not c["passed"] for c in report["checks"])


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
