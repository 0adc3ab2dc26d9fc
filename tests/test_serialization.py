"""Wire formats: JSON round trips, monomial syntax, graph6 decoding, and
the report emitter."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from srideals import (
    GF2,
    DomainError,
    Graph,
    Monomial,
    MonomialIdeal,
    SimplicialComplex,
    betti_table,
    facet_ideal,
    relation_trees,
)
from srideals.serialization import (
    betti_to_json,
    complex_from_json,
    complex_to_json,
    dumps_report,
    graph_from_graph6,
    graph_from_json,
    graph_to_json,
    ideal_from_json,
    ideal_to_json,
    load_json,
    monomial_from_str,
    monomial_to_str,
    relation_tree_to_json,
    relation_trees_to_json,
)


class TestJsonBasics:
    def test_malformed_json_reports_position(self):
        with pytest.raises(DomainError, match=r"line 1, column"):
            load_json("{bad json")

    def test_complex_round_trip(self, worked_example):
        assert complex_from_json(complex_to_json(worked_example)) == worked_example

    def test_complex_requires_keys(self):
        with pytest.raises(DomainError, match="ambient"):
            complex_from_json({"facets": [[1]]})

    def test_complex_minimalize_flag(self):
        obj = {"ambient": 3, "facets": [[1], [1, 2]]}
        with pytest.raises(DomainError):
            complex_from_json(obj)
        assert complex_from_json(obj, minimalize=True).facets == ((1, 2),)

    def test_graph_round_trip(self):
        g = Graph(4, [(1, 2), (3, 4)])
        assert graph_from_json(graph_to_json(g)) == g


class TestMonomialSyntax:
    def test_parse_squarefree(self):
        assert monomial_from_str("x4*x5*x6", 6) == Monomial((0, 0, 0, 1, 1, 1))

    def test_parse_powers_and_spaces(self):
        assert monomial_from_str("x1^2 * x3", 3) == Monomial((2, 0, 1))

    def test_repeated_factor_accumulates(self):
        assert monomial_from_str("x1*x1", 2) == Monomial((2, 0))

    def test_round_trip(self):
        for mono in (Monomial((2, 0, 1)), Monomial((3, 2, 1)), Monomial((1, 1, 1))):
            assert monomial_from_str(monomial_to_str(mono), 3) == mono

    def test_degree_zero_prints_as_one(self):
        assert monomial_to_str(Monomial((0, 0))) == "1"

    def test_bad_factor_rejected(self):
        with pytest.raises(DomainError, match="cannot parse"):
            monomial_from_str("y1", 2)

    def test_variable_out_of_range(self):
        with pytest.raises(DomainError, match="out of range"):
            monomial_from_str("x3", 2)


class TestIdealJson:
    def test_string_and_vector_generators(self):
        obj = {"vars": 3, "generators": ["x1*x2", [0, 1, 1]]}
        ideal = ideal_from_json(obj)
        assert ideal == MonomialIdeal(
            3, [Monomial((1, 1, 0)), Monomial((0, 1, 1))]
        )

    def test_input_is_minimalized(self):
        obj = {"vars": 2, "generators": [[1, 0], [1, 1]]}
        assert ideal_from_json(obj).generators == (Monomial((1, 0)),)

    def test_round_trip_both_styles(self, worked_example):
        ideal = facet_ideal(worked_example)
        assert ideal_from_json(ideal_to_json(ideal)) == ideal
        assert ideal_from_json(ideal_to_json(ideal, pretty=True)) == ideal

    def test_zero_ideal_round_trip(self):
        assert ideal_from_json({"vars": 2, "generators": []}).is_zero

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(DomainError, match="length"):
            ideal_from_json({"vars": 2, "generators": [[1, 0, 0]]})


class TestGraph6:
    def test_two_vertices_with_edge(self):
        # 'A' encodes n=2; '_' encodes the single bit 1 (63 + 0b100000)
        assert graph_from_graph6("A_") == Graph(2, [(1, 2)])

    def test_two_vertices_without_edge(self):
        assert graph_from_graph6("A?") == Graph(2, [])

    def test_header_prefix_accepted(self):
        assert graph_from_graph6(">>graph6<<A_") == Graph(2, [(1, 2)])

    def test_five_vertex_complete_graph(self):
        # K5: n=5 ('D'), ten 1-bits packed into two characters
        g = graph_from_graph6("D~{")
        assert g.n == 5
        assert len(g.edges) == 10

    def test_bad_character_rejected(self):
        with pytest.raises(DomainError):
            graph_from_graph6("A\x1f")

    def test_truncated_string_rejected(self):
        with pytest.raises(DomainError, match="too short"):
            graph_from_graph6("D")


class TestBettiAndTreeJson:
    def test_betti_json_fields(self):
        ideal = MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, 1))])
        obj = betti_to_json(betti_table(ideal, GF2), ideal.generator_degrees)
        assert obj["projdim"] == 1
        assert obj["reg"] == 1
        assert obj["linear"] is True
        assert {"i": 1, "multidegree": [1, 1], "rank": 1} in obj["entries"]

    def test_relation_tree_json_form(self, worked_example):
        for tree in relation_trees(worked_example):
            assert relation_tree_to_json(tree) == {
                "t": 4,
                "edges": [[i + 1, j + 1] for i, j in tree.edges],
                "labels": {
                    f"{i + 1}-{j + 1}": {"u_ij": list(u.exponents), "u_ji": list(v.exponents)}
                    for (i, j), (u, v) in tree.labels
                },
            }

    def test_trees_of_one_reply_share_each_label_dict(self, worked_example):
        trees = relation_trees(worked_example)
        objs = relation_trees_to_json(trees)
        assert objs == [relation_tree_to_json(tree) for tree in trees]
        by_edge = {}
        for obj in objs:
            for key, label in obj["labels"].items():
                assert by_edge.setdefault(key, label) is label
        assert sum(len(obj["labels"]) for obj in objs) > len(by_edge)


# Small JSON values; strings are drawn from the monomial syntax's alphabet
# so that some of them parse.
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=6)
    | st.floats(min_value=-2, max_value=6)
    | st.text("x12^* ", max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "vars", "t"]), inner, max_size=2),
    max_leaves=12,
)


@pytest.mark.parametrize(
    "parse, keys",
    [
        (complex_from_json, ("ambient", "facets")),
        (graph_from_json, ("n", "edges")),
        (ideal_from_json, ("vars", "generators")),
    ],
)
@given(first=_JSON, second=_JSON)
def test_json_readers_return_or_raise_domain_error(parse, keys, first, second):
    for obj in (first, dict(zip(keys, (first, second)))):
        try:
            parse(obj)
        except DomainError:
            pass


# Any JSON value that ``json`` writes: keys and strings from the whole of
# Unicode (control characters, quotes, backslashes, surrogates), ints far
# beyond 64 bits, True/False beside 1/0, and tuples, which ``json`` writes
# as lists.
_KEYS = st.text(max_size=4) | st.sampled_from(['"', "\\", "\n", "é", "a"])
_REPORT_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, 1, -1, 2**64, -(10**40)])
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.lists(st.integers(), max_size=5)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=20,
)


@st.composite
def _shared_values(draw):
    """A value that holds one container object at several depths, some of
    them more than twice at one depth."""
    shared = draw(
        st.lists(_REPORT_VALUES, min_size=1, max_size=3)
        | st.dictionaries(_KEYS, _REPORT_VALUES, min_size=1, max_size=3)
    )
    other = draw(_REPORT_VALUES)
    return {
        "a": [shared, shared, other, shared],
        "b": {"deep": [shared, {"x": shared}], "one": shared},
        "c": (shared, [[shared]]),
    }


def _json_dumps(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


# The largest relation-trees reply of the benchmark corpus: 432 trees, about
# 1 MB, each label dict shared by every tree through its facet pair.
_LARGE_REPLY = {
    "trees": relation_trees_to_json(
        relation_trees(SimplicialComplex(9, [[1, 5], [4, 5], [3], [2, 7], [9], [6]]))
    )
}
# one dict at three depths, twice at the first
_SHARED = {"u": [1, 2], "v": ["w", None]}
_SHARED_AT_THREE_DEPTHS = {"a": _SHARED, "b": [_SHARED, {"c": _SHARED}], "d": _SHARED}
# one list of plain ints at two depths, twice at the first
_INTS = [3, -1, 2**70]
_INTS_AT_TWO_DEPTHS = {"a": [_INTS, _INTS], "b": {"c": [_INTS]}, "d": _INTS}
# a reply whose trees share their edge lists and label dicts, with some
# trees again as check witnesses one level deeper
_SHARED_TREES = relation_trees_to_json(
    relation_trees(SimplicialComplex(6, [[2, 5], [3, 5], [4, 5], [1, 5, 6]]))
)
_TREES_AND_WITNESSES = {
    "result": {"trees": _SHARED_TREES},
    "checks": [{"witness": tree} for tree in _SHARED_TREES[::5]],
}


class TestReportEmitter:
    @given(_REPORT_VALUES | _shared_values())
    @example({})
    @example([])
    @example({"e": {}, "l": [], "t": ()})
    @example([True, False, 1, 0, None, -1])
    @example({"\u0000\x1f": "\u2028\ud800", 'q"\\': "é"})
    @example(_LARGE_REPLY)
    @example(_SHARED_AT_THREE_DEPTHS)
    @example(_INTS_AT_TWO_DEPTHS)
    @example(_TREES_AND_WITNESSES)
    def test_writes_the_bytes_of_json_dumps(self, value):
        assert dumps_report(value) + "\n" == _json_dumps(value)

    def test_a_shared_relation_tree_reply(self, worked_example):
        trees = relation_trees(worked_example)
        reply = {"trees": relation_trees_to_json(trees * 3)}
        assert dumps_report(reply) + "\n" == _json_dumps(reply)

    def test_leaves_no_reference_cycle(self, worked_example, cyclic_garbage):
        reply = {"trees": relation_trees_to_json(relation_trees(worked_example) * 3)}
        assert cyclic_garbage(dumps_report, {"a": [1, 2]}) == 0
        assert cyclic_garbage(dumps_report, reply) == 0

    @pytest.mark.parametrize(
        "value",
        [1.5, [0, 2.0], {"a": {1, 2}}, {1: "a"}, {"a": 1, 2: "b"}, [{(1, 2): 0}], b"x"],
        ids=["float", "float-in-list", "set", "int-key", "mixed-keys", "tuple-key", "bytes"],
    )
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            dumps_report(value)
