"""JSON wire formats for complexes, ideals, graphs, Betti tables and
relation trees, plus the human-readable monomial syntax and graph6 import.

Vertices and variables are 1-based everywhere.  Facet and generator indices
are 0-based in the library and shifted to 1-based where their JSON is built:
relation trees here; leaf orders, shelling orders and M_Delta in ``cli``,
whose leaf-order and shelling check witnesses stay 0-based.
``graphs.is_chordal`` shifts its witness vertices from bit positions itself.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii

from .complexes import SimplicialComplex
from .errors import DomainError, over_cap
from .graphs import Graph
from .homological import BettiTable
from .ideals import Monomial, MonomialIdeal, minimalize, monomial_to_str
from .quasitrees import RelationTree


_INT_ONLY = frozenset((int,))


def dumps_report(obj) -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, written
    directly rather than through ``json``'s pure-Python indenting encoder.

    It takes the types that reports carry: dicts with str keys (in sorted
    order), lists and tuples, str (ASCII-escaped by
    ``json.encoder.encode_basestring_ascii``), int (``int.__repr__``),
    bool and None.  Anything else raises TypeError, as ``json`` does; a
    container that contains itself raises RecursionError.

    A list of plain ints is one ``str.join``.  A container that is met a
    second time, at the same depth, is not rendered again: its text is
    kept from then on, keyed by ``id()`` as ``json`` keys its circular
    markers, so a label dict shared by hundreds of relation trees costs one
    rendering while containers met once keep nothing.  The caller's
    objects are not copied, so they must not change during the call.
    """
    seen = set()
    memo = {}

    def render(value, nl):
        kind = type(value)
        if kind is str:
            return encode_basestring_ascii(value)
        if kind is int:
            return int.__repr__(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if kind is list or kind is tuple:
            if not value:
                return "[]"
            inner = nl + "  "
            if _INT_ONLY.issuperset(map(type, value)):
                return "[" + inner + ("," + inner).join(map(int.__repr__, value)) + nl + "]"
        elif kind is dict:
            if not value:
                return "{}"
            inner = nl + "  "
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        key = (id(value), nl)
        text = memo.get(key)
        if text is not None:
            return text
        if kind is dict:
            items = []
            for k in sorted(value):
                if type(k) is not str:
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                items.append(f"{encode_basestring_ascii(k)}: {render(value[k], inner)}")
            text = "{" + inner + ("," + inner).join(items) + nl + "}"
        else:
            text = "[" + inner + ("," + inner).join([render(v, inner) for v in value]) + nl + "]"
        if key in seen:
            memo[key] = text
        else:
            seen.add(key)
        return text

    try:
        return render(obj, "\n")
    finally:
        del render  # it refers to itself; this frees it and its memo now


def load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _integer(obj: dict, key: str) -> int:
    # JSON booleans are Python ints; they are not counts
    if type(obj[key]) is not int:
        raise DomainError(f'"{key}" must be an integer, not {type(obj[key]).__name__}')
    return obj[key]


# Every generator is a dense exponent vector of length "vars", and the
# ideals of a complex on "ambient" vertices or of a graph on "n" vertices
# have that many variables; a larger count than this is a
# ResourceLimitError before anything is built.
MAX_VARS = 1024


def _count(obj: dict, key: str) -> int:
    n = _integer(obj, key)
    if n > MAX_VARS:
        raise over_cap(f'"{key}"', n, "serialization.MAX_VARS", MAX_VARS)
    return n


def _integer_lists(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(x, list) and all(type(v) is int for v in x) for x in value
    )


def complex_from_json(obj, minimalize: bool = False) -> SimplicialComplex:
    if not isinstance(obj, dict) or "ambient" not in obj or "facets" not in obj:
        raise DomainError('a complex needs the keys "ambient" and "facets"')
    n = _count(obj, "ambient")
    facets = obj["facets"]
    if not _integer_lists(facets):
        raise DomainError('"facets" must be a list of integer vertex lists')
    if minimalize:
        return SimplicialComplex.from_faces(n, facets)
    return SimplicialComplex(n, facets)


def complex_to_json(cx: SimplicialComplex) -> dict:
    return {"ambient": cx.n, "facets": [list(f) for f in cx.facets]}


_MONOMIAL_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def monomial_from_str(text: str, num_vars: int) -> Monomial:
    """Parse "x4*x5*x6" or "x1^2*x3" into an exponent vector."""
    exps = [0] * num_vars
    for part in text.replace(" ", "").split("*"):
        m = _MONOMIAL_RE.match(part)
        if not m:
            raise DomainError(f"cannot parse monomial factor {part!r}")
        var = int(m.group(1))
        if not 1 <= var <= num_vars:
            raise DomainError(f"variable x{var} out of range for {num_vars} variables")
        exps[var - 1] += int(m.group(2) or 1)
    return Monomial(exps)


def monomial_to_json(m: Monomial, pretty: bool = False):
    """A monomial on the wire: an ``x1*x2^2`` string if pretty, else its
    exponent vector."""
    return monomial_to_str(m) if pretty else list(m.exponents)


def ideal_from_json(obj) -> MonomialIdeal:
    if not isinstance(obj, dict) or "vars" not in obj or "generators" not in obj:
        raise DomainError('an ideal needs the keys "vars" and "generators"')
    n = _count(obj, "vars")
    if not isinstance(obj["generators"], list):
        raise DomainError('"generators" must be a list')
    gens = []
    for g in obj["generators"]:
        if isinstance(g, str):
            gens.append(monomial_from_str(g, n))
        elif isinstance(g, list) and all(type(e) is int for e in g):
            if len(g) != n:
                raise DomainError(
                    f"exponent vector {g} has length {len(g)}, expected {n}"
                )
            gens.append(Monomial(g))
        else:
            raise DomainError(f"generator {g!r} is neither a string nor an integer vector")
    return minimalize(gens) if gens else MonomialIdeal(n, [])


def ideal_to_json(ideal: MonomialIdeal, pretty: bool = False) -> dict:
    gens = [monomial_to_json(g, pretty) for g in ideal.generators]
    return {"vars": ideal.num_vars, "generators": gens}


def graph_from_json(obj) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise DomainError('a graph needs the keys "n" and "edges"')
    n = _count(obj, "n")
    edges = obj["edges"]
    if not _integer_lists(edges) or any(len(e) != 2 for e in edges):
        raise DomainError('"edges" must be a list of integer pairs')
    return Graph(n, [tuple(e) for e in edges])


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def graph_from_graph6(text: str) -> Graph:
    """Decode a single graph6 line (graphs up to 62 vertices)."""
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<") :]
    if not data:
        raise DomainError("empty graph6 string")
    values = [ord(c) - 63 for c in data]
    if any(v < 0 or v > 63 for v in values):
        raise DomainError("graph6 characters must be in the range 63..126")
    n = values[0]
    if n == 63:
        raise DomainError("graph6 inputs beyond 62 vertices are not supported")
    bits = []
    for v in values[1:]:
        bits.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    need = n * (n - 1) // 2
    if len(bits) < need:
        raise DomainError("graph6 string is too short for its vertex count")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i + 1, j + 1))
            idx += 1
    return Graph(max(n, 1), edges)


def betti_to_json(table: BettiTable, gen_degrees) -> dict:
    degrees = set(gen_degrees)
    linear = len(degrees) == 1 and table.is_linear(next(iter(degrees)))
    return {
        "vars": table.num_vars,
        "entries": [
            {"i": i, "multidegree": list(b), "rank": r} for (i, b), r in table.entries
        ],
        "projdim": table.projdim,
        "reg": table.regularity,
        "linear": linear,
    }


def relation_trees_to_json(trees) -> list[dict]:
    """The wire form of each relation tree, with labels shared.

    Trees that hold the same label pair object (``relation_trees`` gives
    every tree through one facet pair the same Taylor label) get the same
    ``{"u_ij": ..., "u_ji": ...}`` dict, so one reply holds each facet
    pair's label once and ``dumps_report`` renders it once.  The dicts are
    shared, so treat the result as read-only.
    """
    shared: dict[int, tuple] = {}  # id(pair) -> (pair, its dict); pair kept alive
    out = []
    for tree in trees:
        labels = {}
        for (i, j), pair in tree.labels:
            key = f"{i + 1}-{j + 1}"
            if key in labels:  # an edge's first label is its label, as in RelationTree.label
                continue
            hit = shared.get(id(pair))
            if hit is None:
                u_ij, u_ji = pair
                lab = {"u_ij": list(u_ij.exponents), "u_ji": list(u_ji.exponents)}
                shared[id(pair)] = (pair, lab)
            else:
                lab = hit[1]
            labels[key] = lab
        out.append(
            {
                "t": tree.num_generators,
                "edges": [[i + 1, j + 1] for i, j in tree.edges],
                "labels": labels,
            }
        )
    return out


def relation_tree_to_json(tree: RelationTree) -> dict:
    return relation_trees_to_json([tree])[0]
