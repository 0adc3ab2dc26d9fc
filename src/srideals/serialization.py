"""JSON wire formats for complexes, ideals, graphs, Betti tables and
relation trees, plus the human-readable monomial syntax and graph6 import.

Vertices and variables are 1-based everywhere.  Facet and generator indices
are 0-based in the library and shifted to 1-based where their JSON is built:
relation trees here; leaf orders, shelling orders and M_Delta in ``cli``,
whose leaf-order and shelling check witnesses stay 0-based.
``graphs.is_chordal`` shifts its witness vertices from bit positions itself.

A size key (``"ambient"``, ``"vars"`` or ``"n"``) is held to
``complexes.MAX_VARS`` by the constructor of what it sizes, before anything
is built; an ideal's ``"vars"`` is checked before its first generator.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from json.encoder import encode_basestring_ascii

from .complexes import SimplicialComplex, _check_ambient
from .errors import DomainError, ResourceLimitError
from .graphs import Graph
from .homological import BettiTable
from .ideals import Monomial, MonomialIdeal, minimalize, monomial_to_str
from .quasitrees import RelationTree, _distinct_labels


_INT_ONLY = frozenset((int,))


def dumps_report(obj) -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, written
    directly rather than through ``json``'s pure-Python indenting encoder.

    It takes the types that reports carry: dicts with str keys (in sorted
    order), lists and tuples, str (ASCII-escaped by
    ``json.encoder.encode_basestring_ascii``), int (``int.__repr__``),
    bool and None.  Anything else raises TypeError, as ``json`` does; a
    container that contains itself raises RecursionError.

    Every piece of text is appended to one list, joined once at the end,
    so no container's text is copied into its parent's.  A list of plain
    ints is one piece, kept in a memo keyed by ``(id(), indent)`` as
    ``json`` keys its circular markers, and an int value of a dict is
    written with its key, without a call.  Any other container met a second
    time, at the same depth, is not rendered again either: its text is the
    join of the slice of the list that its first rendering wrote, kept
    from then on as one piece.  So a label dict or an ``[i, j]`` edge list
    shared by hundreds of relation trees costs one rendering, while
    containers met once keep only the bounds of their slice.  The caller's
    objects are not copied, so they must not change during the call.
    """
    out: list[str] = []
    append = out.append
    # (id, indent) -> the text of a list of plain ints; for any other
    # container the (start, end) of its first rendering in out, and its
    # text once it is met again
    memo: dict = {}

    def render(value, nl):
        kind = type(value)
        if kind is str:
            text = encode_basestring_ascii(value)
        elif kind is int:
            text = int.__repr__(value)
        elif kind is bool:
            text = "true" if value else "false"
        elif value is None:
            text = "null"
        elif kind is not dict and kind is not list and kind is not tuple:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        elif not value:
            text = "{}" if kind is dict else "[]"
        else:
            key = (id(value), nl)
            text = memo.get(key)
            if type(text) is tuple:  # the bounds of its first rendering
                text = memo[key] = "".join(out[text[0] : text[1]])
            elif text is None and kind is not dict and _INT_ONLY.issuperset(map(type, value)):
                inner = nl + "  "
                text = memo[key] = f"[{inner}{(',' + inner).join(map(int.__repr__, value))}{nl}]"
            elif text is None:
                start = len(out)
                inner = nl + "  "
                sep = "," + inner
                if kind is dict:
                    lead = "{" + inner
                    for k in sorted(value):
                        if type(k) is not str:
                            raise TypeError(f"keys must be str, not {type(k).__name__}")
                        v = value[k]
                        if type(v) is int:  # the commonest value, without a call
                            append(f"{lead}{encode_basestring_ascii(k)}: {int.__repr__(v)}")
                        else:
                            append(f"{lead}{encode_basestring_ascii(k)}: ")
                            render(v, inner)
                        lead = sep
                    append(nl + "}")
                else:
                    lead = "[" + inner
                    for v in value:
                        append(lead)
                        render(v, inner)
                        lead = sep
                    append(nl + "]")
                memo[key] = (start, len(out))
                return
        append(text)

    try:
        render(obj, "\n")
        return "".join(out)
    finally:
        del render  # it refers to itself; this frees it and its memo now


def load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise DomainError(f"unreadable JSON: {exc}") from None


def _integer(obj: dict, key: str) -> int:
    # JSON booleans are Python ints; they are not counts
    if type(obj[key]) is not int:
        raise DomainError(f'"{key}" must be an integer, not {type(obj[key]).__name__}')
    return obj[key]


def _integer_lists(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(x, list) and all(type(v) is int for v in x) for x in value
    )


def complex_from_json(obj, minimalize: bool = False) -> SimplicialComplex:
    if not isinstance(obj, dict) or "ambient" not in obj or "facets" not in obj:
        raise DomainError('a complex needs the keys "ambient" and "facets"')
    n = _integer(obj, "ambient")
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
        try:
            var, exp = int(m.group(1)), int(m.group(2) or 1)
        except ValueError as exc:  # an integer past the interpreter's digit limit
            raise DomainError(f"unreadable monomial factor: {exc}") from None
        if not 1 <= var <= num_vars:
            raise DomainError(f"variable x{var} out of range for {num_vars} variables")
        exps[var - 1] += exp
    return Monomial(exps)


def monomial_to_json(m: Monomial, pretty: bool = False):
    """A monomial on the wire: an ``x1*x2^2`` string if pretty, else its
    exponent vector.  An exponent past the interpreter's int-str digit
    limit cannot be written as a string: a ResourceLimitError, as when
    ``cli.main`` renders such an int in a vector."""
    if not pretty:
        return list(m.exponents)
    try:
        return monomial_to_str(m)
    except ValueError as exc:  # the digit limit; nothing else converts or raises
        raise ResourceLimitError(f"the reply cannot be written: {exc}") from None


def ideal_from_json(obj) -> MonomialIdeal:
    if not isinstance(obj, dict) or "vars" not in obj or "generators" not in obj:
        raise DomainError('an ideal needs the keys "vars" and "generators"')
    n = _integer(obj, "vars")
    _check_ambient(n, "num_vars")  # before a generator is parsed into n entries
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
    n = _integer(obj, "n")
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
    """The wire form of each relation tree, with its pieces shared.

    Each distinct (edge, label) entry of the trees gets one ``"i-j"`` key
    and one ``{"u_ij": ..., "u_ji": ...}`` dict, and each edge one
    ``[i, j]`` list, all 1-based.  ``relation_trees`` gives every tree
    through a facet pair the same entry, so one reply holds each piece
    once and ``dumps_report`` renders each once.  The pieces are shared,
    so treat the result as read-only.
    """
    trees = list(trees)
    items = {  # id(entry) -> ("i-j", label dict); the trees keep each entry alive
        key: (f"{i + 1}-{j + 1}", {"u_ij": list(u.exponents), "u_ji": list(v.exponents)})
        for key, ((i, j), (u, v)) in _distinct_labels(trees).items()
    }
    edges = {e: [e[0] + 1, e[1] + 1] for e in set(chain.from_iterable(tr.edges for tr in trees))}
    return [
        {
            "t": tree.num_generators,
            "edges": list(map(edges.__getitem__, tree.edges)),
            # reversed, so that an edge's first label is kept, as in RelationTree.label
            "labels": dict(map(items.__getitem__, map(id, reversed(tree.labels)))),
        }
        for tree in trees
    ]


def relation_tree_to_json(tree: RelationTree) -> dict:
    return relation_trees_to_json([tree])[0]
