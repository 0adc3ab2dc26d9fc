"""Pinned outputs of the graph, leaf-order and duality kernels.

Each test hashes what the kernels return on an exhaustive family of small
inputs: every labelled graph on up to 6 vertices (33,867 graphs) and every
complex on up to 4 vertices.  The digests were recorded before the kernels
were rewritten on bitmasks, so any change to a clique list, a leaf order, a
chordality witness, a dual or an ideal shows up here.  The ``chordal``
replies frozen in ``bench/data/cli.json`` depend on these witnesses.
"""

import hashlib
import itertools

from srideals import DomainError, Graph, SimplicialComplex
from srideals.complexes import VOID_DUAL, alexander_dual, complement_complex, mask_face
from srideals.graphs import is_chordal, maximal_cliques
from srideals.ideals import facet_ideal, stanley_reisner_ideal
from srideals.quasitrees import leaf_order_masks
from srideals.verification import iter_complexes_masks

GRAPH_DIGEST = "7826ced115e2caf88261b6fcfd4b1f4ba2bd0959cfd43d1f193e42836166d807"
COMPLEX_DIGEST = "0f2d09252ac4876bcf1a57770196ac9f7a5a12ec7770ff4998db77183af5347d"


def _graphs(max_n: int):
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for code in range(1 << len(pairs)):
            yield Graph(n, [e for k, e in enumerate(pairs) if code >> k & 1])


def _outcome(fn) -> str:
    """fn(), or the DomainError it raises."""
    try:
        return fn()
    except DomainError as exc:
        return f"DomainError({exc})"


def _facets(value) -> str:
    return "void" if value is VOID_DUAL else repr(value.facets)


def _generators(ideal) -> str:
    return repr([g.exponents for g in ideal.generators])


def test_graph_kernels_match_their_pinned_digest():
    digest = hashlib.sha256()
    count = 0
    for g in _graphs(6):
        cliques = maximal_cliques(g)
        line = f"{g.n} {g.edges} {cliques} {leaf_order_masks(cliques)} {is_chordal(g)}\n"
        digest.update(line.encode())
        count += 1
    assert count == 33_867
    assert digest.hexdigest() == GRAPH_DIGEST


def test_duality_kernels_match_their_pinned_digest():
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 5):
        for masks in iter_complexes_masks(n):
            cx = SimplicialComplex(n, [mask_face(m) for m in masks])
            parts = (
                repr(cx.facets),
                _outcome(lambda: _facets(alexander_dual(cx))),
                _outcome(lambda: _facets(complement_complex(cx))),
                _outcome(lambda: _generators(stanley_reisner_ideal(cx))),
                _outcome(lambda: _generators(facet_ideal(cx))),
            )
            digest.update((f"{n} " + " | ".join(parts) + "\n").encode())
            count += 1
    assert count == 189
    assert digest.hexdigest() == COMPLEX_DIGEST
