"""Command-line surface: run any single operation on JSON input from a
file or stdin, or run the bulk verification suites, and emit a
machine-readable report.

Exit codes: 0 computed, 1 usage or malformed input, 2 a property check
failed (the report carries a witness), 3 a resource cap was hit.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from .complexes import (
    VOID_DUAL,
    alexander_dual,
    complement_complex,
    minimal_nonfaces,
    skeleton,
)
from .errors import DomainError, ResourceLimitError
from .graphs import (
    clique_complex,
    is_chordal,
    verify_cycle_witness,
    verify_elimination_witness,
    higher_dirac_check,
    one_skeleton_graph,
    isolated_vertices,
)
from .homological import (
    FieldChoice,
    betti_table,
    projdim_and_reg,
    shelling_order,
    verify_shelling,
)
from .ideals import (
    Monomial,
    facet_ideal,
    linear_quotients_order,
    power,
    restrict_ideal,
    stanley_reisner_ideal,
    verify_linear_quotients,
)
from .quasitrees import (
    build_m_delta,
    facet_complement_generators,
    leaf_order,
    minor_certificates,
    reconstructs,
    relation_trees,
    verify_leaf_order,
)
from .serialization import (
    complex_from_json,
    complex_to_json,
    graph_from_graph6,
    graph_from_json,
    graph_to_json,
    ideal_from_json,
    ideal_to_json,
    betti_to_json,
    dumps_report,
    load_json,
    monomial_to_json,
    relation_trees_to_json,
)
from .verification import run_all, run_suite

SCHEMA = "v1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2
        raise UsageError(message)


def _parse_field(text: str) -> FieldChoice:
    if text == "q":
        return FieldChoice(0)
    if text.startswith("gf"):
        try:
            return FieldChoice(int(text[2:]))
        except (ValueError, DomainError):
            pass
    raise UsageError(f"unknown field {text!r}; expected q, gf2, gf3, ...")


def _read_input(path) -> str:
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}") from None
    return sys.stdin.read()


def _load_complex(args):
    return complex_from_json(
        load_json(_read_input(args.file)), minimalize=getattr(args, "minimalize", False)
    )


def _load_ideal(args):
    return ideal_from_json(load_json(_read_input(args.file)))


def _load_graph(args):
    text = _read_input(args.file)
    if getattr(args, "graph6", False):
        return graph_from_graph6(text)
    return graph_from_json(load_json(text))


# --------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, result, checks)
# --------------------------------------------------------------------------


def _cmd_dual(args):
    cx = _load_complex(args)
    dual = alexander_dual(cx)
    if dual is VOID_DUAL:
        result = {"dual": "void"}
    else:
        result = {"dual": complex_to_json(dual)}
    return complex_to_json(cx), result, []


def _cmd_complement(args):
    cx = _load_complex(args)
    return complex_to_json(cx), {"complement": complex_to_json(complement_complex(cx))}, []


def _cmd_skeleton(args):
    cx = _load_complex(args)
    return complex_to_json(cx), {"skeleton": complex_to_json(skeleton(cx, args.i))}, []


def _cmd_nonfaces(args):
    cx = _load_complex(args)
    nf, flag = minimal_nonfaces(cx)
    return complex_to_json(cx), {"nonfaces": [list(f) for f in nf], "flag": flag}, []


def _cmd_sr_ideal(args):
    cx = _load_complex(args)
    return complex_to_json(cx), {"ideal": ideal_to_json(stanley_reisner_ideal(cx), args.pretty)}, []


def _cmd_facet_ideal(args):
    cx = _load_complex(args)
    return complex_to_json(cx), {"ideal": ideal_to_json(facet_ideal(cx), args.pretty)}, []


def _cmd_quasitree(args):
    cx = _load_complex(args)
    order = leaf_order(cx)
    checks = []
    if order is not None:
        checks.append(_check("leaf-order-verified", verify_leaf_order(cx, order), order))
    result = {
        "is_quasi_tree": order is not None,
        "leaf_order": None if order is None else [i + 1 for i in order],
    }
    return complex_to_json(cx), result, checks


def _cmd_relation_trees(args):
    cx = _load_complex(args)
    trees = relation_trees(cx, limit=args.limit)
    gens = facet_complement_generators(cx)
    # The determinant identity presumes facets covering [n]; otherwise the
    # generators share a common factor invisible to the tree labels, and
    # reconstruction is only exact up to that factor.
    covering = {w for f in cx.facets for w in f} == set(range(1, cx.n + 1))
    common = functools.reduce(Monomial.gcd, gens)
    verdicts = reconstructs(trees, [g.quotient(common) for g in gens])
    if covering:
        verdicts = [a and b for a, b in zip(verdicts, minor_certificates(cx, trees))]
    trees_json = relation_trees_to_json(trees)
    checks = [
        _check("tree-certificate", False, tr_json)
        for tr_json, ok in zip(trees_json, verdicts)
        if not ok
    ]
    if not checks:
        checks.append(_check("tree-certificates", True, None))
    result = {"count": len(trees), "trees": trees_json}
    return complex_to_json(cx), result, checks


def _cmd_mdelta(args):
    cx = _load_complex(args)
    rows = [
        {
            "pair": [i + 1, j + 1],
            "entries": [
                {"col": i + 1, "sign": 1, "monomial": monomial_to_json(m_i, args.pretty)},
                {"col": j + 1, "sign": -1, "monomial": monomial_to_json(m_j, args.pretty)},
            ],
        }
        for i, j, m_i, m_j in build_m_delta(cx)
    ]
    return complex_to_json(cx), {"rows": rows, "cols": len(cx.facets)}, []


def _cmd_betti(args):
    ideal = _load_ideal(args)
    table = betti_table(ideal, args.field)
    return ideal_to_json(ideal), betti_to_json(table, ideal.generator_degrees), []


def _cmd_projdim(args):
    ideal = _load_ideal(args)
    pd, _reg, _lin = projdim_and_reg(ideal, args.field)
    return ideal_to_json(ideal), {"projdim": pd}, []


def _cmd_reg(args):
    ideal = _load_ideal(args)
    _pd, reg, _lin = projdim_and_reg(ideal, args.field)
    return ideal_to_json(ideal), {"reg": reg}, []


def _cmd_chordal(args):
    g = _load_graph(args)
    chordal, witness = is_chordal(g)
    if chordal:
        ok = verify_elimination_witness(g, witness)
        kind = "elimination-order"
    else:
        ok = verify_cycle_witness(g, witness)
        kind = "chordless-cycle"
    checks = [_check(f"witness-{kind}", ok, witness)]
    return graph_to_json(g), {"chordal": chordal, "witness": witness}, checks


def _cmd_clique_complex(args):
    g = _load_graph(args)
    return graph_to_json(g), {"complex": complex_to_json(clique_complex(g))}, []


def _cmd_dirac(args):
    g = _load_graph(args)
    chordal, witness = is_chordal(g)
    qt = leaf_order(clique_complex(g)) is not None
    checks = [_check("chordal-iff-quasi-tree", chordal == qt, graph_to_json(g))]
    result = {"chordal": chordal, "clique_complex_quasi_tree": qt, "agree": chordal == qt}
    return graph_to_json(g), result, checks


def _cmd_higher_dirac(args):
    cx = _load_complex(args)
    rep = higher_dirac_check(cx)
    result = {
        "holds": rep.holds,
        "skeleton_of_quasi_tree": rep.skeleton_of_quasi_tree,
        "chordal_and_skeleton_of_clique_complex": rep.chordal_and_skeleton_of_clique_complex,
        "chordal": rep.chordal,
        "isolated_vertices": isolated_vertices(cx),
        "one_skeleton": graph_to_json(one_skeleton_graph(cx)),
    }
    checks = [_check("sides-agree", rep.holds, complex_to_json(cx))]
    return complex_to_json(cx), result, checks


def _cmd_power(args):
    ideal = _load_ideal(args)
    return ideal_to_json(ideal), {"ideal": ideal_to_json(power(ideal, args.k), args.pretty)}, []


def _cmd_restrict(args):
    ideal = _load_ideal(args)
    try:
        bound = [int(x) for x in args.a.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse bound {args.a!r}; expected e.g. 1,0,2")
    return (
        ideal_to_json(ideal),
        {"ideal": ideal_to_json(restrict_ideal(ideal, bound), args.pretty)},
        [],
    )


def _cmd_shelling(args):
    cx = _load_complex(args)
    order = shelling_order(cx)
    checks = []
    if order is not None:
        checks.append(_check("shelling-verified", verify_shelling(cx, order), order))
    result = {
        "shellable": order is not None,
        "order": None if order is None else [i + 1 for i in order],
    }
    return complex_to_json(cx), result, checks


def _cmd_linear_quotients(args):
    ideal = _load_ideal(args)
    order = linear_quotients_order(ideal)
    checks = []
    if order is not None:
        checks.append(
            _check("quotients-verified", verify_linear_quotients(order), None)
        )
    result = {
        "has_linear_quotients": order is not None,
        "order": None if order is None else [monomial_to_json(m, args.pretty) for m in order],
    }
    return ideal_to_json(ideal), result, checks


def _cmd_verify(args):
    # the budget flags are absent from args unless given
    budgets = {k: v for k, v in vars(args).items() if k not in ("command", "suite", "seed")}
    if "complexes" in budgets:
        # --complex implies --samples 0, which means something only to thm-4.4
        if args.suite == "all":
            raise UsageError("--complex needs a single suite (thm-4.4), not all")
        text = _read_input(budgets["complexes"])
        budgets["complexes"] = [complex_from_json(load_json(text))]
        budgets.setdefault("samples", 0)
    if args.suite == "all":
        reports = run_all(args.seed, **budgets)
    else:
        reports = [run_suite(args.suite, args.seed, **budgets)]
    checks = [
        _check(rep["suite"], rep["passed"], rep["failures"][:1] or None)
        for rep in reports
    ]
    return {"suite": args.suite, "seed": args.seed}, {"reports": reports}, checks


def _check(name, passed, witness):
    return {"name": name, "passed": bool(passed), "witness": witness}


_HANDLERS = {
    "dual": _cmd_dual,
    "complement": _cmd_complement,
    "skeleton": _cmd_skeleton,
    "nonfaces": _cmd_nonfaces,
    "sr-ideal": _cmd_sr_ideal,
    "facet-ideal": _cmd_facet_ideal,
    "quasitree": _cmd_quasitree,
    "relation-trees": _cmd_relation_trees,
    "mdelta": _cmd_mdelta,
    "betti": _cmd_betti,
    "projdim": _cmd_projdim,
    "reg": _cmd_reg,
    "chordal": _cmd_chordal,
    "clique-complex": _cmd_clique_complex,
    "dirac": _cmd_dirac,
    "higher-dirac": _cmd_higher_dirac,
    "power": _cmd_power,
    "restrict": _cmd_restrict,
    "shelling": _cmd_shelling,
    "linear-quotients": _cmd_linear_quotients,
    "verify": _cmd_verify,
}


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and shared afterwards.

    Parsing leaves the parser unchanged (every call gets a fresh
    namespace with the defaults filled in), so ``main`` may be called any
    number of times in one process.
    """
    parser = _Parser(prog="srideals", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, needs_input=True, pretty=False, field=False):
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("-f", "--file", help="input file (default: stdin)")
        if pretty:
            p.add_argument("--pretty", action="store_true", help="monomials as x1*x2 strings")
        if field:
            p.add_argument(
                "--field", type=_parse_field, default="q", help="coefficient field: q, gf2, gf<p>"
            )
        return p

    for name in ("dual", "complement", "nonfaces"):
        add(name)
    add("skeleton").add_argument("-i", type=int, required=True, help="skeleton dimension")
    add("sr-ideal", pretty=True)
    add("facet-ideal", pretty=True)
    p = add("quasitree")
    p.add_argument("--minimalize", action="store_true")
    add("relation-trees").add_argument("--limit", type=int, default=1000)
    add("mdelta", pretty=True)
    add("betti", field=True)
    add("projdim", field=True)
    add("reg", field=True)
    for name in ("chordal", "clique-complex", "dirac"):
        add(name).add_argument("--graph6", action="store_true", help="input is graph6")
    add("higher-dirac")
    add("power", pretty=True).add_argument("-k", type=int, required=True)
    add("restrict", pretty=True).add_argument(
        "-a", required=True, help="comma-separated exponent bound"
    )
    add("shelling")
    add("linear-quotients", pretty=True)

    # a budget flag that is not given stays out of the namespace, so each
    # suite keeps its own default for it
    v = sub.add_parser("verify", argument_default=argparse.SUPPRESS)
    v.add_argument("suite", help="suite name or 'all'")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--samples", type=int)
    v.add_argument("--max-n", dest="max_n", type=int)
    v.add_argument("--max-facets", dest="max_facets", type=int)
    v.add_argument("--max-power", dest="max_power", type=int)
    v.add_argument("--complex", dest="complexes", help="JSON complex file (for the power suite)")
    v.add_argument("--field", type=_parse_field)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    start = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        inputs, result, checks = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 3
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "checks": checks,
        "timing_ms": int((time.perf_counter() - start) * 1000),
    }
    try:
        print(dumps_report(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so the flush at
        # interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 2 if any(not c["passed"] for c in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
