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


# Each input kind: how to load it from the input text, and how to echo it
# as the report's inputs.  The lambdas look the library functions up when
# called, so a function rebound under its name here (as bench/tracing.py
# does) is the one that runs.
_KINDS = {
    "complex": (lambda text: complex_from_json(load_json(text)), lambda cx: complex_to_json(cx)),
    "ideal": (lambda text: ideal_from_json(load_json(text)), lambda ideal: ideal_to_json(ideal)),
    "graph": (lambda text: graph_from_json(load_json(text)), lambda g: graph_to_json(g)),
}


def _flag(*names, **options):
    return names, options


_PRETTY = _flag("--pretty", action="store_true", help="monomials as x1*x2 strings")
_FIELD = _flag("--field", type=_parse_field, default="q", help="coefficient field: q, gf2, gf<p>")
# Each of these two stores its own loader as ``load``, in place of the kind's.
_MINIMALIZE = _flag(
    "--minimalize",
    dest="load",
    action="store_const",
    const=lambda text: complex_from_json(load_json(text), minimalize=True),
)
_GRAPH6 = _flag(
    "--graph6",
    dest="load",
    action="store_const",
    const=lambda text: graph_from_graph6(text),
    help="input is graph6",
)


# --------------------------------------------------------------------------
# steps: each maps the loaded input and the parsed flags to (result, checks)
# --------------------------------------------------------------------------


def _dual(cx, args):
    dual = alexander_dual(cx)
    return {"dual": "void" if dual is VOID_DUAL else complex_to_json(dual)}, []


def _nonfaces(cx, args):
    nf, flag = minimal_nonfaces(cx)
    return {"nonfaces": [list(f) for f in nf], "flag": flag}, []


def _quasitree(cx, args):
    order = leaf_order(cx)
    checks = []
    if order is not None:
        checks.append(_check("leaf-order-verified", verify_leaf_order(cx, order), order))
    result = {
        "is_quasi_tree": order is not None,
        "leaf_order": None if order is None else [i + 1 for i in order],
    }
    return result, checks


def _relation_trees(cx, args):
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
    checks = [_check("tree-certificate", False, t) for t, ok in zip(trees_json, verdicts) if not ok]
    if not checks:
        checks.append(_check("tree-certificates", True, None))
    return {"count": len(trees), "trees": trees_json}, checks


def _mdelta(cx, args):
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
    return {"rows": rows, "cols": len(cx.facets)}, []


def _betti(ideal, args):
    return betti_to_json(betti_table(ideal, args.field), ideal.generator_degrees), []


def _chordal(g, args):
    chordal, witness = is_chordal(g)
    if chordal:
        ok = verify_elimination_witness(g, witness)
        kind = "elimination-order"
    else:
        ok = verify_cycle_witness(g, witness)
        kind = "chordless-cycle"
    return {"chordal": chordal, "witness": witness}, [_check(f"witness-{kind}", ok, witness)]


def _dirac(g, args):
    chordal, witness = is_chordal(g)
    qt = leaf_order(clique_complex(g)) is not None
    checks = [_check("chordal-iff-quasi-tree", chordal == qt, graph_to_json(g))]
    return {"chordal": chordal, "clique_complex_quasi_tree": qt, "agree": chordal == qt}, checks


def _higher_dirac(cx, args):
    rep = higher_dirac_check(cx)
    result = {
        "holds": rep.holds,
        "skeleton_of_quasi_tree": rep.skeleton_of_quasi_tree,
        "chordal_and_skeleton_of_clique_complex": rep.chordal_and_skeleton_of_clique_complex,
        "chordal": rep.chordal,
        "isolated_vertices": isolated_vertices(cx),
        "one_skeleton": graph_to_json(one_skeleton_graph(cx)),
    }
    return result, [_check("sides-agree", rep.holds, complex_to_json(cx))]


def _restrict(ideal, args):
    try:
        bound = [int(x) for x in args.a.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse bound {args.a!r}; expected e.g. 1,0,2")
    return {"ideal": ideal_to_json(restrict_ideal(ideal, bound), args.pretty)}, []


def _shelling(cx, args):
    order = shelling_order(cx)
    checks = []
    if order is not None:
        checks.append(_check("shelling-verified", verify_shelling(cx, order), order))
    result = {
        "shellable": order is not None,
        "order": None if order is None else [i + 1 for i in order],
    }
    return result, checks


def _linear_quotients(ideal, args):
    order = linear_quotients_order(ideal)
    checks = []
    if order is not None:
        checks.append(_check("quotients-verified", verify_linear_quotients(order), None))
    result = {
        "has_linear_quotients": order is not None,
        "order": None if order is None else [monomial_to_json(m, args.pretty) for m in order],
    }
    return result, checks


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
    checks = [_check(rep["suite"], rep["passed"], rep["failures"][:1] or None) for rep in reports]
    return {"suite": args.suite, "seed": args.seed}, {"reports": reports}, checks


def _check(name, passed, witness):
    return {"name": name, "passed": bool(passed), "witness": witness}


# Every subcommand but verify: name -> (input kind, its flags after -f, step).
# argparse lists the subcommands in this order.
_COMMANDS = {
    "dual": ("complex", (), _dual),
    "complement": (
        "complex",
        (),
        lambda cx, args: ({"complement": complex_to_json(complement_complex(cx))}, []),
    ),
    "nonfaces": ("complex", (), _nonfaces),
    "skeleton": (
        "complex",
        (_flag("-i", type=int, required=True, help="skeleton dimension"),),
        lambda cx, args: ({"skeleton": complex_to_json(skeleton(cx, args.i))}, []),
    ),
    "sr-ideal": (
        "complex",
        (_PRETTY,),
        lambda cx, args: ({"ideal": ideal_to_json(stanley_reisner_ideal(cx), args.pretty)}, []),
    ),
    "facet-ideal": (
        "complex",
        (_PRETTY,),
        lambda cx, args: ({"ideal": ideal_to_json(facet_ideal(cx), args.pretty)}, []),
    ),
    "quasitree": ("complex", (_MINIMALIZE,), _quasitree),
    "relation-trees": ("complex", (_flag("--limit", type=int, default=1000),), _relation_trees),
    "mdelta": ("complex", (_PRETTY,), _mdelta),
    "betti": ("ideal", (_FIELD,), _betti),
    "projdim": (
        "ideal",
        (_FIELD,),
        lambda ideal, args: ({"projdim": projdim_and_reg(ideal, args.field)[0]}, []),
    ),
    "reg": (
        "ideal",
        (_FIELD,),
        lambda ideal, args: ({"reg": projdim_and_reg(ideal, args.field)[1]}, []),
    ),
    "chordal": ("graph", (_GRAPH6,), _chordal),
    "clique-complex": (
        "graph",
        (_GRAPH6,),
        lambda g, args: ({"complex": complex_to_json(clique_complex(g))}, []),
    ),
    "dirac": ("graph", (_GRAPH6,), _dirac),
    "higher-dirac": ("complex", (), _higher_dirac),
    "power": (
        "ideal",
        (_PRETTY, _flag("-k", type=int, required=True)),
        lambda ideal, args: ({"ideal": ideal_to_json(power(ideal, args.k), args.pretty)}, []),
    ),
    "restrict": (
        "ideal",
        (_PRETTY, _flag("-a", required=True, help="comma-separated exponent bound")),
        _restrict,
    ),
    "shelling": ("complex", (), _shelling),
    "linear-quotients": ("ideal", (_PRETTY,), _linear_quotients),
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
    for name, (kind, flags, _step) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(load=_KINDS[kind][0])
        p.add_argument("-f", "--file", help="input file (default: stdin)")
        for names, options in flags:
            p.add_argument(*names, **options)

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
        if args.command == "verify":
            inputs, result, checks = _cmd_verify(args)
        else:
            kind, _flags, step = _COMMANDS[args.command]
            x = args.load(_read_input(args.file))
            inputs = _KINDS[kind][1](x)
            result, checks = step(x, args)
    except (UsageError, DomainError) as exc:
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
