"""Spans around the library's entry points, recorded from outside the
library, and the per-layer metrics computed from them.

A span is (name, start, end, parent, root): the root is the benchmark item
or request the span belongs to, so all spans of one request share it.  The
modules import functions from each other by name, so a wrapper has to
replace the function under every name that refers to it in every
``srideals`` module (``homological._rank`` is ``_linalg.rank``,
``verification.leaf_order_masks`` is ``quasitrees.leaf_order_masks``, and
so on).  Constructors are wrapped on the class, which every alias shares.
Wrappers are installed only around traced units; untraced units run the
library untouched.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

perf_counter = time.perf_counter

# (module, attribute or Class.method, span name).  A span's layer is the
# part of its name before the first dot; ``_linalg`` is reported as
# ``linalg`` because metric names start with a letter.
TARGETS = (
    ("complexes", "SimplicialComplex.__init__", "complexes.SimplicialComplex"),
    ("complexes", "minimal_nonfaces", "complexes.minimal_nonfaces"),
    ("complexes", "alexander_dual", "complexes.alexander_dual"),
    ("complexes", "complement_complex", "complexes.complement_complex"),
    ("complexes", "pure_complement", "complexes.pure_complement"),
    ("complexes", "skeleton", "complexes.skeleton"),
    ("ideals", "MonomialIdeal.__init__", "ideals.MonomialIdeal"),
    ("ideals", "minimalize", "ideals.minimalize"),
    ("ideals", "power", "ideals.power"),
    ("ideals", "facet_ideal", "ideals.facet_ideal"),
    ("ideals", "stanley_reisner_ideal", "ideals.stanley_reisner_ideal"),
    ("ideals", "complex_from_ideal", "ideals.complex_from_ideal"),
    ("ideals", "restrict_ideal", "ideals.restrict_ideal"),
    ("ideals", "linear_quotients_order", "ideals.linear_quotients_order"),
    ("ideals", "verify_linear_quotients", "ideals.verify_linear_quotients"),
    ("homological", "betti_table", "homological.betti_table"),
    ("homological", "squarefree_betti_masks", "homological.squarefree_betti_masks"),
    ("homological", "taylor_betti_table", "homological.taylor_betti_table"),
    ("homological", "projdim_and_reg", "homological.projdim_and_reg"),
    ("homological", "is_cohen_macaulay", "homological.is_cohen_macaulay"),
    ("homological", "shelling_order", "homological.shelling_order"),
    ("homological", "verify_shelling", "homological.verify_shelling"),
    ("_linalg", "rank", "linalg.rank"),
    ("quasitrees", "leaf_order_masks", "quasitrees.leaf_order"),
    ("quasitrees", "verify_leaf_order", "quasitrees.verify_leaf_order"),
    ("quasitrees", "relation_trees", "quasitrees.relation_trees"),
    ("quasitrees", "facet_complement_generators", "quasitrees.facet_complement_generators"),
    ("quasitrees", "reconstruct_generators", "quasitrees.reconstruct_generators"),
    ("quasitrees", "verify_minor_certificate", "quasitrees.verify_minor_certificate"),
    ("quasitrees", "build_m_delta", "quasitrees.build_m_delta"),
    ("graphs", "Graph.__init__", "graphs.Graph"),
    ("graphs", "maximal_cliques", "graphs.cliques"),
    ("graphs", "is_chordal", "graphs.is_chordal"),
    ("graphs", "clique_complex", "graphs.clique_complex"),
    ("graphs", "verify_elimination_witness", "graphs.verify_elimination_witness"),
    ("graphs", "verify_cycle_witness", "graphs.verify_cycle_witness"),
    ("verification", "check_power_linear_resolutions", "verification.thm-4.4"),
    ("verification", "has_linear_resolution", "verification.has_linear_resolution"),
    ("serialization", "load_json", "serialization.load_json"),
    ("serialization", "complex_from_json", "serialization.complex_from_json"),
    ("serialization", "complex_to_json", "serialization.complex_to_json"),
    ("serialization", "ideal_from_json", "serialization.ideal_from_json"),
    ("serialization", "ideal_to_json", "serialization.ideal_to_json"),
    ("serialization", "graph_from_json", "serialization.graph_from_json"),
    ("serialization", "graph_to_json", "serialization.graph_to_json"),
    ("serialization", "betti_to_json", "serialization.betti_to_json"),
    ("serialization", "relation_tree_to_json", "serialization.relation_tree_to_json"),
    ("cli", "main", "cli.main"),
)

LAYERS = (
    "complexes", "ideals", "homological", "linalg", "quasitrees", "graphs",
    "verification", "serialization", "cli",
)


class Tracer:
    """In-memory span recorder plus the work counters measured at the same
    boundaries (matrix entries, generators, minimalize inputs/outputs)."""

    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.counters = {
            "rank.entries": 0,
            "rank.qq_s": 0.0,
            "rank.gfp_s": 0.0,
            "MonomialIdeal.gens": 0,
            "minimalize.in": 0,
            "minimalize.out": 0,
            "suite.instances": 0,
        }
        self.patches: list = []  # (owner, attribute, original, wrapper)
        self.missing: list[str] = []
        self._plan()

    # -- spans --------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def begin(self, name: str):
        idx = len(self.spans)
        stack = self.stack
        parent = stack[-1] if stack else -1
        root = self.spans[stack[0]][4] if stack else idx
        self.spans.append([self._id(name), perf_counter(), 0.0, parent, root])
        stack.append(idx)

    def end(self):
        self.spans[self.stack.pop()][2] = perf_counter()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        spans, stack = self.spans, self.stack
        counters = self.counters
        extra = _EXTRA.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            root = spans[stack[0]][4] if stack else idx
            span = [name_id, perf_counter(), 0.0, parent, root]
            spans.append(span)
            stack.append(idx)
            try:
                if extra is None:
                    return fn(*args, **kwargs)
                return extra(counters, span, fn, args, kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _plan(self):
        """Find every name that refers to each target, once per tracer."""
        lib = self.lib
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "srideals"]
        for module_name, attr, span_name in TARGETS:
            module = getattr(lib, module_name.lstrip("_"), None)
            if module is None:
                self.missing.append(span_name)
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = getattr(cls, method, None) if cls is not None else None
                if original is None or method not in vars(cls):
                    self.missing.append(span_name)
                    continue
                self.patches.append((cls, method, original, self._wrap(span_name, original)))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(span_name)
                continue
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.patches.append((mod, key, original, wrapper))

    def install(self):
        for owner, key, _original, wrapper in self.patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _wrapper in self.patches:
            setattr(owner, key, original)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Inclusive time and call count per span name, self time per layer."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name_id, start, end, parent, _root in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        self_time = {layer: 0.0 for layer in LAYERS}
        for i, (name_id, start, end, _parent, _root) in enumerate(spans):
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            layer = name.split(".")[0]
            if layer in self_time:
                self_time[layer] += end - start - child[i]
        return {"calls": calls, "inclusive": inclusive, "self": self_time}

    def write(self, path):
        """Write every span, with the name table, as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "root"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
            )


def _rank(counters, span, fn, args, kwargs):
    rows = args[0]
    p = args[1] if len(args) > 1 else kwargs.get("p", 0)
    try:
        return fn(*args, **kwargs)
    finally:
        if rows and rows[0]:
            counters["rank.entries"] += len(rows) * len(rows[0])
        counters["rank.gfp_s" if p else "rank.qq_s"] += perf_counter() - span[1]


def _monomial_ideal(counters, span, fn, args, kwargs):
    fn(*args, **kwargs)
    counters["MonomialIdeal.gens"] += len(args[0].generators)


def _minimalize(counters, span, fn, args, kwargs):
    monomials = list(args[0])
    ideal = fn(monomials, *args[1:], **kwargs)
    counters["minimalize.in"] += len(monomials)
    counters["minimalize.out"] += len(ideal.generators)
    return ideal


def _suite(counters, span, fn, args, kwargs):
    report = fn(*args, **kwargs)
    counters["suite.instances"] += report["instances"]
    return report


_EXTRA = {
    "linalg.rank": _rank,
    "ideals.MonomialIdeal": _monomial_ideal,
    "ideals.minimalize": _minimalize,
    "verification.thm-4.4": _suite,
}


def layer_metrics(tracer: Tracer, cache_hits: int, cache_misses: int,
                  overhead_frac: float) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced run."""
    s = tracer.summary()
    calls, inc, self_t = s["calls"], s["inclusive"], s["self"]
    c = tracer.counters

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return inc.get(name, 0.0)

    lookups = cache_hits + cache_misses
    values = {
        "complexes.self_s": (self_t["complexes"], "s"),
        "complexes.minimal_nonfaces.calls": (n("complexes.minimal_nonfaces"), "count"),
        "complexes.minimal_nonfaces.s": (t("complexes.minimal_nonfaces"), "s"),
        "complexes.alexander_dual.s": (t("complexes.alexander_dual"), "s"),
        "complexes.pure_complement.s": (t("complexes.pure_complement"), "s"),
        "ideals.self_s": (self_t["ideals"], "s"),
        "ideals.power.s": (t("ideals.power"), "s"),
        "ideals.minimalize.s": (t("ideals.minimalize"), "s"),
        "ideals.minimalize.kept_ratio": (
            c["minimalize.out"] / c["minimalize.in"] if c["minimalize.in"] else 0.0,
            "ratio",
        ),
        "ideals.MonomialIdeal.calls": (n("ideals.MonomialIdeal"), "count"),
        "ideals.MonomialIdeal.s": (t("ideals.MonomialIdeal"), "s"),
        "ideals.MonomialIdeal.gens": (c["MonomialIdeal.gens"], "count"),
        "ideals.linear_quotients_order.calls": (n("ideals.linear_quotients_order"), "count"),
        "ideals.linear_quotients_order.s": (t("ideals.linear_quotients_order"), "s"),
        "ideals.verify_linear_quotients.calls": (n("ideals.verify_linear_quotients"), "count"),
        "ideals.verify_linear_quotients.s": (t("ideals.verify_linear_quotients"), "s"),
        "homological.self_s": (self_t["homological"], "s"),
        "homological.betti_table.calls": (n("homological.betti_table"), "count"),
        "homological.betti_table.s": (t("homological.betti_table"), "s"),
        "homological.squarefree_betti_masks.calls": (
            n("homological.squarefree_betti_masks"), "count",
        ),
        "homological.squarefree_betti_masks.s": (t("homological.squarefree_betti_masks"), "s"),
        "homological.shelling_order.s": (t("homological.shelling_order"), "s"),
        "homological.profile_cache.hits": (cache_hits, "count"),
        "homological.profile_cache.misses": (cache_misses, "count"),
        "homological.profile_cache.hit_ratio": (
            cache_hits / lookups if lookups else 0.0, "ratio",
        ),
        "linalg.rank.calls": (n("linalg.rank"), "count"),
        "linalg.rank.s": (t("linalg.rank"), "s"),
        "linalg.rank.entries": (c["rank.entries"], "count"),
        "linalg.rank.qq_s": (c["rank.qq_s"], "s"),
        "linalg.rank.gfp_s": (c["rank.gfp_s"], "s"),
        "quasitrees.self_s": (self_t["quasitrees"], "s"),
        "quasitrees.leaf_order.calls": (n("quasitrees.leaf_order"), "count"),
        "quasitrees.leaf_order.s": (t("quasitrees.leaf_order"), "s"),
        "quasitrees.relation_trees.s": (t("quasitrees.relation_trees"), "s"),
        "graphs.self_s": (self_t["graphs"], "s"),
        "graphs.cliques.calls": (n("graphs.cliques"), "count"),
        "graphs.cliques.s": (t("graphs.cliques"), "s"),
        "graphs.is_chordal.s": (t("graphs.is_chordal"), "s"),
        "verification.self_s": (self_t["verification"], "s"),
        "verification.instances": (c["suite.instances"], "count"),
        "verification.has_linear_resolution.s": (t("verification.has_linear_resolution"), "s"),
        "serialization.self_s": (self_t["serialization"], "s"),
        "cli.self_s": (self_t["cli"], "s"),
        "cli.requests": (n("cli.main"), "count"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
