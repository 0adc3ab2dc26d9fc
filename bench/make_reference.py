"""Build the frozen corpora and references under bench/data/.

    python3 bench/make_reference.py

Deterministic: every random choice comes from CORPUS_SEED.  Before it
writes anything it checks that

* the benchmark's own enumeration of each exhaustive family is the one the
  ``verify`` suites use, and that each suite run at its acceptance budget
  reports the instance count the workloads pin, and passes;
* every suite identity holds on every exhaustive instance;
* every Betti-type answer in the CLI corpus agrees with the Taylor oracle.

Rerun it only when the library's outputs are meant to change; the
references it writes are what the benchmark calls correct.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402

CORPUS_SEED = 2003
POWERS_REQUESTS = 100
POWERS_MAX_N = 6
MAX_POWER = 3

# cli-ops mix: subcommand, extra flags, how many requests.
CLI_MIX = (
    ("betti", ["--field", "q"], 4),
    ("betti", ["--field", "gf2"], 4),
    ("projdim", ["--field", "q"], 4),
    ("projdim", ["--field", "gf2"], 4),
    ("reg", ["--field", "q"], 4),
    ("reg", ["--field", "gf2"], 4),
    ("nonfaces", [], 7),
    ("sr-ideal", [], 5),
    ("dual", [], 5),
    ("chordal", [], 6),
    ("clique-complex", [], 5),
    ("dirac", [], 4),
    ("shelling", [], 7),
    ("linear-quotients", [], 7),
    ("relation-trees", [], 8),
    ("quasitree", [], 8),
    ("power", ["-k", "2"], 4),
    ("power", ["-k", "3", "--pretty"], 3),
    ("mdelta", [], 4),
    ("mdelta", ["--pretty"], 3),
)

# Betti requests: squarefree ideals with cubic generators covering 10-12
# variables (low-degree generators make the exact rank dominate), kept when
# the work estimate of dense elimination, the sum over the lcm lattice of
# (faces of the upper-Koszul complex)^3, lies in this window (about
# 0.05-0.3 s per request on a 2-CPU x86 container).
BETTI_VARS = (10, 11, 12)
BETTI_WORK = (1e7, 2e8)


def elimination_work(masks) -> int:
    lattice, frontier = set(masks), set(masks)
    while frontier:
        new = {b | g for b in frontier for g in masks} - lattice
        lattice |= new
        frontier = new
    work = 0
    for b in lattice:
        inside = [g for g in masks if g & b == g]
        faces = 0
        sub = b
        while True:
            if any(g & sub == 0 for g in inside):
                faces += 1
            if sub == 0:
                break
            sub = (sub - 1) & b
        work += faces**3
    return work


def exponents(mask: int, n: int) -> list[int]:
    return [mask >> i & 1 for i in range(n)]


def betti_ideal(rng):
    while True:
        n = rng.choice(BETTI_VARS)
        deg = 3
        masks: set[int] = set()
        cover = 0
        while cover != (1 << n) - 1 and len(masks) < 12:
            m = sum(1 << v for v in rng.sample(range(n), deg))
            masks.add(m)
            cover |= m
        if cover == (1 << n) - 1 and BETTI_WORK[0] <= elimination_work(sorted(masks)) <= BETTI_WORK[1]:
            return {"vars": n, "generators": [exponents(m, n) for m in sorted(masks)]}


def random_quasi_tree(rng, n, max_facets=6, max_size=4):
    """Facets of a quasi-tree grown by leaf attachment."""
    facets = [sorted(rng.sample(range(1, n + 1), rng.randint(2, min(max_size, n))))]
    used = set(facets[0])
    while len(facets) < max_facets:
        unused = [v for v in range(1, n + 1) if v not in used]
        if not unused or rng.random() < 0.2:
            break
        g = rng.choice(facets)
        stick = rng.sample(g, rng.randint(0, len(g) - 1))
        fresh = rng.sample(unused, rng.randint(1, min(2, len(unused))))
        facets.append(sorted(set(stick) | set(fresh)))
        used.update(facets[-1])
    return facets


def complex_json(n, facet_masks):
    return {"ambient": n, "facets": [list(W.mask_face(m)) for m in facet_masks]}


def random_graph(rng, n, p):
    return [[a, b] for a, b in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]


def cli_stdin(rng, command):
    """A JSON request body for one subcommand."""
    if command in ("betti", "projdim", "reg"):
        return betti_ideal(rng)
    if command in ("nonfaces", "sr-ideal", "dual"):
        n = rng.randint(11, 14)
        while True:
            masks = W.random_facets(rng, n, 6)
            if masks[-1] != (1 << n) - 1 and W.popcount(masks[-1]) < n - 2:
                return complex_json(n, masks)
    if command in ("chordal", "clique-complex", "dirac"):
        n = rng.randint(12, 20)
        if rng.random() < 0.5:
            return {"n": n, "edges": [list(e) for e in W.random_chordal_edges(rng, n)]}
        return {"n": n, "edges": random_graph(rng, n, rng.uniform(0.15, 0.4))}
    if command == "shelling":
        n = rng.randint(6, 8)
        pool = list(itertools.combinations(range(1, n + 1), 3))
        return {"ambient": n, "facets": [list(f) for f in rng.sample(pool, rng.randint(4, 9))]}
    if command == "linear-quotients":
        n = rng.randint(6, 8)
        pool = list(itertools.combinations(range(n), 3))
        gens = [exponents(sum(1 << v for v in f), n) for f in rng.sample(pool, rng.randint(5, 10))]
        return {"vars": n, "generators": gens}
    if command in ("relation-trees", "mdelta"):
        n = rng.randint(6, 9)
        facets = random_quasi_tree(rng, n)
        while len(facets) < 3:
            facets = random_quasi_tree(rng, n)
        return {"ambient": n, "facets": facets}
    if command == "quasitree":
        n = rng.randint(6, 10)
        if rng.random() < 0.5:
            return {"ambient": n, "facets": random_quasi_tree(rng, n)}
        return complex_json(n, W.random_facets(rng, n, 7))
    if command == "power":
        n = rng.randint(5, 7)
        pool = list(itertools.combinations(range(n), 2))
        gens = [exponents(sum(1 << v for v in f), n) for f in rng.sample(pool, rng.randint(3, 6))]
        return {"vars": n, "generators": gens}
    raise ValueError(command)


def build_cli(lib, rng):
    requests = []
    for command, flags, count in CLI_MIX:
        for _ in range(count):
            stdin = json.dumps(cli_stdin(rng, command))
            requests.append({"argv": [command, *flags], "stdin": stdin})
    rng.shuffle(requests)
    workload = W.CliOps.__new__(W.CliOps)
    workload.lib = lib
    workload.taylor_checked = set()
    for req in requests:
        code, text, err = workload.send(req)
        if code != 0:
            raise SystemExit(f"cli request {req} exited {code}: {err}")
        report = json.loads(text)
        report.pop("timing_ms")
        req["exit"] = code
        req["report"] = report
        problem = workload.taylor_problem(req, (code, text, err))
        if problem:
            raise SystemExit(problem)
    return {"requests": requests}


def build_powers(lib, rng):
    requests = []
    for _ in range(POWERS_REQUESTS):
        n = rng.randint(3, POWERS_MAX_N)
        facets = random_quasi_tree(rng, n)
        qt = lib.complexes.SimplicialComplex(n, facets)
        report = lib.verification.check_power_linear_resolutions(
            complexes=[qt], samples=0, max_power=MAX_POWER
        )
        if not report["passed"]:
            raise SystemExit(f"thm-4.4 fails on {facets}")
        requests.append({"ambient": n, "facets": [list(f) for f in qt.facets], "report": report})
    return {"max_power": MAX_POWER, "requests": requests}


def check_families(lib):
    """The benchmark's families are the suites' families, in their order."""
    V = lib.verification
    cor = [
        (n, masks)
        for n in range(2, 7)
        for masks in V.iter_complexes_masks(n, max_facets=4, max_size=min(3, n - 1))
        if len(masks) >= 2
    ]
    assert cor == W.Cor22.exhaustive(), "cor-2.2 family differs"
    small = [
        (n, masks)
        for n in range(1, 6)
        for masks in V.iter_complexes_masks(n)
        if masks[-1] != (1 << n) - 1
    ]
    assert small == W._small_complexes(), "small-complex family differs"
    for kind, report in (
        (W.Cor22, V.check_quasi_tree_projdim(max_n=6)),
        (W.Thm14b, V.check_projdim_regularity_duality()),
        (W.Lemma12, V.check_dual_ideal_identity(exhaustive_n=5, samples=10_000)),
        (W.Thm33, V.check_chordal_quasi_tree()),
    ):
        assert report["passed"], kind.name
        assert report["instances"] == kind.acceptance_instances, (
            kind.name, report["instances"],
        )


def build_suites(lib):
    refs = {}
    for kind in W.SUITE_KINDS.values():
        parts = []
        for payload in kind.exhaustive():
            out = kind.run(lib, payload)
            assert kind.holds(out), (kind.name, payload)
            code = kind.encode(out)
            assert len(code) == kind.width, (kind.name, code)
            parts.append(code)
        refs[kind.name] = "".join(parts)
    return refs


def write(name, obj):
    with open(W.DATA / name, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def main():
    lib = run.import_library()
    check_families(lib)
    suites = build_suites(lib)
    powers = build_powers(lib, random.Random(CORPUS_SEED))
    cli = build_cli(lib, random.Random(CORPUS_SEED + 1))
    W.DATA.mkdir(exist_ok=True)
    write("suites.json", suites)
    write("powers.json", powers)
    write("cli.json", cli)


if __name__ == "__main__":
    main()
