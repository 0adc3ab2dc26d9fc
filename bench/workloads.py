"""The four benchmark workloads: how each one builds its inputs from the
seed, runs one timed unit through the library, and checks every output.

Two shapes of closed loop with one client:

* Suite workloads (``bulk-betti``, ``combinatorial``) run *passes*.  A pass
  is a seeded sample of the acceptance families of two ``verify`` suites,
  in the same proportions as the suites themselves, run with a cold
  homology-profile cache.  An item is one suite instance: the benchmark
  calls the library entry points the suite's check uses and tests the
  suite's identity on the result.  Instances from the exhaustive part of a
  family are also compared with a frozen per-instance reference.
* Corpus workloads (``powers``, ``cli-ops``) cycle through a frozen corpus
  of requests in a seeded order, one request at a time, each with a cold
  profile cache.  Every reply is compared with the frozen reply.

The library is always reached through module attributes (``lib.<module>
.<name>``) at call time, so the tracing wrappers in ``tracing.py`` see
every call the workload makes.

Every timed interval is corrected for the machine's momentary speed.  On a
shared 2-CPU container the same work was measured to run up to 1.6 times
slower for seconds at a time (other tenants on the same cores), which no
amount of repetition inside a run averages out.  So the benchmark times a
fixed probe of its own pure-Python code right before and right after each
interval, and scales the interval by PROBE_REFERENCE_S over the mean probe
time: times are reported in seconds of a machine running the probe in
PROBE_REFERENCE_S.  The probe is benchmark code, so a change to the library
cannot move it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
import time
import traceback
import zlib
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

perf_counter = time.perf_counter


# ---------------------------------------------------------------------------
# input families (owned by the benchmark, so that the frozen references stay
# valid whatever the library does to its own generators)
# ---------------------------------------------------------------------------


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def mask_face(mask: int) -> tuple[int, ...]:
    return tuple(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)


def antichains(n: int, max_facets=None, max_size=None):
    """Every complex on [n] as a tuple of facet masks (nonempty antichains of
    nonempty subsets), in the order the ``verify`` suites enumerate them."""
    max_size = n if max_size is None else min(max_size, n)
    candidates = sorted(
        (m for m in range(1, 1 << n) if popcount(m) <= max_size),
        key=lambda m: (popcount(m), m),
    )
    chosen: list[int] = []

    def rec(start):
        for idx in range(start, len(candidates)):
            m = candidates[idx]
            if any(c & m in (c, m) for c in chosen):
                continue
            chosen.append(m)
            yield tuple(chosen)
            if max_facets is None or len(chosen) < max_facets:
                yield from rec(idx + 1)
            chosen.pop()

    yield from rec(0)


def min_nonfaces(facet_masks, n: int) -> list[int]:
    """Minimal nonface masks of the complex with the given facets."""
    faces = set()
    for fm in facet_masks:
        sub = fm
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & fm
    found: list[int] = []
    for mask in sorted(range(1 << n), key=popcount):
        if mask not in faces and not any(f & mask == f for f in found):
            found.append(mask)
    return found


def random_facets(rng: random.Random, n: int, max_facets: int) -> tuple[int, ...]:
    """Facet masks of a complex built from random faces (the distribution of
    the suites' ``random_complex``), in canonical (size, mask) order."""
    faces = {
        sum(1 << (v - 1) for v in rng.sample(range(1, n + 1), rng.randint(1, n)))
        for _ in range(rng.randint(1, max_facets))
    }
    maximal = [f for f in faces if not any(g != f and f & g == f for g in faces)]
    return tuple(sorted(maximal, key=lambda m: (popcount(m), m)))


def random_chordal_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A chordal graph grown by attaching each new vertex to a clique."""
    edges = []
    cliques = [[1]]
    for v in range(2, n + 1):
        base = rng.choice(cliques)
        attach = rng.sample(base, rng.randint(0, len(base)))
        edges.extend((u, v) for u in attach)
        cliques.append(attach + [v])
    return edges


def graph_edges(n: int, code: int) -> list[tuple[int, int]]:
    return [
        (a + 1, b + 1)
        for idx, (a, b) in enumerate(itertools.combinations(range(n), 2))
        if code >> idx & 1
    ]


# ---------------------------------------------------------------------------
# machine-speed probe
# ---------------------------------------------------------------------------

# A fraction-free (Bareiss) elimination on a fixed 12 x 14 integer matrix:
# of the probes tried, its slowdown under contention tracked that of all
# four workloads best (within 6%).
_PROBE_MATRIX = [[(i * 31 + j * 17) % 7 - 3 for j in range(14)] for i in range(12)]
PROBE_REFERENCE_S = 150e-6  # the probe's best time on an idle 2-CPU x86 container


def _probe_work():
    m = [row[:] for row in _PROBE_MATRIX]
    rank, prev = 0, 1
    for col in range(14):
        pivot_row = next((r for r in range(rank, 12) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, 12):
            factor = m[r][col]
            for c in range(col, 14):
                m[r][c] = (m[r][c] * pivot - factor * m[rank][c]) // prev
        prev = pivot
        rank += 1


def probe() -> float:
    """Seconds the fixed probe work takes right now (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _probe_work()
        _probe_work()
        best = min(best, perf_counter() - start)
    return best


def speed_scale(before: float, after: float) -> float:
    """Factor that turns an interval between two probes into reference time."""
    return 2 * PROBE_REFERENCE_S / (before + after)


# ---------------------------------------------------------------------------
# suite instances: inputs, the library calls, the identity and the reference
# ---------------------------------------------------------------------------


class Cor22:
    """cor-2.2: leaf order exists iff the facet-complement ideal has projdim 1.
    Exhaustive: n <= 6, <= 4 facets of size <= 3, at least two facets."""

    name = "cor-2.2"
    acceptance_instances = 40_741
    width = 1

    @staticmethod
    def exhaustive():
        return [
            (n, masks)
            for n in range(2, 7)
            for masks in antichains(n, max_facets=4, max_size=min(3, n - 1))
            if len(masks) >= 2
        ]

    @staticmethod
    def run(lib, payload):
        n, masks = payload
        full = (1 << n) - 1
        is_qt = lib.quasitrees.leaf_order_masks(list(masks)) is not None
        pd = lib.homological.squarefree_projdim_masks([full ^ m for m in masks], 0)
        return is_qt, pd

    @staticmethod
    def holds(out):
        is_qt, pd = out
        return is_qt == (pd == 1)

    @staticmethod
    def encode(out):
        is_qt, pd = out
        return chr(48 + 2 * pd + is_qt)


def _small_complexes():
    """All complexes on n <= 5 other than a full simplex (shared by the
    exhaustive parts of thm-1.4b and lemma-1.2)."""
    return [
        (n, masks)
        for n in range(1, 6)
        for masks in antichains(n)
        if masks[-1] != (1 << n) - 1
    ]


class Thm14b:
    """thm-1.4b: projdim(S/I_D) = reg(I_{D dual}), both sides from their own
    minimal nonfaces.  Exhaustive n <= 5 plus random n = 7..8."""

    name = "thm-1.4b"
    acceptance_instances = 7_856
    width = 2

    @staticmethod
    def payload(n, facet_masks):
        full = (1 << n) - 1
        nonfaces = min_nonfaces(facet_masks, n)
        return nonfaces, min_nonfaces([full ^ m for m in nonfaces], n)

    @classmethod
    def exhaustive(cls):
        return [cls.payload(n, masks) for n, masks in _small_complexes()]

    @classmethod
    def random(cls, rng):
        n = rng.randint(7, 8)
        masks = random_facets(rng, n, 8)
        if masks[-1] == (1 << n) - 1:
            return None
        return cls.payload(n, masks)

    @staticmethod
    def run(lib, payload):
        nonfaces, dual_nonfaces = payload
        pd = lib.homological.squarefree_projdim_masks(nonfaces, 0)
        dual = lib.homological.squarefree_betti_masks(dual_nonfaces, 0)
        return pd, max(popcount(b) - i for i, b in dual)

    @staticmethod
    def holds(out):
        pd, reg = out
        return pd + 1 == reg

    @staticmethod
    def encode(out):
        return "%d%d" % out


class Lemma12:
    """lemma-1.2: I_{D dual} equals the facet ideal of the facet-complement
    complex.  Exhaustive n <= 5 plus random complexes on n <= 10."""

    name = "lemma-1.2"
    acceptance_instances = 12_180
    width = 8

    @staticmethod
    def exhaustive():
        return [
            (n, tuple(mask_face(m) for m in masks)) for n, masks in _small_complexes()
        ]

    @staticmethod
    def random(rng):
        n = rng.randint(2, 10)
        masks = random_facets(rng, n, 8)
        if masks[-1] == (1 << n) - 1:
            return None
        return n, tuple(mask_face(m) for m in masks)

    @staticmethod
    def run(lib, payload):
        n, faces = payload
        cx = lib.complexes.SimplicialComplex(n, faces)
        left = lib.ideals.stanley_reisner_ideal(lib.complexes.alexander_dual(cx))
        right = lib.ideals.facet_ideal(lib.complexes.complement_complex(cx))
        return left, right

    @staticmethod
    def holds(out):
        left, right = out
        return left == right

    @staticmethod
    def encode(out):
        text = ";".join(",".join(map(str, g.exponents)) for g in out[0].generators)
        return "%08x" % zlib.crc32(text.encode())


class Thm33:
    """thm-3.3: a graph is chordal iff its clique complex has a leaf order.
    Exhaustive over graphs on n <= 6, plus random graphs on 7 vertices
    (100,000 uniform and 2,000 grown chordal in the suite's proportions)."""

    name = "thm-3.3"
    acceptance_instances = 135_867
    width = 2

    @staticmethod
    def exhaustive():
        return [
            (n, graph_edges(n, code))
            for n in range(1, 7)
            for code in range(1 << (n * (n - 1) // 2))
        ]

    @staticmethod
    def random(rng):
        if rng.random() < 2_000 / 102_000:
            return 7, random_chordal_edges(rng, 7)
        return 7, graph_edges(7, rng.getrandbits(21))

    @staticmethod
    def run(lib, payload):
        n, edges = payload
        g = lib.graphs.Graph(n, edges)
        cliques = lib.graphs.maximal_cliques(g)
        is_qt = lib.quasitrees.leaf_order_masks(cliques) is not None
        return lib.graphs.is_chordal(g)[0], is_qt, len(cliques)

    @staticmethod
    def holds(out):
        return out[0] == out[1]

    @staticmethod
    def encode(out):
        return "%d%d" % (out[0], out[2])


SUITE_KINDS = {k.name: k for k in (Cor22, Thm14b, Lemma12, Thm33)}


def load_json(name: str):
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


def describe_error(exc: BaseException) -> str:
    return "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))


class Stats:
    """Per-run tallies shared by both workload shapes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.first_error = None

    def fail(self, what: str):
        self.failed += 1
        if self.first_error is None:
            self.first_error = what


def _cold_cache(lib):
    lib.homological._profile_from_masks.cache_clear()


def _count_cache(lib, stats: Stats):
    info = lib.homological._profile_from_masks.cache_info()
    stats.cache_hits += info.hits
    stats.cache_misses += info.misses


class SuiteWorkload:
    """Passes over seeded samples of two suites' acceptance families."""

    suites: tuple = ()
    pass_size = 0
    chunk = 0  # items between two speed probes, about 40 ms of work

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(seed)
        refs = load_json("suites.json")
        self.exhaustive = {}
        for kind in self.suites:
            payloads = kind.exhaustive()
            ref = refs[kind.name]
            if len(ref) != len(payloads) * kind.width:
                raise RuntimeError(f"{kind.name}: reference does not match its family")
            self.exhaustive[kind.name] = [
                (payload, ref[i * kind.width : (i + 1) * kind.width])
                for i, payload in enumerate(payloads)
            ]
        total = sum(k.acceptance_instances for k in self.suites)
        self.quota = []
        for kind in self.suites:
            share = round(self.pass_size * kind.acceptance_instances / total)
            exh = len(self.exhaustive[kind.name])
            from_exh = round(share * exh / kind.acceptance_instances)
            self.quota.append((kind, from_exh, share - from_exh))

    def params(self) -> dict:
        return {
            "pass_size": self.pass_size,
            "suites": {
                k.name: {
                    "acceptance_instances": k.acceptance_instances,
                    "exhaustive_instances": len(self.exhaustive[k.name]),
                    "per_pass_exhaustive": e,
                    "per_pass_random": r,
                }
                for k, e, r in self.quota
            },
        }

    def next_unit(self):
        """One pass: a seeded sample of every suite's family, interleaved."""
        rng = self.rng
        items = []
        for kind, from_exh, from_random in self.quota:
            pool = self.exhaustive[kind.name]
            for idx in rng.sample(range(len(pool)), from_exh):
                payload, ref = pool[idx]
                items.append((kind, payload, ref))
            made = 0
            while made < from_random:
                payload = kind.random(rng)
                if payload is not None:
                    items.append((kind, payload, None))
                    made += 1
        rng.shuffle(items)
        return items

    def execute(self, items, latencies, tracer=None):
        """Run one pass with a cold cache, probing the machine's speed
        between chunks; return (reference seconds, outputs)."""
        lib = self.lib
        outs = []
        total = 0.0
        _cold_cache(lib)
        before = probe()
        for first in range(0, len(items), self.chunk):
            chunk_latencies = []
            start = perf_counter()
            for kind, payload, _ref in items[first : first + self.chunk]:
                t0 = perf_counter()
                if tracer is not None:
                    tracer.begin("bench.item")
                try:
                    out = kind.run(lib, payload)
                except Exception as exc:  # counted as a failed item
                    out = exc
                if tracer is not None:
                    tracer.end()
                chunk_latencies.append(perf_counter() - t0)
                outs.append(out)
            elapsed = perf_counter() - start
            after = probe()
            scale = speed_scale(before, after)
            total += elapsed * scale
            latencies.extend(x * scale for x in chunk_latencies)
            before = after
        return total, outs

    def check(self, items, outs, stats: Stats):
        _count_cache(self.lib, stats)
        for (kind, payload, ref), out in zip(items, outs):
            stats.attempted += 1
            if isinstance(out, Exception):
                stats.fail(f"{kind.name} {payload!r} raised:\n{describe_error(out)}")
            elif not kind.holds(out):
                stats.fail(f"{kind.name} {payload!r}: identity fails, got {out!r}")
            elif ref is not None and kind.encode(out) != ref:
                stats.fail(
                    f"{kind.name} {payload!r}: {kind.encode(out)!r} differs "
                    f"from reference {ref!r}"
                )


class BulkBetti(SuiteWorkload):
    name = "bulk-betti"
    suites = (Cor22, Thm14b)
    pass_size = 4_000
    chunk = 200


class Combinatorial(SuiteWorkload):
    name = "combinatorial"
    suites = (Lemma12, Thm33)
    pass_size = 8_000
    chunk = 400


class CorpusWorkload:
    """Requests from a frozen corpus, in a seeded order, one at a time."""

    corpus_file = ""

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(seed)
        self.requests = self.load(load_json(self.corpus_file))
        self.order: list[int] = []

    def params(self) -> dict:
        return {"corpus": self.corpus_file, "requests": len(self.requests)}

    def next_unit(self):
        if not self.order:
            self.order = list(range(len(self.requests)))
            self.rng.shuffle(self.order)
            self.order.reverse()
        return self.order.pop()

    def execute(self, idx, latencies, tracer=None):
        """Send one request with a cold cache; return (reference seconds,
        reply)."""
        _cold_cache(self.lib)
        request = self.requests[idx]
        before = probe()
        t0 = perf_counter()
        if tracer is not None:
            tracer.begin("bench.request")
        try:
            out = self.send(request)
        except Exception as exc:  # counted as a failed request
            out = exc
        if tracer is not None:
            tracer.end()
        elapsed = perf_counter() - t0
        elapsed *= speed_scale(before, probe())
        latencies.append(elapsed)
        return elapsed, out

    def check(self, idx, out, stats: Stats):
        _count_cache(self.lib, stats)
        stats.attempted += 1
        if isinstance(out, Exception):
            stats.fail(f"request {idx} raised:\n{describe_error(out)}")
            return
        problem = self.compare(self.requests[idx], out)
        if problem:
            stats.fail(f"request {idx}: {problem}")


def relabel(facets, perm):
    return [sorted(perm[v - 1] for v in f) for f in facets]


class Powers(CorpusWorkload):
    """thm-4.4 in its library form: one ``check_power_linear_resolutions``
    request per corpus quasi-tree, with the vertices relabelled by a seeded
    permutation (the expected report does not depend on the labels)."""

    name = "powers"
    corpus_file = "powers.json"

    def load(self, corpus):
        self.max_power = corpus["max_power"]
        out = []
        for entry in corpus["requests"]:
            n = entry["ambient"]
            perm = list(range(1, n + 1))
            self.rng.shuffle(perm)
            qt = self.lib.complexes.SimplicialComplex(n, relabel(entry["facets"], perm))
            out.append((qt, entry["report"]))
        return out

    def send(self, request):
        qt, _expected = request
        return self.lib.verification.check_power_linear_resolutions(
            complexes=[qt], samples=0, max_power=self.max_power
        )

    def compare(self, request, report):
        expected = request[1]
        if report != expected:
            return f"report {report!r} differs from reference {expected!r}"
        return None


class CliOps(CorpusWorkload):
    """A frozen corpus of JSON requests sent through ``srideals.cli.main``
    in-process, as a fresh ``srideals`` process would receive them."""

    name = "cli-ops"
    corpus_file = "cli.json"
    BETTI_COMMANDS = ("betti", "projdim", "reg")

    def load(self, corpus):
        self.taylor_checked: set[int] = set()
        return corpus["requests"]

    def send(self, request):
        stdout, stderr = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(request["stdin"])
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.lib.cli.main(list(request["argv"]))
        finally:
            sys.stdin = saved
        return code, stdout.getvalue(), stderr.getvalue()

    def compare(self, request, out):
        code, text, err = out
        if code != request["exit"]:
            return f"exit {code} instead of {request['exit']}: {err.strip()}"
        report = json.loads(text)
        report.pop("timing_ms")
        if report != request["report"]:
            return "report differs from the reference"
        return None

    def check(self, idx, out, stats: Stats):
        super().check(idx, out, stats)
        if idx not in self.taylor_checked and not isinstance(out, Exception):
            self.taylor_checked.add(idx)
            problem = self.taylor_problem(self.requests[idx], out)
            if problem:
                stats.fail(f"request {idx}: {problem}")

    def taylor_problem(self, request, out):
        """Cross-check a Betti-type answer against the independent Taylor
        oracle (outside the timed region, once per request and run)."""
        command = request["argv"][0]
        if command not in self.BETTI_COMMANDS:
            return None
        lib = self.lib
        field = request["argv"][request["argv"].index("--field") + 1]
        p = 0 if field == "q" else int(field[2:])
        ideal = lib.serialization.ideal_from_json(json.loads(request["stdin"]))
        table = lib.homological.taylor_betti_table(ideal, lib.homological.FieldChoice(p))
        result = json.loads(out[1])["result"]
        if command == "betti":
            expected = lib.serialization.betti_to_json(table, ideal.generator_degrees)
        elif command == "projdim":
            expected = {"projdim": table.projdim}
        else:
            expected = {"reg": table.regularity}
        if result != expected:
            return f"{command} answer {result!r} disagrees with the Taylor oracle"
        return None


WORKLOADS = {w.name: w for w in (BulkBetti, Powers, Combinatorial, CliOps)}
