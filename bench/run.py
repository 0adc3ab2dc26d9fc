"""srideals benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload bulk-betti --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
the per-layer metrics.  The line before it is the run's metadata (Python
version, CPU count, commit, workload parameters, item and cache counts).
Every output is checked; ``failed`` counts items that raised or whose
output differs from the reference, and ``failed / attempted`` is the
failure fraction.

End-to-end metrics (untraced run).  Every time is corrected for the
machine's momentary speed with the probe in ``workloads.py`` and reported in
seconds of the reference machine:

* ``setup_s``: import of the library, input generation and loading of the
  corpora and references, done five times; the median.
* ``items_per_s``: suite workloads, the median over passes of instances per
  second; corpus workloads, corpus size over the sum of the per-request
  median latencies (the rate at which the corpus mix is served).
* ``latency_p50_ms`` / ``latency_tail_ms``: suite workloads, over every
  instance latency, the median and the 98th percentile; corpus workloads,
  over the per-request median latencies, the median and the value with ten
  requests above it (the 90th percentile of a 100-request corpus).  The
  percentile and its sample count are in the metadata line.
* ``peak_rss_mb``: peak resident memory of the process.

The traced run alternates each unit untraced and traced on the same input,
so ``trace.overhead_frac`` compares like with like, and writes every span
to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

perf_counter = time.perf_counter

SETUP_REPEATS = 5
SUITE_TAIL_PERCENTILE = 98
CORPUS_TAIL_BEYOND = 10
# A corpus request shorter than this is sent up to SHORT_REQUEST_SENDS times
# in a row (each with a cold cache), so that its median rests on several
# samples even when the run completes only one or two cycles.
SHORT_REQUEST_S = 0.02
SHORT_REQUEST_SENDS = 3
MODULES = (
    "complexes", "ideals", "homological", "_linalg", "quasitrees", "graphs",
    "verification", "serialization", "cli",
)


def import_library():
    """Import srideals afresh from this checkout's src/ directory."""
    for key in [k for k in sys.modules if k.split(".")[0] == "srideals"]:
        del sys.modules[key]
    package = importlib.import_module("srideals")
    if Path(package.__file__).resolve().parent != (SRC / "srideals").resolve():
        raise RuntimeError(f"imported srideals from {package.__file__}, not from {SRC}")
    return SimpleNamespace(
        **{m.lstrip("_"): importlib.import_module("srideals." + m) for m in MODULES}
    )


def commit_id():
    """The checked-out commit when the checkout is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = ROOT / ".git" / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return text
    except OSError:
        return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "srideals").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def setup(workload_cls, seed):
    """Import, generate inputs and load references; return the last set-up
    workload and the time of every repetition."""
    times = []
    for _ in range(SETUP_REPEATS):
        workload = None  # free the previous set-up before timing the next
        before = workloads.probe()
        start = perf_counter()
        lib = import_library()
        workload = workload_cls(lib, seed)
        elapsed = perf_counter() - start
        times.append(elapsed * workloads.speed_scale(before, workloads.probe()))
    return workload, times


def measure(workload, seconds, stats):
    """Untraced closed loop for `seconds`; corpus workloads also run until
    every request has been sent at least once."""
    corpus = isinstance(workload, workloads.CorpusWorkload)
    deadline = perf_counter() + seconds
    unit_rates, latencies = [], []
    per_request: dict[int, list[float]] = {}
    units = 0
    while True:
        unit = workload.next_unit()
        for sends in range(1, SHORT_REQUEST_SENDS + 1):
            elapsed, outs = workload.execute(unit, latencies)
            workload.check(unit, outs, stats)
            units += 1
            if not corpus:
                unit_rates.append(len(unit) / elapsed)
                break
            per_request.setdefault(unit, []).append(elapsed)
            if elapsed >= SHORT_REQUEST_S:
                break
        if perf_counter() >= deadline and (
            not corpus or len(per_request) == len(workload.requests)
        ):
            break
    if corpus:
        medians = sorted(statistics.median(v) for v in per_request.values())
        rate = len(medians) / sum(medians)
        p50 = statistics.median(medians)
        beyond = min(CORPUS_TAIL_BEYOND, len(medians) - 1)
        tail = medians[len(medians) - 1 - beyond]
        tail_info = {
            "over": "per-request medians",
            "samples": len(medians),
            "percentile": 100 * (len(medians) - beyond) / len(medians),
            "beyond": beyond,
        }
    else:
        rate = statistics.median(unit_rates)
        latencies.sort()
        p50 = statistics.median(latencies)
        cut = statistics.quantiles(latencies, n=100)[SUITE_TAIL_PERCENTILE - 1]
        tail = cut
        tail_info = {
            "over": "instance latencies",
            "samples": len(latencies),
            "percentile": SUITE_TAIL_PERCENTILE,
            "beyond": sum(1 for x in latencies if x > cut),
        }
    return {
        "items_per_s": rate,
        "latency_p50_ms": p50 * 1000,
        "latency_tail_ms": tail * 1000,
        "units": units,
        "tail": tail_info,
    }


def measure_traced(workload, seconds, stats, traced_stats, tracer):
    """Each unit untraced, then traced on the same input."""
    corpus = isinstance(workload, workloads.CorpusWorkload)
    deadline = perf_counter() + seconds
    seen = set()
    untraced = traced = 0.0
    units = 0
    scratch: list[float] = []
    while True:
        unit = workload.next_unit()
        elapsed, outs = workload.execute(unit, scratch)
        workload.check(unit, outs, stats)
        untraced += elapsed
        tracer.install()
        try:
            elapsed, outs = workload.execute(unit, scratch, tracer)
        finally:
            tracer.uninstall()
        workload.check(unit, outs, traced_stats)
        traced += elapsed
        units += 1
        scratch.clear()
        if corpus:
            seen.add(unit)
        if perf_counter() >= deadline and (
            not corpus or len(seen) == len(workload.requests)
        ):
            break
    return {"overhead_frac": traced / untraced - 1.0, "units": units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "srideals" / "__init__.py").is_file():
        print(f"error: no srideals sources under {SRC}", file=sys.stderr)
        return 2

    workload, setup_times = setup(workloads.WORKLOADS[args.workload], args.seed)
    stats = workloads.Stats()
    meta = {
        "benchmark": "srideals",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "params": workload.params(),
        "setup_s_repeats": setup_times,
    }
    if args.trace:
        tracer = tracing.Tracer(workload.lib)
        traced_stats = workloads.Stats()
        run = measure_traced(workload, args.seconds, stats, traced_stats, tracer)
        metrics = tracing.layer_metrics(
            tracer, traced_stats.cache_hits, traced_stats.cache_misses,
            run["overhead_frac"],
        )
        trace_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_file)
        meta["trace_file"] = str(trace_file.relative_to(ROOT))
        meta["spans"] = len(tracer.spans)
        meta["missing_trace_targets"] = tracer.missing
        stats.attempted += traced_stats.attempted
        stats.failed += traced_stats.failed
        stats.first_error = stats.first_error or traced_stats.first_error
    else:
        run = measure(workload, args.seconds, stats)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "items_per_s": {"value": run["items_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": run["latency_p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": run["latency_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        meta["latency_tail"] = run["tail"]
    meta["units"] = run["units"]
    meta["items"] = stats.attempted
    meta["profile_cache"] = {"hits": stats.cache_hits, "misses": stats.cache_misses}
    if stats.first_error:
        print(f"first failure: {stats.first_error}", file=sys.stderr)
    print(json.dumps(meta, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": stats.failed == 0,
                "attempted": stats.attempted,
                "failed": stats.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
