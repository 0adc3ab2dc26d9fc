"""Paired benchmark runs of two revisions, summarized per workload and metric.

Usage:
    python tools/bench_pairs.py --out BENCH_<pr>.json [--base REV] [--change REV]
        [--pairs N] [--seeds 0,1,...]

``--base`` defaults to HEAD and ``--change`` to the working tree (its
tracked files, staged new files included, as ``git stash create`` records
them).  Each side is extracted with ``git archive`` into a fresh directory
and byte-compiled with ``compileall``, so that neither side pays for
compiling its modules.  Then, per workload of BENCHMARK.json, each side
runs ``bench/run.py --trace 0`` once as a short warm-up, and then N pairs
of ``run_seconds`` runs, pair k at seed ``seeds[k % len(seeds)]``, the
base first in even pairs and the change first in odd ones.

The output file holds, per workload and end-to-end metric, both sides'
values, medians and quartiles, the relative change of the medians, the
number of pairs the change won (strictly better, as the metric's
``better`` says) and the metric's ``bound`` from BENCHMARK.json; also the
seeds, the Python version, the CPU count and each side's ``source_sha256``
as ``run.py`` reports it, with the commit of a side given by revision (a
working-tree side has no commit that a ref keeps, so its source hash is
its only record).  Stdlib only.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WARMUP_SECONDS = 3.0


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(metadata, result) of one ``run.py`` output: its last two lines."""
    meta, result = stdout.strip().splitlines()[-2:]
    return json.loads(meta), json.loads(result)


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list[tuple[dict, dict]], spec: dict) -> dict:
    """Per end-to-end metric of ``spec`` (BENCHMARK.json), the summary of
    (base result, change result) pairs of one workload; ``failed`` sums
    each side's failed items and ``attempted`` its items."""
    summary = {
        side: {key: sum(pair[k][key] for pair in pairs) for key in ("attempted", "failed")}
        for k, side in enumerate(("base", "change"))
    }
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if metric["better"] == "higher" else -1
        q_base, q_change = _quartiles(base), _quartiles(change)
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "base": base,
            "change": change,
            "base_median": q_base[1],
            "change_median": q_change[1],
            "base_quartiles": [q_base[0], q_base[2]],
            "change_quartiles": [q_change[0], q_change[2]],
            "median_change": q_change[1] / q_base[1] - 1 if q_base[1] else None,
            "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "pairs": len(pairs),
        }
    return summary


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def checkout(rev: str | None, into: Path) -> str | None:
    """Extract `rev` (None: the working tree) into `into`, byte-compile it,
    and return the commit of `rev` (None for the working tree)."""
    commit = _git("rev-parse", rev) if rev else None
    tree = commit or _git("stash", "create") or _git("rev-parse", "HEAD")
    archive = subprocess.run(["git", "archive", tree], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into)
    compileall.compile_dir(into, quiet=1)
    return commit


def run_once(where: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=where, check=True, capture_output=True, text=True)
    return parse_run(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--change", default=None)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "warmup_seconds": WARMUP_SECONDS,
        "seeds": [seeds[k % len(seeds)] for k in range(args.pairs)],
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": (args.base, Path(tmp, "base"))}
        sides["change"] = (args.change, Path(tmp, "change"))
        for side, (rev, where) in sides.items():
            report[side] = {"commit": checkout(rev, where)}
        for name in (w["name"] for w in spec["workloads"]):
            for side, (_, where) in sides.items():  # the warm-up
                meta, _ = run_once(where, name, seeds[0], WARMUP_SECONDS)
                report[side]["source_sha256"] = meta["source_sha256"]
            pairs = []
            for k, seed in enumerate(report["seeds"]):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                results = {side: run_once(sides[side][1], name, seed, seconds)[1] for side in order}
                pairs.append((results["base"], results["change"]))
                print(f"{name}: pair {k + 1} of {args.pairs} done", file=sys.stderr)
            report["workloads"][name] = summarize(pairs, spec)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
