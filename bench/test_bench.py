"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                  "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_suite_reference_is_counted_as_failed(lib):
    workload = W.BulkBetti(lib, 0)
    payload, ref = workload.exhaustive["cor-2.2"][123]
    wrong = chr(ord(ref) ^ 1)
    items = [(W.Cor22, payload, ref), (W.Cor22, payload, wrong)]
    _elapsed, outs = workload.execute(items, [])
    stats = W.Stats()
    workload.check(items, outs, stats)
    assert (stats.attempted, stats.failed) == (2, 1)


def test_wrong_cli_reference_is_counted_as_failed(lib):
    workload = W.CliOps(lib, 0)
    idx = next(i for i, r in enumerate(workload.requests) if r["argv"][0] == "quasitree")
    workload.requests[idx]["report"]["result"]["is_quasi_tree"] ^= True
    stats = W.Stats()
    for i in (idx, (idx + 1) % len(workload.requests)):
        _elapsed, out = workload.execute(i, [])
        workload.check(i, out, stats)
    assert (stats.attempted, stats.failed) == (2, 1)


def test_same_seed_same_inputs(lib):
    def first_pass(seed):
        return [(k.name, p) for k, p, _r in W.BulkBetti(lib, seed).next_unit()]

    assert first_pass(5) == first_pass(5)
    assert first_pass(5) != first_pass(6)
    powers = [W.Powers(lib, s).requests[0][0] for s in (5, 5, 6)]
    assert powers[0] == powers[1]


def test_families_are_the_suites_families(lib):
    V = lib.verification
    assert W.Cor22.exhaustive() == [
        (n, masks)
        for n in range(2, 7)
        for masks in V.iter_complexes_masks(n, max_facets=4, max_size=min(3, n - 1))
        if len(masks) >= 2
    ]
    assert len(W.Cor22.exhaustive()) == W.Cor22.acceptance_instances


def test_tracer_rebinds_every_alias_and_restores_them(lib):
    originals = (lib.linalg.rank, lib.quasitrees.leaf_order_masks, lib.homological.betti_table)
    tracer = tracing.Tracer(lib)
    assert tracer.missing == []
    tracer.install()
    try:
        assert lib.homological._rank is lib.linalg.rank is not originals[0]
        assert lib.verification.leaf_order_masks is lib.quasitrees.leaf_order_masks
        assert lib.verification.betti_table is lib.homological.betti_table
        assert lib.homological.betti_table.__wrapped__ is originals[2]
    finally:
        tracer.uninstall()
    assert (lib.linalg.rank, lib.quasitrees.leaf_order_masks, lib.homological.betti_table) == originals
    assert lib.homological._rank is originals[0]


def test_without_sources_it_fails_without_a_result():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(["--workload", "bulk-betti", "--seed", "0", "--seconds", "1",
                      "--trace", "0"], cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
