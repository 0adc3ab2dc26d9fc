"""tools/bench_pairs.py summarizes paired run.py results per metric: both
sides' medians and quartiles, the relative change of the medians, the
pairs the change won and the metric's bound.  No benchmark is run here."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output(items_per_s, tail_ms, failed=0):
    """The last two lines of a run.py output with the given values; the
    other metrics are fixed."""
    meta = {"workload": "combinatorial", "source_sha256": "ab" * 32}
    metrics = {
        "setup_s": 0.5,
        "items_per_s": items_per_s,
        "latency_p50_ms": 0.02,
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": 70.0,
    }
    result = {
        "correct": failed == 0,
        "attempted": 1000,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    }
    return f"warm-up chatter\n{json.dumps(meta)}\n{json.dumps(result)}\n"


def test_parse_run_reads_the_last_two_lines():
    meta, result = _tool().parse_run(_output(100.0, 0.09))
    assert meta["source_sha256"] == "ab" * 32
    assert result["metrics"]["latency_tail_ms"]["value"] == 0.09


def test_summary_of_canned_pairs():
    tool = _tool()
    # (base, change) pairs: the change is faster in four of five pairs
    lines = [
        ((100.0, 0.090), (110.0, 0.080)),
        ((102.0, 0.092), (111.0, 0.081)),
        ((98.0, 0.094), (108.0, 0.079)),
        ((101.0, 0.091), (100.0, 0.095)),
        ((99.0, 0.093), (112.0, 0.078)),
    ]
    pairs = [
        (tool.parse_run(_output(*base))[1], tool.parse_run(_output(*change, failed=k == 0))[1])
        for k, (base, change) in enumerate(lines)
    ]
    summary = tool.summarize(pairs, SPEC)
    assert summary["base"] == {"attempted": 5000, "failed": 0}
    assert summary["change"] == {"attempted": 5000, "failed": 1}
    rate, tail = summary["items_per_s"], summary["latency_tail_ms"]
    assert (rate["base_median"], rate["change_median"]) == (100.0, 110.0)
    assert rate["base_quartiles"] == [99.0, 101.0]
    assert rate["change_quartiles"] == [108.0, 111.0]
    assert abs(rate["median_change"] - 0.1) < 1e-12
    assert (rate["wins"], rate["pairs"], rate["better"]) == (4, 5, "higher")
    assert (tail["base_median"], tail["change_median"]) == (0.092, 0.080)
    assert (tail["wins"], tail["better"], tail["bound"]) == (4, "lower", 0.25)
    assert tail["base"] == [0.090, 0.092, 0.094, 0.091, 0.093]
    # equal values are no win for either side
    assert summary["setup_s"]["wins"] == summary["peak_rss_mb"]["wins"] == 0
    assert set(summary) == {"base", "change"} | {m["name"] for m in SPEC["end_to_end"]}
