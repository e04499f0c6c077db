"""`tools/bench.py --compare`: each metric's relative change, and a verdict
against its BENCHMARK.json bound for the end-to-end ones."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_tool", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _file(bench, wall, rss, stage, sha):
    metrics = {"wall_s": bench._summary(wall), "peak_rss_mb": bench._summary(rss),
               "quantize_s": bench._summary(stage)}
    return {"revision": "r", "src_apiq_lines": 1,
            "workloads": {"calib-sweep": {"correct": [True] * 3,
                                          "manifest_sha256": {"1": sha, "2": "b", "3": "c"},
                                          "metrics": metrics}}}


def test_summary_is_median_and_interquartile_range(bench):
    assert bench._summary([3.0, 1.0, 2.0]) == {"median": 2.0, "iqr": 1.0,
                                               "values": [3.0, 1.0, 2.0]}


def test_compare_flags_only_a_change_past_its_bound(bench, capsys):
    old = _file(bench, [10.0, 10.0, 10.0], [50.0, 50.0, 50.0], [4.0, 4.0, 4.0], "a")
    new = _file(bench, [13.0, 13.0, 13.0], [40.0, 40.0, 40.0], [2.0, 2.0, 2.0], "x")
    bench.compare(old, new)
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  ")}
    assert "+30.0%" in lines["wall_s"] and "WORSE than bound" in lines["wall_s"]
    assert "-20.0%" in lines["peak_rss_mb"] and lines["peak_rss_mb"].endswith("ok")
    assert "-50.0%" in lines["quantize_s"] and "bound" not in lines["quantize_s"]


def test_compare_names_the_seeds_whose_manifest_is_unchanged(bench, capsys):
    old = _file(bench, [1.0] * 3, [1.0] * 3, [1.0] * 3, "a")
    new = _file(bench, [1.0] * 3, [1.0] * 3, [1.0] * 3, "x")
    bench.compare(old, new)
    assert "manifest unchanged at seeds ['2', '3']" in capsys.readouterr().out
