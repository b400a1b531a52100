"""Committed benchmark results: every BENCH_*.json at the repository root is
the final JSON line of one perfbench/run.py run, and must describe a correct
run whose metrics are all named in BENCHMARK.json."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def test_some_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_is_a_correct_run_of_known_metrics(path):
    result = json.loads(path.read_text())
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    units = metric_units()
    assert result["metrics"]
    for key, metric in result["metrics"].items():
        workload, _, name = key.partition(".")
        assert workload and name in units, key
        assert metric["unit"] == units[name], key
        assert math.isfinite(metric["value"]), key
