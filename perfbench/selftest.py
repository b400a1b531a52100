"""The benchmark's own tests. Not part of the package's test suite; run with
    python3 -m pytest -q perfbench/selftest.py
(about 4 minutes on 2 cores; select workloads with -k).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
import hostspeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# counts the program makes deterministically: later changes may rest a
# count-based claim on them, so they must repeat exactly
COUNTERS = ("master.calls", "master.nodes", "master.cuts", "lower.calls",
            "lower.inner_iters", "lower.infeasible", "lower.lifted.calls",
            "numeric.dense.calls", "numeric.dense.failed",
            "numeric.scenario.calls", "numeric.feasible.calls")


def bench(*args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)
    return proc


def traced(workload, seed):
    proc = bench("--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counters_repeat(workload):
    first, second = traced(workload, 3), traced(workload, 3)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{c: res["metrics"][c]["value"] for c in COUNTERS}
              for res in (first, second)]
    assert counts[0] == counts[1]
    if workload != "lifted_cp":
        # criterion 08: bcp never builds an S-sized program
        assert counts[0]["numeric.scenario.calls"] == 0


def test_scale_is_reference_over_median_loop_time():
    sampler = hostspeed.Sampler()   # not started: no thread, no pinning
    ref = hostspeed.REF_LOOP_S
    sampler.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref),
                       (3.0, 8 * ref), (4.0, ref / 2)]
    assert sampler.scale(0.5, 3.5) == 0.5          # median of 2, 2, 8
    assert sampler.scale(-float("inf"), 0.0) == 1.0
    # no sample inside the interval: the median of all of them
    assert sampler.scale(5.0, 6.0) == 0.5


def test_refuses_without_program():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(tmp, path),
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
        proc = bench("--workload", SPEC["workloads"][0]["name"],
                     "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

