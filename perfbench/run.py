"""cardcvar benchmark: python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1

Runs from the root of a checkout and imports the program from its src/.
Every repetition of a workload is one fresh process (worker.py) that
generates the workload's instances, solves them through the public driver
API and checks every answer. With --trace 0 the run starts repetitions
until the next one would end after --seconds. It reports wall_s,
solve_s_max and setup_s at the reference core speed (hostspeed.py):
wall_s and solve_s_max as the mean over the run's repetitions, setup_s and
peak_rss_mb as their median. With --trace 1 it runs one untraced and one
traced process and reports the per-layer metrics of the traced one.
`--workload all` runs every workload in turn. The last line of output is one
JSON object; the lines before it give every metric by name with its unit,
the environment and each failed check. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

RUN_LIMIT_S = 170.0      # a whole run ends within this, killing a stuck worker
BLAS_THREADS = "1"       # one process, one BLAS thread: never more than cores

END_TO_END = {"wall_s": "s", "solve_s_max": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name == "failed_frac":
        return "ratio"
    if name == "numeric.dense.per_lower":
        return "QP/call"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def scaled_solve_s(rec, agg=sum):
    """agg (sum or max) of one worker's solve times at the reference core
    speed."""
    return agg(t * k for t, k in zip(rec["solve_s"], rec["solve_scale"]))


def run_worker(name, seed, traced, instance_seeds, timeout):
    """One fresh worker process; its JSON record, or None when it was killed
    at the timeout or exited with an error (printed)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed),
           repr(time.time()), "1" if traced else "0"]
    if instance_seeds:
        cmd.append(instance_seeds)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"FAILED worker killed after {timeout:.0f} s")
        return None
    if proc.returncode != 0:
        print(f"FAILED worker exited with {proc.returncode}:\n"
              + proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, instance_seeds, n_solves):
    """(correct, attempted, failed, metrics, env) of one run of one workload."""
    start = time.monotonic()
    limit = min(seconds, RUN_LIMIT_S)
    reps = []
    longest = 0.0
    for traced in ([False, True] if trace else itertools.repeat(False)):
        t0 = time.monotonic()
        rec = run_worker(name, seed, traced, instance_seeds,
                         RUN_LIMIT_S - (t0 - start))
        if rec is None:
            break
        reps.append((traced, rec))
        now = time.monotonic()
        longest = max(longest, now - t0)
        if not trace and (now - start) + longest > limit:
            break
    lost = n_solves if rec is None else 0
    if not reps:
        raise SystemExit(f"no {name} worker completed")
    for _, r in reps:
        for msg in r["failures"]:
            print(f"FAILED {name}: {msg}")
    attempted = lost + sum(r["attempted"] for _, r in reps)
    failed = lost + sum(r["failed"] for _, r in reps)
    plain = [r for traced, r in reps if not traced]
    if not trace:
        metrics = {
            "wall_s": statistics.fmean(scaled_solve_s(r) for r in plain),
            "solve_s_max": statistics.fmean(scaled_solve_s(r, max)
                                            for r in plain),
            "setup_s": statistics.median(r["setup_s"] * r["setup_scale"]
                                         for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in plain),
        }
        units = END_TO_END
        print(f"{name}: seed {seed}, {len(plain)} fresh process(es), "
              f"{attempted} solves; per process, measured wall_s "
              + " ".join(f"{r['wall_s']:.3f}" for r in plain)
              + ", setup_s "
              + " ".join(f"{r['setup_s']:.3f}" for r in plain)
              + "; solve-time scale "
              + " ".join(f"{statistics.fmean(r['solve_scale']):.3f}"
                         for r in plain))
    else:
        if len(reps) != 2:
            raise SystemExit(f"{name}: traced run lost a worker")
        tr = reps[1][1]
        metrics = dict(tr["layers"])
        metrics["master.cuts"] = tr["cuts"]
        metrics["trace.overhead_s"] = scaled_solve_s(tr) - scaled_solve_s(
            plain[0])
        metrics["failed_frac"] = failed / attempted
        units = {m: per_layer_unit(m) for m in metrics}
        print(f"{name}: seed {seed}, traced run")
    for m, v in metrics.items():
        print(f"  {m:<26} {v:.6g} {units[m]}")
    if not trace:
        print(f"  {'failed_frac':<26} {failed / attempted:.6g} ratio")
    out = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    return failed == 0, attempted, failed, out, reps[0][1]["env"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="shuffles the scenario order of the instances")
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instance-seeds", default=None,
                    help="comma-separated instance seeds replacing the "
                         "workload's own; no reference objective applies")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cardcvar", "__init__.py")):
        print(f"error: no cardcvar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            ap.error(f"unknown workload {name!r}; one of "
                     f"{', '.join(WORKLOADS)} or all")
    results = {}
    for name in names:
        seeds = args.instance_seeds or ""
        n_solves = len(seeds.split(",")) if seeds else len(
            WORKLOADS[name].seeds)
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), args.instance_seeds,
                                     n_solves)
    env = next(iter(results.values()))[4]
    print("env " + json.dumps(env, sort_keys=True))
    if len(names) == 1:
        metrics = results[names[0]][3]
    else:
        metrics = {f"{name}.{m}": v for name, r in results.items()
                   for m, v in r[3].items()}
    print(json.dumps({
        "correct": all(r[0] for r in results.values()),
        "attempted": sum(r[1] for r in results.values()),
        "failed": sum(r[2] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
