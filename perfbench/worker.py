"""One fresh process running one workload once; run.py starts it.

Usage: python3 perfbench/worker.py WORKLOAD ORDER_SEED SPAWN_TIME TRACE
[INSTANCE_SEEDS]

SPAWN_TIME is the parent's time.time() just before it started this process,
so setup_s covers interpreter start, imports and instance generation. The
process runs on one core, whose speed hostspeed.Sampler samples from the
start; setup_scale and solve_scale are the factors that take setup_s and
each solve time to the reference speed. With
TRACE=1 the layer entry points are wrapped (tracing.Tracer) and the spans
are written to perfbench/out/ when the workload ends. INSTANCE_SEEDS is an
optional comma-separated override of the workload's instance seeds; those
instances have no committed reference objective. Prints one JSON object.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import hostspeed  # noqa: E402

# sampling starts before the imports, so that setup_s can be scaled too
SAMPLER = hostspeed.Sampler()
SAMPLER.start()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cardcvar  # noqa: E402
from cardcvar import driver, model  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, make_instance, solve  # noqa: E402

REF_TOL = 2e-5      # |obj - committed reference obj|
OBJ_TOL = 1e-8      # |obj - objective recomputed through model.cvar|
FEAS_TOL = 1e-8     # budget, sign and return-row slack of the portfolio


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": _cpu_model(),
    }


def check(rep: driver.SolveReport, inst: model.Instance, ref) -> list:
    """Every way the report fails the correctness gate; empty when it passes."""
    if rep.status != driver.OPTIMAL:
        return [f"status {rep.status}"]
    if rep.portfolio is None:
        return ["Optimal report without a portfolio"]
    bad = []
    obj = rep.obj
    gap_cap = 100.0 * (max(driver.EPS_DEFAULT, driver.DELTA_DEFAULT)
                       + 1e-9 * (1.0 + abs(obj))) / max(abs(obj), 1e-12)
    if not rep.gap_pct <= gap_cap:
        bad.append(f"gap_pct {rep.gap_pct:.3e} above {gap_cap:.3e}")
    w = rep.portfolio.weights
    if abs(w.sum() - 1.0) > FEAS_TOL:
        bad.append(f"weights sum to {w.sum():.12f}")
    if w.min() < -FEAS_TOL:
        bad.append(f"negative weight {w.min():.3e}")
    if np.count_nonzero(w) > inst.k or rep.selection.count() > inst.k:
        bad.append(f"support {np.count_nonzero(w)} above k={inst.k}")
    slack = inst.side_A @ w - inst.side_b
    if slack.max(initial=-np.inf) > FEAS_TOL:
        bad.append(f"return row violated by {slack.max():.3e}")
    a_star, cv = model.cvar(w, inst)
    recomputed = model.objective(model.Portfolio(w, a_star, cv - a_star),
                                 inst)
    if abs(obj - recomputed) > OBJ_TOL * (1.0 + abs(obj)):
        bad.append(f"obj {obj!r} != recomputed {recomputed!r}")
    if ref is not None and abs(obj - ref) > REF_TOL:
        bad.append(f"obj {obj!r} != reference {ref!r}")
    return bad


def main(argv) -> int:
    name, order_seed, spawned, traced = argv[:4]
    order_seed, spawned, traced = int(order_seed), float(spawned), traced == "1"
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(cardcvar.__file__).startswith(src + os.sep):
        raise SystemExit(f"cardcvar imported from {cardcvar.__file__}, "
                         f"not from {src}")
    wl = WORKLOADS[name]
    if len(argv) > 4:
        seeds = tuple(int(x) for x in argv[4].split(","))
        refs = {}
    else:
        seeds = wl.seeds
        with open(os.path.join(HERE, "references.json")) as fh:
            refs = json.load(fh)[name]
    instances = [make_instance(sd, wl.n, wl.s, wl.k, order_seed)
                 for sd in seeds]

    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    solve_s, solve_scale, failures = [], [], []
    failed = cuts = 0
    setup_s = time.time() - spawned
    w0 = time.perf_counter()
    setup_scale = SAMPLER.scale(-float("inf"), w0)
    for sd, inst in zip(seeds, instances):
        t0 = time.perf_counter()
        try:
            rep = (tracer.solve(solve, wl.method, inst) if traced
                   else solve(wl.method, inst))
        except Exception as exc:  # a solve that raises is a counted failure
            bad = [f"raised {type(exc).__name__}: {exc}"]
        else:
            bad = check(rep, inst, refs.get(str(sd)))
            cuts += rep.n_cuts
        t1 = time.perf_counter()
        solve_s.append(t1 - t0)
        solve_scale.append(SAMPLER.scale(t0, t1))
        failed += bool(bad)
        failures += [f"instance seed {sd}: {b}" for b in bad]
    wall_s = time.perf_counter() - w0
    tracer.uninstall()
    SAMPLER.stop()

    out = {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "wall_s": wall_s,
        "solve_s": solve_s,
        "solve_scale": solve_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "attempted": len(seeds),
        "failed": failed,
        "failures": failures,
        "cuts": cuts,
        "env": environment(),
    }
    if traced:
        out["layers"] = tracing.layer_metrics(tracer.spans)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{name}-seed{order_seed}.spans.json")
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "solve",
                                  "info"],
                       "spans": tracer.spans, "env": out["env"]}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
