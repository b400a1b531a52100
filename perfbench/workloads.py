"""The benchmark's workloads: fixed instances, each solved by one public method.

Every workload names its instances by the seeds of the one-factor generator
below, the same model as `make_instance` in tests/test_acceptance.py. The
run's --seed only shuffles the scenario rows of those instances. Row order
leaves the problem, its optimum and the solver's search path unchanged up to
rounding, so runs with different seeds do the same work and the committed
reference objectives check every run. The instance seeds themselves are
fixed because solve time is heavy-tailed in them: at n=50 instance seed 9
ran past 200 s and seed 10 took 58 s, against about 20 s for seed 7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cardcvar import driver
from cardcvar.model import Instance, build_feasible_set, compute_mu_bar

# Per-solve time limit: about 2.5 times the slowest default solve
# (bb_master, 14-24 s on 2 cores). A slower instance ends as a counted
# TimeLimit failure instead of a hang.
TIME_LIMIT_S = 60.0


@dataclass(frozen=True)
class Workload:
    method: str          # "bcp", "bcpc" (single-tree bcp) or "cp"
    n: int
    s: int
    k: int
    seeds: tuple


WORKLOADS = {
    "large_s": Workload("bcp", 25, 20_000, 10, (70, 71, 72)),
    "bb_master": Workload("bcp", 50, 1_000, 8, (7,)),
    "single_tree": Workload("bcpc", 40, 1_000, 8, (7, 9)),
    "lifted_cp": Workload("cp", 25, 20_000, 10, (70,)),
}


def make_instance(seed: int, n: int, s: int, k: int, order_seed=None,
                  beta: float = 0.9) -> Instance:
    """Seeded one-factor instance with the k-rule return floor; order_seed,
    when given, permutes the scenario rows."""
    rng = np.random.default_rng(seed)
    mu = 0.002 + 0.028 * rng.random(n)
    load = 0.8 + 0.4 * rng.random(n)
    idio = 0.01 + 0.05 * rng.random(n)
    factor = 0.045 * rng.standard_normal((s, 1))
    scen = mu + load * factor + idio * rng.standard_normal((s, n))
    if order_seed is not None:
        scen = scen[np.random.default_rng(order_seed).permutation(s)]
    gamma = 10.0 / np.sqrt(n)
    base = Instance(n_assets=n, scenarios=scen, probs=np.full(s, 1.0 / s),
                    side_A=np.zeros((0, n)), side_b=[], beta=beta,
                    gamma=gamma, k=k)
    mu_bar = compute_mu_bar(base.expected_returns, k)
    A, b = build_feasible_set(base, mu_bar)
    return Instance(n_assets=n, scenarios=scen, probs=base.probs, side_A=A,
                    side_b=b, beta=beta, gamma=gamma, k=k)


def solve(method: str, instance: Instance,
          time_limit: float = TIME_LIMIT_S) -> driver.SolveReport:
    """One solve through the public driver API."""
    if method == "bcp":
        return driver.solve_bcp(instance, time_limit=time_limit)
    if method == "bcpc":
        return driver.solve_bcp(instance, mode="single_tree",
                                time_limit=time_limit)
    if method == "cp":
        return driver.solve_cp(instance, time_limit=time_limit)
    raise ValueError(f"unknown method {method!r}")
