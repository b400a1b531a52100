"""Outer solve orchestration: cutting-plane loops and the big-M baseline.

solve_bcp alternates the master problem with the scenario cutting-plane
lower solver and cuts built from its reduced dual certificate; solve_cp uses
exact lifted lower solves instead; solve_bigm skips cuts entirely and runs
branch and bound on one QP containing the selection variables. All three
share bound bookkeeping, a wall-clock budget, and SolveReport assembly. The
reported objective always comes from an exact re-solve at the incumbent
selection, so it is a true upper bound regardless of inner tolerances.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .model import Instance, Portfolio, SelectionVector, cvar, objective
from . import lower, master, numeric

__all__ = [
    "SolveReport",
    "OPTIMAL",
    "TIME_LIMIT",
    "INFEASIBLE",
    "EPS_DEFAULT",
    "DELTA_DEFAULT",
    "TIME_LIMIT_DEFAULT",
    "theta_lb",
    "extract_portfolio",
    "solve_bcp",
    "solve_cp",
    "solve_bigm",
]

OPTIMAL = "Optimal"
TIME_LIMIT = "TimeLimit"
INFEASIBLE = "Infeasible"

EPS_DEFAULT = 1e-5
DELTA_DEFAULT = 1e-5
TIME_LIMIT_DEFAULT = 3600.0

_EXTRACT_DELTA = 1e-9   # inner tolerance of the final portfolio re-solve
_GAP_FLOOR = 1e-12


@dataclass
class SolveReport:
    """Machine-readable outcome of one solve; deterministic except time_sec."""

    method: str
    status: str
    obj: float
    gap_pct: float
    time_sec: float
    iterations: int
    nodes: int
    n_cuts: int
    selection: SelectionVector | None
    portfolio: Portfolio | None
    cvar: float
    var: float
    expected_return: float
    params: dict = field(default_factory=dict)


def theta_lb(instance: Instance, delta: float = DELTA_DEFAULT):
    """Initial master lower bound f_delta(1_N) - delta.

    Enlarging the support enlarges the lower-level feasible set, so the
    all-ones value bounds every selection from below. None when even the
    all-ones selection is infeasible, which makes the whole problem so.
    """
    ones = SelectionVector(np.ones(instance.n_assets, dtype=np.int64))
    res = lower.solve_lower_cp(ones, instance, delta)
    if res is None:
        return None
    return res.f_lo - delta


def extract_portfolio(z_hat: SelectionVector, instance: Instance):
    """Exact lower-level portfolio at z_hat, or None when infeasible."""
    res = lower.solve_lower_cp(z_hat, instance, _EXTRACT_DELTA)
    return None if res is None else res.portfolio


def _gap_pct(ub: float, lb: float) -> float:
    if not np.isfinite(ub):
        return float("inf")
    return max(0.0, 100.0 * (ub - lb) / max(abs(ub), _GAP_FLOOR))


def _report(method, status, instance, t0, iterations, nodes, n_cuts,
            z_hat, lb, ub, params) -> SolveReport:
    port = None if z_hat is None else extract_portfolio(z_hat, instance)
    elapsed = time.monotonic() - t0
    if port is None:
        nan = float("nan")
        return SolveReport(method, status, nan,
                           nan if status == INFEASIBLE else _gap_pct(ub, lb),
                           elapsed, iterations, nodes, n_cuts, None, None,
                           nan, nan, nan, params)
    obj = objective(port, instance)
    ub = min(ub, obj)
    a_star, cvar_value = cvar(port.weights, instance)
    exp_ret = float(instance.expected_returns @ port.weights)
    return SolveReport(method, status, obj, _gap_pct(ub, lb), elapsed,
                       iterations, nodes, n_cuts, z_hat, port,
                       cvar_value, a_star, exp_ret, params)


def _echo(eps, delta, time_limit, params) -> dict:
    out = {"eps": eps, "delta": delta, "time_limit": time_limit}
    out.update(params or {})
    return out


def _run_cutting_plane(method, instance, eps, delta, time_limit, params,
                       on_iteration):
    """Shared outer loop: master, lower solve, cut, bounds, termination.

    method "bcp" solves the lower level by the scenario cutting-plane
    algorithm and cuts from its certificate; "cp" solves the exact lifting
    and cuts from its multipliers. Termination is the gap test for both,
    plus repeated selections for "bcp" whose cuts are delta-inexact.
    """
    t0 = time.monotonic()
    deadline = t0 + time_limit
    echo = _echo(eps, delta, time_limit, params)
    tlb = theta_lb(instance, delta)
    if tlb is None:
        return _report(method, INFEASIBLE, instance, t0, 0, 0, 0, None,
                       float("nan"), float("nan"), echo)
    state = master.MasterState(n_assets=instance.n_assets, k=instance.k,
                               theta_lb=tlb)
    visited = set()
    lb, ub = tlb, float("inf")
    z_hat = None
    t = 0

    def out(status):
        return _report(method, status, instance, t0, t, state.node_count,
                       len(state.cuts), z_hat, lb, ub, echo)

    while True:
        if time.monotonic() > deadline:
            return out(TIME_LIMIT)
        t += 1
        try:
            solved = master.master_solve(state, deadline=deadline)
        except master.MasterTimeout:
            return out(TIME_LIMIT)
        if solved is None:
            # no-good cuts exhausted every selection
            return out(INFEASIBLE if z_hat is None else OPTIMAL)
        z_t, theta_t = solved
        lb = max(lb, theta_t)
        repeated = z_t.as_tuple() in visited
        visited.add(z_t.as_tuple())

        if method == "bcp":
            res = lower.solve_lower_cp(z_t, instance, delta)
            if res is None:
                master.add_cut(state, master.Cut(master.NO_GOOD, z_t))
            else:
                grad = lower.subgradient(res.certificate, instance.gamma)
                master.add_cut(state, master.Cut(
                    master.OPTIMALITY, z_t, res.f_lo, grad))
                if res.f_hi < ub:
                    ub, z_hat = res.f_hi, z_t
        else:
            res = lower.solve_lower_lifted(z_t, instance)
            if res is None:
                master.add_cut(state, master.Cut(master.NO_GOOD, z_t))
            else:
                f_z, _, duals = res
                grad = -(instance.gamma / 2.0) * duals["omega"] ** 2
                master.add_cut(state, master.Cut(
                    master.OPTIMALITY, z_t, f_z, grad))
                if f_z < ub:
                    ub, z_hat = f_z, z_t

        if on_iteration is not None:
            on_iteration(t, z_t, lb, ub)
        if method == "bcp" and repeated:
            # a repeated selection is delta-optimal; its fresh lower bound
            # f_delta(z_t) <= f* closes the reported gap honestly
            lb = max(lb, res.f_lo)
            return out(OPTIMAL)
        if ub - lb <= eps:
            return out(OPTIMAL)


def solve_bcp(instance: Instance, eps: float = EPS_DEFAULT,
              delta: float = DELTA_DEFAULT, mode: str = "multi_tree",
              time_limit: float = TIME_LIMIT_DEFAULT, params: dict = None,
              on_iteration=None) -> SolveReport:
    """Bilevel cutting-plane solve; delta-inexact cuts from Algorithm-2
    certificates keep every subproblem dimension independent of S."""
    if eps < 0 or delta < 0:
        raise ValueError("eps and delta must be nonnegative")
    if mode == "multi_tree":
        return _run_cutting_plane("bcp", instance, eps, delta, time_limit,
                                  params, on_iteration)
    if mode == "single_tree":
        return _run_single_tree(instance, eps, delta, time_limit, params,
                                on_iteration)
    raise ValueError(f"unknown mode {mode!r}")


def solve_cp(instance: Instance, eps: float = EPS_DEFAULT,
             time_limit: float = TIME_LIMIT_DEFAULT, params: dict = None,
             on_iteration=None) -> SolveReport:
    """Cutting-plane solve with exact lifted lower solves (zero-delta cuts)."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return _run_cutting_plane("cp", instance, eps, DELTA_DEFAULT, time_limit,
                              params, on_iteration)


def _run_single_tree(instance, eps, delta, time_limit, params, on_iteration):
    """One master tree; cuts injected at integer candidates via callback.

    There is no repeated-selection test here: a candidate whose cut is
    already present satisfies it and is accepted, so gap closure plus
    cut-driven rejection carry the termination argument.
    """
    t0 = time.monotonic()
    deadline = t0 + time_limit
    echo = _echo(eps, delta, time_limit, params)
    tlb = theta_lb(instance, delta)
    if tlb is None:
        return _report("bcp_single_tree", INFEASIBLE, instance, t0, 0, 0, 0,
                       None, float("nan"), float("nan"), echo)
    state = master.MasterState(n_assets=instance.n_assets, k=instance.k,
                               theta_lb=tlb)
    seen = set()
    bounds = {"ub": float("inf"), "z_hat": None, "calls": 0}

    def callback(z_cand, theta_cand):
        if z_cand.as_tuple() in seen:
            # its cut is in the pool, so theta_cand already satisfies it
            return True
        seen.add(z_cand.as_tuple())
        bounds["calls"] += 1
        res = lower.solve_lower_cp(z_cand, instance, delta)
        if res is None:
            master.add_cut(state, master.Cut(master.NO_GOOD, z_cand))
            return False
        grad = lower.subgradient(res.certificate, instance.gamma)
        master.add_cut(state, master.Cut(
            master.OPTIMALITY, z_cand, res.f_lo, grad))
        if res.f_hi < bounds["ub"]:
            bounds["ub"], bounds["z_hat"] = res.f_hi, z_cand
        if on_iteration is not None:
            on_iteration(bounds["calls"], z_cand, state.theta_lb,
                         bounds["ub"])
        return theta_cand >= res.f_lo - 1e-9 * (1.0 + abs(res.f_lo))

    def out(status, lb):
        return _report("bcp_single_tree", status, instance, t0,
                       bounds["calls"], state.node_count, len(state.cuts),
                       bounds["z_hat"], lb, bounds["ub"], echo)

    try:
        solved = master.master_solve(state, callback=callback,
                                     deadline=deadline)
    except master.MasterTimeout:
        return out(TIME_LIMIT, tlb)
    if solved is None:
        return out(INFEASIBLE if bounds["z_hat"] is None else OPTIMAL, tlb)
    _, theta_star = solved
    lb = max(tlb, theta_star)
    if bounds["ub"] - lb > max(eps, delta) + 1e-9 * (1.0 + abs(bounds["ub"])):
        raise lower.SolverError(
            f"single-tree search closed with gap {bounds['ub'] - lb:.3e}")
    return out(OPTIMAL, lb)


def _bigm_program(instance: Instance):
    """Lifted QP over (a, v, x, z) with x <= z linking rows; the z bound
    rows come last so branch-and-bound only rewrites their right sides."""
    n = instance.n_assets
    m_side = instance.side_b.size
    T = 2 * n + 2
    quad = np.zeros(T)
    quad[2:2 + n] = 1.0 / instance.gamma
    lin = np.zeros(T)
    lin[0] = lin[1] = 1.0
    rows = []
    rhs = []
    eye = np.eye(n)
    zero = np.zeros((n, 2))
    rows.append(np.hstack([zero, eye, -eye]))          # x - z <= 0
    rhs.append(np.zeros(n))
    rows.append(np.hstack([zero, -eye, 0.0 * eye]))    # -x <= 0
    rhs.append(np.zeros(n))
    if m_side:
        rows.append(np.hstack([np.zeros((m_side, 2)), instance.side_A,
                               np.zeros((m_side, n))]))
        rhs.append(instance.side_b)
    card = np.zeros(T)
    card[2 + n:] = 1.0
    rows.append(card[None, :])
    rhs.append(np.array([float(instance.k)]))
    rows.append(np.hstack([zero, 0.0 * eye, eye]))     # z <= ub
    rhs.append(np.ones(n))
    rows.append(np.hstack([zero, 0.0 * eye, -eye]))    # -z <= -lb
    rhs.append(np.zeros(n))
    G = np.vstack(rows)
    h = np.concatenate(rhs)
    eq = np.zeros((1, T))
    eq[0, 2:2 + n] = 1.0
    core = numeric.ConvexProgram(quad_diag=quad, lin=lin, ineq_G=G,
                                 ineq_h=h, eq_A=eq, eq_b=np.ones(1))
    loss_core = np.hstack([-np.ones((instance.n_scenarios, 1)),
                           np.zeros((instance.n_scenarios, 1)),
                           -np.asarray(instance.scenarios, dtype=float),
                           np.zeros((instance.n_scenarios, n))])
    agg_core = np.zeros(T)
    agg_core[1] = -1.0
    return numeric.ScenarioProgram(
        core=core, loss_core=loss_core,
        loss_rhs=np.zeros(instance.n_scenarios),
        agg_core=agg_core,
        agg_tail=np.asarray(instance.probs, dtype=float)
        / (1.0 - instance.beta),
        agg_rhs=0.0)


def solve_bigm(instance: Instance, eps: float = EPS_DEFAULT,
               time_limit: float = TIME_LIMIT_DEFAULT,
               params: dict = None) -> SolveReport:
    """Branch and bound on the selection inside one lifted QP.

    Every node solves the full S-scenario program, so this baseline is
    intended for small scenario counts only.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    t0 = time.monotonic()
    deadline = t0 + time_limit
    echo = _echo(eps, float("nan"), time_limit, params)
    n = instance.n_assets
    sp = _bigm_program(instance)
    n_bound_rows = 2 * n
    h_template = sp.core.ineq_h.copy()

    def node_solve(lb_z, ub_z):
        h = h_template.copy()
        h[-n_bound_rows:-n] = ub_z
        h[-n:] = -lb_z
        sp.core.ineq_h = h
        return numeric.solve(sp)

    ub, z_hat = float("inf"), None
    nodes = 0
    eps_pruned = False
    tick = itertools.count()
    heap = [(-np.inf, next(tick), (np.zeros(n), np.ones(n)))]

    def out(status, lb):
        return _report("bigm", status, instance, t0, 0, nodes, 0, z_hat,
                       lb, ub, echo)

    while heap:
        bound, _, (lb_z, ub_z) = heapq.heappop(heap)
        if bound >= ub - eps:
            eps_pruned = True
            continue
        if time.monotonic() > deadline:
            return out(TIME_LIMIT, bound)
        nodes += 1
        sol = node_solve(lb_z, ub_z)
        if sol.status == numeric.INFEASIBLE:
            continue
        if sol.status != numeric.OPTIMAL:
            raise lower.SolverError(
                f"relaxation QP ended with status {sol.status}")
        obj = float(sol.obj)
        if obj >= ub - eps:
            eps_pruned = True
            continue
        x_rel = sol.x[2:2 + n]
        z_rel = sol.x[2 + n:2 * n + 2]
        support = x_rel > 1e-9
        frac = np.abs(z_rel - np.round(z_rel))
        if int(support.sum()) <= instance.k:
            # the portfolio itself selects few enough assets: snapping z to
            # its support is feasible at the same objective, and nothing in
            # this subtree can beat the node's own bound
            if obj < ub:
                ub, z_hat = obj, SelectionVector(support.astype(np.int64))
            continue
        if float(frac.max(initial=0.0)) <= 1e-7:
            bits = np.round(z_rel).astype(np.int64)
            if obj < ub:
                ub, z_hat = obj, SelectionVector(bits)
            continue
        branch = int(np.argmin(np.where(frac > 1e-7,
                                        np.abs(z_rel - 0.5), np.inf)))
        lo = (lb_z.copy(), ub_z.copy())
        lo[1][branch] = 0.0
        hi = (lb_z.copy(), ub_z.copy())
        hi[0][branch] = 1.0
        for child in (lo, hi):
            if child[0].sum() <= instance.k:
                heapq.heappush(heap, (obj, next(tick), child))

    if z_hat is None:
        return out(INFEASIBLE, float("nan"))
    return out(OPTIMAL, ub - eps if eps_pruned else ub)
