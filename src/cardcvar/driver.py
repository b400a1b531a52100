"""Outer solve orchestration: one cutting-plane loop and the big-M baseline.

solve_bcp and solve_cp run one driver. Its step solves the lower level at a
candidate selection z, adds a cut, lowers the upper bound and reports the
iteration: bcp solves by the scenario cutting-plane algorithm, cp solves
lower.lifted_program exactly, and both add the row
theta >= f_lo + g @ (z' - z) from the LowerResult they get back, with g the
subgradient of its certificate (master.add_cut), or a no-good when z is
infeasible (master.add_no_good). Multi-tree mode takes its first step, which
iterations counts like any other, at the top-k assets of the all-ones
portfolio that theta_lb solves anyway, then re-solves the master after
each step; single-tree mode (bcp only) runs one master search that takes
the steps through its callback, and only at new candidates whose master
value is still below the upper bound: cuts are valid, so f(z) >= theta(z),
and a candidate with theta(z) >= ub cannot improve the incumbent. bcp never
solves the all-ones selection twice: theta_lb's solve is its step there,
which at k = n is multi-tree's first. solve_bigm skips cuts entirely and runs
branch and bound on one QP, lower.lifted_program over every asset inside a
block of selection variables. All share a wall-clock budget and
SolveReport assembly. The reported portfolio, objective, VaR and CVaR
always come from the scenario cutting-plane solve at the incumbent
selection taken to delta = 1e-9, so the objective is a true upper bound
regardless of inner tolerances. bcp gets there by resuming the
incumbent's own lower loop, which the search already ran at its delta, so
that the QPs the search ran are not run again; cp, bigm and the oracle
have no such loop and solve afresh.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .model import Instance, Portfolio, SelectionVector, objective
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

_EXTRACT_DELTA = 1e-9   # inner tolerance of the final portfolio solve
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
    """Initial master lower bound f_delta(1_N) - delta, with the all-ones
    lower result: (bound, LowerResult).

    Enlarging the support enlarges the lower-level feasible set, so the
    all-ones value bounds every selection from below. The result's
    portfolio, by its k largest weights, gives multi-tree mode its first
    selection, and bcp cuts from the result itself whenever the all-ones
    selection comes up. None when even the all-ones selection is
    infeasible, which makes the whole problem so.
    """
    ones = SelectionVector(np.ones(instance.n_assets, dtype=np.int64))
    res = lower.solve_lower_cp(ones, instance, delta)
    if res is None:
        return None
    return res.f_lo - delta, res


def _top_k(weights: np.ndarray, k: int) -> SelectionVector:
    """The k largest weights, ties to the lower index."""
    bits = np.zeros(weights.size, dtype=np.int64)
    bits[np.argsort(-weights, kind="stable")[:k]] = 1
    return SelectionVector(bits)


def extract_portfolio(z_hat: SelectionVector, instance: Instance,
                      resume=None):
    """The lower-level portfolio at z_hat by the scenario cutting-plane
    solve at delta = _EXTRACT_DELTA, or None when infeasible.

    resume, the LowerResult of the search's own solve at z_hat, continues
    that solve's loop (lower.solve_lower_cp): when the search ran at a
    delta of at least _EXTRACT_DELTA the portfolio equals a solve from
    scratch bit for bit, and the QPs the search already ran are not run
    again; below it, the search's own point already meets _EXTRACT_DELTA
    and is returned at no QP. The portfolio's var_level and var_level +
    cvar_excess are the beta-quantile and the CVaR of its losses.
    """
    res = lower.solve_lower_cp(z_hat, instance, _EXTRACT_DELTA, resume=resume)
    return None if res is None else res.portfolio


def _gap_pct(ub: float, lb: float) -> float:
    if not np.isfinite(ub):
        return float("inf")
    return max(0.0, 100.0 * (ub - lb) / max(abs(ub), _GAP_FLOOR))


def _report(method, status, instance, t0, iterations, nodes, n_cuts,
            z_hat, lb, ub, params, resume=None) -> SolveReport:
    """The report of a solve that ends at z_hat; resume is the incumbent's
    LowerResult, which the portfolio extraction continues."""
    port = (None if z_hat is None
            else extract_portfolio(z_hat, instance, resume=resume))
    elapsed = time.monotonic() - t0
    if port is None:
        nan = float("nan")
        return SolveReport(method, status, nan,
                           nan if status == INFEASIBLE else _gap_pct(ub, lb),
                           elapsed, iterations, nodes, n_cuts, None, None,
                           nan, nan, nan, params)
    obj = objective(port, instance)
    ub = min(ub, obj)
    exp_ret = float(instance.expected_returns @ port.weights)
    return SolveReport(method, status, obj, _gap_pct(ub, lb), elapsed,
                       iterations, nodes, n_cuts, z_hat, port,
                       port.var_level + port.cvar_excess, port.var_level,
                       exp_ret, params)


def _echo(eps, delta, time_limit) -> dict:
    return {"eps": eps, "delta": delta, "time_limit": time_limit}


def _cutting_plane(method, single_tree, instance, eps, delta, time_limit,
                   on_iteration):
    """The outer loop of bcp, single-tree bcp and cp.

    Every lower solve is one step (evaluate). Its result brackets f(z) by
    f_lo <= f(z) <= f_hi, where bcp's scenario loop has f_hi <= f_lo +
    delta and cp's exact lifting f_lo = f_hi. The step adds the cut at f_lo
    with the certificate's subgradient, or a no-good with f_lo = f_hi = inf
    when z is infeasible, lowers the upper bound with f_hi, counts the
    iteration and reports it, and keeps the selection's f_lo. bcp's step at
    the all-ones selection reuses theta_lb's solve, which ran at the same
    delta. Multi-tree takes its first step at the top-k of theta_lb's
    all-ones portfolio (its k largest weights, ties to the lower index), so
    the first master call already has an optimality cut; that step counts
    as an iteration like any other. It then re-solves the master after each
    step and stops on the gap test or on a repeated selection: that one is
    not solved again (the solve would only reproduce its cut), and its kept
    f_lo closes the lower bound, so iterations and n_cuts count distinct
    selections.

    Single-tree runs one master search that takes the steps through its
    callback and ends at that search's optimum; lb follows the bound the
    search hands over with each candidate. The callback accepts without a
    step a candidate seen before, whose cut is in the pool and so already
    met, and a candidate whose master value theta reaches the upper bound
    within the relative tolerance 1e-9 (1 + |ub|) that also accepts a
    solved candidate. That second rule is the lazy-cut pruning of
    branch-and-cut solvers, and it keeps the solve exact:
    - cuts are valid, so f(z) >= theta(z) >= ub - tol, and z cannot improve
      the incumbent; a lower solve there would not lower ub;
    - the search is still exact on the master with the cuts it has, so its
      final theta is still a lower bound on f*;
    - if that search's optimum is such a z, its theta gives lb >= ub - tol,
      so the closing gap test below still holds.
    Every other candidate takes a step and is rejected unless theta meets
    its new cut, so iterations still counts lower solves and equals n_cuts.
    """
    name = "bcp_single_tree" if single_tree else method
    t0 = time.monotonic()
    deadline = t0 + time_limit
    echo = _echo(eps, delta, time_limit)
    root = theta_lb(instance, delta)
    if root is None:
        return _report(name, INFEASIBLE, instance, t0, 0, 0, 0, None,
                       float("nan"), float("nan"), echo)
    tlb, ones = root
    state = master.MasterState(n_assets=instance.n_assets, k=instance.k,
                               theta_lb=tlb)
    seen = {}    # f_lo of every selection solved so far, keyed by its bits
    lb, ub = tlb, float("inf")
    z_hat = res_hat = None    # the incumbent and its lower result
    t = 0
    warm = None if single_tree else _top_k(ones.portfolio.weights, instance.k)

    def out(status):
        return _report(name, status, instance, t0, t, state.node_count,
                       state.n_cuts, z_hat, lb, ub, echo, resume=res_hat)

    def evaluate(z):
        nonlocal ub, z_hat, res_hat, t
        if method == "cp":
            res = lower.solve_lower_lifted(z, instance)
        elif z.count() == instance.n_assets:
            res = ones    # theta_lb solved it at this delta
        else:
            res = lower.solve_lower_cp(z, instance, delta)
        if res is None:
            f_lo = f_hi = np.inf
            master.add_no_good(state, z)
        else:
            f_lo, f_hi = res.f_lo, res.f_hi
            master.add_cut(state, z, f_lo,
                           lower.subgradient(res.certificate, instance.gamma))
        seen[z.bits.tobytes()] = f_lo
        if f_hi < ub:
            ub, z_hat, res_hat = f_hi, z, res
        t += 1
        if on_iteration is not None:
            on_iteration(t, z, lb, ub)
        return f_lo

    def callback(z, theta, bound):
        nonlocal lb
        lb = max(lb, bound)
        if z.bits.tobytes() in seen:
            # its cut is in the pool, so theta already satisfies it
            return True
        if ub < np.inf and theta >= ub - 1e-9 * (1.0 + abs(ub)):
            # f(z) >= theta: z cannot beat the incumbent
            return True
        f_lo = evaluate(z)
        return f_lo < np.inf and theta >= f_lo - 1e-9 * (1.0 + abs(f_lo))

    while True:
        if time.monotonic() > deadline:
            return out(TIME_LIMIT)
        if warm is not None:
            # the warm selection stands in for the first master call
            solved, warm = (warm, lb), None
        else:
            try:
                solved = master.master_solve(
                    state, callback=callback if single_tree else None,
                    deadline=deadline)
            except master.MasterTimeout:
                return out(TIME_LIMIT)
        if solved is None:
            # no-good cuts exhausted every selection
            return out(INFEASIBLE if z_hat is None else OPTIMAL)
        z, theta = solved
        lb = max(lb, theta)
        if single_tree:
            if ub - lb > max(eps, delta) + 1e-9 * (1.0 + abs(ub)):
                raise lower.SolverError(
                    f"single-tree search closed with gap {ub - lb:.3e}")
            return out(OPTIMAL)
        key = z.bits.tobytes()
        if key in seen:
            # a repeated selection is delta-optimal (cp's, exactly optimal);
            # its lower bound f_delta(z) <= f* closes the reported gap
            # honestly
            lb = max(lb, seen[key])
            return out(OPTIMAL)
        evaluate(z)
        if ub - lb <= eps:
            return out(OPTIMAL)


def solve_bcp(instance: Instance, eps: float = EPS_DEFAULT,
              delta: float = DELTA_DEFAULT, mode: str = "multi_tree",
              time_limit: float = TIME_LIMIT_DEFAULT,
              on_iteration=None) -> SolveReport:
    """Bilevel cutting-plane solve; delta-inexact cuts from Algorithm-2
    certificates keep every subproblem dimension independent of S.

    mode "multi_tree" first solves the top-k of the all-ones portfolio that
    theta_lb computes (its k largest weights, ties to the lower index), then
    re-solves the master after each cut; "single_tree" (reported as method
    "bcp_single_tree") takes the cuts inside one master search.
    on_iteration(t, z, lb, ub) is called after each lower solve, t = 1, 2,
    ..., with the selection z and the bounds after its cut; in multi-tree
    mode t = 1 is the top-k selection at lb = theta_lb, and in single-tree
    mode lb is the master search's bound when it offered z. The report's
    iterations counts lower solves, the top-k one included, which equals
    n_cuts. Multi-tree mode ends when the master repeats a selection,
    without solving it again, so no z is reported twice. Single-tree mode
    solves the lower level only at new candidates whose master value is
    below the upper bound: the cuts are valid, so a candidate whose master
    value already reaches ub cannot improve the incumbent, and the search
    accepts it unsolved while staying exact on the master.
    """
    if eps < 0 or delta < 0:
        raise ValueError("eps and delta must be nonnegative")
    if mode not in ("multi_tree", "single_tree"):
        raise ValueError(f"unknown mode {mode!r}")
    return _cutting_plane("bcp", mode == "single_tree", instance, eps, delta,
                          time_limit, on_iteration)


def solve_cp(instance: Instance, eps: float = EPS_DEFAULT,
             time_limit: float = TIME_LIMIT_DEFAULT,
             on_iteration=None) -> SolveReport:
    """Cutting-plane solve with exact lifted lower solves (zero-delta cuts).

    The multi-tree loop of solve_bcp: the same first selection, the top-k
    of theta_lb's all-ones portfolio, the same on_iteration contract and
    the same meaning of iterations, which counts that first lower solve.
    Like bcp it ends when the master repeats a selection, without solving
    it again: the cut there is exact, so the master's theta already meets
    the upper bound, and no selection is solved twice.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return _cutting_plane("cp", False, instance, eps, DELTA_DEFAULT,
                          time_limit, on_iteration)


def _bigm_program(instance: Instance):
    """lower.lifted_program over every asset, widened by the selection
    variables z: the program is over (a, v, x, z), and its inequality rows
    are x - z <= 0, the lifted core rows, 1'z <= k, then the z bound rows
    z <= ub and -z <= -lb last, so branch and bound only rewrites their
    right sides."""
    n = instance.n_assets
    lifted = lower.lifted_program(instance, np.arange(n))
    core = lifted.core

    def widen(M):
        return np.hstack([M, np.zeros((M.shape[0], n))])

    eye = np.eye(n)
    link = np.hstack([np.zeros((n, 2)), eye, -eye])
    card = np.concatenate([np.zeros(n + 2), np.ones(n)])
    bounds = np.hstack([np.zeros((2 * n, n + 2)), np.vstack([eye, -eye])])
    pad = np.zeros(n)
    return numeric.ScenarioProgram(
        core=numeric.ConvexProgram(
            quad_diag=np.concatenate([core.quad_diag, pad]),
            lin=np.concatenate([core.lin, pad]),
            ineq_G=np.vstack([link, widen(core.ineq_G), card, bounds]),
            ineq_h=np.concatenate([pad, core.ineq_h, [float(instance.k)],
                                   np.ones(n), pad]),
            eq_A=widen(core.eq_A), eq_b=core.eq_b),
        loss_core=widen(lifted.loss_core),
        agg_core=np.concatenate([lifted.agg_core, pad]),
        agg_tail=lifted.agg_tail)


def solve_bigm(instance: Instance, eps: float = EPS_DEFAULT,
               time_limit: float = TIME_LIMIT_DEFAULT) -> SolveReport:
    """Branch and bound on the selection inside one lifted QP.

    Every node solves the full S-scenario program, so this baseline is
    intended for small scenario counts only.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    t0 = time.monotonic()
    deadline = t0 + time_limit
    echo = _echo(eps, float("nan"), time_limit)
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
