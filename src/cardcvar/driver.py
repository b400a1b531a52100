"""Outer solve orchestration: one cutting-plane loop and the big-M baseline.

solve_bcp and solve_cp run one driver around one master search per solve
(master.master_solve). Its step solves the lower level at a selection z,
adds a cut, lowers the upper bound and reports the iteration: bcp solves by
the scenario cutting-plane algorithm, cp solves lower.lifted_program
exactly, and both add the row theta >= f_lo + g @ (z' - z) from the
LowerResult they get back, with g the subgradient of its certificate
(master.add_cut), or, when z is infeasible, the cover row that every
feasible selection meets (lower.infeasible_cover, master.add_cover). The
search's callback takes the steps. Multi-tree mode takes its first step,
which iterations counts like any other, at the top-k assets of the all-ones
portfolio that theta_lb solves anyway, then steps only at the search's
proven optima, and the search goes on with each new cut; single-tree mode
(bcp only) starts its search with the empty selection's cover, as that
selection is never feasible, and steps at the search's candidates as they
come, and only at new ones whose master value is still below the upper
bound: cuts are valid, so f(z) >= theta(z), and a candidate with theta(z)
>= ub cannot improve the incumbent. bcp never solves the all-ones selection
twice: theta_lb's solve is its step there, which at k = n is multi-tree's
first. solve_bigm skips cuts entirely and runs branch and bound on one QP,
lower.lifted_program over every asset inside a block of selection
variables. All share a wall-clock budget and SolveReport assembly. The
reported portfolio, objective, VaR and CVaR always come from the scenario
cutting-plane solve at the incumbent selection taken to delta = 1e-9, so
the objective is a true upper bound regardless of inner tolerances. bcp
gets there by resuming the incumbent's own lower loop, which the search
already ran at its delta, so that the QPs the search ran are not run
again; cp, bigm and the oracle have no such loop and solve afresh.
"""

from __future__ import annotations

import heapq
import itertools
import math
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


def _check_params(eps, delta, time_limit) -> None:
    """Reject a negative eps or delta and a NaN anywhere; inf passes. NaN
    fails every comparison, so eps = NaN would switch the gap test off."""
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    if not delta >= 0:
        raise ValueError("delta must be nonnegative")
    if math.isnan(time_limit):
        raise ValueError("time_limit must be a number")


def _cutting_plane(method, single_tree, instance, eps, delta, time_limit,
                   on_iteration):
    """The outer solve of bcp, single-tree bcp and cp: one master search
    (master.master_solve) whose callback takes the steps.

    Every lower solve is one step (evaluate). Its result brackets f(z) by
    f_lo <= f(z) <= f_hi, where bcp's scenario loop has f_hi <= f_lo +
    delta and cp's exact lifting f_lo = f_hi. The step adds the cut at f_lo
    with the certificate's subgradient, or a cover row with f_lo = f_hi =
    inf when z is infeasible, lowers the upper bound with f_hi and reports
    the iteration. Each step solves a new selection and records it in seen,
    so len(seen) counts the iterations, and the report's iterations and
    n_cuts and on_iteration's t read it: single-tree's seeded cover, which
    no lower solve made, counts in neither. bcp's step at the all-ones
    selection reuses theta_lb's solve, which ran at the same delta.

    The callback raises lb to the bound the search hands over with z and
    accepts z unsolved when z was solved before: its own cut is a row, so
    theta(z) >= f_lo(z) already, and iterations and n_cuts count distinct
    selections. Multi-tree sees only the search's proven optimum, so its
    bound is theta(z); a repeat there also raises lb to the f_lo kept for
    z, which theta(z) meets only up to rounding, and a new z takes a step
    and is accepted once ub - lb <= eps. Before the search multi-tree takes
    the same step at the top-k of theta_lb's all-ones portfolio (its k
    largest weights, ties to the lower index) at lb = theta_lb, so the
    search starts with an optimality cut; that step counts as an iteration
    like any other, and a gap it closes ends the solve without a search.

    Single-tree (lazy) adds the empty selection's cover before the search,
    so the search never offers a selection without an asset of that cover,
    and sees every candidate with the search's current bound. It also
    accepts unsolved a candidate whose master value theta reaches the upper
    bound within the relative tolerance 1e-9 (1 + |ub|). That rule is the
    lazy-cut pruning of branch-and-cut solvers, and it keeps the solve
    exact:
    - cuts are valid, so f(z) >= theta(z) >= ub - tol, and z cannot improve
      the incumbent; a lower solve there would not lower ub;
    - the search is still exact on the master with the cuts it has, so its
      final theta is still a lower bound on f*;
    - if that search's optimum is such a z, its theta gives lb >= ub - tol,
      so the closing gap test below still holds.
    Every other candidate takes a step and is rejected unless theta meets
    its new cut, so iterations still counts lower solves and equals n_cuts.

    Either way the search ends at a master optimum whose theta bounds f*
    from below, and the closing check holds every mode to ub - lb <=
    max(eps, delta): a repeat z has ub <= f_hi(z) <= f_lo(z) + delta.
    """
    _check_params(eps, delta, time_limit)
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

    def out(status):
        return _report(name, status, instance, t0, len(seen),
                       state.node_count, len(seen), z_hat, lb, ub, echo,
                       resume=res_hat)

    def evaluate(z):
        nonlocal ub, z_hat, res_hat
        if method == "cp":
            res = lower.solve_lower_lifted(z, instance)
        elif z.count() == instance.n_assets:
            res = ones    # theta_lb solved it at this delta
        else:
            res = lower.solve_lower_cp(z, instance, delta)
        if res is None:
            f_lo = f_hi = np.inf
            master.add_cover(state, lower.infeasible_cover(z, instance))
        else:
            f_lo, f_hi = res.f_lo, res.f_hi
            master.add_cut(state, z, f_lo,
                           lower.subgradient(res.certificate, instance.gamma))
        seen[z.bits.tobytes()] = f_lo
        if f_hi < ub:
            ub, z_hat, res_hat = f_hi, z, res
        if on_iteration is not None:
            on_iteration(len(seen), z, lb, ub)
        return f_lo

    def callback(z, theta, bound):
        nonlocal lb
        lb = max(lb, bound)
        key = z.bits.tobytes()
        if key in seen:
            if not single_tree:
                # the search's optimum repeats z, so f_lo(z) <= f*: theta(z)
                # meets z's own row only up to rounding
                lb = max(lb, seen[key])
            return True
        if not single_tree:
            evaluate(z)
            return ub - lb <= eps
        if ub < np.inf and theta >= ub - 1e-9 * (1.0 + abs(ub)):
            # f(z) >= theta: z cannot beat the incumbent
            return True
        f_lo = evaluate(z)
        return f_lo < np.inf and theta >= f_lo - 1e-9 * (1.0 + abs(f_lo))

    solved = True
    try:
        if time.monotonic() > deadline:
            raise master.MasterTimeout("deadline passed before the search")
        if single_tree:
            empty = SelectionVector(np.zeros(instance.n_assets, np.int64))
            master.add_cover(state, lower.infeasible_cover(empty, instance))
        if single_tree or not callback(
                _top_k(ones.portfolio.weights, instance.k), lb, lb):
            solved = master.master_solve(state, callback, deadline,
                                         lazy=single_tree)
    except master.MasterTimeout:
        return out(TIME_LIMIT)
    if solved is None:
        # cover rows exhausted every selection; a feasible one would have
        # had an optimality cut instead, so there is no incumbent
        return out(INFEASIBLE)
    if ub - lb > max(eps, delta) + 1e-9 * (1.0 + abs(ub)):
        raise lower.SolverError(f"search closed with gap {ub - lb:.3e}")
    return out(OPTIMAL)


def solve_bcp(instance: Instance, eps: float = EPS_DEFAULT,
              delta: float = DELTA_DEFAULT, mode: str = "multi_tree",
              time_limit: float = TIME_LIMIT_DEFAULT,
              on_iteration=None) -> SolveReport:
    """Bilevel cutting-plane solve; delta-inexact cuts from Algorithm-2
    certificates keep every subproblem dimension independent of S.

    Both modes run one master branch and bound. mode "multi_tree" first
    solves the top-k of the all-ones portfolio that theta_lb computes (its k
    largest weights, ties to the lower index), then solves the lower level
    only at each proven optimum of the search, which goes on with the new
    cut; "single_tree" (reported as method "bcp_single_tree") solves it at
    the search's candidates as they come. on_iteration(t, z, lb, ub) is
    called after each lower solve, t = 1, 2, ..., with the selection z and
    the bounds after its cut; in multi-tree mode t = 1 is the top-k
    selection at lb = theta_lb, and in single-tree mode lb is the master
    search's bound when it offered z. The report's iterations counts lower
    solves, the top-k one included, which equals n_cuts: single-tree's
    cover of the empty selection, added before its search, counts in
    neither. Multi-tree mode
    ends when the gap closes or the search's optimum repeats a selection,
    without solving it again, so no z is reported twice. Single-tree mode
    solves the lower level only at new candidates whose master value is
    below the upper bound: the cuts are valid, so a candidate whose master
    value already reaches ub cannot improve the incumbent, and the search
    accepts it unsolved while staying exact on the master. eps and delta
    must be nonnegative and time_limit not NaN (ValueError).
    """
    if mode not in ("multi_tree", "single_tree"):
        raise ValueError(f"unknown mode {mode!r}")
    return _cutting_plane("bcp", mode == "single_tree", instance, eps, delta,
                          time_limit, on_iteration)


def solve_cp(instance: Instance, eps: float = EPS_DEFAULT,
             time_limit: float = TIME_LIMIT_DEFAULT,
             on_iteration=None) -> SolveReport:
    """Cutting-plane solve with exact lifted lower solves (zero-delta cuts).

    Multi-tree bcp with the lifted solve as its step: the same first
    selection, the top-k of theta_lb's all-ones portfolio, one master
    search that takes a step at each of its proven optima, the same
    on_iteration contract and the same meaning of iterations, which counts
    that first lower solve. Like bcp it ends when the search's optimum
    repeats a selection, without solving it again: the cut there is exact,
    so the master's theta already meets the upper bound, and no selection
    is solved twice. eps must be nonnegative and time_limit not NaN.
    """
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
    _check_params(eps, 0.0, time_limit)
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
