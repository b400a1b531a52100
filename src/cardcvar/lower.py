"""Lower-level solvers for a fixed asset selection z.

solve_lower_cp runs the scenario cutting-plane loop whose QP dimension stays
at |supp(z)| + 2 regardless of the scenario count; each inner QP adds one
cut row and resumes the active-set solve of the one before it.
solve_lower_lifted solves the exact per-scenario lifting as an oracle. Both expose the dual structure
needed to build upper-level cuts: a DualCertificate whose objective
-(gamma/2) z @ (omega * omega) - b @ zeta + lambda reproduces the lower bound
and whose omega yields the subgradient -(gamma/2) omega^2.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .model import Instance, Portfolio, SelectionVector
from . import numeric

__all__ = [
    "LowerResult",
    "DualCertificate",
    "SolverError",
    "CertificateError",
    "solve_lower_cp",
    "scenario_cut",
    "solve_lower_lifted",
    "recover_certificate",
    "certificate_objective",
    "subgradient",
]

log = logging.getLogger(__name__)

J_TOL = 1e-10          # strict-positivity tolerance for scenario selection
GAP_NOISE = 1e-12      # relative size of a rounding-level gap past delta
MAX_INNER_ITERS = 10_000


class SolverError(RuntimeError):
    """A subproblem solve failed for a reason other than infeasibility."""


class CertificateError(RuntimeError):
    """Recovered multipliers violate the dual feasibility invariants."""


@dataclass
class DualCertificate:
    """Feasible point of the reduced dual, one alpha weight per subset."""

    alpha: np.ndarray
    zeta: np.ndarray
    lam: float
    omega: np.ndarray


@dataclass
class LowerResult:
    f_lo: float
    f_hi: float
    portfolio: Portfolio
    subsets: list
    certificate: DualCertificate
    iters: int


def scenario_cut(x, a, z: SelectionVector, instance: Instance):
    """Scenarios whose loss at the masked portfolio exceeds a, and the
    resulting CVaR excess v' = E[(loss - a)_+ ; J] / (1 - beta)."""
    xm = np.asarray(x, dtype=float) * z.bits
    losses = -(instance.scenarios @ xm)
    excess = losses - float(a)
    J = np.flatnonzero(excess > J_TOL)
    v_prime = float(instance.probs[J] @ excess[J]) / (1.0 - instance.beta)
    return J, v_prime


def _aggregate(instance: Instance, J: np.ndarray):
    """Total probability and probability-weighted return sum over J."""
    pJ = float(instance.probs[J].sum())
    rho = instance.probs[J] @ instance.scenarios[J]
    return pJ, rho


def _cut_rows(instance: Instance, support: np.ndarray, aggregates: list):
    """Cut rows on (a, v, x_support): -(p_J a + rho_J x) / (1 - beta) - v <= 0."""
    one_m_beta = 1.0 - instance.beta
    rows = np.empty((len(aggregates), support.size + 2))
    rows[:, 0] = [-pJ / one_m_beta for pJ, _ in aggregates]
    rows[:, 1] = -1.0
    rows[:, 2:] = [-rho[support] / one_m_beta for _, rho in aggregates]
    return rows


def _reduced_qp(instance: Instance, support: np.ndarray, aggregates: list,
                start: np.ndarray, working: list):
    """QP over (a, v, x_support) with one aggregate row per subset.

    Inequality row order: cut rows (one per subset, from its (p_J, rho_J)
    aggregate), v >= 0, side rows, x >= 0. The single equality row is the
    budget constraint. start and working warm-start the active-set solve.
    """
    K = support.size
    C = len(aggregates)
    M = instance.side_b.size
    G = np.zeros((C + 1 + M + K, K + 2))
    G[:C] = _cut_rows(instance, support, aggregates)
    G[C, 1] = -1.0
    G[C + 1:C + 1 + M, 2:] = instance.side_A[:, support]
    G[C + 1 + M:, 2:] = -np.eye(K)
    h = np.concatenate([np.zeros(C + 1), instance.side_b, np.zeros(K)])
    return numeric.ConvexProgram(
        quad_diag=np.concatenate([[0.0, 0.0], np.full(K, 1.0 / instance.gamma)]),
        lin=np.concatenate([[1.0, 1.0], np.zeros(K)]),
        ineq_G=G,
        ineq_h=h,
        eq_A=np.concatenate([[0.0, 0.0], np.ones(K)])[None, :],
        eq_b=np.array([1.0]),
        start=start,
        working=working,
    )


def _support_feasible(instance: Instance, support: np.ndarray):
    """Phase-1 point of {side_A x <= side_b, sum x = 1, x >= 0, x off-support = 0}
    in support coordinates, or None when that set is empty."""
    K = support.size
    if K == 0:
        return None
    G = np.vstack([instance.side_A[:, support], -np.eye(K)])
    h = np.concatenate([instance.side_b, np.zeros(K)])
    chk = numeric.feasible(G, h, np.ones((1, K)), np.array([1.0]))
    return chk.point if chk.feasible else None


def _embed(support: np.ndarray, x_s: np.ndarray, n: int) -> np.ndarray:
    x = np.zeros(n)
    x[support] = x_s
    return x


def solve_lower_cp(z: SelectionVector, instance: Instance, delta: float):
    """Scenario cutting-plane solve of the lower-level problem at z.

    Returns a LowerResult with f_lo <= f(z) <= f_hi <= f_lo + delta, or None
    when the selection admits no feasible portfolio. Subproblem failures
    raise SolverError (distinct from infeasibility by contract).
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    support = z.support()
    x0 = _support_feasible(instance, support)
    if x0 is None:
        return None

    S = instance.n_scenarios
    subsets = [np.arange(S)]
    # the all-scenario subset aggregates to the expected returns, no gather
    aggregates = [(float(instance.probs.sum()), instance.expected_returns)]
    seen = {subsets[0].tobytes()}
    # cold start at the phase-1 point with a = 0 and v on the row holding
    # it: the all-scenario cut (row 0) or v >= 0 (row 1)
    v0 = float(_cut_rows(instance, support, aggregates)[0, 2:] @ x0)
    start = np.concatenate([[0.0, max(v0, 0.0)], x0])
    working = [0 if v0 >= 0.0 else 1]
    iters = 0
    while True:
        iters += 1
        if iters > MAX_INNER_ITERS:
            raise SolverError("inner cutting-plane loop exceeded iteration cap")
        prog = _reduced_qp(instance, support, aggregates, start, working)
        sol = numeric.solve(prog, skip_phase1=True)
        if sol.status != numeric.OPTIMAL:
            raise SolverError(f"lower-level QP ended with status {sol.status}")
        a_t = float(sol.x[0])
        v_t = float(sol.x[1])
        x_full = _embed(support, sol.x[2:], instance.n_assets)
        J, v_prime = scenario_cut(x_full, a_t, z, instance)

        duplicate = J.tobytes() in seen
        if v_prime - v_t <= delta or duplicate:
            f_lo = float(sol.obj)
            if (duplicate and v_prime - v_t - delta
                    > GAP_NOISE * (1.0 + abs(f_lo))):
                log.warning("duplicate scenario subset at gap %.3e; stopping "
                            "on solver tolerance", v_prime - v_t)
            if not duplicate:
                subsets = subsets + [J]
            portfolio = Portfolio(x_full, a_t, max(v_prime, 0.0))
            f_hi = float(x_full @ x_full / (2.0 * instance.gamma)
                         + a_t + max(v_prime, 0.0))
            cert = recover_certificate(_collect_duals(sol, len(aggregates),
                                                      instance, support),
                                       subsets, z, instance, aggregates)
            _check_certificate_value(cert, z, instance, f_lo)
            if iters > 30:
                log.warning("inner loop took %d iterations", iters)
            return LowerResult(f_lo=f_lo, f_hi=f_hi, portfolio=portfolio,
                               subsets=subsets, certificate=cert, iters=iters)
        seen.add(J.tobytes())
        subsets.append(J)
        aggregates.append(_aggregate(instance, J))
        # warm start: v rises onto the new cut, which is tight there; the
        # rows that held v (old cuts, v >= 0) leave the working set, and the
        # rows after the cut block shift down by one
        C = len(aggregates) - 1
        start = sol.x.copy()
        cut = _cut_rows(instance, support, aggregates[-1:])[0]
        start[1] = max(start[1], float(cut[0] * start[0] + cut[2:] @ start[2:]))
        working = [C] + [int(i) + 1 for i in sol.working if i > C]


def _collect_duals(sol: numeric.Solution, n_cut_rows: int,
                   instance: Instance, support: np.ndarray) -> dict:
    """Split the reduced-QP multipliers by row block."""
    M = instance.side_b.size
    lam_rows = sol.ineq_duals
    return {
        "alpha": lam_rows[:n_cut_rows],
        "xi": float(lam_rows[n_cut_rows]),
        "zeta": lam_rows[n_cut_rows + 1:n_cut_rows + 1 + M],
        "pi": lam_rows[n_cut_rows + 1 + M:],
        "eq": float(sol.eq_duals[0]),
    }


def recover_certificate(qp_duals: dict, subsets: list, z: SelectionVector,
                        instance: Instance, aggregates: list) -> DualCertificate:
    """Map reduced-QP multipliers to a feasible point of the reduced dual.

    alpha is indexed by `subsets`; subsets beyond the QP's cut rows (the
    final, never-added one) get weight 0. aggregates holds the (p_J, rho_J)
    of each subset with a cut row. omega is completed on unselected
    coordinates by clipping the constraint bound at 0, which maximizes the
    dual objective there.
    """
    one_m_beta = 1.0 - instance.beta
    alpha = np.zeros(len(subsets))
    raw = np.maximum(np.asarray(qp_duals["alpha"], dtype=float), 0.0)
    alpha[:raw.size] = raw
    zeta = np.maximum(np.asarray(qp_duals["zeta"], dtype=float), 0.0)
    lam = -float(qp_duals["eq"])

    bound = np.full(instance.n_assets, lam)
    weighted = 0.0
    for a_J, (pJ, rho) in zip(alpha, aggregates):
        if a_J > 0.0:
            bound += (a_J / one_m_beta) * rho
            weighted += a_J * pJ
    if zeta.size:
        bound -= instance.side_A.T @ zeta
    omega = np.maximum(bound, 0.0)

    total = float(alpha.sum())
    if total > 1.0 + 1e-9:
        raise CertificateError(f"alpha weights sum to {total}, above 1")
    if abs(weighted - one_m_beta) > 1e-8:
        raise CertificateError(
            f"probability-weighted alpha sum {weighted} != {one_m_beta}")
    return DualCertificate(alpha=alpha, zeta=zeta, lam=lam, omega=omega)


def certificate_objective(cert: DualCertificate, z: SelectionVector,
                          instance: Instance) -> float:
    """Reduced-dual objective -(gamma/2) z @ omega^2 - b @ zeta + lambda."""
    quad = float(z.bits @ (cert.omega * cert.omega))
    side = float(instance.side_b @ cert.zeta) if cert.zeta.size else 0.0
    return -(instance.gamma / 2.0) * quad - side + cert.lam


def _check_certificate_value(cert, z, instance, f_lo):
    gap = abs(certificate_objective(cert, z, instance) - f_lo)
    if gap > 1e-6 * (1.0 + abs(f_lo)):
        raise CertificateError(f"certificate objective off by {gap:.3e}")


def subgradient(cert: DualCertificate, gamma: float) -> np.ndarray:
    """Cut slope -(gamma/2) omega^2; nonpositive elementwise."""
    return -(gamma / 2.0) * cert.omega * cert.omega


def solve_lower_lifted(z: SelectionVector, instance: Instance):
    """Exact lower-level solve via per-scenario lifting.

    Returns (f, portfolio, duals) or None when infeasible. duals carries the
    scenario weights alpha, side multipliers zeta, the budget multiplier
    lambda, and the completed omega vector.
    """
    support = z.support()
    if _support_feasible(instance, support) is None:
        return None
    K = support.size
    S = instance.n_scenarios
    one_m_beta = 1.0 - instance.beta

    core = numeric.ConvexProgram(
        quad_diag=np.concatenate([[0.0, 0.0], np.full(K, 1.0 / instance.gamma)]),
        lin=np.concatenate([[1.0, 1.0], np.zeros(K)]),
        ineq_G=np.vstack([
            np.hstack([np.zeros((instance.side_b.size, 2)),
                       instance.side_A[:, support]]),
            np.hstack([np.zeros((K, 2)), -np.eye(K)]),
        ]),
        ineq_h=np.concatenate([instance.side_b, np.zeros(K)]),
        eq_A=np.concatenate([[0.0, 0.0], np.ones(K)])[None, :],
        eq_b=np.array([1.0]),
    )
    loss_core = np.hstack([-np.ones((S, 1)), np.zeros((S, 1)),
                           -instance.scenarios[:, support]])
    agg_core = np.zeros(K + 2)
    agg_core[1] = -1.0
    sp = numeric.ScenarioProgram(core=core, loss_core=loss_core,
                                 loss_rhs=np.zeros(S), agg_core=agg_core,
                                 agg_tail=instance.probs / one_m_beta,
                                 agg_rhs=0.0)
    sol = numeric.solve(sp, skip_phase1=True)
    if sol.status != numeric.OPTIMAL:
        raise SolverError(f"lifted QP ended with status {sol.status}")

    a = float(sol.x[0])
    v = float(sol.x[1])
    x_full = _embed(support, sol.x[2:K + 2], instance.n_assets)
    portfolio = Portfolio(x_full, a, max(v, 0.0))

    M = instance.side_b.size
    alpha = np.maximum(sol.ineq_duals[:S], 0.0)
    xi = sol.ineq_duals[S:2 * S]
    agg_mult = float(sol.ineq_duals[2 * S])
    zeta = np.maximum(sol.ineq_duals[2 * S + 1:2 * S + 1 + M], 0.0)
    lam = -float(sol.eq_duals[0])
    bound = alpha @ instance.scenarios + lam
    if M:
        bound -= instance.side_A.T @ zeta
    omega = np.maximum(bound, 0.0)
    duals = {"alpha": alpha, "xi": xi, "agg": agg_mult, "zeta": zeta,
             "lambda": lam, "omega": omega}
    return float(sol.obj), portfolio, duals
