"""Lower-level solvers for a fixed asset selection z.

solve_lower_cp runs the scenario cutting-plane loop whose QP dimension
stays at |supp(z)| + 2 regardless of the scenario count; each inner QP adds
one cut row and resumes the active-set solve of the one before it. Its QP
is over (a, v, x_support), with the inequality rows in the order
    v >= 0, side rows, x_support >= 0, one cut row per scenario subset
(the subsets in the order they were added) and the budget row as the one
equality. One object owns that QP, the loop's state (_CutLoop): it writes
each new cut's row after the last, so no earlier row moves, and reads the
last QP's multipliers by those row blocks into the certificate. It outlives
the call in the LowerResult, so a later call at the same z can resume it at
a smaller delta instead of solving its QPs again. Losses are read from an
asset-major copy of the scenario matrix (n x S, C order; _scenario_block):
each call takes the support's rows of it once (|supp(z)| x S, one
contiguous gather, none when z selects every asset), and every inner
iteration computes its losses on those rows; the kept state does not hold
them. One copy is kept, for the instance solved last, so it takes S n 8
bytes while that instance lives. Each cut is anchored at the left
beta-quantile a_ref of the losses of the QP's portfolio (_var_level: an
O(S) partition finds the q ~ (1 - beta) S largest losses, and an O(q)
selection among them gives a_ref when every scenario has the same
probability, a sort and walk otherwise), where the cut is tight on the
true CVaR: its subset is the loss tail at a_ref, so it holds about
(1 - beta) S scenarios, and the loop stops on the exact gap between the QP
value and the objective of the QP's portfolio. The subset aggregates stay
full width and read the scenario matrix row by row, so a certificate needs
no second pass.

A fresh loop starts with two cut rows: the all-scenario cut and the cut of
the tail J0 of the risk-neutral portfolio x^ = proj_simplex(gamma mu_S)
(_anchor_subset), left out when J0 is every scenario. x^ minimises the QP
with the all-scenario cut alone whenever the side rows are slack there, so
J0 is the cut that QP would lead to, found by one sort instead. The first QP
starts at the unit vertex of the first support asset that satisfies every
side row, and only when no vertex does at the point numeric.feasible finds
in the support polytope.

lifted_program builds the per-scenario CVaR lifting of Rockafellar and
Uryasev, the one S-sized program in the package: solve_lower_lifted solves
it exactly (the cp baseline and the oracle), and the big-M baseline wraps
it in a selection block. Both lower solves return a LowerResult whose
DualCertificate has the objective -(gamma/2) z @ (omega * omega) - b @ zeta
+ lambda, which reproduces the lower bound, and whose omega yields the
subgradient -(gamma/2) omega^2. Each reads its own QP's multipliers (the
scenario loop in _CutLoop._certificate) and finishes zeta and omega in
_dual_certificate.

Whether a support admits a portfolio is decided in one place,
_support_feasible, which both lower solves call first and the big-M
baseline calls at every node: by the unit vertices of the support
(_vertex_fits), which settle it outright under at most one side row, and
otherwise by numeric.feasible, the package's only phase 1 outside a cold
dense QP. Both solves return None at a selection that admits no portfolio,
and infeasible_cover then gives the master its feasibility cut: a cover row
sum_{j in C} z_j >= 1 that every feasible selection meets. Feasibility is
monotone in the support, so the complement of an infeasible support is
always such a C; with at most one side row, C is exactly _vertex_fits.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass, field

import numpy as np

from .model import Instance, Portfolio, SelectionVector
from . import numeric

__all__ = [
    "LowerResult",
    "DualCertificate",
    "SolverError",
    "CertificateError",
    "solve_lower_cp",
    "infeasible_cover",
    "lifted_program",
    "solve_lower_lifted",
    "certificate_objective",
    "subgradient",
]

log = logging.getLogger(__name__)

GAP_NOISE = 1e-12      # relative size of a rounding-level gap past delta
MAX_INNER_ITERS = 10_000


class SolverError(RuntimeError):
    """A subproblem solve failed for a reason other than infeasibility."""


class CertificateError(RuntimeError):
    """Recovered multipliers violate the dual feasibility invariants."""


@dataclass
class DualCertificate:
    """Feasible point of the reduced dual: one alpha weight per subset of
    the scenario cutting-plane solve, or per scenario of the lifted one."""

    alpha: np.ndarray
    zeta: np.ndarray
    lam: float
    omega: np.ndarray


@dataclass
class LowerResult:
    """f_lo <= f(z) <= f_hi; subsets holds the cut subsets of the scenario
    cutting-plane solve (None for the lifted one, where f_lo = f_hi), and
    iters counts the QPs this call solved (the anchor portfolio x^ of a fresh
    loop is not a QP and is not counted): a call that resumes an earlier
    result counts only its own. _loop is the scenario loop's state, which a
    later call may resume (None for the lifted result); it is left out of
    repr and comparison."""

    f_lo: float
    f_hi: float
    portfolio: Portfolio
    subsets: list | None
    certificate: DualCertificate
    iters: int
    _loop: "_CutLoop | None" = field(default=None, repr=False,
                                     compare=False)


def _quantile_window(probs: np.ndarray, beta: float):
    """(reach, q, j) for _var_level: the probability the walk from the
    largest loss may pass, how many of the largest losses it can reach, and,
    when every scenario has the same probability, the index at which the
    walk stops (None otherwise).

    With equal probabilities p the walk's cumulative sums are the same
    float additions of p whatever the order of the losses, so it stops at
    the same index j of the descending order every time: the first index
    whose sum passes reach, capped at q - 1, since every loss the walk could
    read past that index ties with the q-th largest."""
    S = probs.size
    one_m_beta = 1.0 - beta
    p_min = float(probs.min())
    q = (S if one_m_beta >= p_min * (S - 2)
         else int(np.ceil(one_m_beta / p_min)) + 2)
    reach = float(probs.sum()) - beta + 1e-12
    j = None
    if p_min == probs.max():
        j = min(int(np.searchsorted(np.cumsum(np.full(q, p_min)), reach,
                                    side="right")), q - 1)
    return reach, q, j


# scenario rows copied per step of _scenario_block's transpose
_BLOCK_CHUNK = 256

# (weakref to an instance, its asset-major scenario block, its
# _quantile_window), for the instance solved last (_scenario_block)
_block_entry = None


def _drop_block(ref: weakref.ref) -> None:
    """Free the kept block once its instance is gone."""
    global _block_entry
    if _block_entry is not None and _block_entry[0] is ref:
        _block_entry = None


def _scenario_block(instance: Instance):
    """(block, window) for the instance: block is its scenario matrix
    asset-major (n x S, C order), so the support rows of a lower solve are
    one contiguous gather, and window is its _quantile_window.

    One entry is kept, for the last instance asked for, which it holds by a
    weak reference: an Instance is not mutated after construction, so the
    entry is valid while the instance lives, and it is freed with it. The
    old entry is dropped before a new block is built, so at most one block
    is alive at a time. The block is filled in row chunks, which is faster
    than a whole-matrix transpose copy."""
    global _block_entry
    entry = _block_entry
    if entry is None or entry[0]() is not instance:
        _block_entry = entry = None
        sc = instance.scenarios
        block = np.empty((instance.n_assets, sc.shape[0]))
        for i in range(0, sc.shape[0], _BLOCK_CHUNK):
            block[:, i:i + _BLOCK_CHUNK] = sc[i:i + _BLOCK_CHUNK].T
        entry = (weakref.ref(instance, _drop_block), block,
                 _quantile_window(instance.probs, instance.beta))
        _block_entry = entry
    return entry[1:]


def _var_level(losses: np.ndarray, probs: np.ndarray, reach: float, q: int,
               j: int | None):
    """The left beta-quantile of the losses, as model.cvar defines it, and
    the scenarios whose loss is at or above the q-th largest loss, in index
    order.

    The quantile is the smallest loss whose cumulative probability reaches
    beta - 1e-12: walking down the losses from the largest, the last one
    with at most reach = sum(p) - beta + 1e-12 of probability before it.
    Each scenario passed adds at least p_min, so the walk ends within the
    q largest losses for q = ceil((1 - beta) / p_min) + 2 (_quantile_window):
    a partition finds the q-th largest in O(S). With equal probabilities the
    walk stops at the known index j, so the quantile is the (j + 1)-th
    largest of those losses, one more partition on about q values (O(q));
    otherwise they are sorted and walked (all S of them when q = S).
    """
    S = losses.size
    top = np.flatnonzero(losses >= np.partition(losses, S - q)[S - q])
    if j is not None:
        tail = losses.take(top)
        return float(np.partition(tail, tail.size - 1 - j)[-1 - j]), top
    # ties may come in any order: they share the value the walk returns
    desc = top[np.argsort(losses.take(top))[::-1]]
    above = np.cumsum(probs.take(desc))
    j = min(int(np.searchsorted(above, reach, side="right")), desc.size - 1)
    return float(losses[desc[j]]), top


def _aggregate(instance: Instance, J: np.ndarray):
    """Total probability and probability-weighted return sum over J."""
    probs = instance.probs.take(J)
    return float(probs.sum()), probs @ instance.scenarios.take(J, axis=0)


def _vertex_fits(instance: Instance) -> np.ndarray:
    """The assets whose unit vertex meets every side row, as a boolean mask.
    With at most one side row it decides feasibility: a convex combination
    of columns above side_b stays above it, so a support admits a portfolio
    exactly when it holds one of these assets."""
    return np.all(instance.side_A <= instance.side_b[:, None], axis=0)


def _support_feasible(instance: Instance, support: np.ndarray):
    """A point of {side_A x <= side_b, sum x = 1, x >= 0, x off-support = 0}
    in support coordinates, or None when that set is empty.

    This is the one place that decides whether a support admits a
    portfolio: both lower solves and every node of the big-M baseline ask
    it, and no ScenarioProgram solve checks again. The point is the unit
    vertex of the first support asset in _vertex_fits; without one, the
    support is infeasible outright under at most one side row, and
    otherwise the point is the one phase 1 (numeric.feasible) finds. A
    phase 1 that does not finish raises SolverError."""
    K = support.size
    if K == 0:
        return None
    fits = np.flatnonzero(_vertex_fits(instance)[support])
    if fits.size:
        x = np.zeros(K)
        x[fits[0]] = 1.0
        return x
    if instance.side_b.size <= 1:
        return None
    G = np.vstack([instance.side_A[:, support], -np.eye(K)])
    h = np.concatenate([instance.side_b, np.zeros(K)])
    try:
        return numeric.feasible(G, h, np.ones((1, K)), np.array([1.0]))
    except numeric.FeasibilityError as exc:
        raise SolverError(str(exc)) from exc


def infeasible_cover(z: SelectionVector, instance: Instance) -> np.ndarray:
    """The members C of a cover row sum_{j in C} z_j >= 1 that every
    feasible selection meets, for a selection z that admits no portfolio, as
    a boolean mask over the assets; z itself holds none of them.

    With at most one side row, C is _vertex_fits, the rule by which
    _support_feasible decides such supports without phase 1: a selection
    is feasible exactly when it holds one of them. Otherwise C is the
    complement of supp(z): a subset of an infeasible support is infeasible
    too, so the row holds for every feasible selection and excludes every
    subset of supp(z), z included.
    """
    support = _support(z, instance)
    if instance.side_b.size <= 1:
        return _vertex_fits(instance)
    members = np.ones(instance.n_assets, dtype=bool)
    members[support] = False
    return members


def _simplex_projection(y: np.ndarray) -> np.ndarray:
    """The Euclidean projection of y onto {x >= 0, sum x = 1}, by one sort
    (Held, Wolfe and Crowder 1974; Duchi et al. 2008)."""
    u = np.sort(y)[::-1]
    excess = np.cumsum(u) - 1.0
    last = np.flatnonzero(u * np.arange(1, y.size + 1) > excess)[-1]
    return np.maximum(y - excess[last] / (last + 1), 0.0)


def _anchor_subset(instance: Instance, support: np.ndarray,
                   rows: np.ndarray, window: tuple) -> np.ndarray:
    """J0 = {L >= a_ref} for the losses L = (-x^) @ rows of the risk-neutral
    portfolio x^ = proj_simplex(gamma mu_S), with a_ref their left
    beta-quantile (_var_level), as the loop cuts after a QP; rows are the
    support's rows of the asset-major scenario block (|supp(z)| x S), and
    window is the instance's _quantile_window.

    With the all-scenario cut alone, the QP's (a, v) block is optimal at
    a = -mu_S x, v = 0, so the QP is min |x|^2 / (2 gamma) - mu_S x over the
    support polytope: x^ when the side rows are slack there. Any subset
    gives a valid cut, so J0 is one whether they are slack or not.
    """
    x_hat = _simplex_projection(instance.gamma
                                * instance.expected_returns.take(support))
    losses = (-x_hat) @ rows
    a_ref, top = _var_level(losses, instance.probs, *window)
    return top[losses.take(top) >= a_ref]


def _support(z: SelectionVector, instance: Instance) -> np.ndarray:
    """The support of z, which must have one entry per asset."""
    if z.bits.size != instance.n_assets:
        raise ValueError(f"selection has {z.bits.size} entries, instance "
                         f"has {instance.n_assets} assets")
    return z.support()


def _embed(support: np.ndarray, x_s: np.ndarray, n: int) -> np.ndarray:
    x = np.zeros(n)
    x[support] = x_s
    return x


class _CutLoop:
    """The scenario cutting-plane loop of one selection between two QPs,
    and the one owner of its QP over (a, v, x_support).

    The QP's inequality rows are G x <= h: v >= 0 (row 0), the side rows,
    x >= 0 (`fixed` rows in all), then one cut row
    -(p_J a + rho_J x) / (1 - beta) - v <= 0 per subset, in the order the
    subsets were added, so no row ever moves; base holds the objective and
    the budget row, the one equality, validated once per loop. The loop
    also holds the subsets with their aggregates (p_J, rho_J), the byte keys
    of every subset but the all-scenario one (recognised by its size), the
    count of QPs solved so far, the last QP's solution with its a_ref, v_ref
    and gap, the subset it would cut next (pending) and whether that subset
    is a row already, and the warm start of the next QP. A fresh loop holds
    the all-scenario subset and then J0 (_anchor_subset), unless J0 is
    every scenario; each later subset is the one cut after a QP, in order.
    Before the first QP, sol is None and the warm start is the cold start.
    It never holds the support's rows of the scenario block
    (|supp(z)| x S): each call of solve_lower_cp gathers them again.
    """

    def __init__(self, instance: Instance, support: np.ndarray,
                 x0: np.ndarray, anchor: np.ndarray):
        K = support.size
        M = instance.side_b.size
        self.support = support
        self.fixed = 1 + M + K
        self.G = np.zeros((self.fixed, K + 2))
        self.h = np.zeros(self.fixed)
        self.G[0, 1] = -1.0
        self.G[1:1 + M, 2:] = instance.side_A[:, support]
        self.h[1:1 + M] = instance.side_b
        self.G[1 + M:self.fixed, 2:] = -np.eye(K)
        self.base = numeric.ConvexProgram(
            quad_diag=np.concatenate([[0.0, 0.0],
                                      np.full(K, 1.0 / instance.gamma)]),
            lin=np.concatenate([[1.0, 1.0], np.zeros(K)]),
            ineq_G=None, ineq_h=None,
            eq_A=np.concatenate([[0.0, 0.0], np.ones(K)])[None, :],
            eq_b=np.ones(1))
        self.subsets, self.aggregates, self.seen = [], [], set()
        rows = [self._add(instance, np.arange(instance.n_scenarios))]
        if anchor.size < instance.n_scenarios:
            rows.append(self._add(instance, anchor))
        # cold start at x0 (a vertex, or a feasible point) with a = 0 and
        # v on the row holding it: the larger initial cut or v >= 0 (row 0)
        v0 = [float(self.G[row, 2:] @ x0) for row in rows]
        i = int(np.argmax(v0))
        self.start = np.concatenate([[0.0, max(v0[i], 0.0)], x0])
        self.working = [rows[i] if v0[i] >= 0.0 else 0]
        self.total = 0
        self.sol = self.a_ref = self.v_ref = self.gap = self.pending = None
        self.duplicate = False

    def _add(self, instance: Instance, J: np.ndarray) -> int:
        """Record subset J and write its cut after the last row; returns the
        cut's row. The all-scenario subset takes no key and aggregates to
        the expected returns, no gather."""
        if J.size < instance.n_scenarios:
            self.seen.add(J.tobytes())
            pJ, rho = _aggregate(instance, J)
        else:
            pJ, rho = float(instance.probs.sum()), instance.expected_returns
        self.subsets.append(J)
        self.aggregates.append((pJ, rho))
        one_m_beta = 1.0 - instance.beta
        row = np.concatenate([[-pJ, -one_m_beta], -rho[self.support]])
        self.G = np.vstack([self.G, row / one_m_beta])
        self.h = np.append(self.h, 0.0)
        return self.h.size - 1

    def cut(self, instance: Instance) -> None:
        """Add the pending subset's cut and warm-start the next QP at the
        last QP point: v rises onto the new cut, which that point violates
        (see solve_lower_cp), and the rows that held v (v >= 0 and the old
        cuts) leave the working set."""
        cut = self._add(instance, self.pending)
        row = self.G[cut]
        x = self.sol.x
        self.start = x.copy()
        self.start[1] = max(x[1], float(row[0] * x[0] + row[2:] @ x[2:]))
        self.working = [cut] + [int(i) for i in self.sol.working
                                if 0 < i < self.fixed]

    def _certificate(self, instance: Instance) -> DualCertificate:
        """The last QP's multipliers as a feasible point of the reduced
        dual: alpha from the cut rows, one weight per subset and a 0 for the
        pending one unless it is a row already, zeta from the side rows and
        lambda from the budget row (minus its dual). Raises CertificateError
        when the alpha weights sum above 1 or their probability-weighted sum
        misses 1 - beta."""
        one_m_beta = 1.0 - instance.beta
        duals = self.sol.ineq_duals
        alpha = np.zeros(len(self.subsets) + (not self.duplicate))
        alpha[:len(self.subsets)] = np.maximum(duals[self.fixed:], 0.0)
        lam = -float(self.sol.eq_duals[0])
        bound = np.full(instance.n_assets, lam)
        weighted = 0.0
        for a_J, (pJ, rho) in zip(alpha, self.aggregates):
            if a_J > 0.0:
                bound += (a_J / one_m_beta) * rho
                weighted += a_J * pJ
        total = float(alpha.sum())
        if total > 1.0 + 1e-9:
            raise CertificateError(f"alpha weights sum to {total}, above 1")
        if abs(weighted - one_m_beta) > 1e-8:
            raise CertificateError(
                f"probability-weighted alpha sum {weighted} != {one_m_beta}")
        return _dual_certificate(alpha, duals[1:1 + instance.side_b.size],
                                 lam, bound, instance)


def solve_lower_cp(z: SelectionVector, instance: Instance, delta: float,
                   resume=None):
    """Scenario cutting-plane solve of the lower-level problem at z.

    Returns a LowerResult with f_lo <= f(z) <= f_hi <= f_lo + delta, or None
    when the selection admits no feasible portfolio. Subproblem failures
    raise SolverError (distinct from infeasibility by contract), and a z
    without one entry per asset raises ValueError.

    After each inner QP at (a_t, v_t, x_t), with losses L = -r @ x_t, the
    loop takes a_ref, the left beta-quantile of L, and v' = E[(L - a_ref)_+]
    / (1 - beta). By Rockafellar and Uryasev, a_ref + v' = CVaR(x_t), so
    f_hi = |x_t|^2 / (2 gamma) + a_ref + v' is the exact objective of x_t,
    f_lo is the QP value, and gap = f_hi - f_lo = a_ref + v' - a_t - v_t.
    The loop stops when gap <= delta, or when the subset it would cut is
    already a row (a rounding-level gap), and returns Portfolio(x_t, a_ref,
    v'). Otherwise it cuts the subset J = {L > a_ref} when a_t >= a_ref and
    J = {L >= a_ref} when a_t < a_ref. Either way E[(L - a_ref) ; J] =
    (1 - beta) v', so the cut v >= E[(L - a) ; J] / (1 - beta) takes at
    (a_t, x_t) the value
        v' + (a_ref - a_t) p_J / (1 - beta)
        = v_t + gap + (a_t - a_ref) (1 - p_J / (1 - beta)).
    The left quantile has P(L > a_ref) <= 1 - beta and P(L >= a_ref) >=
    1 - beta, so with the tail picked by the sign of a_t - a_ref the last
    term is nonnegative: every cut is violated at the QP point by at least
    the gap, which exceeds delta. The next QP is warm-started there with v
    raised onto the new cut, the one working row that holds v. (The strict
    tail alone for a_t < a_ref can make a cut the QP point satisfies, and
    then the warm start is not tight on its working row.)

    A fresh loop's first QP already holds two cuts: the all-scenario one and
    that of J0, the tail {L >= a_ref} of the risk-neutral portfolio
    (_anchor_subset), unless J0 is every scenario. Where the side rows are
    slack at that portfolio, it is the minimiser of the QP with the
    all-scenario cut alone (up to rounding), so the loop makes the cuts it
    would make from that QP, one QP sooner; the result's subsets are the
    all-scenario one, J0 when it was added, then one per QP. iters counts
    QPs only.

    The loop stops with the subset it would cut still pending, and the
    result keeps that state. resume, a LowerResult an earlier call returned
    at the same z, continues its loop from its last QP and pending subset:
    at a delta no larger than that call's, the result equals a solve from
    scratch at this delta bit for bit, without running the QPs again, and
    at a larger one it is the earlier point, at no QP. The call takes the
    loop over, so the earlier result no longer carries it; a result that
    carries none (the lifted one, or one resumed already) starts afresh.
    """
    if not delta >= 0:    # NaN included
        raise ValueError("delta must be nonnegative")
    support = _support(z, instance)
    loop = None if resume is None else resume._loop
    if loop is None:
        x0 = _support_feasible(instance, support)
        if x0 is None:
            return None
    elif not np.array_equal(loop.support, support):
        raise ValueError("resume holds the loop of another selection")
    else:
        resume._loop = None

    # the support's rows of the block, gathered once per call; every asset
    # needs no gather
    block, window = _scenario_block(instance)
    rows = (block if support.size == instance.n_assets
            else block.take(support, axis=0))
    probs = instance.probs
    S = probs.size
    one_m_beta = 1.0 - instance.beta
    if loop is None:
        loop = _CutLoop(instance, support, x0,
                        _anchor_subset(instance, support, rows, window))
    iters = 0
    while loop.sol is None or not (loop.gap <= delta or loop.duplicate):
        if loop.sol is not None:
            loop.cut(instance)
        iters += 1
        loop.total += 1
        if loop.total > MAX_INNER_ITERS:
            raise SolverError("inner cutting-plane loop exceeded iteration cap")
        sol = numeric.solve(loop.base.with_rows(loop.G, loop.h, loop.start,
                                                loop.working))
        if sol.status != numeric.OPTIMAL:
            raise SolverError(f"lower-level QP ended with status {sol.status}")
        a_t = float(sol.x[0])
        v_t = float(sol.x[1])
        losses = (-sol.x[2:]) @ rows
        a_ref, top = _var_level(losses, probs, *window)
        excess = losses.take(top) - a_ref
        above = excess > 0.0
        tail = top[above]
        v_ref = float(probs.take(tail) @ excess[above]) / one_m_beta
        J = tail if a_t >= a_ref else top[excess >= 0.0]
        loop.sol, loop.a_ref, loop.v_ref = sol, a_ref, v_ref
        loop.gap = a_ref + v_ref - a_t - v_t
        loop.pending = J
        loop.duplicate = J.size == S or J.tobytes() in loop.seen

    sol, gap = loop.sol, loop.gap
    f_lo = float(sol.obj)
    if loop.duplicate and gap - delta > GAP_NOISE * (1.0 + abs(f_lo)):
        log.warning("duplicate scenario subset at gap %.3e; stopping on "
                    "solver tolerance", gap)
    subsets = loop.subsets + ([] if loop.duplicate else [loop.pending])
    x_full = _embed(support, sol.x[2:], instance.n_assets)
    portfolio = Portfolio(x_full, loop.a_ref, loop.v_ref)
    f_hi = float(x_full @ x_full / (2.0 * instance.gamma)
                 + loop.a_ref + loop.v_ref)
    cert = loop._certificate(instance)
    _check_certificate_value(cert, z, instance, f_lo)
    if loop.total > 30:
        log.warning("inner loop took %d iterations", loop.total)
    return LowerResult(f_lo=f_lo, f_hi=f_hi, portfolio=portfolio,
                       subsets=subsets, certificate=cert, iters=iters,
                       _loop=loop)


def _dual_certificate(alpha: np.ndarray, side_duals: np.ndarray,
                      lam: float, bound: np.ndarray,
                      instance: Instance) -> DualCertificate:
    """The certificate of alpha and lam, with zeta = max(side_duals, 0) and
    omega = max(bound - side_A^T zeta, 0), bound being lam plus the
    alpha-weighted returns. Clipping at 0 completes omega on unselected
    coordinates where it maximizes the dual objective."""
    zeta = np.maximum(side_duals, 0.0)
    return DualCertificate(alpha=alpha, zeta=zeta, lam=lam, omega=np.maximum(
        bound - instance.side_A.T @ zeta, 0.0))


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


def lifted_program(instance: Instance,
                   support: np.ndarray) -> numeric.ScenarioProgram:
    """The per-scenario lifting of the lower level at a support: over
    t = (a, v, x_support) and one q_s per scenario,
        min |x|^2 / (2 gamma) + a + v
        s.t. -a - r_s x - q_s <= 0, q >= 0, p @ q / (1 - beta) - v <= 0,
             -x <= 0, side_A x <= side_b, sum x = 1,
    with the core inequality rows in that order (x >= 0, then the side
    rows; the big-M program keeps it, and its IPM is not invariant to row
    order). Its value is f at any selection with this support.
    """
    K = support.size
    S = instance.n_scenarios
    core = numeric.ConvexProgram(
        quad_diag=np.concatenate([[0.0, 0.0], np.full(K, 1.0 / instance.gamma)]),
        lin=np.concatenate([[1.0, 1.0], np.zeros(K)]),
        ineq_G=np.vstack([
            np.hstack([np.zeros((K, 2)), -np.eye(K)]),
            np.hstack([np.zeros((instance.side_b.size, 2)),
                       instance.side_A[:, support]]),
        ]),
        ineq_h=np.concatenate([np.zeros(K), instance.side_b]),
        eq_A=np.concatenate([[0.0, 0.0], np.ones(K)])[None, :],
        eq_b=np.ones(1),
    )
    loss_core = np.hstack([-np.ones((S, 1)), np.zeros((S, 1)),
                           -instance.scenarios[:, support]])
    agg_core = np.zeros(K + 2)
    agg_core[1] = -1.0
    return numeric.ScenarioProgram(core=core, loss_core=loss_core,
                                   agg_core=agg_core,
                                   agg_tail=instance.probs
                                   / (1.0 - instance.beta))


def solve_lower_lifted(z: SelectionVector, instance: Instance):
    """Exact lower-level solve of lifted_program at the support of z.

    Returns a LowerResult with f_lo = f_hi = f(z), subsets None and iters 1,
    or None when the selection admits no feasible portfolio, which
    _support_feasible decides before the program is built, as in
    solve_lower_cp: the interior-point method only ever sees a feasible
    core. Its certificate carries one alpha weight per scenario row (they
    sum to 1, each at most p_s / (1 - beta)), the side multipliers zeta, the
    budget multiplier lambda and omega completed on every coordinate; a
    certificate whose objective misses f(z) by more than 1e-6 (1 + |f(z)|)
    raises CertificateError, as in solve_lower_cp. A feasibility check or a
    QP that does not finish raises SolverError, and a z without one entry
    per asset raises ValueError.
    """
    support = _support(z, instance)
    if _support_feasible(instance, support) is None:
        return None
    K = support.size
    S = instance.n_scenarios
    sol = numeric.solve(lifted_program(instance, support))
    if sol.status != numeric.OPTIMAL:
        raise SolverError(f"lifted QP ended with status {sol.status}")

    f = float(sol.obj)
    x_full = _embed(support, sol.x[2:K + 2], instance.n_assets)
    portfolio = Portfolio(x_full, float(sol.x[0]), max(float(sol.x[1]), 0.0))
    # rows: S loss rows, S q >= 0 rows, the aggregate row, x >= 0, side rows
    side = 2 * S + 1 + K
    alpha = np.maximum(sol.ineq_duals[:S], 0.0)
    lam = -float(sol.eq_duals[0])
    # on C-order data, as Instance.expected_returns, so that the last bits
    # do not depend on the scenario matrix's layout
    rho = alpha @ np.ascontiguousarray(instance.scenarios)
    cert = _dual_certificate(alpha, sol.ineq_duals[side:], lam, rho + lam,
                             instance)
    _check_certificate_value(cert, z, instance, f)
    return LowerResult(f_lo=f, f_hi=f, portfolio=portfolio, subsets=None,
                       certificate=cert, iters=1)
