"""Convex-QP solvers with dual-multiplier extraction.

One engine per kind of program, behind one entry point (`solve`):
- a primal active-set method for dense ConvexProgram QPs, such as the
  (|supp z| + 2)-dimensional scenario-cut QP of the lower level, whose x
  block always has curvature 1/gamma > 0. It starts from a feasible point,
  optionally with a working set carried over from a related solve
  (ConvexProgram.start / .working), and hands its final working set back
  on the Solution so a caller adding one row can resume. Each pass solves
  one bordered KKT system [[diag(P), B'], [B, 0]] over the working rows B
  for the step and the multipliers together. Zero-curvature directions are
  looked for only on the coordinates with P == 0 (a and v in the
  scenario-cut QP): along one where the objective falls the pass is a ray
  to the first blocking row, and one where it is level is pinned by extra
  rows of B. A program with no curvature at all (a pure LP) is rejected;
- a Mehrotra predictor-corrector interior-point method for ScenarioProgram,
  the per-scenario CVaR lifting that lower.lifted_program builds (the cp
  lower level and the oracle solve it; big-M wraps it in a selection
  block). It runs on a structured KKT backend,
  so the per-scenario block costs O(S) memory and O(S T^2) work per
  iteration instead of a dense factorization in S.
The feasibility check (`feasible`) is phase 1 of the active-set method, on
an elastic QP. It runs only before a dense QP that has no start point, and
its point starts that QP's active-set method; every other program comes with
the caller's promise of feasibility: a dense QP's start point, and a
ScenarioProgram's feasible core (lower._support_feasible decides that for
every caller in the package).
A QP point and multipliers that did not come out of the interior-point
loop's own convergence test (every active-set result, and a rescued
scenario solve) are Optimal only after a full KKT check.

Sign convention, relied on by every caller that touches duals:
    minimize 0.5 x @ diag(quad_diag) @ x + lin @ x
    s.t.     ineq_G @ x <= ineq_h   (multiplier lam >= 0)
             eq_A @ x == eq_b       (multiplier nu, free)
stationarity: diag(quad_diag) x + lin + ineq_G.T lam + eq_A.T nu = 0.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "ITER_LIMIT",
    "NUMERICAL_ERROR",
    "ConvexProgram",
    "ScenarioProgram",
    "Solution",
    "FeasibilityError",
    "solve",
    "feasible",
]

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
ITER_LIMIT = "IterLimit"
NUMERICAL_ERROR = "NumericalError"

FEAS_TOL = 1e-9
IPM_TOL = 1e-9
IPM_MAX_ITER = 200
_REG = 1e-12
_DIVERGE = 1e12
_REFINE = 4


def _empty_rows(n: int) -> np.ndarray:
    return np.zeros((0, n))


@dataclass
class ConvexProgram:
    """min 0.5 x diag(quad_diag) x + lin @ x s.t. ineq_G x <= ineq_h, eq_A x = eq_b.

    start and working warm-start the active-set method of a QP: start is a
    feasible point, working the inequality rows tight at start that it
    keeps tight (linearly independent of each other and of eq_A). Without
    working the method starts from no tight rows; without start, from the
    point of the feasibility check (`feasible`). The ScenarioProgram path
    ignores both.
    """

    quad_diag: np.ndarray
    lin: np.ndarray
    ineq_G: np.ndarray
    ineq_h: np.ndarray
    eq_A: np.ndarray
    eq_b: np.ndarray
    start: np.ndarray | None = None
    working: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.lin = np.asarray(self.lin, dtype=float).ravel()
        n = self.lin.size
        self.quad_diag = np.asarray(self.quad_diag, dtype=float).ravel()
        self.eq_A = (_empty_rows(n) if self.eq_A is None
                     else np.asarray(self.eq_A, dtype=float).reshape(-1, n))
        self.eq_b = (np.zeros(0) if self.eq_b is None
                     else np.asarray(self.eq_b, dtype=float).ravel())
        if self.quad_diag.size != n:
            raise ValueError("quad_diag length must match lin")
        if np.any(self.quad_diag < 0):
            raise ValueError("quad_diag must be nonnegative (convexity)")
        if self.eq_A.shape[0] != self.eq_b.size:
            raise ValueError("eq_A rows must match eq_b")
        self._check_rows()

    def _check_rows(self) -> None:
        """Validate the inequality rows and the warm start."""
        n = self.lin.size
        self.ineq_G = (_empty_rows(n) if self.ineq_G is None
                       else np.asarray(self.ineq_G, dtype=float).reshape(-1, n))
        self.ineq_h = (np.zeros(0) if self.ineq_h is None
                       else np.asarray(self.ineq_h, dtype=float).ravel())
        if self.ineq_G.shape[0] != self.ineq_h.size:
            raise ValueError("ineq_G rows must match ineq_h")
        if self.start is not None:
            self.start = np.asarray(self.start, dtype=float).ravel()
            if self.start.size != n:
                raise ValueError("start length must match lin")
        if self.working is not None:
            self.working = np.asarray(self.working, dtype=int).ravel()
            if self.working.size and (self.working.min() < 0 or
                                      self.working.max() >= self.ineq_h.size):
                raise ValueError("working rows out of range")

    def with_rows(self, ineq_G, ineq_h, start=None,
                  working=None) -> ConvexProgram:
        """This program over other inequality rows and another warm start.
        Only those are validated; the objective and the equality rows were
        validated when this program was built, and are shared."""
        prog = object.__new__(ConvexProgram)
        prog.__dict__.update(self.__dict__)
        prog.ineq_G, prog.ineq_h = ineq_G, ineq_h
        prog.start, prog.working = start, working
        prog._check_rows()
        return prog

    @property
    def n(self) -> int:
        return self.lin.size


@dataclass
class ScenarioProgram:
    """A ConvexProgram over core variables t plus S auxiliary variables q.

    Constraints beyond the core's own:
        loss_core @ t - q <= 0                     (S rows)
        -q <= 0                                    (S rows)
        agg_core @ t + agg_tail @ q <= 0           (1 row)
    q carries zero objective. The core polytope must hold a point, the
    caller's promise (no phase 1 runs here), and the aggregates must be ones
    that q plus a free core variable can absorb (true for every CVaR lifting
    in this package), so the whole program is feasible too.

    Solutions stack x = (t, q) and ineq_duals are ordered
    [loss rows, q >= 0 rows, aggregate row, core ineq rows].
    """

    core: ConvexProgram
    loss_core: np.ndarray
    agg_core: np.ndarray
    agg_tail: np.ndarray

    def __post_init__(self) -> None:
        T = self.core.n
        self.loss_core = np.asarray(self.loss_core, dtype=float).reshape(-1, T)
        self.agg_core = np.asarray(self.agg_core, dtype=float).ravel()
        self.agg_tail = np.asarray(self.agg_tail, dtype=float).ravel()
        if self.agg_tail.size != self.loss_core.shape[0]:
            raise ValueError("scenario block sizes disagree")
        if self.agg_core.size != T:
            raise ValueError("agg_core length must match core variables")

    @property
    def n_scenarios(self) -> int:
        return self.loss_core.shape[0]


@dataclass
class Solution:
    """working: the final working set of the active-set method (None on the
    other paths); iters: iterations of whichever engine ran."""

    status: str
    x: np.ndarray
    obj: float
    ineq_duals: np.ndarray
    eq_duals: np.ndarray
    working: np.ndarray | None = None
    iters: int = 0


class FeasibilityError(RuntimeError):
    """The feasibility QP of `feasible` stopped short of its optimum
    (iteration cap or a singular step), so it decided nothing."""


# ---------------------------------------------------------------------------
# interior-point method

_SHIFTS = (0.0, 1e-10, 1e-7, 1e-4)


class _Breakdown(Exception):
    """No shift level of _ShiftedLU gives a usable factor or a finite solve."""


class _ShiftedLU:
    """LU of a quasi-definite KKT matrix with escalating diagonal shifts.

    On a degenerate optimal face the unshifted matrix turns exactly singular
    near convergence; the first shift level whose pivots are nonzero and
    whose solves stay finite is kept. Past the last level it raises
    _Breakdown rather than hand back a non-finite factor or solve. Only the
    ScenarioProgram IPM (cp, bigm) gets here, so scipy.linalg is imported on
    first use: a bcp solve never loads it.
    """

    def __init__(self, K: np.ndarray, n_primal: int):
        self.K = K
        self.sgn = np.ones(K.shape[0])
        self.sgn[n_primal:] = -1.0
        self.level = -1
        self._next_factor()

    def _next_factor(self) -> None:
        import scipy.linalg

        while self.level < len(_SHIFTS) - 1:
            self.level += 1
            Ks = self.K.copy()
            Ks[np.diag_indices_from(Ks)] += _SHIFTS[self.level] * self.sgn
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                self.lu = scipy.linalg.lu_factor(Ks, check_finite=False)
            piv = np.abs(np.diag(self.lu[0]))
            if np.all(np.isfinite(self.lu[0])) and piv.min() > 0.0:
                return
        raise _Breakdown

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        import scipy.linalg

        sol = scipy.linalg.lu_solve(self.lu, rhs, check_finite=False)
        while not np.all(np.isfinite(sol)):
            self._next_factor()
            sol = scipy.linalg.lu_solve(self.lu, rhs, check_finite=False)
        return sol


class _ArrowKKT:
    """Structured backend for ScenarioProgram.

    Variable order (t, q); inequality row order [loss(S), qpos(S), agg(1),
    core(mc)]. The (q, q) block of the normal equations is diagonal plus a
    rank-1 aggregate term, so it is eliminated by Sherman-Morrison and only
    a (T + p)-dimensional bordered system is factorized per iteration.
    """

    def __init__(self, sp: ScenarioProgram):
        core = sp.core
        self.T = core.n
        self.S = sp.n_scenarios
        self.U = sp.loss_core
        self.g0 = sp.agg_core
        self.cagg = sp.agg_tail
        self.Gc = core.ineq_G
        self.A = core.eq_A
        self.b = core.eq_b
        self.Pd_core = core.quad_diag
        self.mc = core.ineq_h.size
        self.m = 2 * self.S + 1 + self.mc
        self.p = self.b.size
        self.q = np.concatenate([core.lin, np.zeros(self.S)])
        self.h = np.concatenate([np.zeros(2 * self.S + 1), core.ineq_h])
        self._state = None

    def init_x(self):
        t = (np.linalg.lstsq(self.A, self.b, rcond=None)[0]
             if self.p else np.zeros(self.T))
        return np.concatenate([t, np.zeros(self.S)])

    def init_duals(self):
        # split each q-column's weight so the scenario-row multipliers sum
        # to the aggregate weight exactly; the stationarity rows then start
        # with O(1) residuals instead of O(S)
        total = float(self.cagg.sum())
        lam_loss = self.cagg / total if total > 0 else np.full(self.S, 0.5)
        lam_pos = np.maximum(self.cagg - lam_loss, 0.1 * np.max(self.cagg,
                                                                initial=1.0))
        lam = np.concatenate([lam_loss, lam_pos, [1.0], np.ones(self.mc)])
        floor = np.concatenate([np.full(2 * self.S, 0.05), [1.0],
                                np.ones(self.mc)])
        return floor, lam

    def mul_P(self, x):
        out = np.zeros_like(x)
        out[:self.T] = self.Pd_core * x[:self.T]
        return out

    def mul_G(self, x):
        t, qv = x[:self.T], x[self.T:]
        return np.concatenate([
            self.U @ t - qv,
            -qv,
            [self.g0 @ t + self.cagg @ qv],
            self.Gc @ t,
        ])

    def mul_GT(self, y):
        S = self.S
        y_loss, y_pos, y0, y_core = y[:S], y[S:2 * S], y[2 * S], y[2 * S + 1:]
        t_part = self.U.T @ y_loss + y0 * self.g0 + self.Gc.T @ y_core
        q_part = -y_loss - y_pos + y0 * self.cagg
        return np.concatenate([t_part, q_part])

    def mul_A(self, x):
        return self.A @ x[:self.T]

    def mul_AT(self, y):
        return np.concatenate([self.A.T @ y, np.zeros(self.S)])

    def factor(self, d):
        S, T = self.S, self.T
        d_loss, d_pos, d0, d_core = d[:S], d[S:2 * S], d[2 * S], d[2 * S + 1:]
        delta = d_loss + d_pos
        inv_delta = 1.0 / delta
        cD = self.cagg * inv_delta
        kappa = d0 / (1.0 + d0 * (self.cagg @ cD))

        Ud = self.U * d_loss[:, None]
        M_tt = Ud.T @ self.U
        M_tt += d0 * np.outer(self.g0, self.g0)
        if self.mc:
            M_tt += (self.Gc * d_core[:, None]).T @ self.Gc
        M_tt[np.diag_indices_from(M_tt)] += self.Pd_core + _REG

        W = -Ud + d0 * np.outer(self.cagg, self.g0)    # = M_tq.T, S x T
        X = inv_delta[:, None] * W
        X -= kappa * np.outer(cD, cD @ W)              # = M_qq^{-1} W
        schur = M_tt - W.T @ X

        if self.p:
            K = np.block([[schur, self.A.T],
                          [self.A, -_REG * np.eye(self.p)]])
        else:
            K = schur
        self._state = (_ShiftedLU(K, self.T), W, inv_delta, cD, kappa)

    def _qq_solve(self, v, inv_delta, cD, kappa):
        return inv_delta * v - kappa * cD * (cD @ v)

    def solve_kkt(self, rx, re):
        lu, W, inv_delta, cD, kappa = self._state
        rt, rq = rx[:self.T], rx[self.T:]
        rhs_t = rt - W.T @ self._qq_solve(rq, inv_delta, cD, kappa)
        rhs = np.concatenate([rhs_t, re]) if self.p else rhs_t
        sol = lu.solve(rhs)
        dt, dnu = sol[:self.T], sol[self.T:]
        dq = self._qq_solve(rq - W @ dt, inv_delta, cD, kappa)
        return np.concatenate([dt, dq]), dnu


def _step_len(v, dv):
    neg = dv < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-v[neg] / dv[neg]))


def _newton_solve(kk, d, rx, re):
    """Solve the reduced Newton system with iterative refinement.

    The factorization only preconditions: residuals are measured against the
    exact operator, so the static regularization and any _ShiftedLU diagonal
    shift drop out of the final direction.
    """
    dx, dnu = kk.solve_kkt(rx, re)
    scale = 1.0 + np.max(np.abs(rx), initial=0.0)
    for _ in range(_REFINE):
        r1 = (kk.mul_P(dx) + kk.mul_GT(d * kk.mul_G(dx))
              + kk.mul_AT(dnu) - rx)
        r2 = kk.mul_A(dx) - re
        err = max(np.max(np.abs(r1), initial=0.0),
                  np.max(np.abs(r2), initial=0.0))
        if err <= 1e-14 * scale:
            break
        ex, enu = kk.solve_kkt(r1, r2)
        dx = dx - ex
        dnu = dnu - enu
    return dx, dnu


def _ipm(kk):
    """Mehrotra predictor-corrector on the backend kk (requires kk.m >= 1)."""
    m = kk.m
    x = kk.init_x()
    s_floor, lam = kk.init_duals()
    s = np.maximum(kk.h - kk.mul_G(x), s_floor)
    nu = np.zeros(kk.p)

    rhs_scale = 1.0 + max(np.max(np.abs(kk.h), initial=0.0),
                          np.max(np.abs(kk.b), initial=0.0))
    q_scale = 1.0 + np.max(np.abs(kk.q), initial=0.0)
    recent = deque(maxlen=8)
    stall = 0

    for it in range(IPM_MAX_ITER):
        Gx = kk.mul_G(x)
        r_p = Gx + s - kk.h
        r_e = kk.mul_A(x) - kk.b
        Px = kk.mul_P(x)
        r_d = Px + kk.q + kk.mul_GT(lam) + kk.mul_AT(nu)
        comp = float(s @ lam)
        obj = float(0.5 * (x @ Px) + kk.q @ x)

        prim_res = max(np.max(np.abs(r_p), initial=0.0),
                       np.max(np.abs(r_e), initial=0.0))
        dual_res = np.max(np.abs(r_d), initial=0.0)
        if (prim_res <= IPM_TOL * rhs_scale
                and dual_res <= IPM_TOL * q_scale
                and comp <= IPM_TOL * (1.0 + abs(obj))):
            return Solution(OPTIMAL, x, obj, lam, nu, iters=it)
        if np.max(np.abs(x)) > _DIVERGE:
            return Solution(UNBOUNDED, x, obj, lam, nu, iters=it)

        # once primal feasibility and the gap are done, a dual residual that
        # stops improving is a rounding floor; hand the iterate back so the
        # caller can polish the multipliers instead of running out the loop.
        # the floor is judged against a sliding window, not the all-time
        # best: a transient dip must not mask later genuine progress
        if (prim_res <= IPM_TOL * rhs_scale
                and comp <= IPM_TOL * (1.0 + abs(obj))):
            floor = min(recent) if recent else np.inf
            stall = 0 if dual_res < 0.9 * floor else stall + 1
            if stall >= 20:
                return Solution(ITER_LIMIT, x, obj, lam, nu, iters=it)
        recent.append(dual_res)

        d = lam / s
        kk.factor(d)

        # predictor
        rx = -r_d + kk.mul_GT(lam - d * r_p)
        dx, dnu = _newton_solve(kk, d, rx, -r_e)
        Gdx = kk.mul_G(dx)
        ds = -r_p - Gdx
        dlam = -lam + d * (r_p + Gdx)

        alpha_aff = min(1.0, _step_len(s, ds), _step_len(lam, dlam))
        mu = comp / m
        mu_aff = float((s + alpha_aff * ds) @ (lam + alpha_aff * dlam)) / m
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # keep complementarity within a factor of the scaled residuals;
        # letting it collapse first turns d into pure noise amplification
        bal = (1.0 + abs(obj)) * max(prim_res / rhs_scale, dual_res / q_scale)
        if comp > 0.0 and sigma * comp < 0.1 * bal:
            sigma = min(1.0, 0.1 * bal / comp)

        # corrector reuses the factorization
        rc = s * lam + ds * dlam - sigma * mu
        rx = -r_d + kk.mul_GT(rc / s - d * r_p)
        dx, dnu = _newton_solve(kk, d, rx, -r_e)
        Gdx = kk.mul_G(dx)
        ds = -r_p - Gdx
        dlam = -rc / s + d * (r_p + Gdx)

        # a single step length keeps all three residuals contracting by
        # exactly (1 - alpha), so complementarity cannot outrun feasibility
        alpha = min(1.0, 0.99 * _step_len(s, ds),
                    0.99 * _step_len(lam, dlam))
        x = x + alpha * dx
        s = s + alpha * ds
        lam = lam + alpha * dlam
        nu = nu + alpha * dnu

    obj = float(0.5 * (x @ kk.mul_P(x)) + kk.q @ x)
    return Solution(ITER_LIMIT, x, obj, lam, nu, iters=IPM_MAX_ITER)


def _kkt_converged(prim_res, dual_res, comp, obj, h, b, q) -> bool:
    """Acceptance gate for a point and multipliers that did not come out of
    the interior-point loop's own convergence test."""
    rhs_scale = 1.0 + max(np.max(np.abs(h), initial=0.0),
                          np.max(np.abs(b), initial=0.0))
    q_scale = 1.0 + np.max(np.abs(q), initial=0.0)
    return (prim_res <= IPM_TOL * rhs_scale
            and dual_res <= IPM_TOL * q_scale
            and comp <= 10.0 * IPM_TOL * (1.0 + abs(obj)))


# ---------------------------------------------------------------------------
# primal active-set method (dense QPs)

_RANK_TOL = 1e-12    # singular values of B_F below this share of max |B| are 0
_BLOCK_TOL = 1e-12   # a row blocks only a step that turns into it this much


def _flat_null(B: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the directions u on the flat columns with
    B u = 0: the null space of B[:, flat]."""
    if B.shape[0] == 0:
        return np.eye(flat.size)
    _, sv, Vt = np.linalg.svd(B[:, flat])
    return Vt[int(np.count_nonzero(sv > _RANK_TOL * np.abs(B).max())):]


def _active_set(prog: ConvexProgram, x: np.ndarray, work: list) -> Solution:
    """Primal active-set method from a feasible point x.

    work lists inequality rows tight at x and linearly independent of each
    other and of the equality rows. Each pass moves towards the minimizer on
    the face of the working rows B = [eq_A; ineq_G[work]], stopping at the
    first row that blocks the move (which joins the working set); at a face
    minimizer the row with the most negative multiplier leaves, and when
    none is negative the point is optimal. The returned Solution carries the
    final working set.

    A pass costs one solve of the bordered KKT system
        [[diag(P), B'], [B, 0]] [d; y] = [-(P x + c); 0],
    which gives the step d and, at x + d, the working-row multipliers y, so
    a full step is priced without a second solve. The system is singular
    exactly when the face has a flat direction: one supported on the
    coordinates with P == 0 (a and v in the scenario-cut QP) in the null
    space of B restricted to those columns, found from that small block
    alone. If the objective falls along a flat direction, the pass is a ray
    to the first blocking row instead (a flat ray costs one pass); if it is
    level, extra rows of B pin it, so the step leaves it alone. That null
    space N is kept across passes, since joining rows only shrink it: it is
    unchanged when the new row is zero on the flat columns, and empty when
    the row blocks a one-dimensional flat ray; any other join, and every
    row that leaves, has it recomputed on the next pass. A row that
    blocks has G_j d > 0 for d in the null space of B, so it is independent
    of the working rows and B keeps full row rank; a singular solve all the
    same ends in NumericalError, never Optimal.
    """
    P, c = prog.quad_diag, prog.lin
    G, h, A, b = prog.ineq_G, prog.ineq_h, prog.eq_A, prog.eq_b
    n, m, p = prog.n, h.size, b.size
    x = np.array(x, dtype=float)
    work = [int(i) for i in work]
    flat = np.flatnonzero(P == 0.0)
    P_block = np.diag(P)
    # a flat face whose objective falls by less than grad_tol counts as
    # level; a multiplier above -lam_tol is rounding, and clamping it to 0
    # moves the dual residual far less than the KKT gate allows
    grad_tol = 0.1 * IPM_TOL * (1.0 + np.max(np.abs(c), initial=0.0))
    lam_tol = 0.01 * grad_tol
    row_norm = np.linalg.norm(G, axis=1)
    max_iter = 50 + 5 * (n + m)
    N = None    # flat null space of the working rows; None when stale
    for it in range(1, max_iter + 1):
        B = np.vstack([A, G[work]])
        r = B.shape[0]
        g = P * x + c
        ray = False
        if flat.size:
            if N is None:
                N = _flat_null(B, flat)
            if N.shape[0]:
                fall = N.T @ (N @ g[flat])
                if np.abs(fall).max() > grad_tol:
                    d = np.zeros(n)
                    d[flat] = -fall / np.sqrt(fall @ fall)
                    ray = True
                else:
                    pins = np.zeros((N.shape[0], n))
                    pins[:, flat] = N
                    B = np.vstack([B, pins])
        if not ray:
            s = n + B.shape[0]
            K = np.zeros((s, s))
            K[:n, :n] = P_block
            K[:n, n:] = B.T
            K[n:, :n] = B
            try:
                sol = np.linalg.solve(K, np.concatenate([-g, np.zeros(s - n)]))
            except np.linalg.LinAlgError:
                return _stopped(NUMERICAL_ERROR, prog, x, work, it)
            if not np.isfinite(sol).all():
                return _stopped(NUMERICAL_ERROR, prog, x, work, it)
            d, y = sol[:n], sol[n:n + r]
        # on a face that is a single point (n rows in B) d is rounding
        # noise, and a row it seems to turn into cannot be independent
        if ray or (B.shape[0] < n
                   and np.abs(d).max() > 1e-13 * (1.0 + np.abs(x).max())):
            Gd = G @ d
            Gd[work] = 0.0
            moving = np.flatnonzero(
                Gd > _BLOCK_TOL * np.sqrt(d @ d) * row_norm)
            ratios = np.maximum(h[moving] - G[moving] @ x, 0.0) / Gd[moving]
            j = int(np.argmin(ratios)) if moving.size else -1
            if ray and j < 0:
                return Solution(UNBOUNDED, x, -np.inf, np.zeros(m),
                                np.zeros(p), np.array(work), it)
            blocked = j >= 0 and (ray or ratios[j] < 1.0)
            x = x + (ratios[j] if blocked else 1.0) * d
            if blocked:
                j = int(moving[j])
                work.append(j)
                # a joining row shrinks N: not at all when it is zero on
                # the flat columns, to nothing when it blocks a 1-D ray
                if N is not None and N.shape[0] and G[j, flat].any():
                    N = N[:0] if ray and N.shape[0] == 1 else None
                continue
        # x minimizes the objective on the working face; y prices the rows
        lam_w = y[p:]
        if lam_w.size and lam_w.min() < -lam_tol:
            work.pop(int(np.argmin(lam_w)))
            N = None
            continue
        lam = np.zeros(m)
        lam[work] = np.maximum(lam_w, 0.0)
        nu = y[:p]
        obj = float(0.5 * (x @ (P * x)) + c @ x)
        slack = h - G @ x
        prim_res = max(np.max(-slack, initial=0.0),
                       np.max(np.abs(A @ x - b), initial=0.0))
        dual_res = np.abs(P * x + c + G.T @ lam + A.T @ nu).max()
        comp = float(np.maximum(slack, 0.0) @ lam)
        status = (OPTIMAL if _kkt_converged(prim_res, dual_res, comp, obj,
                                            h, b, c) else NUMERICAL_ERROR)
        return Solution(status, x, obj, lam, nu, np.array(work), it)
    return _stopped(ITER_LIMIT, prog, x, work, max_iter)


def _stopped(status, prog, x, work, iters) -> Solution:
    """An active-set result without multipliers (iteration cap, breakdown)."""
    obj = float(0.5 * (x @ (prog.quad_diag * x)) + prog.lin @ x)
    return Solution(status, x, obj, np.zeros(prog.ineq_h.size),
                    np.zeros(prog.eq_b.size), np.array(work), iters)


def feasible(G, h, A_eq, b_eq) -> np.ndarray | None:
    """A point of {G x <= h, A_eq x = b_eq}, or None when that set is empty.
    All four arrays are required; a block without rows is an empty (0, n)
    matrix.

    Phase 1 of the active-set method (Nocedal and Wright 2006, sec. 16.5):
    the elastic QP over (x, t)
        min 0.5 t^2  s.t.  G x - t <= h,  A_eq x = b_eq,
    whose only curvature is on t, so x is the flat block of _active_set. It
    starts at x0, the minimum-norm solution of the equality rows, with t0 =
    max(G x0 - h), and with the row of that maximum, tight there, as its one
    working row; x0 itself is returned when t0 <= 0. One SVD of A_eq gives
    x0 and an orthonormal basis of its row space, which stands in for the
    equality rows, so redundant rows never reach the working set. None when
    x0 misses an equality row by more than FEAS_TOL (the rows are
    inconsistent) or when the QP's optimal t is above FEAS_TOL. A QP that
    stops short of its optimum raises FeasibilityError: it has decided
    nothing.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
    n = G.shape[1]
    h = np.asarray(h, dtype=float).ravel()
    b_eq = np.asarray(b_eq, dtype=float).ravel()
    rows, rhs, x0 = _empty_rows(n), np.zeros(0), np.zeros(n)
    if b_eq.size:
        U, sv, Vt = np.linalg.svd(A_eq, full_matrices=False)
        r = int(np.count_nonzero(sv > _RANK_TOL * np.abs(A_eq).max()))
        rows, rhs = Vt[:r], (U[:, :r].T @ b_eq) / sv[:r]
        x0 = rows.T @ rhs
        if np.abs(A_eq @ x0 - b_eq).max() > FEAS_TOL:
            return None
    excess = G @ x0 - h
    if np.max(excess, initial=0.0) <= 0.0:
        return x0
    elastic = ConvexProgram(
        quad_diag=np.append(np.zeros(n), 1.0), lin=np.zeros(n + 1),
        ineq_G=np.hstack([G, -np.ones((h.size, 1))]), ineq_h=h,
        eq_A=np.hstack([rows, np.zeros((rhs.size, 1))]), eq_b=rhs)
    worst = int(np.argmax(excess))
    sol = _active_set(elastic, np.append(x0, excess[worst]), [worst])
    if sol.status != OPTIMAL:
        raise FeasibilityError(f"phase 1 ended with status {sol.status}")
    return sol.x[:n] if sol.x[n] <= FEAS_TOL else None


def solve(prog) -> Solution:
    """Solve a ConvexProgram or ScenarioProgram.

    A ScenarioProgram goes to the interior-point method, a ConvexProgram to
    the active-set method; a ConvexProgram without curvature (all of
    quad_diag zero, a pure LP) is rejected with ValueError. Only a dense QP
    without a start point can end Infeasible: it runs the feasibility check
    (`feasible`) first and begins the active-set method at its point, and a
    check that does not finish (FeasibilityError) ends the solve as
    NumericalError, never as Infeasible. A dense QP's start point and a
    ScenarioProgram's core are the caller's promise of feasibility, which
    is not checked again: an infeasible core fails the interior-point
    method's primal residual test, so it ends as a failure, not Infeasible.
    """
    if isinstance(prog, ScenarioProgram):
        return _solve_scenario(prog)
    if not prog.quad_diag.any():
        raise ValueError("a ConvexProgram needs a positive quad_diag entry; "
                         "pure LPs have no engine")
    start = prog.start
    if start is None:
        try:
            start = feasible(prog.ineq_G, prog.ineq_h, prog.eq_A, prog.eq_b)
            failed = INFEASIBLE
        except FeasibilityError:
            failed = NUMERICAL_ERROR
        if start is None:
            return Solution(failed, np.zeros(prog.n), np.nan,
                            np.zeros(prog.ineq_h.size),
                            np.zeros(prog.eq_b.size))
    return _active_set(prog, start,
                       [] if prog.working is None else prog.working)


def _rescue_scenario(sp: ScenarioProgram, kk: _ArrowKKT, x: np.ndarray,
                     depth: int):
    """Re-solve a stalled ScenarioProgram on its settled scenario signs.

    At a stalled iterate the primal point is accurate but boundary crowding
    keeps the duals from converging. Scenario rows whose loss U t is clearly
    positive get q eliminated into the aggregate row, clearly negative rows
    lose their q variable with q = 0, and only the undecided band keeps
    explicit q variables. Both settled groups leave a guard row on the core
    variables (U t <= 0 for dropped rows, U t >= 0 for pinned ones):
    eliminating q is only valid on its side of the threshold, and without
    the guards the re-solve can wander along a flat ray into the region
    where the elimination is wrong. The reduced program shares the optimum
    whenever the signs are right; the caller's KKT verification rejects the
    result when they are not. Returns (x, ineq_duals, eq_duals) or None.
    """
    if not np.all(np.isfinite(x)):
        return None
    T, S = kk.T, kk.S
    c = kk.cagg
    loss = kk.U @ x[:T]
    wide = 1e-3
    pin = loss > wide
    cand = np.abs(loss) <= wide
    drop = ~pin & ~cand
    if not cand.any():
        return None
    core = sp.core
    guarded = ConvexProgram(
        quad_diag=core.quad_diag,
        lin=core.lin,
        ineq_G=np.vstack([core.ineq_G, kk.U[drop], -kk.U[pin]]),
        ineq_h=np.concatenate([core.ineq_h,
                               np.zeros(S - int(cand.sum()))]),
        eq_A=core.eq_A,
        eq_b=core.eq_b,
    )
    reduced = ScenarioProgram(
        core=guarded,
        loss_core=kk.U[cand],
        agg_core=kk.g0 + c[pin] @ kk.U[pin],
        agg_tail=c[cand],
    )
    sub = _solve_scenario(reduced, _depth=depth + 1)
    if sub.status != OPTIMAL:
        return None
    Sc = int(cand.sum())
    mc = core.ineq_h.size
    nd = int(drop.sum())
    t = sub.x[:T]
    q = np.zeros(S)
    q_pin = kk.U[pin] @ t
    if np.any(q_pin < -1e-6):
        return None
    q[pin] = np.maximum(q_pin, 0.0)
    q[cand] = sub.x[T:]
    a0 = float(sub.ineq_duals[2 * Sc])
    tail = sub.ineq_duals[2 * Sc + 1 + mc:]
    drop_duals = tail[:nd]
    pin_duals = tail[nd:]
    # q-stationarity fixes lam_loss + lam_pos = a0 c per scenario; guard
    # duals supply the split (drop guards play the loss role, pin guards
    # the q >= 0 role), and any clamping needed to keep both multipliers
    # nonnegative surfaces as dual residual for the caller's gate to judge
    lam_loss = np.zeros(S)
    lam_loss[cand] = sub.ineq_duals[:Sc]
    lam_loss[drop] = drop_duals
    lam_loss[pin] = np.maximum(a0 * c[pin] - pin_duals, 0.0)
    lam_pos = np.zeros(S)
    lam_pos[cand] = sub.ineq_duals[Sc:2 * Sc]
    lam_pos[drop] = np.maximum(a0 * c[drop] - drop_duals, 0.0)
    lam_pos[pin] = a0 * c[pin] - lam_loss[pin]
    lam = np.concatenate([lam_loss, lam_pos, [a0],
                          sub.ineq_duals[2 * Sc + 1:2 * Sc + 1 + mc]])
    return np.concatenate([t, q]), lam, sub.eq_duals


def _solve_scenario(sp: ScenarioProgram, _depth: int = 0) -> Solution:
    """IPM solve of a ScenarioProgram whose core the caller promises is
    feasible; no feasibility check runs. A stalled solve gets a rescue
    re-solve (_rescue_scenario), whose core rows are the caller's plus guard
    rows that hold at the stalled iterate by construction; _depth counts
    those re-solves, at most 3 deep. A KKT system that no shift level
    factors or solves finitely ends the solve as NumericalError before the
    iterate turns into NaN."""
    kk = _ArrowKKT(sp)
    try:
        sol = _ipm(kk)
    except _Breakdown:
        return Solution(NUMERICAL_ERROR, np.zeros(kk.T + kk.S), np.nan,
                        np.zeros(kk.m), np.zeros(kk.p))
    if sol.status != ITER_LIMIT or _depth >= 3:
        return sol
    rescued = _rescue_scenario(sp, kk, sol.x, _depth)
    if rescued is None:
        return sol
    x, lam, nu = rescued
    r_d = kk.mul_P(x) + kk.q + kk.mul_GT(lam) + kk.mul_AT(nu)
    s = kk.h - kk.mul_G(x)
    r_p = np.minimum(s, 0.0)
    r_e = kk.mul_A(x) - kk.b
    comp = float(np.maximum(s, 0.0) @ lam)
    obj = float(0.5 * (x @ kk.mul_P(x)) + kk.q @ x)
    prim_res = max(np.max(np.abs(r_p), initial=0.0),
                   np.max(np.abs(r_e), initial=0.0))
    if _kkt_converged(prim_res, np.max(np.abs(r_d), initial=0.0), comp, obj,
                      kk.h, kk.b, kk.q):
        return Solution(OPTIMAL, x, obj, lam, nu, iters=sol.iters)
    return sol
