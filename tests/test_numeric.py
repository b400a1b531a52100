import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardcvar import numeric
from cardcvar.numeric import (
    INFEASIBLE,
    ITER_LIMIT,
    NUMERICAL_ERROR,
    OPTIMAL,
    UNBOUNDED,
    ConvexProgram,
    FeasibilityError,
    ScenarioProgram,
    Solution,
    _kkt_converged,
    feasible,
    solve,
)


def make_prog(P, q, G=None, h=None, A=None, b=None):
    return ConvexProgram(quad_diag=P, lin=q, ineq_G=G, ineq_h=h, eq_A=A, eq_b=b)


def kkt_residuals(prog, sol):
    x, lam, nu = sol.x, sol.ineq_duals, sol.eq_duals
    r_d = prog.quad_diag * x + prog.lin
    if lam.size:
        r_d = r_d + prog.ineq_G.T @ lam
    if nu.size:
        r_d = r_d + prog.eq_A.T @ nu
    prim = 0.0
    if prog.ineq_h.size:
        prim = max(prim, float(np.max(prog.ineq_G @ x - prog.ineq_h)))
    if prog.eq_b.size:
        prim = max(prim, float(np.max(np.abs(prog.eq_A @ x - prog.eq_b))))
    comp = 0.0
    if lam.size:
        comp = abs(float(lam @ (prog.ineq_G @ x - prog.ineq_h)))
    return prim, float(np.max(np.abs(r_d))), comp


def lagrangian_dual_value(prog, sol):
    """g(lam, nu) for diagonal P; requires stationarity in flat coordinates."""
    d = prog.lin.copy()
    if sol.ineq_duals.size:
        d += prog.ineq_G.T @ sol.ineq_duals
    if sol.eq_duals.size:
        d += prog.eq_A.T @ sol.eq_duals
    P = prog.quad_diag
    val = 0.0
    for i in range(prog.n):
        if P[i] > 0:
            val -= d[i] ** 2 / (2 * P[i])
        else:
            assert abs(d[i]) < 1e-6
    if sol.ineq_duals.size:
        val -= sol.ineq_duals @ prog.ineq_h
    if sol.eq_duals.size:
        val -= sol.eq_duals @ prog.eq_b
    return val


def brute_force_qp(prog, tol=1e-9):
    """Active-set enumeration for strictly convex diagonal-P programs."""
    n = prog.n
    G, h = prog.ineq_G, prog.ineq_h
    best = np.inf
    bx = None
    for r in range(0, min(G.shape[0], n) + 1):
        for act in itertools.combinations(range(G.shape[0]), r):
            Aeq = np.vstack([prog.eq_A, G[list(act)]])
            beq = np.concatenate([prog.eq_b, h[list(act)]])
            K = np.zeros((n + Aeq.shape[0], n + Aeq.shape[0]))
            K[np.arange(n), np.arange(n)] = prog.quad_diag
            K[:n, n:] = Aeq.T
            K[n:, :n] = Aeq
            rhs = np.concatenate([-prog.lin, beq])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            if G.shape[0] and np.max(G @ x - h) > tol:
                continue
            if prog.eq_b.size and np.max(np.abs(prog.eq_A @ x - prog.eq_b)) > tol:
                continue
            val = 0.5 * x @ (prog.quad_diag * x) + prog.lin @ x
            if val < best - 1e-12:
                best = val
                bx = x
    return best, bx


def test_unconstrained_qp():
    sol = solve(make_prog(P=[1.0], q=[-1.0]))
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.obj == pytest.approx(-0.5)


def test_qp_single_bound():
    sol = solve(make_prog(P=[1.0], q=[0.0], G=[[-1.0]], h=[-0.5]))
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(0.5, abs=1e-7)
    assert sol.ineq_duals[0] == pytest.approx(0.5, abs=1e-7)


def test_feasible_examples():
    x = feasible(-np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]))
    assert x is not None
    assert x @ np.ones(2) == pytest.approx(1.0, abs=1e-9)

    x = feasible(np.array([[-1.0, 0.0], [0.0, -1.0]]), np.array([-2.0, 0.0]),
                 np.array([[1.0, 1.0]]), np.array([1.0]))
    assert x is None

    x = feasible(np.array([[-1.0], [1.0]]), np.array([0.0, 1.0]),
                 np.array([[1.0]]), np.array([0.3]))
    assert x is not None
    assert x[0] == pytest.approx(0.3, abs=1e-9)

    # the second equality row is twice the first: the SVD keeps one row of
    # the two, and the point meets both
    x = feasible(-np.eye(2), np.zeros(2), np.array([[1.0, 1.0], [2.0, 2.0]]),
                 np.array([1.0, 2.0]))
    assert x is not None
    assert np.all(x >= 0.0)
    assert x.sum() == pytest.approx(1.0, abs=1e-9)


def random_polytope(rng, kind):
    """{G x <= h, A x = b} around an anchor x0: feasible (kind 0), cut off
    by two opposing rows (1) or by an equality row repeated with a shifted
    right-hand side (2), or with h drawn at random about G x0 (3)."""
    n = int(rng.integers(1, 8))
    m = int(rng.integers(0, 10))
    p = int(rng.integers(1 if kind == 2 else 0, min(n, 3) + 1))
    G = rng.normal(size=(m, n))
    A = rng.normal(size=(p, n))
    x0 = rng.normal(size=n)
    h = G @ x0 + rng.uniform(0.0, 1.0, size=m)
    b = A @ x0
    if kind == 1:
        g = rng.normal(size=n)
        G = np.vstack([G, g, -g])
        h = np.concatenate([h, [g @ x0, -(g @ x0) - rng.uniform(0.01, 1.0)]])
    elif kind == 2:
        A = np.vstack([A, A[0]])
        b = np.append(b, b[0] + rng.uniform(0.01, 1.0))
    elif kind == 3:
        h = G @ x0 + rng.normal(0.0, 1.0, size=m)
    return G, h, A, b


def test_feasible_agrees_with_highs():
    """feasible() against HiGHS on random polytopes with equality rows:
    both reach the same verdict, and a feasible one comes with a point that
    meets every row to 1e-9."""
    from scipy.optimize import linprog

    rng = np.random.default_rng(61)
    verdicts = []
    for trial in range(240):
        G, h, A, b = random_polytope(rng, trial % 4)
        n = G.shape[1]
        x = feasible(G, h, A, b)
        ref = linprog(np.zeros(n), A_ub=G if h.size else None,
                      b_ub=h if h.size else None,
                      A_eq=A if b.size else None, b_eq=b if b.size else None,
                      bounds=(None, None), method="highs")
        assert ref.status in (0, 2)
        assert (x is not None) == (ref.status == 0)
        verdicts.append(x is not None)
        if x is not None:
            assert np.all(G @ x <= h + 1e-9)
            assert np.all(np.abs(A @ x - b) <= 1e-9)
    assert 60 <= sum(verdicts) <= 180


def duplicated_polytope(seed):
    """{G x <= h} stacked twice, with every row tight at one point x0: each
    row's copy enters a degenerate vertex together with it."""
    rng = np.random.default_rng(seed)
    n = rng.integers(18, 27)
    m = rng.integers(40, 80)
    G = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    h = G @ x0
    return np.vstack([G, G]), np.concatenate([h, h])


def test_feasible_on_duplicated_rows_agrees_with_highs():
    """Rows duplicated through one point, so every vertex is degenerate:
    feasible() reaches HiGHS's verdict (the set is never empty here) and
    its point meets every row to 1e-9."""
    from scipy.optimize import linprog

    wrong = []
    for seed in range(40):
        G, h = duplicated_polytope(seed)
        n = G.shape[1]
        x = feasible(G, h, np.zeros((0, n)), np.zeros(0))
        ref = linprog(np.zeros(n), A_ub=G, b_ub=h, bounds=(None, None),
                      method="highs")
        assert ref.status == 0
        if x is None or np.max(G @ x - h) > 1e-9:
            wrong.append(seed)
    assert wrong == []


def test_cold_qp_over_duplicated_rows_is_optimal():
    G, h = duplicated_polytope(24)
    n = G.shape[1]
    assert (n, G.shape[0] // 2) == (21, 53)
    prog = make_prog(P=np.ones(n), q=np.zeros(n), G=G, h=h)
    sol = solve(prog)
    assert sol.status == OPTIMAL
    assert max(kkt_residuals(prog, sol)) <= 1e-9


@pytest.mark.parametrize("status", [ITER_LIMIT, NUMERICAL_ERROR])
def test_unfinished_feasibility_check_is_not_infeasible(monkeypatch, status):
    """A feasibility QP that stops short decides nothing: feasible() raises,
    and the cold dense solve, the one solve path that runs it, ends
    NumericalError, not Infeasible. Here the row set holds a point, and the
    start x0 = 0 violates x1 >= 1."""
    monkeypatch.setattr(numeric, "_active_set",
                        lambda prog, x, work: numeric._stopped(
                            status, prog, x, work, 1))
    G = np.array([[-1.0, 0.0, 0.0]])
    with pytest.raises(FeasibilityError):
        feasible(G, [-1.0], np.zeros((0, 3)), np.zeros(0))
    sol = solve(make_prog(P=np.ones(3), q=np.zeros(3), G=G, h=[-1.0]))
    assert sol.status == NUMERICAL_ERROR


def test_qp_infeasible_without_start():
    # without a start point, the feasibility check decides infeasibility of
    # a dense QP
    sol = solve(make_prog(P=[1.0], q=[1.0], G=[[-1.0], [1.0]], h=[-2.0, 1.0]))
    assert sol.status == INFEASIBLE


def test_unbounded_flat_direction_qp():
    # quadratic in x1 only; x2 rides a feasible ray with negative cost
    sol = solve(make_prog(P=[1.0, 0.0], q=[0.0, -1.0], G=[[-1.0, 0.0]], h=[0.0]))
    assert sol.status == UNBOUNDED


def test_eq_only_qp():
    sol = solve(make_prog(P=[1.0, 1.0], q=[0.0, 0.0], A=[[1.0, 1.0]], b=[1.0]))
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [0.5, 0.5], atol=1e-9)
    assert sol.eq_duals[0] == pytest.approx(-0.5, abs=1e-9)


def test_qp_matches_active_set_oracle():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        prog = make_prog(P=rng.uniform(0.2, 2.0, n),
                         q=rng.normal(size=n),
                         G=rng.normal(size=(m, n)),
                         h=rng.uniform(0.5, 2.0, m))
        sol = solve(prog)
        assert sol.status == OPTIMAL
        ref, _ = brute_force_qp(prog)
        assert sol.obj == pytest.approx(ref, abs=1e-6)


def test_strong_duality_random():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 8))
        use_eq = rng.random() < 0.5 and n > 1
        x0 = rng.normal(size=n)  # anchor point keeps the program feasible
        G = np.vstack([rng.normal(size=(m, n)), -np.eye(n)])
        h = G @ x0 + rng.uniform(0.1, 1.0, m + n)
        A = rng.normal(size=(1, n)) if use_eq else None
        b = A @ x0 if use_eq else None
        prog = make_prog(P=rng.uniform(0.1, 3.0, n), q=rng.normal(size=n),
                         G=G, h=h, A=A, b=b)
        sol = solve(prog)
        assert sol.status == OPTIMAL
        dual = lagrangian_dual_value(prog, sol)
        assert abs(sol.obj - dual) <= 1e-7 * (1 + abs(sol.obj))


def test_kkt_invariants():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 8))
        prog = make_prog(P=rng.uniform(0.2, 2.0, n), q=rng.normal(size=n),
                         G=np.vstack([rng.normal(size=(m, n)), -np.eye(n)]),
                         h=np.concatenate([rng.uniform(0.5, 2.0, m),
                                           rng.uniform(0.0, 1.0, n)]),
                         A=np.ones((1, n)), b=[1.0])
        sol = solve(prog)
        if sol.status != OPTIMAL:
            continue
        prim, dual, comp = kkt_residuals(prog, sol)
        scale_h = 1 + np.linalg.norm(prog.ineq_h) + np.linalg.norm(prog.eq_b)
        assert prim <= 1e-8 * scale_h
        assert dual <= 1e-8 * (1 + np.linalg.norm(prog.lin))
        assert comp <= 1e-8 * (1 + abs(sol.obj))
        assert np.all(sol.ineq_duals >= -1e-10)


def test_monotone_under_extra_constraint():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        P = rng.uniform(0.3, 2.0, n)
        q = rng.normal(size=n)
        G = rng.normal(size=(m, n))
        h = rng.uniform(0.5, 2.0, m)
        base = solve(make_prog(P=P, q=q, G=G, h=h))
        tight = solve(make_prog(P=P, q=q,
                                G=np.vstack([G, rng.normal(size=(1, n))]),
                                h=np.concatenate([h, [rng.uniform(0.0, 0.5)]])))
        if base.status == OPTIMAL and tight.status == OPTIMAL:
            assert tight.obj >= base.obj - 1e-8


def scenario_to_dense(sp):
    """Materialize a ScenarioProgram as a plain ConvexProgram."""
    T = sp.core.n
    S = sp.n_scenarios
    n = T + S
    G_rows = []
    h = []
    for s in range(S):
        row = np.zeros(n)
        row[:T] = sp.loss_core[s]
        row[T + s] = -1.0
        G_rows.append(row)
        h.append(0.0)
    for s in range(S):
        row = np.zeros(n)
        row[T + s] = -1.0
        G_rows.append(row)
        h.append(0.0)
    agg = np.zeros(n)
    agg[:T] = sp.agg_core
    agg[T:] = sp.agg_tail
    G_rows.append(agg)
    h.append(0.0)
    for i in range(sp.core.ineq_h.size):
        row = np.zeros(n)
        row[:T] = sp.core.ineq_G[i]
        G_rows.append(row)
        h.append(sp.core.ineq_h[i])
    A = None
    b = None
    if sp.core.eq_b.size:
        A = np.zeros((sp.core.eq_b.size, n))
        A[:, :T] = sp.core.eq_A
        b = sp.core.eq_b
    return ConvexProgram(
        quad_diag=np.concatenate([sp.core.quad_diag, np.zeros(S)]),
        lin=np.concatenate([sp.core.lin, np.zeros(S)]),
        ineq_G=np.array(G_rows), ineq_h=np.array(h), eq_A=A, eq_b=b)


def random_scenario_program(rng, n_assets=3, S=12, beta=0.8, gamma=1.5):
    """CVaR-style lifting: core t = (a, v, x), tail q."""
    R = rng.normal(0.05, 0.2, size=(S, n_assets))
    p = np.full(S, 1.0 / S)
    T = n_assets + 2
    core = ConvexProgram(
        quad_diag=np.concatenate([[0.0, 0.0], np.full(n_assets, 1.0 / gamma)]),
        lin=np.concatenate([[1.0, 1.0], np.zeros(n_assets)]),
        ineq_G=np.hstack([np.zeros((n_assets, 2)), -np.eye(n_assets)]),
        ineq_h=np.zeros(n_assets),
        eq_A=np.concatenate([[0.0, 0.0], np.ones(n_assets)])[None, :],
        eq_b=np.array([1.0]),
    )
    loss_core = np.hstack([-np.ones((S, 1)), np.zeros((S, 1)), -R])
    agg_core = np.zeros(T)
    agg_core[1] = -1.0
    return ScenarioProgram(core=core, loss_core=loss_core, agg_core=agg_core,
                           agg_tail=p / (1 - beta))


def test_scenario_program_matches_dense():
    rng = np.random.default_rng(17)
    for _ in range(10):
        sp = random_scenario_program(rng, n_assets=int(rng.integers(2, 5)),
                                     S=int(rng.integers(4, 20)))
        s_struct = solve(sp)
        s_dense = solve(scenario_to_dense(sp))
        assert s_struct.status == OPTIMAL
        assert s_dense.status == OPTIMAL
        assert s_struct.obj == pytest.approx(s_dense.obj, abs=1e-6)
        T = sp.core.n
        # the quadratic block is unique; (a, v) may split degenerately, so
        # cross-check feasibility in the dense program instead
        np.testing.assert_allclose(s_struct.x[2:T], s_dense.x[2:T], atol=1e-5)
        dense = scenario_to_dense(sp)
        assert np.max(dense.ineq_G @ s_struct.x - dense.ineq_h) <= 1e-7
        if dense.eq_b is not None:
            np.testing.assert_allclose(dense.eq_A @ s_struct.x, dense.eq_b,
                                       atol=1e-8)


def test_scenario_program_duals_match_dense():
    rng = np.random.default_rng(19)
    sp = random_scenario_program(rng, n_assets=3, S=8)
    s_struct = solve(sp)
    s_dense = solve(scenario_to_dense(sp))
    # row order is identical by construction in scenario_to_dense
    np.testing.assert_allclose(
        s_struct.ineq_duals, s_dense.ineq_duals, atol=2e-6)
    np.testing.assert_allclose(s_struct.eq_duals, s_dense.eq_duals, atol=2e-6)


def test_scenario_program_infeasible_core():
    """A ScenarioProgram's core is the caller's promise of feasibility, so
    no phase 1 runs; a core that breaks the promise still never comes back
    Optimal, nor Infeasible, which only a check could decide."""
    rng = np.random.default_rng(23)
    sp = random_scenario_program(rng)
    # impossible required-return row on the core x block
    sp.core.ineq_G = np.vstack([sp.core.ineq_G,
                                np.concatenate([[0.0, 0.0], np.full(3, -1.0)])])
    sp.core.ineq_h = np.concatenate([sp.core.ineq_h, [-5.0]])
    sol = solve(sp)
    assert sol.status not in (OPTIMAL, INFEASIBLE)


def flat_ray_program():
    """Reduced scenario-cut QP over (a, v, x1, x2) at S=10, beta=0.9 with
    two cuts: all scenarios, and the single worst one. The second cut has
    p_J = 1 - beta, so on its face a + v is level along (a, v) = (-1, 1)."""
    R = np.array([[0.05, 0.02], [-0.08, 0.01], [0.03, -0.04], [0.01, 0.06],
                  [-0.02, -0.03], [0.07, 0.00], [0.00, 0.04], [-0.05, 0.05],
                  [0.04, -0.01], [0.02, 0.03]])
    p = np.full(10, 0.1)
    one_m_beta = 1.0 - 0.9
    worst = int(np.argmin(R @ np.array([0.5, 0.5])))
    cuts = [(1.0, p @ R), (p[worst], p[worst] * R[worst])]
    G = [np.concatenate([[-pJ / one_m_beta, -1.0], -rho / one_m_beta])
         for pJ, rho in cuts]
    G += [[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0]]
    return make_prog(P=[0.0, 0.0, 1.0, 1.0], q=[1.0, 1.0, 0.0, 0.0],
                     G=np.array(G), h=np.zeros(5), A=[[0.0, 0.0, 1.0, 1.0]],
                     b=[1.0])


def test_flat_ray_reaches_optimal_in_few_iterations():
    prog = flat_ray_program()
    cold = solve(prog)
    # warm start as the cutting-plane loop hands it over: v raised onto the
    # new (flat) cut, which is the only working row
    x = np.array([0.0, 0.0, 0.5, 0.5])
    x[1] = prog.ineq_G[1, [0, 2, 3]] @ x[[0, 2, 3]]
    prog.start, prog.working = x, np.array([1])
    warm = solve(prog)
    for sol in (cold, warm):
        assert sol.status == OPTIMAL
        assert sol.iters <= 6
        prim, dual, comp = kkt_residuals(prog, sol)
        assert max(prim, dual, comp) <= 1e-9
        assert sol.obj == pytest.approx(lagrangian_dual_value(prog, sol),
                                        abs=1e-10)
    assert warm.obj == pytest.approx(cold.obj, abs=1e-12)
    np.testing.assert_allclose(warm.x[2:], cold.x[2:], atol=1e-9)


def test_active_set_returns_its_working_set():
    # x0 >= 0.5 binds; the working set names that row and its multiplier
    prog = make_prog(P=[1.0, 1.0], q=[0.0, -1.0], G=[[-1.0, 0.0], [0.0, 1.0]],
                     h=[-0.5, 2.0])
    sol = solve(prog)
    assert sol.status == OPTIMAL
    assert sol.working.tolist() == [0]
    np.testing.assert_allclose(sol.x, [0.5, 1.0], atol=1e-12)
    assert sol.ineq_duals == pytest.approx([0.5, 0.0], abs=1e-12)


def test_infeasible_start_is_not_reported_optimal():
    # the start violates x <= -1 and the objective never moves towards it:
    # the KKT gate must catch the violation
    prog = make_prog(P=[1.0], q=[0.0], G=[[1.0]], h=[-1.0])
    prog.start = np.array([0.0])
    sol = solve(prog)
    assert sol.status == NUMERICAL_ERROR


def test_point_face_at_a_degenerate_vertex():
    # x0 is level and pinned; at the phase-1 vertex four rows are tight (one
    # twice another), so after the budget row and one blocking row the face
    # is a single point. The step solved there is rounding noise; a row it
    # seems to turn into is dependent and must not join, or the method cycles.
    G = np.array([[0.0, 1.2772973982659264, 0.32179609385001606],
                  [0.0, -1.0296447088465561, -0.630510574835709],
                  [0.0, -0.737136403324803, -0.3947090745501312],
                  [0.0, -1.6170843665089203, -0.7370540398698225],
                  [0.0, -0.2200252696796866, 0.9394756510155914],
                  [0.0, -2.0592894176931122, -1.261021149671418],
                  [0.0, -0.7819920194271859, -0.939225055821402]])
    h = np.array([-0.06319700675807038, 0.770862142950974, 0.9299562878069827,
                  1.0993399413888831, -0.30758917729151697, 1.541724285901948,
                  1.4785272791438775])
    prog = make_prog(P=[0.0, 2.291276389666784, 2.565310028665969],
                     q=[0.0, -1.0881083108057028, -0.37927685005694023],
                     G=G, h=h,
                     A=[[0.0, -0.06126932502544388, 0.2586878702316414]],
                     b=[-0.08436752807028185])
    x0 = np.array([0.949975835259374, -0.4794230629502961,
                   -0.4396860797416898])
    cold = solve(prog)
    warm = solve(dataclasses.replace(prog, start=x0, working=[3]))
    for sol in (cold, warm):
        assert sol.status == OPTIMAL
        assert max(kkt_residuals(prog, sol)) <= 1e-9
        assert sol.obj == pytest.approx(lagrangian_dual_value(prog, sol),
                                        abs=1e-9)
    assert warm.obj == pytest.approx(cold.obj, abs=1e-12)


def test_program_validation():
    with pytest.raises(ValueError):
        make_prog(P=[-1.0], q=[0.0])
    # a pure LP has no engine
    with pytest.raises(ValueError):
        solve(make_prog(P=[0.0, 0.0], q=[1.0, 0.0], G=-np.eye(2), h=np.zeros(2)))
    with pytest.raises(ValueError):
        ConvexProgram(quad_diag=[1.0], lin=[0.0], ineq_G=[[1.0]], ineq_h=[],
                      eq_A=None, eq_b=None)
    with pytest.raises(ValueError):
        ConvexProgram(quad_diag=[1.0], lin=[0.0], ineq_G=[[1.0]],
                      ineq_h=[1.0], eq_A=None, eq_b=None, start=[0.0, 1.0])
    with pytest.raises(ValueError):
        ConvexProgram(quad_diag=[1.0], lin=[0.0], ineq_G=[[1.0]],
                      ineq_h=[1.0], eq_A=None, eq_b=None, working=[1])


@st.composite
def diagonal_qps(draw):
    """Feasible diagonal-Hessian QPs around an anchor point x0, with zero-
    curvature coordinates, equality rows, duplicate and linearly dependent
    inequality rows and, optionally, a level flat direction u: every row and
    the cost are orthogonal to u on the flat coordinates, so the objective
    neither rises nor falls along u on any face."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    n_flat = draw(st.integers(0, n - 1))
    p = draw(st.integers(0, min(2, n - 1)))
    m = draw(st.integers(0, 6))
    flat = np.arange(n_flat)
    P = np.concatenate([np.zeros(n_flat), rng.uniform(0.2, 3.0, n - n_flat)])
    c = rng.normal(size=n)
    G = rng.normal(size=(m, n))
    A = rng.normal(size=(p, n))
    if n_flat and draw(st.booleans()):
        # box the flat coordinates, so most of these programs are bounded
        G = np.vstack([G, np.eye(n)[flat], -np.eye(n)[flat]])
    if n_flat and draw(st.booleans()):
        u = np.zeros(n)
        u[flat] = rng.normal(size=n_flat)
        u /= np.linalg.norm(u)
        G -= np.outer(G @ u, u)
        A -= np.outer(A @ u, u)
        c -= (c @ u) * u
    x0 = rng.normal(size=n)
    tight = rng.random(G.shape[0]) < 0.5
    h = G @ x0 + np.where(tight, 0.0, rng.uniform(0.1, 1.0, G.shape[0]))
    for _ in range(draw(st.integers(0, 3))):
        if not h.size:
            break
        i, j = rng.integers(h.size, size=2)
        kind = draw(st.sampled_from(["duplicate", "scaled", "sum"]))
        if kind == "duplicate":
            row, rhs = G[i], h[i]
        elif kind == "scaled":
            row, rhs = 2.0 * G[i], 2.0 * h[i]
        else:
            row, rhs = G[i] + G[j], h[i] + h[j]
        G, h = np.vstack([G, row]), np.append(h, rhs)
    prog = ConvexProgram(quad_diag=P, lin=c, ineq_G=G, ineq_h=h, eq_A=A,
                         eq_b=A @ x0)
    # warm start: an independent set of the rows tight at x0, in random order
    working = []
    for i in rng.permutation(h.size):
        if abs(G[i] @ x0 - h[i]) > 1e-12 * (1.0 + abs(h[i])):
            continue
        rows = np.vstack([A, G[working + [i]]])
        if np.linalg.matrix_rank(rows) == rows.shape[0]:
            working.append(int(i))
    return prog, x0, working


def has_falling_flat_ray(prog):
    """Independent check (HiGHS) for a direction u on the zero-curvature
    coordinates with G u <= 0, A u = 0 and c @ u < 0."""
    from scipy.optimize import linprog

    flat = prog.quad_diag == 0.0
    if not flat.any():
        return False
    m, p = prog.ineq_h.size, prog.eq_b.size
    res = linprog(prog.lin[flat],
                  A_ub=prog.ineq_G[:, flat] if m else None,
                  b_ub=np.zeros(m) if m else None,
                  A_eq=prog.eq_A[:, flat] if p else None,
                  b_eq=np.zeros(p) if p else None,
                  bounds=(-1.0, 1.0), method="highs")
    return res.status == 0 and res.fun < -1e-9


# drawn by an unseeded run of diagonal_qps: the optimum is about -2.2e5, and
# the complementarity residual there (about 4e-8) is within the kernel's gate
# of 1e-8 * (1 + |obj|) but not within an absolute 1e-9
LARGE_OBJECTIVE_QP = (
    ConvexProgram(
        quad_diag=np.array([0.0, 0.0, 0.9054419905259903,
                            0.8133842296031986]),
        lin=np.array([0.5014289928370963, -0.6669252679186933,
                      -1.165040684753369, 0.7027991152627022]),
        ineq_G=np.array([[-0.3999360479976158, 0.20996883063305435,
                          0.19312968618279333, 0.501181680310788]]),
        ineq_h=np.array([0.463942897880795]),
        eq_A=np.array([[-1.6837284712449458, 0.8810437124638393,
                        -0.5741053388478381, -2.010512181486362]]),
        eq_b=np.array([2.354081545509976])),
    np.array([-0.48438766792164006, 1.471295725095281, 0.43336624098195525,
              -0.24422943928715307]),
    [0])


@example(LARGE_OBJECTIVE_QP)
@settings(derandomize=True, deadline=None, max_examples=300)
@given(diagonal_qps())
def test_active_set_cold_and_warm_on_degenerate_qps(case):
    prog, x0, working = case
    cold = solve(prog)
    warm = solve(dataclasses.replace(prog, start=x0, working=working))
    if has_falling_flat_ray(prog):
        assert cold.status == warm.status == UNBOUNDED
        return
    for sol in (cold, warm):
        assert sol.status == OPTIMAL
        # the kernel's contract is its acceptance gate, scaled by the data
        assert _kkt_converged(*kkt_residuals(prog, sol), sol.obj,
                              prog.ineq_h, prog.eq_b, prog.lin)
        assert sol.obj == pytest.approx(lagrangian_dual_value(prog, sol),
                                        abs=1e-9 * (1.0 + abs(sol.obj)))
    assert warm.obj == pytest.approx(cold.obj,
                                     abs=1e-9 * (1.0 + abs(cold.obj)))
    # each returned working set holds its optimum: resumed there, the method
    # stops in one pass (the flat space is computed afresh for that set)
    for sol in (cold, warm):
        again = solve(dataclasses.replace(prog, start=sol.x,
                                          working=sol.working))
        assert again.status == OPTIMAL
        assert again.iters == 1
        assert again.obj == pytest.approx(sol.obj,
                                          abs=1e-12 * (1.0 + abs(sol.obj)))
