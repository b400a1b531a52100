"""Tests for the fixed-selection lower-level solvers."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardcvar import driver, lower, numeric
from cardcvar.model import (
    Instance,
    SelectionVector,
    build_feasible_set,
    cvar,
    objective,
)


def two_asset_instance():
    """Single scenario r = (0.1, 0.2), beta = 0.5, gamma = 1."""
    return Instance(n_assets=2, scenarios=[[0.1, 0.2]], probs=[1.0],
                    side_A=np.zeros((0, 2)), side_b=[], beta=0.5, gamma=1.0,
                    k=2)


def random_instance(rng, n, s, beta=0.9, with_return_row=False):
    scen = rng.normal(0.01, 0.05, size=(s, n))
    inst = Instance(n_assets=n, scenarios=scen, probs=np.full(s, 1.0 / s),
                    side_A=np.zeros((0, n)), side_b=[], beta=beta,
                    gamma=10.0 / np.sqrt(n), k=n)
    if with_return_row:
        A, b = build_feasible_set(inst, float(inst.expected_returns.min()))
        inst = Instance(n_assets=n, scenarios=scen, probs=inst.probs,
                        side_A=A, side_b=b, beta=beta, gamma=inst.gamma, k=n)
    return inst


def random_selection(rng, n):
    count = int(rng.integers(1, n + 1))
    support = rng.choice(n, size=count, replace=False)
    bits = np.zeros(n, dtype=int)
    bits[support] = 1
    return SelectionVector(bits)


def test_two_asset_example_converges_in_one_iteration():
    inst = two_asset_instance()
    res = lower.solve_lower_cp(SelectionVector([1, 1]), inst, delta=1e-6)
    assert res.iters == 1
    assert res.f_lo == pytest.approx(0.0975, abs=1e-7)
    assert res.f_hi == pytest.approx(0.0975, abs=1e-7)
    assert res.portfolio.weights == pytest.approx([0.45, 0.55], abs=1e-6)
    assert res.portfolio.var_level == pytest.approx(-0.155, abs=1e-6)
    assert res.portfolio.cvar_excess == pytest.approx(0.0, abs=1e-9)
    assert np.array_equal(res.subsets[0], np.arange(1))


def test_two_asset_example_certificate_values():
    inst = two_asset_instance()
    res = lower.solve_lower_cp(SelectionVector([1, 1]), inst, delta=1e-6)
    cert = res.certificate
    assert cert.alpha[0] == pytest.approx(0.5, abs=1e-6)
    assert cert.lam == pytest.approx(0.35, abs=1e-6)
    assert cert.omega == pytest.approx([0.45, 0.55], abs=1e-6)
    value = lower.certificate_objective(cert, SelectionVector([1, 1]), inst)
    assert value == pytest.approx(0.0975, abs=1e-7)


def test_two_asset_example_zero_delta():
    inst = two_asset_instance()
    res = lower.solve_lower_cp(SelectionVector([1, 1]), inst, delta=0.0)
    assert res.f_hi - res.f_lo <= 1e-9
    assert res.f_lo == pytest.approx(0.0975, abs=1e-7)


def test_single_selected_asset_values():
    inst = two_asset_instance()
    res = lower.solve_lower_cp(SelectionVector([0, 1]), inst, delta=1e-8)
    assert res.f_lo == pytest.approx(0.3, abs=1e-7)
    assert res.portfolio.weights == pytest.approx([0.0, 1.0], abs=1e-8)
    res = lower.solve_lower_cp(SelectionVector([1, 0]), inst, delta=1e-8)
    assert res.f_lo == pytest.approx(0.4, abs=1e-7)


def test_one_asset_two_scenarios():
    inst = Instance(n_assets=1, scenarios=[[0.1], [-0.2]], probs=[0.5, 0.5],
                    side_A=np.zeros((0, 1)), side_b=[], beta=0.5, gamma=1.0,
                    k=1)
    res = lower.solve_lower_cp(SelectionVector([1]), inst, delta=1e-8)
    assert res.f_lo <= 0.7 + 1e-9
    assert res.f_hi >= 0.7 - 1e-9
    assert res.f_hi - res.f_lo <= 1e-8 + 1e-9
    exact = lower.solve_lower_lifted(SelectionVector([1]), inst)
    assert exact.f_lo == exact.f_hi == pytest.approx(0.7, abs=1e-7)
    assert exact.portfolio.weights == pytest.approx([1.0], abs=1e-8)


def test_empty_selection_is_infeasible():
    inst = two_asset_instance()
    assert lower.solve_lower_cp(SelectionVector([0, 0]), inst, 1e-5) is None
    assert lower.solve_lower_lifted(SelectionVector([0, 0]), inst) is None


def test_unreachable_return_row_is_infeasible():
    inst = two_asset_instance()
    A, b = build_feasible_set(inst, 0.5)
    tight = Instance(n_assets=2, scenarios=inst.scenarios, probs=inst.probs,
                     side_A=A, side_b=b, beta=0.5, gamma=1.0, k=2)
    assert lower.solve_lower_cp(SelectionVector([1, 1]), tight, 1e-5) is None
    assert lower.solve_lower_lifted(SelectionVector([1, 1]), tight) is None


def test_return_row_restricts_only_low_return_selections():
    inst = two_asset_instance()
    A, b = build_feasible_set(inst, 0.15)
    mid = Instance(n_assets=2, scenarios=inst.scenarios, probs=inst.probs,
                   side_A=A, side_b=b, beta=0.5, gamma=1.0, k=2)
    assert lower.solve_lower_cp(SelectionVector([1, 0]), mid, 1e-5) is None
    res = lower.solve_lower_cp(SelectionVector([1, 1]), mid, 1e-8)
    assert res is not None
    assert inst.expected_returns @ res.portfolio.weights >= 0.15 - 1e-8


def capped_instance(cap):
    """Three assets and the side rows x_j <= cap; below cap = 1 they exclude
    every single-asset vertex, and below cap = 1/3 every portfolio."""
    rng = np.random.default_rng(3)
    scen = rng.normal(0.01, 0.05, size=(40, 3))
    return Instance(n_assets=3, scenarios=scen, probs=np.full(40, 1.0 / 40),
                    side_A=np.eye(3), side_b=np.full(3, cap), beta=0.9,
                    gamma=1.0, k=3)


def count_feasible_calls(monkeypatch):
    calls = []
    real = numeric.feasible

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(numeric, "feasible", spy)
    return calls


def test_vertex_start_skips_phase1(monkeypatch):
    # the return floor admits the best asset's vertex: numeric.feasible
    # never runs
    rng = np.random.default_rng(8)
    inst = random_instance(rng, 5, 60, with_return_row=True)
    calls = count_feasible_calls(monkeypatch)
    z = SelectionVector([1, 1, 1, 1, 1])
    res = lower.solve_lower_cp(z, inst, 1e-7)
    assert calls == []
    f = lower.solve_lower_lifted(z, inst).f_lo
    assert res.f_lo <= f + 1e-9
    assert f <= res.f_hi + 1e-9


@pytest.mark.parametrize("bits", [[1, 1, 1], [1, 1, 0], [0, 1, 1]])
def test_side_rows_excluding_every_vertex_fall_back_to_phase1(monkeypatch,
                                                              bits):
    inst = capped_instance(0.6)
    calls = count_feasible_calls(monkeypatch)
    z = SelectionVector(bits)
    delta = 1e-7
    res = lower.solve_lower_cp(z, inst, delta)
    assert len(calls) == 1
    exact = lower.solve_lower_lifted(z, inst)
    f = exact.f_lo
    assert res.f_lo <= f + 1e-9
    assert f <= res.f_hi + 1e-9
    assert res.f_hi <= res.f_lo + delta + 1e-9
    assert np.all(res.portfolio.weights <= 0.6 + 1e-9)
    res.portfolio.validate()


@pytest.mark.parametrize("cap, bits", [(0.3, [1, 1, 1]), (0.6, [0, 1, 0])])
def test_side_rows_excluding_every_portfolio_give_none(monkeypatch, cap,
                                                       bits):
    inst = capped_instance(cap)
    calls = count_feasible_calls(monkeypatch)
    z = SelectionVector(bits)
    assert lower.solve_lower_cp(z, inst, 1e-5) is None
    assert len(calls) == 1
    assert lower.solve_lower_lifted(z, inst) is None


def test_one_side_row_is_decided_without_phase1(monkeypatch):
    """Under one side row a support admits a portfolio exactly when one of
    its unit vertices meets the row, so _support_feasible never runs phase
    1 there. On random instances with a return floor or one dense row, its
    verdict equals phase 1's on the support polytope, and it makes no
    numeric.feasible call."""
    real = numeric.feasible
    calls = count_feasible_calls(monkeypatch)
    rng = np.random.default_rng(31)
    verdicts = []
    for trial in range(40):
        n = int(rng.integers(2, 9))
        inst = random_instance(rng, n, 20)
        if trial % 2:
            mu = inst.expected_returns
            A, b = build_feasible_set(inst, float(rng.uniform(
                mu.min(), mu.max() + 0.2 * (mu.max() - mu.min()))))
        else:
            A, b = rng.normal(size=(1, n)), rng.uniform(-1.0, 1.0, 1)
        inst = dataclasses.replace(inst, side_A=A, side_b=b)
        for _ in range(8):
            support = np.flatnonzero(random_selection(rng, n).bits)
            K = support.size
            phase1 = real(np.vstack([inst.side_A[:, support], -np.eye(K)]),
                          np.concatenate([inst.side_b, np.zeros(K)]),
                          np.ones((1, K)), np.ones(1)) is not None
            verdict = lower._support_feasible(inst, support) is not None
            assert verdict == phase1
            verdicts.append(verdict)
    assert calls == []
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("status", [numeric.ITER_LIMIT,
                                    numeric.NUMERICAL_ERROR])
def test_unfinished_feasibility_check_raises_solver_error(monkeypatch,
                                                          status):
    """Caps 0.6, 0.6 and 0.1 exclude every vertex and the equal-weight
    start, but not every portfolio. When the feasibility QP stops short,
    both lower solves raise SolverError instead of reading the selection as
    infeasible: both ask _support_feasible first, whose phase 1 is the one
    that stops."""
    inst = dataclasses.replace(capped_instance(0.6), side_b=[0.6, 0.6, 0.1])
    z = SelectionVector([1, 1, 1])
    assert lower.solve_lower_cp(z, inst, 1e-5) is not None
    assert lower.solve_lower_lifted(z, inst) is not None
    monkeypatch.setattr(numeric, "_active_set",
                        lambda prog, x, work: numeric._stopped(
                            status, prog, x, work, 1))
    with pytest.raises(lower.SolverError, match="phase 1 ended"):
        lower.solve_lower_cp(z, inst, 1e-5)
    with pytest.raises(lower.SolverError, match="phase 1 ended"):
        lower.solve_lower_lifted(z, inst)


@pytest.mark.parametrize("cap, bits", [(0.3, [1, 1, 1]), (0.6, [0, 1, 0])])
def test_lifted_solve_never_sees_an_infeasible_core(monkeypatch, cap, bits):
    """_support_feasible decides an infeasible selection before the lifted
    program is built, so numeric.solve gets no ScenarioProgram: its
    interior-point method runs no phase 1 and trusts its core."""
    inst = capped_instance(cap)
    programs = []
    real = numeric.solve

    def spy(prog):
        programs.append(prog)
        return real(prog)

    monkeypatch.setattr(numeric, "solve", spy)
    assert lower.solve_lower_lifted(SelectionVector(bits), inst) is None
    assert programs == []
    assert lower.solve_lower_lifted(SelectionVector([1, 1, 1]),
                                    capped_instance(0.6)) is not None
    assert len(programs) == 1
    assert isinstance(programs[0], numeric.ScenarioProgram)


def test_theta_lb_does_not_copy_the_scenario_matrix():
    # the all-ones lower solve reads the asset-major scenario block in
    # place: a copy alone would take S * n * 8 bytes
    rng = np.random.default_rng(11)
    n, s = 20, 5000
    inst = random_instance(rng, n, s, with_return_row=True)
    # first-use allocations: the expected returns and the instance's block
    driver.theta_lb(inst)
    tracemalloc.start()
    try:
        driver.theta_lb(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < s * n * 8


def test_scenario_block_is_kept_for_the_last_instance_only():
    """The block is the scenario matrix asset-major, whatever the matrix's
    layout; it is rebuilt for another instance, and freed with the instance
    it belongs to."""
    rng = np.random.default_rng(12)
    a = random_instance(rng, 4, 700)
    b = dataclasses.replace(a, scenarios=np.asfortranarray(a.scenarios))
    block_a, reach, q = lower._scenario_block(a)
    assert block_a.flags.c_contiguous
    assert np.array_equal(block_a, a.scenarios.T)
    assert (reach, q) == lower._quantile_window(a.probs, a.beta)
    assert lower._scenario_block(a)[0] is block_a
    block_b = lower._scenario_block(b)[0]
    assert block_b is not block_a and np.array_equal(block_b, block_a)
    del a, b, block_a, block_b
    gc.collect()
    assert lower._block_entry is None


def test_solver_failure_is_not_reported_as_infeasible():
    inst = two_asset_instance()
    orig = numeric.solve

    def failing(prog):
        return numeric.Solution(status=numeric.ITER_LIMIT, x=None, obj=np.nan,
                                ineq_duals=None, eq_duals=None)

    numeric.solve = failing
    try:
        with pytest.raises(lower.SolverError):
            lower.solve_lower_cp(SelectionVector([1, 1]), inst, 1e-5)
    finally:
        numeric.solve = orig


def test_sandwich_bounds_against_exact_solve():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(2, 9))
        s = int(rng.integers(5, 61))
        inst = random_instance(rng, n, s, beta=(0.9 if trial % 2 else 0.5),
                               with_return_row=bool(trial % 3 == 0))
        z = random_selection(rng, n)
        delta = 1e-3 if trial % 2 else 1e-5
        res = lower.solve_lower_cp(z, inst, delta)
        exact = lower.solve_lower_lifted(z, inst)
        assert (res is None) == (exact is None)
        if res is None:
            continue
        f = exact.f_lo
        assert res.f_lo <= f + 1e-9
        assert f <= res.f_hi + 1e-9
        assert res.f_hi <= res.f_lo + delta + 1e-9
        assert res.f_hi == pytest.approx(objective(res.portfolio, inst),
                                         abs=1e-12)
        res.portfolio.validate()


def test_certificate_invariants_on_random_instances():
    rng = np.random.default_rng(11)
    for trial in range(25):
        n = int(rng.integers(2, 9))
        s = int(rng.integers(5, 61))
        inst = random_instance(rng, n, s, with_return_row=bool(trial % 2))
        z = random_selection(rng, n)
        res = lower.solve_lower_cp(z, inst, 1e-5)
        if res is None:
            continue
        cert = res.certificate
        assert len(cert.alpha) == len(res.subsets)
        assert np.all(cert.alpha >= 0.0)
        assert cert.alpha.sum() <= 1.0 + 1e-9
        weighted = sum(a * inst.probs[J].sum()
                       for a, J in zip(cert.alpha, res.subsets))
        assert weighted == pytest.approx(1.0 - inst.beta, abs=1e-8)
        assert np.all(cert.zeta >= 0.0)
        assert np.all(cert.omega >= 0.0)
        value = lower.certificate_objective(cert, z, inst)
        assert value == pytest.approx(res.f_lo, abs=1e-6 * (1 + abs(res.f_lo)))


def test_certificate_omega_matches_scaled_weights_on_support():
    rng = np.random.default_rng(13)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        inst = random_instance(rng, n, int(rng.integers(5, 40)))
        z = random_selection(rng, n)
        res = lower.solve_lower_cp(z, inst, 1e-6)
        x = res.portfolio.weights
        held = (x > 1e-6) & (z.bits == 1)
        assert res.certificate.omega[held] == pytest.approx(
            x[held] / inst.gamma, abs=1e-5)


def test_subgradient_cut_is_globally_valid():
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = int(rng.integers(2, 8))
        inst = random_instance(rng, n, int(rng.integers(5, 50)))
        z_hat = random_selection(rng, n)
        z = random_selection(rng, n)
        res = lower.solve_lower_cp(z_hat, inst, 1e-4)
        exact = lower.solve_lower_lifted(z, inst)
        g = lower.subgradient(res.certificate, inst.gamma)
        assert np.all(g <= 1e-12)
        lhs = exact.f_lo
        rhs = res.f_lo + g @ (z.bits - z_hat.bits)
        assert lhs >= rhs - 1e-7


def test_lifted_duals_satisfy_dual_feasibility():
    rng = np.random.default_rng(19)
    for trial in range(15):
        n = int(rng.integers(2, 8))
        s = int(rng.integers(5, 80))
        inst = random_instance(rng, n, s, with_return_row=bool(trial % 2))
        z = random_selection(rng, n)
        res = lower.solve_lower_lifted(z, inst)
        f, cert = res.f_lo, res.certificate
        assert res.f_hi == f and res.subsets is None
        cap = inst.probs / (1.0 - inst.beta)
        assert np.all(cert.alpha >= -1e-9)
        assert np.all(cert.alpha <= cap + 1e-8)
        assert cert.alpha.sum() == pytest.approx(1.0, abs=1e-7)
        assert np.all(cert.zeta >= 0.0)
        dual_obj = (-(inst.gamma / 2.0)
                    * float(z.bits @ (cert.omega ** 2))
                    - float(inst.side_b @ cert.zeta) + cert.lam)
        assert dual_obj == pytest.approx(f, abs=1e-7 * (1 + abs(f)))


def test_binding_side_row_reflected_in_certificate():
    rng = np.random.default_rng(23)
    inst = random_instance(rng, 5, 30)
    mu = inst.expected_returns
    mu_bar = float(0.95 * mu.max() + 0.05 * mu.mean())
    A, b = build_feasible_set(inst, mu_bar)
    tight = Instance(n_assets=5, scenarios=inst.scenarios, probs=inst.probs,
                     side_A=A, side_b=b, beta=inst.beta, gamma=inst.gamma,
                     k=5)
    z = SelectionVector(np.ones(5, dtype=int))
    res = lower.solve_lower_cp(z, tight, 1e-7)
    assert mu @ res.portfolio.weights >= mu_bar - 1e-7
    assert res.certificate.zeta[0] > 1e-8
    value = lower.certificate_objective(res.certificate, z, tight)
    assert value == pytest.approx(res.f_lo, abs=1e-6 * (1 + abs(res.f_lo)))


def test_iteration_budget_and_subset_bookkeeping():
    rng = np.random.default_rng(29)
    for trial in range(10):
        n = int(rng.integers(2, 10))
        s = int(rng.integers(10, 200))
        inst = random_instance(rng, n, s)
        z = random_selection(rng, n)
        res = lower.solve_lower_cp(z, inst, 1e-5)
        assert 1 <= res.iters <= 60
        assert np.array_equal(res.subsets[0], np.arange(inst.n_scenarios))
        seen = {J.tobytes() for J in res.subsets}
        assert len(seen) == len(res.subsets)


def test_rejects_negative_delta():
    inst = two_asset_instance()
    with pytest.raises(ValueError):
        lower.solve_lower_cp(SelectionVector([1, 1]), inst, -1e-6)
    with pytest.raises(ValueError):
        lower.solve_lower_cp(SelectionVector([1, 1]), inst, float("nan"))


@pytest.mark.parametrize("solve", [
    lambda z, inst: lower.solve_lower_cp(z, inst, 1e-7),
    lower.solve_lower_lifted,
    driver.extract_portfolio,
], ids=["solve_lower_cp", "solve_lower_lifted", "extract_portfolio"])
@pytest.mark.parametrize("length", [5, 10])
def test_selection_of_the_wrong_length_rejected(solve, length):
    # neither read as a prefix of the assets nor failing inside a QP
    inst = random_instance(np.random.default_rng(3), 8, 60)
    z = SelectionVector(np.ones(length, dtype=int))
    with pytest.raises(ValueError,
                       match=f"selection has {length} entries, instance "
                             "has 8 assets"):
        solve(z, inst)


def test_warm_and_cold_reduced_qps_agree(monkeypatch):
    """Every warm-started reduced QP of the loop re-solved from a cold
    phase-1 start reaches the same objective and portfolio."""
    rng = np.random.default_rng(31)
    progs = []
    real_solve = numeric.solve

    def spy(prog):
        progs.append(prog)
        return real_solve(prog)

    monkeypatch.setattr(numeric, "solve", spy)
    warm = []
    for trial in range(12):
        n = int(rng.integers(2, 9))
        inst = random_instance(rng, n, int(rng.integers(10, 120)),
                               beta=(0.9 if trial % 2 else 0.75),
                               with_return_row=bool(trial % 3 == 0))
        first = len(progs)
        lower.solve_lower_cp(random_selection(rng, n), inst, 1e-7)
        # every QP after the first of a loop is warm-started
        warm += progs[first + 1:]
    assert len(warm) >= 10
    for prog in warm:
        w = real_solve(prog)
        c = real_solve(dataclasses.replace(prog, start=None, working=None))
        assert w.status == numeric.OPTIMAL and c.status == numeric.OPTIMAL
        assert w.obj == pytest.approx(c.obj, abs=1e-9 * (1 + abs(c.obj)))
        np.testing.assert_allclose(w.x[2:], c.x[2:], atol=1e-7)


@pytest.mark.parametrize("capacity", [1, 3])
def test_cut_workspace_growth_keeps_bounds_and_views(monkeypatch, capacity):
    """Lower solves whose loops add more than 2 * capacity cuts (as many as
    would make a workspace of that capacity double twice) keep the sandwich
    property and the QP dimension K + 2, and no QP handed to the solver
    sees its rows change afterwards: each cut is a new row after the
    last."""
    captured = []
    real_solve = numeric.solve

    def spy(prog):
        if isinstance(prog, numeric.ConvexProgram):
            captured.append((prog, prog.ineq_G.copy(), prog.ineq_h.copy()))
        return real_solve(prog)

    monkeypatch.setattr(numeric, "solve", spy)
    rng = np.random.default_rng(37)
    most_cuts = most_qps = 0
    for trial in range(8):
        n = int(rng.integers(2, 8))
        inst = random_instance(rng, n, int(rng.integers(40, 150)),
                               with_return_row=bool(trial % 2))
        z = random_selection(rng, n)
        captured.clear()
        res = lower.solve_lower_cp(z, inst, 1e-7)
        assert captured
        for prog, G, h in captured:
            assert prog.n == z.count() + 2
            assert np.array_equal(prog.ineq_G, G)
            assert np.array_equal(prog.ineq_h, h)
        most_cuts = max(most_cuts,
                        np.count_nonzero(captured[-1][0].ineq_G[:, 0]))
        most_qps = max(most_qps, len(captured))
        f = lower.solve_lower_lifted(z, inst).f_lo
        assert res.f_lo <= f + 1e-9
        assert f <= res.f_hi + 1e-9
        assert res.f_hi <= res.f_lo + 1e-7 + 1e-9
    # some loop added cuts after several of its QPs were built
    assert most_cuts > 2 * capacity
    assert most_qps >= 4


# Scenario grids with few distinct values: rows repeat, assets can be
# constant, and losses tie at the beta-quantile (S (1 - beta) is integral
# for S = 10 or 20 at beta = 0.9 or 0.5). Probabilities are uniform or
# integer weights.
_GRID = [-0.04, -0.02, 0.0, 0.01, 0.03]
_grid = st.sampled_from(_GRID)


@st.composite
def lower_cases(draw):
    n = draw(st.integers(1, 4))
    S = draw(st.sampled_from([2, 5, 10, 20]))
    distinct = draw(st.integers(1, S))
    rows = [draw(st.lists(_grid, min_size=n, max_size=n))
            for _ in range(distinct)]
    scen = np.array([rows[draw(st.integers(0, distinct - 1))]
                     for _ in range(S)])
    flat = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    scen[:, flat] = 0.01            # zero-variance assets
    beta = draw(st.sampled_from([0.5, 0.9]))
    probs = np.full(S, 1.0 / S)
    if draw(st.booleans()):
        # integer weights, zeros included: the cumulative probability can
        # land on beta exactly, and some scenarios can carry none
        w = np.array(draw(st.lists(st.integers(0, 3), min_size=S,
                                   max_size=S)), dtype=float)
        w[draw(st.integers(0, S - 1))] += 1.0
        probs = w / w.sum()
    inst = Instance(n_assets=n, scenarios=scen, probs=probs,
                    side_A=np.zeros((0, n)), side_b=[], beta=beta,
                    gamma=draw(st.sampled_from([0.5, 2.0])), k=n)
    if draw(st.booleans()):
        mu = inst.expected_returns
        A, b = build_feasible_set(inst, float(0.5 * (mu.min() + mu.max())))
        inst = Instance(n_assets=n, scenarios=scen, probs=inst.probs,
                        side_A=A, side_b=b, beta=beta, gamma=inst.gamma, k=n)
    if draw(st.booleans()):
        bits = np.zeros(n, dtype=int)           # k = 1
        bits[draw(st.integers(0, n - 1))] = 1
    else:
        bits = np.array(draw(st.lists(st.integers(0, 1), min_size=n,
                                      max_size=n)))
    return inst, SelectionVector(bits), draw(st.sampled_from([0.0, 1e-6]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(lower_cases())
def test_sandwich_property_on_degenerate_instances(case):
    inst, z, delta = case
    res = lower.solve_lower_cp(z, inst, delta)
    exact = lower.solve_lower_lifted(z, inst)
    assert (res is None) == (exact is None)
    if res is None:
        return
    f = exact.f_lo
    tol = 1e-8 * (1.0 + abs(f))
    assert res.f_lo <= f + tol
    assert f <= res.f_hi + tol
    assert res.f_hi <= res.f_lo + delta + tol
    value = lower.certificate_objective(res.certificate, z, inst)
    assert value == pytest.approx(res.f_lo, abs=1e-6 * (1 + abs(res.f_lo)))
    res.portfolio.validate()


# Grid instances whose delta = 0 loop ends on a duplicate scenario subset at
# a gap of 1e-19 to 1e-17: rounding noise, not a solver tolerance stop.
_TIED_SCENARIOS = [
    [[0.03, -0.02, -0.02], [0.03, -0.02, -0.02], [0.03, -0.04, 0.0],
     [0.03, -0.04, 0.0], [0.03, -0.04, 0.0]],
    [[0.01, 0.03], [0.01, 0.03], [0.01, 0.03], [0.03, -0.02],
     [0.03, -0.02]],
    [[0.03, -0.04, 0.01, -0.04], [0.03, -0.04, 0.01, -0.04],
     [0.0, 0.0, 0.0, 0.0], [-0.02, 0.01, -0.02, 0.03],
     [-0.02, 0.01, -0.02, 0.03], [0.0, 0.03, -0.02, -0.02],
     [0.0, 0.03, -0.02, -0.02], [0.03, 0.03, -0.04, 0.0],
     [0.0, 0.0, 0.0, 0.0], [0.03, -0.04, 0.01, -0.04]],
]


@pytest.mark.parametrize("scen", _TIED_SCENARIOS)
def test_zero_delta_rounding_gap_logs_nothing(scen, caplog):
    scen = np.array(scen)
    S, n = scen.shape
    inst = Instance(n_assets=n, scenarios=scen, probs=np.full(S, 1.0 / S),
                    side_A=np.zeros((0, n)), side_b=[], beta=0.5, gamma=2.0,
                    k=n)
    with caplog.at_level("WARNING", logger="cardcvar.lower"):
        res = lower.solve_lower_cp(SelectionVector(np.ones(n, dtype=int)),
                                   inst, 0.0)
    assert caplog.records == []
    assert res.f_hi <= res.f_lo + 1e-12 * (1.0 + abs(res.f_lo))


def sorted_quantile(losses, probs, beta):
    """model.cvar's a_star for the given losses: a one-asset instance whose
    returns are the negated losses."""
    inst = Instance(n_assets=1, scenarios=-np.asarray(losses)[:, None],
                    probs=probs, side_A=np.zeros((0, 1)), side_b=[],
                    beta=beta, gamma=1.0, k=1)
    return cvar(np.ones(1), inst)[0]


def var_level(losses, probs, beta):
    return lower._var_level(np.asarray(losses), np.asarray(probs),
                            *lower._quantile_window(np.asarray(probs), beta))[0]


def test_var_level_matches_sort_and_cumsum():
    rng = np.random.default_rng(41)
    for trial in range(400):
        S = int(rng.integers(2, 61))
        beta = float(rng.choice([0.5, 0.8, 0.9, 0.95]))
        if trial % 3 == 0:
            probs = rng.dirichlet(np.ones(S))
        elif trial % 3 == 1:
            # integer weights: cumulative sums land on beta exactly
            w = rng.integers(0, 4, size=S).astype(float)
            w[rng.integers(S)] += 1.0
            probs = w / w.sum()
        else:
            probs = np.full(S, 1.0 / S)
        losses = (rng.choice(_GRID, size=S) if trial % 2
                  else rng.normal(0.0, 0.05, size=S))
        assert var_level(losses, probs, beta) == sorted_quantile(
            losses, probs, beta)


def test_var_level_with_tiny_probabilities_sorts_every_loss():
    # p_min near 0 puts q at S: the walk reads every loss
    rng = np.random.default_rng(43)
    for S in (3, 17, 60):
        for p_min in (0.0, 1e-300, 1e-14):
            probs = rng.dirichlet(np.ones(S))
            probs[rng.integers(S)] = p_min
            probs /= probs.sum()
            assert lower._quantile_window(probs, 0.9)[1] == S
            losses = rng.normal(size=S)
            assert var_level(losses, probs, 0.9) == sorted_quantile(
                losses, probs, 0.9)


def test_var_level_at_large_s():
    rng = np.random.default_rng(47)
    S = 20_000
    probs = np.full(S, 1.0 / S)
    reach, q = lower._quantile_window(probs, 0.9)
    assert q < S // 5
    losses = rng.normal(size=S)
    a_ref, top = lower._var_level(losses, probs, reach, q)
    assert a_ref == sorted_quantile(losses, probs, 0.9)
    assert np.array_equal(top, np.flatnonzero(losses >= np.sort(losses)[-q]))


def dirichlet_instance(rng, n, s, beta, with_return_row=False):
    inst = random_instance(rng, n, s, beta, with_return_row)
    return dataclasses.replace(inst, probs=rng.dirichlet(np.ones(s)))


def grid_instance(rng, n, s, beta):
    """Repeated rows on a return grid: losses tie at the beta-quantile."""
    rows = rng.choice(_GRID, size=(int(rng.integers(1, s + 1)), n))
    scen = rows[rng.integers(rows.shape[0], size=s)]
    w = rng.integers(1, 4, size=s).astype(float)
    probs = w / w.sum() if rng.integers(2) else np.full(s, 1.0 / s)
    return Instance(n_assets=n, scenarios=scen, probs=probs,
                    side_A=np.zeros((0, n)), side_b=[], beta=beta,
                    gamma=2.0, k=n)


def test_every_cut_is_violated_by_the_exact_gap(monkeypatch):
    """Spy on the inner QPs of lower solves over tie grids and random
    instances. Each cut that does not stop the loop is violated at the QP
    point before it by at least that point's exact gap CVaR(x_t) - a_t - v_t
    (so v rises onto the new cut in the warm start); each subset cut after
    a QP holds at most 1 - beta of probability plus the probability tied at
    the quantile; the returned portfolio sits at the quantile with f_hi its
    exact objective."""
    state = {}
    real_solve = numeric.solve

    def spy(prog):
        prev = state.get("prev")
        if prev is None:
            # the cut rows the loop starts with: the all-scenario one and
            # the risk-neutral portfolio's tail, unless that is every
            # scenario
            state["initial"] = np.count_nonzero(prog.ineq_G[:, 0])
        else:
            # the program after a QP adds one cut row, violated at its point
            old_prog, sol, gap, f = prev
            assert prog.ineq_h.size == old_prog.ineq_h.size + 1
            violation = float(prog.ineq_G[-1] @ sol.x - prog.ineq_h[-1])
            slack = 1e-9 * (1.0 + abs(f))
            assert violation >= gap - slack
            assert gap > state["delta"] - slack
        sol = real_solve(prog)
        x = sol.x[2:]
        x_full = np.zeros(state["inst"].n_assets)
        x_full[state["support"]] = x
        a_star, cv = cvar(x_full, state["inst"])
        state["points"].append((x_full, a_star))
        state["prev"] = (prog, sol, cv - sol.x[0] - sol.x[1], sol.obj)
        return sol

    monkeypatch.setattr(numeric, "solve", spy)
    rng = np.random.default_rng(53)
    solves = 0
    for trial in range(60):
        n = int(rng.integers(1, 6))
        s = int(rng.integers(2, 80))
        beta = float(rng.choice([0.5, 0.8, 0.9, 0.95]))
        inst = (grid_instance(rng, n, s, beta) if trial % 2
                else dirichlet_instance(rng, n, s, beta,
                                        with_return_row=bool(trial % 4)))
        z = random_selection(rng, n)
        delta = float(rng.choice([0.0, 1e-6, 1e-4]))
        state.update(inst=inst, support=z.support(), delta=delta,
                     prev=None, points=[])
        res = lower.solve_lower_cp(z, inst, delta)
        if res is None:
            continue
        solves += 1
        assert len(state["points"]) == res.iters
        # subsets[t + initial] is the cut made at QP t
        assert 1 <= state["initial"] <= 2
        for (x_full, a_star), J in zip(state["points"],
                                       res.subsets[state["initial"]:]):
            losses = -(inst.scenarios @ x_full)
            tied = np.abs(losses - a_star) <= 1e-12 * (1.0 + abs(a_star))
            bound = 1.0 - inst.beta + inst.probs[tied].sum()
            assert inst.probs[J].sum() <= bound + 1e-12
        assert res.portfolio.var_level == pytest.approx(
            cvar(res.portfolio.weights, inst)[0], abs=1e-12)
        assert res.f_hi == pytest.approx(objective(res.portfolio, inst),
                                         abs=1e-12)
    assert solves >= 40


def check_anchor(inst, z):
    """The risk-neutral anchor of a fresh loop at z. J0 holds at least
    1 - beta of probability and at most that plus the probability tied at
    the quantile of x^ = proj_simplex(gamma mu_S), as every cut of the loop
    does. Where the side rows are slack at x^, x^ is the minimiser of the QP
    with the all-scenario cut alone to 1e-12. Returns x^ when they are slack,
    else None."""
    support = z.support()
    x_hat = lower._simplex_projection(
        inst.gamma * inst.expected_returns[support])
    assert np.all(x_hat >= 0.0) and abs(x_hat.sum() - 1.0) <= 1e-12
    block, reach, q = lower._scenario_block(inst)
    J0 = lower._anchor_subset(inst, support, block[support], reach, q)
    x_full = np.zeros(inst.n_assets)
    x_full[support] = x_hat
    losses = -(inst.scenarios @ x_full)
    a_star = cvar(x_full, inst)[0]
    tied = np.abs(losses - a_star) <= 1e-12 * (1.0 + abs(a_star))
    pJ = inst.probs[J0].sum()
    assert pJ <= 1.0 - inst.beta + inst.probs[tied].sum() + 1e-12
    assert pJ >= 1.0 - inst.beta - 1e-12
    if not np.all(inst.side_A[:, support] @ x_hat < inst.side_b - 1e-9):
        return None
    # a loop whose anchor is every scenario holds the all-scenario cut alone
    x0 = lower._support_feasible(inst, support)
    loop = lower._CutLoop(inst, support, x0, np.arange(inst.n_scenarios))
    sol = numeric.solve(loop.base.with_rows(loop.G, loop.h))
    assert sol.status == numeric.OPTIMAL
    np.testing.assert_allclose(sol.x[2:], x_hat, rtol=0.0, atol=1e-12)
    return x_hat


def test_anchor_is_the_risk_neutral_minimiser():
    """Random instances with uniform and uneven probabilities, tie grids,
    and instances with a repeated asset (tied mu) and a zero-variance one,
    at gammas from nearly uniform to a vertex x^, with and without a
    return row at the midpoint of mu; each at a random selection, one asset
    (K = 1) and every asset (k = n)."""
    rng = np.random.default_rng(73)
    slack = clipped = 0
    for trial in range(40):
        n = int(rng.integers(2, 9))
        s = int(rng.integers(2, 150))
        beta = float(rng.choice([0.5, 0.8, 0.9, 0.95]))
        kind = trial % 4
        if kind == 0:
            inst = random_instance(rng, n, s, beta)
        elif kind == 1:
            inst = dirichlet_instance(rng, n, s, beta)
        elif kind == 2:
            inst = grid_instance(rng, n, s, beta)
        else:
            scen = rng.normal(0.01, 0.05, size=(s, n))
            scen[:, -1] = scen[:, 0]
            scen[:, n // 2] = 0.01
            inst = dataclasses.replace(random_instance(rng, n, s, beta),
                                       scenarios=scen)
        inst = dataclasses.replace(
            inst, gamma=float(rng.choice([0.5, 10.0, 300.0])))
        if trial % 3 == 0:
            mu = inst.expected_returns
            A, b = build_feasible_set(inst, float(0.5 * (mu.min()
                                                         + mu.max())))
            inst = dataclasses.replace(inst, side_A=A, side_b=b)
        one = np.zeros(n, dtype=int)
        one[rng.integers(n)] = 1
        for z in (random_selection(rng, n), SelectionVector(one),
                  SelectionVector(np.ones(n, dtype=int))):
            x_hat = check_anchor(inst, z)
            if x_hat is not None:
                slack += 1
                clipped += bool(np.any(x_hat == 0.0))
    assert slack >= 80
    assert clipped >= 10


@settings(derandomize=True, deadline=None, max_examples=60)
@given(lower_cases())
def test_anchor_on_degenerate_instances(case):
    inst, z, _ = case
    if z.count():
        check_anchor(inst, z)


def assert_same_result(a, b):
    """Two lower results agree bit for bit on every field but iters."""
    for x, y in ((a.f_lo, b.f_lo), (a.f_hi, b.f_hi),
                 (a.portfolio.var_level, b.portfolio.var_level),
                 (a.portfolio.cvar_excess, b.portfolio.cvar_excess),
                 (a.certificate.lam, b.certificate.lam)):
        assert float(x).hex() == float(y).hex()
    for x, y in ((a.portfolio.weights, b.portfolio.weights),
                 (a.certificate.alpha, b.certificate.alpha),
                 (a.certificate.zeta, b.certificate.zeta),
                 (a.certificate.omega, b.certificate.omega)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert len(a.subsets) == len(b.subsets)
    for J, K in zip(a.subsets, b.subsets):
        assert J.dtype == K.dtype and J.tobytes() == K.tobytes()


def resume_cases():
    """Random instances, a third with a return row at the midpoint of the
    expected returns (binding on some selections), each with a random
    selection; then one all-ones selection at k = n."""
    rng = np.random.default_rng(59)
    for trial in range(24):
        n = int(rng.integers(2, 9))
        inst = dirichlet_instance(rng, n, int(rng.integers(20, 300)),
                                  float(rng.choice([0.75, 0.9, 0.95])))
        if trial % 3 == 0:
            mu = inst.expected_returns
            A, b = build_feasible_set(inst, float(0.5 * (mu.min()
                                                         + mu.max())))
            inst = dataclasses.replace(inst, side_A=A, side_b=b)
        yield inst, random_selection(rng, n)


def test_resume_at_a_smaller_delta_equals_a_solve_from_scratch():
    """A call that resumes a 1e-5 result at 1e-9 continues its loop from the
    last QP and the pending subset: its result equals the 1e-9 solve from
    scratch bit for bit, and the QPs of the two calls add up to the
    scratch solve's."""
    resumed_qps = solves = 0
    for inst, z in resume_cases():
        fine = lower.solve_lower_cp(z, inst, 1e-9)
        coarse = lower.solve_lower_cp(z, inst, 1e-5)
        if fine is None:
            assert coarse is None
            continue
        solves += 1
        resumed = lower.solve_lower_cp(z, inst, 1e-9, resume=coarse)
        assert_same_result(resumed, fine)
        assert coarse.iters + resumed.iters == fine.iters
        resumed_qps += resumed.iters
    assert solves >= 18
    # enough resumes ran QPs of their own to exercise the pending subset
    assert resumed_qps >= 5


def test_resume_of_the_all_ones_result_at_k_equals_n():
    """theta_lb's all-ones result, which bcp keeps as its step at k = n,
    resumes to the 1e-9 solve from scratch."""
    rng = np.random.default_rng(61)
    for trial in range(6):
        n = int(rng.integers(2, 8))
        inst = random_instance(rng, n, int(rng.integers(50, 400)),
                               with_return_row=bool(trial % 2))
        ones = SelectionVector(np.ones(n, dtype=int))
        _, res = driver.theta_lb(inst)
        fine = lower.solve_lower_cp(ones, inst, 1e-9)
        resumed = lower.solve_lower_cp(ones, inst, 1e-9, resume=res)
        assert_same_result(resumed, fine)
        assert res.iters + resumed.iters == fine.iters


def test_resume_at_a_delta_already_met_solves_no_qp():
    """At a delta no smaller than the one the loop stopped at, a resume
    returns the same result at no QP; the loop passes to the new result, and
    resuming the old one again starts afresh."""
    for inst, z in resume_cases():
        coarse = lower.solve_lower_cp(z, inst, 1e-5)
        if coarse is None:
            continue
        same = lower.solve_lower_cp(z, inst, 1e-5, resume=coarse)
        assert same.iters == 0
        assert_same_result(same, coarse)
        looser = lower.solve_lower_cp(z, inst, 1e-3, resume=same)
        assert looser.iters == 0
        assert_same_result(looser, coarse)
        again = lower.solve_lower_cp(z, inst, 1e-5, resume=coarse)
        assert again.iters == coarse.iters
        assert_same_result(again, coarse)


def test_resume_rejects_another_selection():
    inst = random_instance(np.random.default_rng(67), 4, 60)
    res = lower.solve_lower_cp(SelectionVector([1, 1, 0, 0]), inst, 1e-5)
    with pytest.raises(ValueError):
        lower.solve_lower_cp(SelectionVector([0, 1, 1, 0]), inst, 1e-9,
                             resume=res)


def test_infeasible_cover_never_excludes_a_feasible_selection():
    """Over all 256 supports of eight assets: the cover of each selection
    that admits no portfolio excludes it and holds an asset of every
    support that admits one. With no side row only the empty selection is
    infeasible; with the return row alone the cover is exact, so a support
    is feasible exactly when it holds a member; caps plus two random dense
    rows take the complement of the support."""
    import itertools

    from test_acceptance import make_instance
    from test_driver import dense_rows_instance

    free = make_instance(0, 8, 60, 3)
    free = dataclasses.replace(free, side_A=np.zeros((0, 8)), side_b=[])
    instances = ([free] + [make_instance(s, 8, 60, 3) for s in range(3)]
                 + [dense_rows_instance(s) for s in range(6)])
    supports = [list(sup) for size in range(9)
                for sup in itertools.combinations(range(8), size)]
    for inst in instances:
        feasible = [lower._support_feasible(inst, np.array(sup, np.int64))
                    is not None for sup in supports]
        assert 0 < sum(feasible) < len(supports) - 1 or inst is free
        for sup, ok in zip(supports, feasible):
            if ok:
                continue
            bits = np.zeros(8, dtype=np.int64)
            bits[sup] = 1
            cover = lower.infeasible_cover(SelectionVector(bits), inst)
            assert not cover[sup].any()
            holds = [bool(cover[other].any()) for other in supports]
            assert all(h for h, f in zip(holds, feasible) if f)
            if inst.side_b.size <= 1:
                assert holds == feasible
