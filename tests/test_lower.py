"""Tests for the fixed-selection lower-level solvers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardcvar import lower, numeric
from cardcvar.model import (
    Instance,
    SelectionVector,
    build_feasible_set,
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


def test_scenario_cut_splits_on_threshold():
    inst = two_asset_instance()
    z = SelectionVector([1, 1])
    J, v_prime = lower.scenario_cut([0.0, 1.0], -0.2, z, inst)
    assert J.size == 0
    assert v_prime == 0.0
    J, v_prime = lower.scenario_cut([0.0, 1.0], -0.25, z, inst)
    assert J.tolist() == [0]
    assert v_prime == pytest.approx(0.1)


def test_scenario_cut_masks_unselected_assets():
    inst = two_asset_instance()
    J, v_prime = lower.scenario_cut([0.0, 1.0], -0.15, SelectionVector([1, 0]),
                                    inst)
    assert J.tolist() == [0]
    assert v_prime == pytest.approx(0.3)


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
    assert exact[0] == pytest.approx(0.7, abs=1e-7)
    assert exact[1].weights == pytest.approx([1.0], abs=1e-8)


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


def test_solver_failure_is_not_reported_as_infeasible():
    inst = two_asset_instance()
    orig = numeric.solve

    def failing(prog, skip_phase1=False):
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
        f = exact[0]
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
        lhs = exact[0]
        rhs = res.f_lo + g @ (z.bits - z_hat.bits)
        assert lhs >= rhs - 1e-7


def test_lifted_duals_satisfy_dual_feasibility():
    rng = np.random.default_rng(19)
    for trial in range(15):
        n = int(rng.integers(2, 8))
        s = int(rng.integers(5, 80))
        inst = random_instance(rng, n, s, with_return_row=bool(trial % 2))
        z = random_selection(rng, n)
        f, portfolio, duals = lower.solve_lower_lifted(z, inst)
        cap = inst.probs / (1.0 - inst.beta)
        assert np.all(duals["alpha"] >= -1e-9)
        assert np.all(duals["alpha"] <= cap + 1e-8)
        assert duals["alpha"].sum() == pytest.approx(1.0, abs=1e-7)
        assert np.all(duals["zeta"] >= 0.0)
        dual_obj = (-(inst.gamma / 2.0)
                    * float(z.bits @ (duals["omega"] ** 2))
                    - float(inst.side_b @ duals["zeta"]) + duals["lambda"])
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


def test_warm_and_cold_reduced_qps_agree(monkeypatch):
    """Every warm-started reduced QP of the loop re-solved from a cold
    phase-1 start reaches the same objective and portfolio."""
    rng = np.random.default_rng(31)
    progs = []
    real_solve = numeric.solve

    def spy(prog, skip_phase1=False):
        progs.append(prog)
        return real_solve(prog, skip_phase1)

    monkeypatch.setattr(numeric, "solve", spy)
    for trial in range(12):
        n = int(rng.integers(2, 9))
        inst = random_instance(rng, n, int(rng.integers(10, 120)),
                               beta=(0.9 if trial % 2 else 0.75),
                               with_return_row=bool(trial % 3 == 0))
        lower.solve_lower_cp(random_selection(rng, n), inst, 1e-7)
    # cut rows are the rows with a nonzero coefficient on a; every QP after
    # the first of a loop is warm-started
    warm = [p for p in progs if np.count_nonzero(p.ineq_G[:, 0]) > 1]
    assert len(warm) >= 10
    for prog in warm:
        w = real_solve(prog, skip_phase1=True)
        c = real_solve(dataclasses.replace(prog, start=None, working=None))
        assert w.status == numeric.OPTIMAL and c.status == numeric.OPTIMAL
        assert w.obj == pytest.approx(c.obj, abs=1e-9 * (1 + abs(c.obj)))
        np.testing.assert_allclose(w.x[2:], c.x[2:], atol=1e-7)


@pytest.mark.parametrize("capacity", [1, 3])
def test_cut_workspace_growth_keeps_bounds_and_views(monkeypatch, capacity):
    """Lower solves with more cuts than the row workspace starts with (so it
    doubles) keep the sandwich property and the QP dimension K + 2, and no
    QP handed to the solver sees its rows change afterwards: each cut is
    written past every earlier QP's view."""
    monkeypatch.setattr(lower, "_CUT_CAPACITY", capacity)
    captured = []
    real_solve = numeric.solve

    def spy(prog, skip_phase1=False):
        if isinstance(prog, numeric.ConvexProgram):
            captured.append((prog, prog.ineq_G.copy(), prog.ineq_h.copy()))
        return real_solve(prog, skip_phase1)

    monkeypatch.setattr(numeric, "solve", spy)
    rng = np.random.default_rng(37)
    most_cuts = 0
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
        f = lower.solve_lower_lifted(z, inst)[0]
        assert res.f_lo <= f + 1e-9
        assert f <= res.f_hi + 1e-9
        assert res.f_hi <= res.f_lo + 1e-7 + 1e-9
    assert most_cuts > 2 * capacity


# Scenario grids with few distinct values: rows repeat, assets can be
# constant, and losses tie at the beta-quantile (S (1 - beta) is integral
# for S = 10 or 20 at beta = 0.9 or 0.5).
_grid = st.sampled_from([-0.04, -0.02, 0.0, 0.01, 0.03])


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
    inst = Instance(n_assets=n, scenarios=scen, probs=np.full(S, 1.0 / S),
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
    f = exact[0]
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
