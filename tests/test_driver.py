"""Tests for the outer solvers: cutting-plane loops and the big-M baseline."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cardcvar
from cardcvar import cli, driver, lower, oracle
from cardcvar.model import (
    Instance,
    SelectionVector,
    build_feasible_set,
    compute_mu_bar,
)


def two_asset_instance(k=2):
    """Single scenario r = (0.1, 0.2), beta = 0.5, gamma = 1."""
    return Instance(n_assets=2, scenarios=[[0.1, 0.2]], probs=[1.0],
                    side_A=np.zeros((0, 2)), side_b=[], beta=0.5, gamma=1.0,
                    k=k)


def random_instance(rng, n, s, k, beta=0.9, with_return_row=True):
    scen = rng.normal(0.01, 0.05, size=(s, n))
    inst = Instance(n_assets=n, scenarios=scen, probs=np.full(s, 1.0 / s),
                    side_A=np.zeros((0, n)), side_b=[], beta=beta,
                    gamma=10.0 / np.sqrt(n), k=k)
    if with_return_row:
        mu_bar = compute_mu_bar(inst.expected_returns, k)
        A, b = build_feasible_set(inst, mu_bar)
        inst = Instance(n_assets=n, scenarios=scen, probs=inst.probs,
                        side_A=A, side_b=b, beta=beta, gamma=inst.gamma, k=k)
    return inst


def infeasible_instance():
    """Required return above every scenario return, so X is empty."""
    base = two_asset_instance()
    A, b = build_feasible_set(base, 0.5)
    return Instance(n_assets=2, scenarios=base.scenarios, probs=base.probs,
                    side_A=A, side_b=b, beta=0.5, gamma=1.0, k=2)


def exact_value(bits, inst):
    res = lower.solve_lower_lifted(SelectionVector(bits), inst)
    return None if res is None else res[0]


def all_methods(inst, **kwargs):
    return [
        driver.solve_bcp(inst, **kwargs),
        driver.solve_bcp(inst, mode="single_tree", **kwargs),
        driver.solve_cp(inst, **kwargs),
        driver.solve_bigm(inst, **kwargs),
    ]


def test_theta_lb_two_asset_value():
    inst = two_asset_instance()
    tlb = driver.theta_lb(inst, delta=1e-6)
    assert tlb == pytest.approx(0.0975 - 1e-6, abs=1e-7)


def test_theta_lb_bounds_every_selection():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(4, 8))
        inst = random_instance(rng, n, int(rng.integers(10, 40)), k=n)
        tlb = driver.theta_lb(inst, delta=1e-6)
        for _ in range(5):
            bits = np.zeros(n, dtype=int)
            bits[rng.choice(n, size=int(rng.integers(1, n + 1)),
                            replace=False)] = 1
            f = exact_value(bits, inst)
            if f is not None:
                assert tlb <= f + 1e-9


def test_theta_lb_infeasible_returns_none():
    assert driver.theta_lb(infeasible_instance()) is None


def test_extract_portfolio_single_asset():
    port = driver.extract_portfolio(SelectionVector([0, 1]),
                                    two_asset_instance())
    assert port.weights == pytest.approx([0.0, 1.0], abs=1e-8)
    assert port.var_level == pytest.approx(-0.2, abs=1e-8)
    assert port.cvar_excess == pytest.approx(0.0, abs=1e-9)


def test_extract_portfolio_infeasible_returns_none():
    assert driver.extract_portfolio(SelectionVector([0, 0]),
                                    two_asset_instance()) is None


def test_two_asset_single_selection_all_methods():
    inst = two_asset_instance(k=1)
    for rep in all_methods(inst):
        assert rep.status == driver.OPTIMAL
        assert rep.obj == pytest.approx(0.3, abs=1e-6)
        assert rep.selection.as_tuple() == (0, 1)
        assert rep.portfolio.weights == pytest.approx([0.0, 1.0], abs=1e-6)
        assert rep.var == pytest.approx(-0.2, abs=1e-6)
        assert rep.cvar == pytest.approx(-0.2, abs=1e-6)
        assert rep.expected_return == pytest.approx(0.2, abs=1e-6)
        assert rep.gap_pct <= 1e-2
        assert rep.time_sec >= 0.0


def test_two_asset_full_cardinality_all_methods():
    inst = two_asset_instance(k=2)
    for rep in all_methods(inst):
        assert rep.status == driver.OPTIMAL
        assert rep.obj == pytest.approx(0.0975, abs=1e-5)
        assert rep.portfolio.weights == pytest.approx([0.45, 0.55], abs=1e-4)


def test_full_cardinality_matches_all_ones_value():
    rng = np.random.default_rng(3)
    for _ in range(3):
        n = int(rng.integers(4, 7))
        inst = random_instance(rng, n, int(rng.integers(15, 30)), k=n)
        f_ones = exact_value(np.ones(n, dtype=int), inst)
        for rep in all_methods(inst):
            assert rep.status == driver.OPTIMAL
            assert rep.obj >= f_ones - 1e-9
            assert rep.obj <= f_ones + 2e-5 + 1e-9


def test_methods_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        inst = random_instance(rng, 6, 30, k=2)
        orc = oracle.brute_force(inst, inst.k)
        assert orc is not None
        for rep in all_methods(inst):
            assert rep.status == driver.OPTIMAL
            assert rep.selection.count() <= inst.k
            assert rep.obj >= orc.best_f - 1e-9
            assert rep.obj <= orc.best_f + 2e-5 + 1e-9
            # the reported objective is the exact value at the selection
            f_sel = exact_value(rep.selection.bits, inst)
            assert rep.obj == pytest.approx(f_sel, abs=1e-8)
            on = rep.selection.bits.astype(bool)
            assert np.all(rep.portfolio.weights[~on] <= 1e-9)


def test_no_good_path_still_reaches_optimum():
    rng = np.random.default_rng(11)
    scen = rng.normal(0.01, 0.05, size=(20, 4))
    scen[:, 0] += 0.1
    base = Instance(n_assets=4, scenarios=scen, probs=np.full(20, 0.05),
                    side_A=np.zeros((0, 4)), side_b=[], beta=0.9,
                    gamma=5.0, k=1)
    mu = np.sort(base.expected_returns)
    A, b = build_feasible_set(base, 0.5 * (mu[-1] + mu[-2]))
    inst = Instance(n_assets=4, scenarios=scen, probs=base.probs,
                    side_A=A, side_b=b, beta=0.9, gamma=5.0, k=1)
    orc = oracle.brute_force(inst, 1)
    assert orc.best_z.as_tuple() == (1, 0, 0, 0)
    for rep in (driver.solve_bcp(inst), driver.solve_cp(inst)):
        assert rep.status == driver.OPTIMAL
        assert rep.selection.as_tuple() == (1, 0, 0, 0)
        assert rep.obj == pytest.approx(orc.best_f, abs=2e-5)
        # the empty selection and three infeasible singletons are cut off
        assert rep.n_cuts >= 5


def test_bounds_monotone_and_bracket_oracle():
    rng = np.random.default_rng(13)
    inst = random_instance(rng, 6, 30, k=2)
    orc = oracle.brute_force(inst, inst.k)
    for solve in (driver.solve_bcp, driver.solve_cp):
        trace = []
        rep = solve(inst, on_iteration=lambda t, z, lb, ub:
                    trace.append((t, lb, ub)))
        assert rep.status == driver.OPTIMAL
        assert [t for t, _, _ in trace] == list(range(1, len(trace) + 1))
        for (_, lb0, ub0), (_, lb1, ub1) in zip(trace, trace[1:]):
            assert lb1 >= lb0 - 1e-12
            assert ub1 <= ub0 + 1e-12
        for _, lb, ub in trace:
            assert lb <= orc.best_f + 1e-9
            assert ub >= orc.best_f - 1e-9


def test_single_tree_matches_multi_tree():
    rng = np.random.default_rng(23)
    inst = random_instance(rng, 6, 40, k=3)
    multi = driver.solve_bcp(inst)
    single = driver.solve_bcp(inst, mode="single_tree")
    assert single.status == driver.OPTIMAL
    assert single.method == "bcp_single_tree"
    assert single.obj == pytest.approx(multi.obj, abs=2e-5)
    assert single.iterations >= 1
    assert single.n_cuts >= 1


def test_bigm_full_cardinality_solves_at_root():
    rep = driver.solve_bigm(two_asset_instance(k=2))
    assert rep.nodes == 1
    rng = np.random.default_rng(29)
    inst = random_instance(rng, 5, 20, k=5)
    rep = driver.solve_bigm(inst)
    assert rep.status == driver.OPTIMAL
    assert rep.nodes == 1


def test_infeasible_instance_all_methods():
    inst = infeasible_instance()
    for rep in all_methods(inst):
        assert rep.status == driver.INFEASIBLE
        assert np.isnan(rep.obj)
        assert rep.selection is None
        assert rep.portfolio is None


def test_time_limit_reports_honestly():
    inst = two_asset_instance(k=1)
    rep = driver.solve_bcp(inst, time_limit=0.0)
    assert rep.status == driver.TIME_LIMIT
    assert np.isnan(rep.obj)
    assert np.isinf(rep.gap_pct)
    rep = driver.solve_bigm(inst, time_limit=0.0)
    assert rep.status == driver.TIME_LIMIT
    assert rep.nodes == 0


def test_reports_deterministic_up_to_time():
    rng = np.random.default_rng(19)
    inst = random_instance(rng, 5, 20, k=2)
    for solve in (driver.solve_bcp, driver.solve_cp, driver.solve_bigm):
        a = solve(inst)
        b = solve(inst)
        assert a.obj == b.obj
        assert a.gap_pct == b.gap_pct
        assert a.selection.as_tuple() == b.selection.as_tuple()
        assert np.array_equal(a.portfolio.weights, b.portfolio.weights)
        assert (a.iterations, a.nodes, a.n_cuts) == (
            b.iterations, b.nodes, b.n_cuts)


def test_parameter_validation_and_echo():
    inst = two_asset_instance()
    with pytest.raises(ValueError):
        driver.solve_bcp(inst, eps=-1.0)
    with pytest.raises(ValueError):
        driver.solve_bcp(inst, delta=-1.0)
    with pytest.raises(ValueError):
        driver.solve_bcp(inst, mode="both")
    with pytest.raises(ValueError):
        driver.solve_cp(inst, eps=-1.0)
    with pytest.raises(ValueError):
        driver.solve_bigm(inst, eps=-1.0)
    rep = driver.solve_bcp(inst, params={"seed": 4})
    assert rep.params["seed"] == 4
    assert rep.params["eps"] == driver.EPS_DEFAULT


def test_time_sec_includes_portfolio_extraction(monkeypatch):
    extract = driver.extract_portfolio

    def slow_extract(z_hat, instance):
        time.sleep(0.2)
        return extract(z_hat, instance)

    monkeypatch.setattr(driver, "extract_portfolio", slow_extract)
    report = driver.solve_bcp(two_asset_instance())
    assert report.status == driver.OPTIMAL
    assert report.time_sec >= 0.2


def test_oracle_time_sec_includes_portfolio_extraction(monkeypatch):
    extract = driver.extract_portfolio

    def slow_extract(z_hat, instance):
        time.sleep(0.2)
        return extract(z_hat, instance)

    monkeypatch.setattr(driver, "extract_portfolio", slow_extract)
    report = cli.run_method(two_asset_instance(k=1),
                            cli.RunConfig(method="oracle", k=1))
    assert report.status == driver.OPTIMAL
    assert report.time_sec >= 0.2
    assert report.gap_pct == 0.0
    assert report.obj == pytest.approx(
        oracle.brute_force(two_asset_instance(k=1), 1).best_f, abs=1e-7)


def test_bcp_solves_never_import_scipy():
    # scipy.linalg serves only the ScenarioProgram IPM (cp, bigm) and
    # scipy.special only generate_scenarios; a fresh process that imports
    # the package and runs both bcp modes loads neither
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import cardcvar\n"
        "rng = np.random.default_rng(5)\n"
        "inst = cardcvar.Instance(n_assets=6,"
        " scenarios=rng.normal(0.01, 0.05, (40, 6)), probs=np.full(40, 1/40),"
        " side_A=np.zeros((0, 6)), side_b=[], beta=0.9, gamma=4.0, k=3)\n"
        "for mode in ('multi_tree', 'single_tree'):\n"
        "    assert cardcvar.solve_bcp(inst, mode=mode).status == 'Optimal'\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.special')"
        " if m in sys.modules))\n")
    src = str(Path(cardcvar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
