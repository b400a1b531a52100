"""Tests for the outer solvers: cutting-plane loops and the big-M baseline."""

import dataclasses
import os
import subprocess
import sys
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import cardcvar
from cardcvar import cli, driver, lower, master, oracle
from cardcvar.model import (
    Instance,
    SelectionVector,
    build_feasible_set,
    compute_mu_bar,
)
from test_acceptance import canonical_report, make_instance


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
    return None if res is None else res.f_lo


CUTTING_PLANE_SOLVES = (driver.solve_bcp,
                        partial(driver.solve_bcp, mode="single_tree"),
                        driver.solve_cp)


def all_methods(inst, **kwargs):
    return [
        driver.solve_bcp(inst, **kwargs),
        driver.solve_bcp(inst, mode="single_tree", **kwargs),
        driver.solve_cp(inst, **kwargs),
        driver.solve_bigm(inst, **kwargs),
    ]


def test_theta_lb_two_asset_value():
    inst = two_asset_instance()
    tlb, _ = driver.theta_lb(inst, delta=1e-6)
    assert tlb == pytest.approx(0.0975 - 1e-6, abs=1e-7)


def test_theta_lb_bounds_every_selection():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(4, 8))
        inst = random_instance(rng, n, int(rng.integers(10, 40)), k=n)
        tlb, _ = driver.theta_lb(inst, delta=1e-6)
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


def volatile_leader_instance():
    """k = 1, and asset 0 alone meets the required return, but it is
    volatile: the all-ones portfolio weights the low-volatility asset 1
    most, so the warm selection {1} is infeasible."""
    rng = np.random.default_rng(11)
    scen = rng.normal(0.01, 0.05, size=(20, 4))
    scen[:, 0] = 0.11 + 2.0 * (scen[:, 0] - 0.01)
    scen[:, 1] = 0.01 + 0.1 * (scen[:, 1] - 0.01)
    base = Instance(n_assets=4, scenarios=scen, probs=np.full(20, 0.05),
                    side_A=np.zeros((0, 4)), side_b=[], beta=0.9,
                    gamma=5.0, k=1)
    mu = np.sort(base.expected_returns)
    A, b = build_feasible_set(base, mu[-2] + 0.1 * (mu[-1] - mu[-2]))
    return Instance(n_assets=4, scenarios=scen, probs=base.probs,
                    side_A=A, side_b=b, beta=0.9, gamma=5.0, k=1)


def test_no_good_path_still_reaches_optimum():
    inst = volatile_leader_instance()
    orc = oracle.brute_force(inst, 1)
    assert orc.best_z.as_tuple() == (1, 0, 0, 0)
    for solve in (driver.solve_bcp, driver.solve_cp):
        ubs = []
        rep = solve(inst, on_iteration=lambda t, z, lb, ub: ubs.append(ub))
        assert rep.status == driver.OPTIMAL
        assert rep.selection.as_tuple() == (1, 0, 0, 0)
        assert rep.obj == pytest.approx(orc.best_f, abs=2e-5)
        # the warm selection {1} is infeasible, and its cover row holds
        # asset 0 alone, the one that meets the return floor: the next
        # step is the optimum
        assert rep.n_cuts == 2
        assert ubs[0] == np.inf


def return_floor_instance():
    """50 assets with mu_i = 0.004 + 0.0002 i, sigma_i = 0.02 + 0.0005 i and
    correlation 0.3, 2,000 scenarios of seed 1, k = 8 and the k-rule return
    floor through cli.build_instance: only 18 assets meet the floor alone,
    and a selection is feasible exactly when it holds one of them."""
    from cardcvar import ingest

    n = 50
    std = 0.02 + 0.0005 * np.arange(n)
    corr = 0.3 + 0.7 * np.eye(n)
    moments = ingest.MomentData(0.004 + 0.0002 * np.arange(n),
                                corr * np.outer(std, std))
    scen = ingest.generate_scenarios(moments, 2000, 1)
    return cli.build_instance(scen, np.full(2000, 1.0 / 2000),
                              cli.RunConfig(method="bcpc", k=8))


def test_single_tree_meets_the_return_floor_from_its_first_step(
        monkeypatch):
    """The empty selection's cover is seeded before the search: single-tree
    never solves a selection without a floor asset, its first step already
    has a finite upper bound, and a 2 s limit ends with an incumbent. With
    one no-good per infeasible selection it spent 10 s on 14,415 of them
    and had none."""
    inst = return_floor_instance()
    assert np.sum(inst.side_A[0] <= inst.side_b[0]) == 18
    real = lower.solve_lower_cp
    results = []

    def spy(z, instance, delta, resume=None):
        results.append(real(z, instance, delta, resume=resume))
        return results[-1]

    monkeypatch.setattr(lower, "solve_lower_cp", spy)
    ubs = []
    rep = driver.solve_bcp(inst, mode="single_tree", time_limit=2.0,
                           on_iteration=lambda t, z, lb, ub: ubs.append(ub))
    assert np.isfinite(ubs[0])
    assert all(res is not None for res in results)
    assert rep.status in (driver.OPTIMAL, driver.TIME_LIMIT)
    assert rep.selection is not None and np.isfinite(rep.obj)


def test_multi_tree_starts_at_the_top_k_of_the_all_ones_portfolio(
        monkeypatch):
    # the first step solves the k largest all-ones weights (ties to the
    # lower index) at lb = theta_lb; the run still reaches the optimum when
    # that selection is everything (k = n) or infeasible. At k = n, bcp's
    # first step cuts from theta_lb's own all-ones solve instead of solving
    # it again. In the last instance assets 1 and 4 are copies, and their
    # weights tie for the top
    real = lower.solve_lower_cp
    solved = []

    def spy(z, instance, delta, resume=None):
        solved.append((z.count(), delta))
        return real(z, instance, delta, resume=resume)

    monkeypatch.setattr(lower, "solve_lower_cp", spy)
    rng = np.random.default_rng(31)
    instances = [random_instance(rng, 8, 40, k=3),
                 random_instance(rng, 5, 20, k=5),
                 volatile_leader_instance()]
    scen = np.random.default_rng(0).normal(0.01, 0.05, size=(30, 3))
    instances.append(Instance(n_assets=6,
                              scenarios=scen[:, [0, 1, 0, 2, 1, 0]],
                              probs=np.full(30, 1.0 / 30),
                              side_A=np.zeros((0, 6)), side_b=[], beta=0.9,
                              gamma=4.0, k=1))
    warms = []
    for inst in instances:
        bound, ones = driver.theta_lb(inst)
        w = ones.portfolio.weights
        top = sorted(range(inst.n_assets), key=lambda i: (-w[i], i))
        warm = tuple(int(i in top[:inst.k]) for i in range(inst.n_assets))
        warms.append(warm)
        best_f = oracle.brute_force(inst, inst.k).best_f
        for solve in (driver.solve_bcp, driver.solve_cp):
            first = []
            solved.clear()
            rep = solve(inst, on_iteration=lambda t, z, lb, ub:
                        first.append((t, z.as_tuple(), lb)))
            assert first[0] == (1, warm, bound)
            assert rep.status == driver.OPTIMAL
            assert rep.obj == pytest.approx(best_f, abs=2e-5)
            if solve is driver.solve_bcp and inst is instances[1]:
                # theta_lb at delta, then the extraction at 1e-9
                assert solved == [(5, driver.DELTA_DEFAULT),
                                  (5, driver._EXTRACT_DELTA)]
    assert warms[1] == (1,) * 5
    assert exact_value(np.array(warms[2]), instances[2]) is None


def test_bounds_monotone_and_bracket_oracle():
    rng = np.random.default_rng(13)
    inst = random_instance(rng, 6, 30, k=2)
    orc = oracle.brute_force(inst, inst.k)
    for solve in CUTTING_PLANE_SOLVES:
        trace = []
        rep = solve(inst, on_iteration=lambda t, z, lb, ub:
                    trace.append((t, lb, ub)))
        assert rep.status == driver.OPTIMAL
        # one call per lower solve, no-good cuts included
        assert [t for t, _, _ in trace] == list(range(1, len(trace) + 1))
        assert len(trace) == rep.iterations == rep.n_cuts
        for (_, lb0, ub0), (_, lb1, ub1) in zip(trace, trace[1:]):
            assert lb1 >= lb0 - 1e-12
            assert ub1 <= ub0 + 1e-12
        for _, lb, ub in trace:
            assert lb <= orc.best_f + 1e-9
            assert ub >= orc.best_f - 1e-9


def test_single_tree_lower_bound_rises_during_the_search():
    # every candidate carries the master search's bound, so the lb trace
    # moves before the search ends, never falls and stays below f*
    for seed in (0, 5):
        inst = random_instance(np.random.default_rng(seed), 10, 50, k=3)
        best_f = oracle.brute_force(inst, inst.k).best_f
        lbs = []
        rep = driver.solve_bcp(inst, mode="single_tree",
                               on_iteration=lambda t, z, lb, ub:
                               lbs.append(lb))
        assert rep.status == driver.OPTIMAL
        assert lbs[0] == driver.theta_lb(inst)[0]
        assert lbs[-2] > lbs[0]
        assert all(b >= a for a, b in zip(lbs, lbs[1:]))
        assert lbs[-1] <= best_f + 1e-9


def test_multi_tree_bcp_stops_on_a_repeat_without_solving_it(monkeypatch):
    # on these seeds the search's last optimum repeats a solved selection:
    # the run accepts it unsolved, with lb raised to the f_lo its solve
    # gave, and makes no lower solve beyond theta_lb, one per iteration and
    # the final extraction
    real = lower.solve_lower_cp
    for seed in (0, 2, 5):
        inst = random_instance(np.random.default_rng(seed), 10, 50, k=3)
        solved = []

        def spy(z, instance, delta, resume=None):
            solved.append(z.as_tuple())
            return real(z, instance, delta, resume=resume)

        monkeypatch.setattr(lower, "solve_lower_cp", spy)
        offered = []
        rep = driver.solve_bcp(inst, on_iteration=lambda t, z, lb, ub:
                               offered.append(z.as_tuple()))
        monkeypatch.setattr(lower, "solve_lower_cp", real)
        assert rep.status == driver.OPTIMAL
        assert len(solved) == rep.iterations + 2
        assert len(set(offered)) == len(offered) == rep.iterations
        assert rep.n_cuts == rep.iterations
        assert rep.gap_pct <= 100.0 * driver.DELTA_DEFAULT / abs(rep.obj)
        assert rep.obj == pytest.approx(
            oracle.brute_force(inst, inst.k).best_f, abs=1e-5)


def test_cp_never_solves_a_selection_twice(monkeypatch):
    # cp stops on a repeated selection as bcp does: each exact lifted solve
    # is at a new selection, one per iteration
    real = lower.solve_lower_lifted
    for seed in (0, 2, 5):
        inst = random_instance(np.random.default_rng(seed), 10, 50, k=3)
        solved = []

        def spy(z, instance):
            solved.append(z.as_tuple())
            return real(z, instance)

        monkeypatch.setattr(lower, "solve_lower_lifted", spy)
        rep = driver.solve_cp(inst)
        monkeypatch.setattr(lower, "solve_lower_lifted", real)
        assert rep.status == driver.OPTIMAL
        assert len(set(solved)) == len(solved) == rep.iterations
        assert rep.n_cuts == rep.iterations
        assert rep.obj == pytest.approx(
            oracle.brute_force(inst, inst.k).best_f, abs=1e-5)


def test_iterations_count_lower_solves_when_master_times_out(monkeypatch):
    # the one master search runs out of time at its second proven optimum
    # (multi-tree and cp, after the warm selection and the first optimum)
    # or at the third candidate it offers (single-tree), after two lower
    # solves each
    rng = np.random.default_rng(23)
    inst = random_instance(rng, 6, 40, k=3)
    real_solve = master.master_solve

    def timing_out(state, callback=None, deadline=None, lazy=False):
        offered = []

        def cb(z, theta, bound):
            offered.append(None)
            if len(offered) == (3 if lazy else 2):
                raise master.MasterTimeout("master deadline passed")
            return callback(z, theta, bound)

        return real_solve(state, cb, deadline, lazy=lazy)

    monkeypatch.setattr(master, "master_solve", timing_out)
    for solve in CUTTING_PLANE_SOLVES:
        rep = solve(inst)
        assert rep.status == driver.TIME_LIMIT
        assert rep.iterations == rep.n_cuts == 2


def test_one_master_search_per_solve(monkeypatch):
    # bcp in both modes and cp run the whole outer solve inside one
    # master_solve call: multi-tree steps at the search's optima, and the
    # search goes on with each new cut instead of being called again
    real_solve = master.master_solve
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(master, "master_solve", counting)
    for seed in (0, 2, 5, 13):
        inst = random_instance(np.random.default_rng(seed), 10, 50, k=3)
        for solve in CUTTING_PLANE_SOLVES:
            calls.clear()
            rep = solve(inst)
            assert rep.status == driver.OPTIMAL
            assert rep.iterations > 1
            assert len(calls) == 1


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


def test_single_tree_solves_only_candidates_below_the_upper_bound(
        monkeypatch):
    # cuts are valid, so f(z) >= theta(z): a new candidate whose master
    # value already reaches the upper bound current when it is offered
    # cannot improve the incumbent, and the callback accepts it unsolved
    inst = random_instance(np.random.default_rng(0), 10, 50, k=3)
    real_solve, real_lower = master.master_solve, lower.solve_lower_cp
    solved, steps, unsolved = [], [], []
    ub_now = [np.inf]

    def counting_lower(z, instance, delta, resume=None):
        solved.append(z.as_tuple())
        return real_lower(z, instance, delta, resume=resume)

    def spying(state, callback=None, deadline=None, lazy=False):
        def cb(z, theta, bound):
            ub, n_before = ub_now[0], len(solved)
            seen = z.as_tuple() in solved
            accepted = callback(z, theta, bound)
            reaches = ub < np.inf and theta >= ub - 1e-9 * (1.0 + abs(ub))
            if len(solved) > n_before:
                assert not reaches
            elif not seen:
                assert reaches and accepted
                unsolved.append(z.as_tuple())
            return accepted

        return real_solve(state, cb, deadline, lazy=lazy)

    def on_iteration(t, z, lb, ub):
        steps.append(t)
        ub_now[0] = ub

    monkeypatch.setattr(lower, "solve_lower_cp", counting_lower)
    monkeypatch.setattr(master, "master_solve", spying)
    rep = driver.solve_bcp(inst, mode="single_tree",
                           on_iteration=on_iteration)
    assert rep.status == driver.OPTIMAL
    assert unsolved
    assert rep.iterations == rep.n_cuts == len(steps)
    # theta_lb, one lower solve per step and the final extraction
    assert len(solved) == rep.iterations + 2
    assert rep.obj == pytest.approx(
        oracle.brute_force(inst, inst.k).best_f, abs=2e-5)


def test_single_tree_matches_the_oracle_and_multi_tree():
    # differential: n = 6-10 assets, k = 1, 3 or n; the bound trace of
    # every lower solve brackets the enumerated optimum f*, and a rerun
    # repeats the report and the trace exactly
    for seed in range(300, 312):
        n = 6 + seed % 5
        inst = make_instance(seed, n, 30 + seed % 7, (1, 3, n)[seed % 3])
        best_f = oracle.brute_force(inst, inst.k).best_f
        multi = driver.solve_bcp(inst)
        assert multi.status == driver.OPTIMAL
        runs = []
        for _ in range(2):
            trace = []
            rep = driver.solve_bcp(inst, mode="single_tree",
                                   on_iteration=lambda t, z, lb, ub:
                                   trace.append((t, z.as_tuple(), lb, ub)))
            assert rep.status == driver.OPTIMAL
            assert abs(rep.obj - best_f) <= 2e-5
            assert abs(rep.obj - multi.obj) <= 2e-5
            assert len(trace) == rep.iterations == rep.n_cuts
            for _, _, lb, ub in trace:
                assert lb <= best_f + 1e-9 and best_f - 1e-9 <= ub
            runs.append((canonical_report(rep), trace))
        assert runs[0] == runs[1]


def test_multi_tree_matches_single_tree_at_n_100():
    # differential at the paper's first difficulty, n=100: both modes run
    # one branch and bound, which multi-tree stops about 70 times at a
    # proven optimum to solve the lower level
    inst = make_instance(7, 100, 1000, 10)
    multi = driver.solve_bcp(inst)
    single = driver.solve_bcp(inst, mode="single_tree")
    assert multi.status == single.status == driver.OPTIMAL
    assert multi.selection.as_tuple() == single.selection.as_tuple()
    assert abs(multi.obj - single.obj) <= (driver.EPS_DEFAULT
                                           + driver.DELTA_DEFAULT)


@pytest.mark.slow
def test_single_tree_row_order_at_n_100_seed_9():
    # differential at the heavy tail of n=100 (580 lower solves and 64,602
    # boxes in each order): scenario row order leaves the problem unchanged,
    # so both orders must reach the same optimum
    inst = make_instance(9, 100, 1000, 10)
    order = np.random.default_rng(1).permutation(1000)
    permuted = Instance(n_assets=100, scenarios=inst.scenarios[order],
                        probs=inst.probs[order], side_A=inst.side_A,
                        side_b=inst.side_b, beta=inst.beta, gamma=inst.gamma,
                        k=10)
    runs = [driver.solve_bcp(case, mode="single_tree")
            for case in (inst, permuted)]
    assert [rep.status for rep in runs] == [driver.OPTIMAL] * 2
    assert runs[0].selection.as_tuple() == runs[1].selection.as_tuple()
    assert abs(runs[0].obj - runs[1].obj) <= (driver.EPS_DEFAULT
                                              + driver.DELTA_DEFAULT)


def test_bigm_program_wraps_the_lifted_program():
    # rows: x - z <= 0, the lifted core rows, 1'z <= k, z <= ub, -z <= -lb
    inst = make_instance(5, 6, 30, 2)
    n, S = 6, 30
    lifted = lower.lifted_program(inst, np.arange(n))
    sp = driver._bigm_program(inst)
    G, h = sp.core.ineq_G, sp.core.ineq_h
    m = lifted.core.ineq_h.size
    assert G.shape == (n + m + 1 + 2 * n, 2 * n + 2)
    assert not G[:n, :2].any() and not G[n:n + m, n + 2:].any()
    assert not G[n + m:, :n + 2].any()
    assert np.array_equal(G[:n, 2:], np.hstack([np.eye(n), -np.eye(n)]))
    assert np.array_equal(G[n:n + m, :n + 2], lifted.core.ineq_G)
    assert np.array_equal(h[n:n + m], lifted.core.ineq_h)
    # x >= 0 before the side rows, the order bigm's rows have always had:
    # its IPM is not invariant to row order (ROADMAP item 8)
    assert np.array_equal(G[n:2 * n, 2:n + 2], -np.eye(n))
    assert np.array_equal(G[2 * n:n + m, 2:n + 2], inst.side_A)
    assert np.array_equal(G[n + m, n + 2:], np.ones(n))
    assert h[n + m] == inst.k
    assert np.array_equal(G[-2 * n:, n + 2:],
                          np.vstack([np.eye(n), -np.eye(n)]))
    assert np.array_equal(sp.loss_core[:, :n + 2], lifted.loss_core)
    assert not sp.loss_core[:, n + 2:].any()
    assert np.array_equal(sp.agg_tail, lifted.agg_tail)
    assert sp.n_scenarios == S


def test_bigm_full_cardinality_solves_at_root():
    rep = driver.solve_bigm(two_asset_instance(k=2))
    assert rep.nodes == 1
    rng = np.random.default_rng(29)
    inst = random_instance(rng, 5, 20, k=5)
    rep = driver.solve_bigm(inst)
    assert rep.status == driver.OPTIMAL
    assert rep.nodes == 1


def test_bigm_root_without_interior_fails_cleanly():
    # at k = 1 the root relaxation has no interior (x <= z and 1'z <= 1 =
    # 1'x force z = x), and no shift level of the KKT factor stays finite:
    # the solve ends in the optimum or in SolverError, never in NaN
    inst = make_instance(103, 7, 40, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            rep = driver.solve_bigm(inst)
        except lower.SolverError:
            return
    assert rep.status == driver.OPTIMAL
    orc = oracle.brute_force(inst, 1)
    assert orc.best_f - 1e-9 <= rep.obj <= orc.best_f + 2e-5 + 1e-9


def edge_cardinality_instance(seed):
    """Seeds 100-139: n = 4 + seed % 5 assets, S = seed - 70 scenarios, and
    k = 1 at odd seeds, k = n at even ones."""
    n = 4 + seed % 5
    return make_instance(seed, n, seed - 70, 1 if seed % 2 else n)


def assert_matches_enumeration(inst, solves):
    orc = oracle.brute_force(inst, inst.k)
    for solve in solves:
        rep = solve(inst)
        if orc is None:
            assert rep.status == driver.INFEASIBLE
            continue
        assert rep.status == driver.OPTIMAL
        assert rep.selection.count() <= inst.k
        assert orc.best_f - 1e-9 <= rep.obj <= orc.best_f + 2e-5


def test_k_one_matches_enumeration():
    # bigm is left out: its root relaxation has no interior at k = 1, and
    # seeds 117 and 119 end in SolverError (see the test above)
    for seed in range(101, 140, 2):
        assert_matches_enumeration(edge_cardinality_instance(seed),
                                   CUTTING_PLANE_SOLVES)


def test_k_n_matches_enumeration():
    for seed in range(100, 140, 2):
        assert_matches_enumeration(edge_cardinality_instance(seed),
                                   CUTTING_PLANE_SOLVES + (driver.solve_bigm,))


def test_infeasible_instance_all_methods():
    inst = infeasible_instance()
    for rep in all_methods(inst):
        assert rep.status == driver.INFEASIBLE
        assert np.isnan(rep.obj)
        assert rep.selection is None
        assert rep.portfolio is None



def test_every_selection_infeasible_though_the_all_ones_portfolio_is_not():
    """Caps x_j <= 0.3 on n = 5 assets: the all-ones lower level is feasible
    but no selection of at most k = 2 assets is. theta_lb succeeds, every
    selection the master offers gets a cover row, the complement of its
    support, and the search ends with no selection left. Each of the ten
    pairs is solved, as only its own cover excludes it; the singletons
    offered before a pair that holds them add 3 lower solves in multi-tree
    bcp and cp and 1 in single-tree bcp, and no method solves the empty
    selection."""
    base = make_instance(3, 5, 40, 2)
    inst = Instance(n_assets=5, scenarios=base.scenarios, probs=base.probs,
                    side_A=np.eye(5), side_b=np.full(5, 0.3),
                    beta=base.beta, gamma=base.gamma, k=2)
    assert driver.theta_lb(inst, driver.DELTA_DEFAULT) is not None
    assert oracle.brute_force(inst, 2) is None
    for rep in all_methods(inst):
        assert rep.status == driver.INFEASIBLE, rep.method
        assert rep.selection is None and rep.portfolio is None, rep.method
        if rep.method != "bigm":
            expected = {"bcp": 13, "bcp_single_tree": 11, "cp": 13}
            assert rep.iterations == rep.n_cuts == expected[rep.method], \
                rep.method

def return_limit_instance(seed, offset):
    """test_acceptance.make_instance(seed, 8, 60, 3) with its return row
    rebuilt at mu_bar = max mu + offset: at offset 0 only the best-return
    asset alone meets it, and past 0 nothing does."""
    base = make_instance(seed, 8, 60, 3)
    free = Instance(n_assets=8, scenarios=base.scenarios, probs=base.probs,
                    side_A=np.zeros((0, 8)), side_b=[], beta=base.beta,
                    gamma=base.gamma, k=3)
    A, b = build_feasible_set(free, float(free.expected_returns.max())
                              + offset)
    return Instance(n_assets=8, scenarios=base.scenarios, probs=base.probs,
                    side_A=A, side_b=b, beta=base.beta, gamma=base.gamma,
                    k=3)


@pytest.mark.parametrize("seed", range(4))
def test_return_floor_at_and_past_the_best_asset(seed):
    """At mu_bar = max mu every method ends Optimal at the oracle's value;
    1e-8 and 1e-6 past it every method, the oracle included, reports the
    instance infeasible."""
    inst = return_limit_instance(seed, 0.0)
    best_f = oracle.brute_force(inst, 3).best_f
    for rep in all_methods(inst):
        assert rep.status == driver.OPTIMAL, rep.method
        assert abs(rep.obj - best_f) <= 2e-5, rep.method
    for offset in (1e-8, 1e-6):
        inst = return_limit_instance(seed, offset)
        assert oracle.brute_force(inst, 3) is None
        for rep in all_methods(inst):
            assert rep.status == driver.INFEASIBLE, rep.method


def capped_instance(seed):
    """test_acceptance.make_instance(seed, 9, 60, 3) with a cap x_j <= 0.45
    on every asset and its return row rebuilt at half the k-rule mu_bar:
    every selection of fewer than three assets is infeasible."""
    base = make_instance(seed, 9, 60, 3)
    capped = Instance(n_assets=9, scenarios=base.scenarios, probs=base.probs,
                      side_A=np.eye(9), side_b=np.full(9, 0.45),
                      beta=base.beta, gamma=base.gamma, k=3)
    A, b = build_feasible_set(
        capped, 0.5 * compute_mu_bar(capped.expected_returns, 3))
    return Instance(n_assets=9, scenarios=base.scenarios, probs=base.probs,
                    side_A=A, side_b=b, beta=base.beta, gamma=base.gamma,
                    k=3)


@pytest.mark.parametrize("seed", range(12))
def test_side_rows_match_the_oracle(seed):
    """Caps and a return row beside the simplex: no unit vertex meets the
    caps, so every scenario loop starts at the point numeric.feasible finds
    for lower._support_feasible. Every method ends Optimal within 2e-5 of the
    oracle, at a portfolio that meets the side rows."""
    inst = capped_instance(seed)
    best_f = oracle.brute_force(inst, 3).best_f
    for rep in all_methods(inst):
        assert rep.status == driver.OPTIMAL, rep.method
        assert abs(rep.obj - best_f) <= 2e-5, rep.method
        assert rep.selection.count() == 3, rep.method
        assert np.all(inst.side_A @ rep.portfolio.weights
                      <= inst.side_b + 1e-9), rep.method


def dense_rows_instance(seed):
    """test_acceptance.make_instance(seed, 8, 60, 3) with caps x_j <= u_j,
    u_j uniform in [0.3, 0.7], two dense rows a @ x <= b with standard
    normal a and b uniform in [-0.3, 0.3], and its return row rebuilt at
    half the k-rule mu_bar: 6 to 42 of the 56 supports of three assets are
    feasible on seeds 0-11."""
    base = make_instance(seed, 8, 60, 3)
    rng = np.random.default_rng(seed)
    side_A = np.vstack([np.eye(8), rng.normal(0.0, 1.0, (2, 8))])
    side_b = np.concatenate([rng.uniform(0.3, 0.7, 8),
                             rng.uniform(-0.3, 0.3, 2)])
    rows = Instance(n_assets=8, scenarios=base.scenarios, probs=base.probs,
                    side_A=side_A, side_b=side_b, beta=base.beta,
                    gamma=base.gamma, k=3)
    A, b = build_feasible_set(
        rows, 0.5 * compute_mu_bar(rows.expected_returns, 3))
    return Instance(n_assets=8, scenarios=base.scenarios, probs=base.probs,
                    side_A=A, side_b=b, beta=base.beta, gamma=base.gamma,
                    k=3)


@pytest.mark.parametrize("seed", range(12))
def test_dense_side_rows_match_the_oracle(seed):
    """Under several side rows an infeasible selection's cover is the
    complement of its support: both bcp modes and cp still end Optimal
    within 2e-5 of the oracle, at a portfolio that meets the side rows."""
    inst = dense_rows_instance(seed)
    best_f = oracle.brute_force(inst, 3).best_f
    for solve in CUTTING_PLANE_SOLVES:
        rep = solve(inst)
        assert rep.status == driver.OPTIMAL, rep.method
        assert abs(rep.obj - best_f) <= 2e-5, rep.method
        assert np.all(inst.side_A @ rep.portfolio.weights
                      <= inst.side_b + 1e-9), rep.method


def test_time_limit_reports_honestly():
    inst = two_asset_instance(k=1)
    for solve in CUTTING_PLANE_SOLVES:
        rep = solve(inst, time_limit=0.0)
        assert rep.status == driver.TIME_LIMIT
        assert np.isnan(rep.obj)
        assert np.isinf(rep.gap_pct)
        assert rep.iterations == rep.n_cuts == 0
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


def test_reports_do_not_depend_on_the_scenario_layout():
    """The lower level reads losses from its own asset-major copy of the
    scenario matrix, and the expected returns and the lifted solve's return
    aggregate are computed on C-order data, so a C-order matrix, a
    Fortran-order one, a view of every other row of a larger one and, at n
    = 40, a view of every other column, with the same values, give the same
    reports bit for bit."""
    for inst in (make_instance(3, 8, 600, 3), make_instance(7, 40, 1000, 8)):
        n, S = inst.n_assets, inst.n_scenarios
        tall = np.zeros((2 * S, n))
        tall[::2] = inst.scenarios
        layouts = [inst,
                   dataclasses.replace(
                       inst, scenarios=np.asfortranarray(inst.scenarios)),
                   dataclasses.replace(inst, scenarios=tall[::2])]
        assert layouts[2].scenarios.base is tall
        if n == 40:
            wide = np.zeros((S, 2 * n))
            wide[:, ::2] = inst.scenarios
            layouts.append(dataclasses.replace(inst, scenarios=wide[:, ::2]))
            assert layouts[3].scenarios.base is wide
        mus = {i.expected_returns.tobytes() for i in layouts}
        assert len(mus) == 1
        modes = ("single_tree",) if n == 40 else ("multi_tree",
                                                  "single_tree")
        for mode in modes:
            reports = {canonical_report(driver.solve_bcp(i, mode=mode))
                       for i in layouts}
            assert len(reports) == 1
        z = SelectionVector((np.arange(n) < inst.k).astype(np.int64))
        lifted = [lower.solve_lower_lifted(z, i) for i in layouts]
        assert len({r.certificate.omega.tobytes() for r in lifted}) == 1


def test_solving_another_instance_in_between_changes_nothing():
    """A, then B, then A again: the two reports of A are identical, though
    the lower level's kept scenario block moved from A to B and back."""
    a = make_instance(4, 8, 300, 3)
    b = make_instance(5, 8, 400, 3)
    for mode in ("multi_tree", "single_tree"):
        first = canonical_report(driver.solve_bcp(a, mode=mode))
        driver.solve_bcp(b, mode=mode)
        assert canonical_report(driver.solve_bcp(a, mode=mode)) == first


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
    # NaN fails every comparison: it would switch the gap test off, lift
    # the time limit or fail deep in the master
    nan = float("nan")
    for kwargs in ({"eps": nan}, {"delta": nan}, {"time_limit": nan}):
        with pytest.raises(ValueError):
            driver.solve_bcp(inst, **kwargs)
        with pytest.raises(ValueError):
            driver.solve_bcp(inst, mode="single_tree", **kwargs)
        if "delta" not in kwargs:
            with pytest.raises(ValueError):
                driver.solve_cp(inst, **kwargs)
            with pytest.raises(ValueError):
                driver.solve_bigm(inst, **kwargs)
    # inf stays allowed
    rep = driver.solve_bcp(inst, eps=float("inf"),
                           time_limit=float("inf"))
    assert rep.status == driver.OPTIMAL
    rep = driver.solve_bcp(inst)
    assert rep.params == {"eps": driver.EPS_DEFAULT,
                          "delta": driver.DELTA_DEFAULT,
                          "time_limit": driver.TIME_LIMIT_DEFAULT}


def test_time_sec_includes_portfolio_extraction(monkeypatch):
    extract = driver.extract_portfolio

    def slow_extract(z_hat, instance, resume=None):
        time.sleep(0.2)
        return extract(z_hat, instance, resume=resume)

    monkeypatch.setattr(driver, "extract_portfolio", slow_extract)
    report = driver.solve_bcp(two_asset_instance())
    assert report.status == driver.OPTIMAL
    assert report.time_sec >= 0.2


def test_oracle_time_sec_includes_portfolio_extraction(monkeypatch):
    extract = driver.extract_portfolio

    def slow_extract(z_hat, instance, resume=None):
        time.sleep(0.2)
        return extract(z_hat, instance, resume=resume)

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
