"""Tests for the exhaustive enumeration oracle."""

import itertools
import math

import numpy as np
import pytest

from cardcvar import lower, oracle
from cardcvar.model import Instance, SelectionVector, build_feasible_set


def two_asset_instance():
    return Instance(n_assets=2, scenarios=[[0.1, 0.2]], probs=[1.0],
                    side_A=np.zeros((0, 2)), side_b=[], beta=0.5, gamma=1.0,
                    k=1)


def random_instance(rng, n, s, k):
    scen = rng.normal(0.01, 0.05, size=(s, n))
    return Instance(n_assets=n, scenarios=scen, probs=np.full(s, 1.0 / s),
                    side_A=np.zeros((0, n)), side_b=[], beta=0.9,
                    gamma=10.0 / np.sqrt(n), k=k)


def test_two_asset_single_scenario():
    res = oracle.brute_force(two_asset_instance(), 1)
    assert res.best_z.as_tuple() == (0, 1)
    assert res.best_f == pytest.approx(0.3, abs=1e-8)
    assert res.evaluated == 2


def test_full_support_is_single_evaluation():
    rng = np.random.default_rng(5)
    inst = random_instance(rng, 5, 40, 5)
    res = oracle.brute_force(inst, 5)
    assert res.evaluated == 1
    assert res.best_z.as_tuple() == (1, 1, 1, 1, 1)
    f = lower.solve_lower_lifted(res.best_z, inst).f_lo
    assert res.best_f == pytest.approx(f, abs=1e-12)


def test_unattainable_return_row_is_infeasible():
    inst = two_asset_instance()
    A, b = build_feasible_set(inst, 0.5)
    inst = Instance(n_assets=2, scenarios=inst.scenarios, probs=inst.probs,
                    side_A=A, side_b=b, beta=0.5, gamma=1.0, k=1)
    assert oracle.brute_force(inst, 1) is None


def test_budget_refusal():
    rng = np.random.default_rng(1)
    inst = random_instance(rng, 50, 3, 25)
    assert math.comb(50, 25) > oracle.ENUM_BUDGET
    with pytest.raises(ValueError):
        oracle.brute_force(inst, 25)


def test_global_optimality_spot_check():
    rng = np.random.default_rng(31)
    inst = random_instance(rng, 7, 30, 3)
    res = oracle.brute_force(inst, 3)
    assert res.evaluated == math.comb(7, 3)
    for _ in range(100):
        count = int(rng.integers(1, 4))
        bits = np.zeros(7, dtype=int)
        bits[rng.choice(7, count, replace=False)] = 1
        solved = lower.solve_lower_lifted(SelectionVector(bits), inst)
        assert solved is not None
        assert res.best_f <= solved.f_lo + 1e-7


def test_exactly_k_equals_at_most_k():
    rng = np.random.default_rng(37)
    for trial in range(5):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, n))
        inst = random_instance(rng, n, 25, k)
        res = oracle.brute_force(inst, k)
        best_small = np.inf
        for size in range(1, k + 1):
            for support in itertools.combinations(range(n), size):
                bits = np.zeros(n, dtype=int)
                bits[list(support)] = 1
                solved = lower.solve_lower_lifted(SelectionVector(bits), inst)
                if solved is not None:
                    best_small = min(best_small, solved.f_lo)
        assert res.best_f == pytest.approx(best_small, abs=1e-9)


def test_tie_breaks_lexicographically():
    # duplicated asset column makes f((1,0)) and f((0,1)) bitwise equal
    scen = np.array([[0.1, 0.1], [-0.2, -0.2], [0.05, 0.05]])
    inst = Instance(n_assets=2, scenarios=scen, probs=[1 / 3] * 3,
                    side_A=np.zeros((0, 2)), side_b=[], beta=0.5, gamma=1.0,
                    k=1)
    res = oracle.brute_force(inst, 1)
    assert res.best_z.as_tuple() == (0, 1)
