import numpy as np
import pytest

from cardcvar.model import (
    Instance,
    Portfolio,
    SelectionVector,
    build_feasible_set,
    compute_mu_bar,
    cvar,
    objective,
)


def make_instance(scenarios, probs=None, beta=0.5, gamma=1.0, k=None,
                  side_A=None, side_b=None):
    scenarios = np.atleast_2d(np.asarray(scenarios, dtype=float))
    S, N = scenarios.shape
    if probs is None:
        probs = np.full(S, 1.0 / S)
    if k is None:
        k = N
    if side_A is None:
        side_A = np.zeros((0, N))
        side_b = np.zeros(0)
    return Instance(n_assets=N, scenarios=scenarios, probs=probs,
                    side_A=side_A, side_b=side_b, beta=beta, gamma=gamma, k=k)


def fbeta(a, x, instance):
    losses = -(instance.scenarios @ x)
    tail = instance.probs @ np.maximum(losses - a, 0.0)
    return a + tail / (1.0 - instance.beta)


def test_mu_bar_hand_example():
    assert compute_mu_bar([1, 2, 3, 4], 2) == pytest.approx(2.9)


def test_mu_bar_constant_vector():
    for k in (1, 2, 5):
        assert compute_mu_bar(np.full(5, 0.37), k) == pytest.approx(0.37)


def test_mu_bar_two_assets():
    assert compute_mu_bar([0.0, 10.0], 1) == pytest.approx(7.0)


def test_mu_bar_rejects_bad_k():
    with pytest.raises(ValueError):
        compute_mu_bar([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        compute_mu_bar([1.0, 2.0], 3)


def test_build_feasible_set_single_row():
    inst = make_instance([[0.1, 0.2]])
    A, b = build_feasible_set(inst, 0.15)
    assert A.shape == (1, 2)
    np.testing.assert_allclose(A, [[-0.1, -0.2]])
    np.testing.assert_allclose(b, [-0.15])


def test_build_feasible_set_vacuous_bound():
    inst = make_instance([[0.3]], k=1)
    A, b = build_feasible_set(inst, 0.3)
    # the only simplex point x = [1] satisfies the row with equality
    assert A @ np.array([1.0]) <= b + 1e-15


def test_build_feasible_set_stacks_side_rows():
    side_A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    side_b = np.array([0.5, 0.9])
    inst = make_instance([[0.1, 0.2, 0.3]], side_A=side_A, side_b=side_b)
    A, b = build_feasible_set(inst, 0.2)
    assert A.shape == (3, 3)
    assert b.shape == (3,)
    np.testing.assert_allclose(A[:2], side_A)
    np.testing.assert_allclose(A[2], [-0.1, -0.2, -0.3])


def test_cvar_two_scenarios():
    inst = make_instance([[0.1], [-0.2]], beta=0.5)
    a_star, value = cvar(np.array([1.0]), inst)
    assert a_star == pytest.approx(-0.1)
    assert value == pytest.approx(0.2)


def test_cvar_worst_decile():
    # equiprobable losses 1..10 at beta = 0.9: VaR 9, CVaR 10
    returns = -np.arange(1.0, 11.0)[:, None]
    inst = make_instance(returns, beta=0.9)
    a_star, value = cvar(np.array([1.0]), inst)
    assert a_star == pytest.approx(9.0)
    assert value == pytest.approx(10.0)


def test_cvar_single_scenario_degenerate():
    inst = make_instance([[0.4, -0.1]], beta=0.9)
    x = np.array([0.25, 0.75])
    a_star, value = cvar(x, inst)
    expected = -(0.4 * 0.25 - 0.1 * 0.75)
    assert a_star == pytest.approx(expected)
    assert value == pytest.approx(expected)


def test_cvar_is_min_of_fbeta():
    rng = np.random.default_rng(7)
    for _ in range(20):
        S = int(rng.integers(2, 40))
        N = int(rng.integers(1, 5))
        probs = rng.random(S)
        probs /= probs.sum()
        inst = make_instance(rng.normal(size=(S, N)), probs=probs,
                             beta=float(rng.uniform(0.1, 0.95)))
        x = rng.random(N)
        x /= x.sum()
        a_star, value = cvar(x, inst)
        assert fbeta(a_star, x, inst) == pytest.approx(value, abs=1e-12)
        grid = np.linspace(-3.0, 3.0, 601)
        best = min(fbeta(a, x, inst) for a in grid)
        assert value <= best + 1e-9


def test_cvar_positively_homogeneous():
    rng = np.random.default_rng(11)
    base = rng.normal(size=(15, 3))
    x = np.array([0.2, 0.5, 0.3])
    for t in (0.5, 2.0, 7.5):
        inst1 = make_instance(base, beta=0.8)
        inst2 = make_instance(t * base, beta=0.8)
        a1, c1 = cvar(x, inst1)
        a2, c2 = cvar(x, inst2)
        assert a2 == pytest.approx(t * a1, abs=1e-12)
        assert c2 == pytest.approx(t * c1, abs=1e-12)


def test_cvar_dominates_mean_loss():
    rng = np.random.default_rng(13)
    for _ in range(20):
        S = int(rng.integers(2, 30))
        inst = make_instance(rng.normal(size=(S, 2)),
                             beta=float(rng.uniform(0.05, 0.95)))
        x = rng.random(2)
        x /= x.sum()
        _, value = cvar(x, inst)
        mean_loss = inst.probs @ (-(inst.scenarios @ x))
        assert value >= mean_loss - 1e-12


def test_objective_examples():
    inst = make_instance([[0.1, 0.2]], gamma=1.0)
    assert objective(Portfolio([1.0, 0.0], 0.0, 0.0), inst) == pytest.approx(0.5)
    assert objective(Portfolio([0.45, 0.55], -0.155, 0.0), inst) == pytest.approx(0.0975)
    # infeasible zero portfolio must still evaluate
    assert objective(Portfolio([0.0, 0.0], 1.0, 2.0), inst) == pytest.approx(3.0)


def test_instance_validation():
    good = make_instance([[0.1, 0.2]])
    assert good.n_scenarios == 1
    with pytest.raises(ValueError):
        make_instance([[0.1, 0.2]], probs=[0.6, 0.6])
    with pytest.raises(ValueError):
        make_instance([[0.1, 0.2]], beta=1.0)
    with pytest.raises(ValueError):
        make_instance([[0.1, 0.2]], gamma=0.0)
    with pytest.raises(ValueError):
        make_instance([[0.1, 0.2]], k=3)
    with pytest.raises(ValueError):
        make_instance([[np.inf, 0.2]])


def test_instance_negative_probs_rejected():
    with pytest.raises(ValueError):
        make_instance([[0.1], [0.2]], probs=[1.5, -0.5])


def test_expected_returns_weighted():
    inst = make_instance([[1.0, 0.0], [0.0, 1.0]], probs=[0.25, 0.75])
    np.testing.assert_allclose(inst.expected_returns, [0.25, 0.75])


def test_expected_returns_computed_once():
    rng = np.random.default_rng(3)
    inst = make_instance(rng.normal(size=(50, 4)), probs=np.full(50, 0.02))
    first = inst.expected_returns
    assert inst.expected_returns is first
    assert np.array_equal(first, inst.probs @ inst.scenarios)
    assert not first.flags.writeable


def test_selection_vector():
    z = SelectionVector(np.array([1, 0, 1, 0]))
    assert z.count() == 2
    np.testing.assert_array_equal(z.support(), [0, 2])
    assert z.as_tuple() == (1, 0, 1, 0)
    z.validate(2)
    with pytest.raises(ValueError):
        z.validate(1)
    with pytest.raises(ValueError):
        SelectionVector(np.array([0, 2]))


def test_portfolio_validate():
    Portfolio([0.5, 0.5], 0.0, 0.0).validate()
    with pytest.raises(ValueError):
        Portfolio([0.6, 0.6], 0.0, 0.0).validate()
    with pytest.raises(ValueError):
        Portfolio([1.5, -0.5], 0.0, 0.0).validate()
    with pytest.raises(ValueError):
        Portfolio([0.5, 0.5], 0.0, -1.0).validate()
    with pytest.raises(ValueError):
        Portfolio([np.nan, 0.5], 0.0, 0.0)
