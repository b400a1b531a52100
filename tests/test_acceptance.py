"""Acceptance suite: one test per criterion, pinned tolerances, and one
check of the report fields on criterion 01's instances.

Each test prints one `criterion NN: PASS` line on success (visible with -s);
under `pytest -v` the per-test PASSED/FAILED line carries the same verdict.
The heavy entries (criteria 7 and 8) solve S = 20,000 and S = 100,000
instances and dominate the suite's wall time.
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest

from cardcvar import cli, driver, ingest, lower, master, numeric, oracle
from cardcvar.model import (
    Instance,
    SelectionVector,
    build_feasible_set,
    compute_mu_bar,
    cvar,
    objective,
)


def make_instance(seed, n, s, k, beta=0.9):
    """Seeded instance in the style of monthly equity data: scenarios are
    multivariate normal draws under a one-factor covariance, so assets are
    strongly correlated; mu_bar follows the k-rule."""
    rng = np.random.default_rng(seed)
    mu = 0.002 + 0.028 * rng.random(n)
    load = 0.8 + 0.4 * rng.random(n)
    idio = 0.01 + 0.05 * rng.random(n)
    factor = 0.045 * rng.standard_normal((s, 1))
    scen = mu + load * factor + idio * rng.standard_normal((s, n))
    gamma = 10.0 / np.sqrt(n)
    base = Instance(n_assets=n, scenarios=scen, probs=np.full(s, 1.0 / s),
                    side_A=np.zeros((0, n)), side_b=[], beta=beta,
                    gamma=gamma, k=k)
    mu_bar = compute_mu_bar(base.expected_returns, k)
    A, b = build_feasible_set(base, mu_bar)
    return Instance(n_assets=n, scenarios=scen, probs=base.probs, side_A=A,
                    side_b=b, beta=beta, gamma=gamma, k=k)


def random_feasible_pair(rng, n_max=10, s_max=200):
    """(instance, selection) with a feasible lower level, deterministic."""
    while True:
        n = int(rng.integers(3, n_max + 1))
        s = int(rng.integers(10, s_max + 1))
        inst = make_instance(int(rng.integers(1 << 30)), n, s,
                             k=int(rng.integers(1, n + 1)))
        for _ in range(8):
            count = int(rng.integers(1, n + 1))
            bits = np.zeros(n, dtype=np.int64)
            bits[rng.choice(n, size=count, replace=False)] = 1
            z = SelectionVector(bits)
            if lower.solve_lower_lifted(z, inst) is not None:
                return inst, z


def exact_value(z, inst):
    res = lower.solve_lower_lifted(z, inst)
    return None if res is None else res.f_lo


def canonical_report(rep):
    """Byte-stable serialization of everything but time_sec."""
    return json.dumps({
        "method": rep.method, "status": rep.status, "obj": rep.obj,
        "gap_pct": rep.gap_pct, "iterations": rep.iterations,
        "nodes": rep.nodes, "cuts": rep.n_cuts,
        "selection": None if rep.selection is None
        else [int(b) for b in rep.selection.bits],
        "weights": None if rep.portfolio is None
        else [float(w) for w in rep.portfolio.weights],
        "cvar": rep.cvar, "var": rep.var,
        "expected_return": rep.expected_return, "params": rep.params,
    }, sort_keys=True)


def run_criterion1_suite():
    """20 seeded N=10, k=3, S=50 instances solved by every method."""
    runs = []
    for seed in range(20):
        inst = make_instance(seed, 10, 50, 3)
        orc = oracle.brute_force(inst, 3)
        traces = {"bcp": [], "cp": []}

        def hook(name):
            return lambda t, z, lb, ub: traces[name].append((t, lb, ub))

        reps = {
            "bcp": driver.solve_bcp(inst, on_iteration=hook("bcp")),
            "cp": driver.solve_cp(inst, on_iteration=hook("cp")),
            "bigm": driver.solve_bigm(inst),
        }
        runs.append({"inst": inst, "orc": orc, "reps": reps,
                     "traces": traces})
    return runs


@pytest.fixture(scope="module")
def criterion1_runs():
    t0 = time.monotonic()
    runs = run_criterion1_suite()
    return runs, time.monotonic() - t0


def test_criterion_01_oracle_equivalence(criterion1_runs):
    runs, elapsed = criterion1_runs
    tol = 1e-5 + max(driver.DELTA_DEFAULT, driver.EPS_DEFAULT)
    for run in runs:
        orc = run["orc"]
        assert orc is not None
        for name, rep in run["reps"].items():
            assert rep.status == driver.OPTIMAL, name
            assert abs(rep.obj - orc.best_f) <= tol, name
            if rep.selection.as_tuple() != orc.best_z.as_tuple():
                # different support must be an objective tie
                f_sel = exact_value(rep.selection, run["inst"])
                assert abs(f_sel - orc.best_f) <= tol, name
    assert elapsed < 60.0
    print(f"criterion 01: PASS - 20 instances x 3 methods within {tol:g} "
          f"of brute force in {elapsed:.1f}s")


def test_criterion_02_lifted_strong_duality():
    rng = np.random.default_rng(200)
    for _ in range(50):
        inst, z = random_feasible_pair(rng)
        res = lower.solve_lower_lifted(z, inst)
        f, cert = res.f_lo, res.certificate
        dual_obj = (-(inst.gamma / 2.0)
                    * float(z.bits @ (cert.omega ** 2))
                    + cert.lam)
        if inst.side_b.size:
            dual_obj -= float(inst.side_b @ cert.zeta)
        assert abs(f - dual_obj) <= 1e-7 * (1.0 + abs(f))
    print("criterion 02: PASS - lifted primal equals dual objective on 50 "
          "pairs within 1e-7*(1+|f|)")


def test_criterion_03_certificate_invariants():
    rng = np.random.default_rng(300)
    one = 0
    for _ in range(50):
        inst, z = random_feasible_pair(rng)
        res = lower.solve_lower_cp(z, inst, delta=1e-5)
        cert = res.certificate
        assert np.all(cert.alpha >= 0.0)
        assert np.all(cert.zeta >= 0.0)
        assert np.all(cert.omega >= 0.0)
        assert cert.alpha.sum() <= 1.0 + 1e-9
        weighted = sum(a * inst.probs[J].sum()
                       for a, J in zip(cert.alpha, res.subsets))
        assert abs(weighted - (1.0 - inst.beta)) <= 1e-8
        value = lower.certificate_objective(cert, z, inst)
        assert abs(value - res.f_lo) <= 1e-6 * (1.0 + abs(res.f_lo))
        one += 1
    assert one == 50
    print("criterion 03: PASS - certificates satisfy dual feasibility and "
          "match f_delta within 1e-6 on 50 pairs")


def test_criterion_04_sandwich_bounds():
    rng = np.random.default_rng(400)
    for delta in (1e-3, 1e-5):
        for _ in range(50):
            inst, z = random_feasible_pair(rng)
            res = lower.solve_lower_cp(z, inst, delta)
            f = exact_value(z, inst)
            assert res.f_lo <= f + 1e-9
            assert f <= res.f_hi + 1e-9
            assert res.f_hi <= res.f_lo + delta + 1e-9
    print("criterion 04: PASS - f_lo <= f_exact <= f_hi <= f_lo + delta "
          "+ 1e-9 for delta in {1e-3, 1e-5} on 50 pairs each")


def test_criterion_05_cut_validity():
    rng = np.random.default_rng(500)
    for _ in range(200):
        inst, z_hat = random_feasible_pair(rng, n_max=9, s_max=100)
        res = lower.solve_lower_cp(z_hat, inst, delta=1e-5)
        grad = lower.subgradient(res.certificate, inst.gamma)
        n = inst.n_assets
        for _ in range(8):
            bits = np.zeros(n, dtype=np.int64)
            bits[rng.choice(n, size=int(rng.integers(1, n + 1)),
                            replace=False)] = 1
            z = SelectionVector(bits)
            f = exact_value(z, inst)
            if f is not None:
                cut = res.f_lo + float(grad @ (z.bits - z_hat.bits))
                assert f >= cut - 1e-7
                break
    print("criterion 05: PASS - cuts underestimate f_exact within 1e-7 on "
          "200 pairs")


def test_criterion_06_bound_monotonicity(criterion1_runs):
    runs, _ = criterion1_runs
    for run in runs:
        best = run["orc"].best_f
        for name in ("bcp", "cp"):
            trace = run["traces"][name]
            assert len(trace) >= 1
            assert [t for t, _, _ in trace] == list(range(1, len(trace) + 1))
            for (_, lb0, ub0), (_, lb1, ub1) in zip(trace, trace[1:]):
                assert lb1 >= lb0 - 1e-12, name
                assert ub1 <= ub0 + 1e-12, name
            for _, lb, ub in trace:
                assert lb <= best + 1e-9, name
                assert ub >= best - 1e-9, name
    print("criterion 06: PASS - LB nondecreasing, UB nonincreasing, oracle "
          "inside [LB_t, UB_t] in every criterion-1 run")


def test_criterion_07_bcp_faster_than_cp_at_large_s():
    wins = []
    times = []
    for seed in (70, 71, 72):
        inst = make_instance(seed, 25, 20_000, 10)
        rep_bcp = driver.solve_bcp(inst)
        rep_cp = driver.solve_cp(inst)
        assert rep_bcp.status == driver.OPTIMAL
        assert rep_cp.status == driver.OPTIMAL
        assert abs(rep_bcp.obj - rep_cp.obj) <= 1e-5 + 2e-5
        wins.append(rep_bcp.time_sec < 0.5 * rep_cp.time_sec
                    and rep_bcp.time_sec < 300.0)
        times.append((rep_bcp.time_sec, rep_cp.time_sec))
    assert sum(wins) >= 2, times
    print(f"criterion 07: PASS - bcp vs cp seconds at S=20000: "
          f"{[(f'{b:.2f}', f'{c:.2f}') for b, c in times]}, "
          f"majority under half")


def test_criterion_08_scale_smoke(monkeypatch):
    inst = make_instance(800, 50, 100_000, 10)
    seen = []
    real_solve = numeric.solve

    def spy(prog):
        seen.append((type(prog).__name__, int(np.asarray(prog.lin).size)
                     if isinstance(prog, numeric.ConvexProgram) else -1))
        return real_solve(prog)

    monkeypatch.setattr(numeric, "solve", spy)
    rep = driver.solve_bcp(inst)
    assert rep.status == driver.OPTIMAL
    assert rep.time_sec < 1800.0
    assert seen
    for kind, dim in seen:
        assert kind == "ConvexProgram"
        assert dim <= inst.n_assets + 2
    print(f"criterion 08: PASS - N=50, S=100000 bcp Optimal in "
          f"{rep.time_sec:.1f}s; {len(seen)} QPs all of dimension <= N+2")


def test_criterion_09_determinism(criterion1_runs):
    runs, _ = criterion1_runs
    rerun = run_criterion1_suite()
    for first, second in zip(runs, rerun):
        for name in ("bcp", "cp", "bigm"):
            assert (canonical_report(first["reps"][name])
                    == canonical_report(second["reps"][name])), name
    print("criterion 09: PASS - rerun reports byte-identical modulo "
          "time_sec")


def test_criterion_10_parameter_fidelity():
    config = cli.RunConfig()
    assert config.beta == 0.9
    assert config.eps == 1e-5
    assert config.delta == 1e-5
    assert config.gamma == "auto"
    assert config.mu_bar == "auto"
    assert config.time_limit_sec == 3600.0
    assert driver.EPS_DEFAULT == 1e-5
    assert driver.DELTA_DEFAULT == 1e-5
    assert config.resolved_gamma(25) == pytest.approx(10.0 / 5.0)
    assert config.resolved_gamma(100) == pytest.approx(1.0)
    _, probs = ingest.parse_scenarios("2 1\n0.1\n0.2\n")
    assert probs == pytest.approx([0.5, 0.5])
    mu = np.array([0.03, 0.01, 0.04, 0.02])
    assert compute_mu_bar(mu, 1) == pytest.approx(0.3 * 0.01 + 0.7 * 0.04)
    assert compute_mu_bar(mu, 2) == pytest.approx(
        0.3 * np.mean([0.01, 0.02]) + 0.7 * np.mean([0.03, 0.04]))
    print("criterion 10: PASS - defaults beta=0.9, eps=delta=1e-5, p=1/S, "
          "gamma=10/sqrt(N), mu_bar rule asserted")


def test_report_fields_agree_with_the_portfolio(criterion1_runs):
    """On criterion 01's instances, every method's report (bcp, cp and bigm
    from the criterion 01 solves, bcpc and the oracle through cli) takes its
    objective, VaR and CVaR from the reported portfolio, and they agree with
    model.cvar's sort of all S losses."""
    runs, _ = criterion1_runs
    for run in runs:
        inst = run["inst"]
        reps = dict(run["reps"])
        for name in ("bcpc", "oracle"):
            reps[name] = cli.run_method(inst, cli.RunConfig(method=name, k=3))
        for name, rep in reps.items():
            port = rep.portfolio
            assert rep.status == driver.OPTIMAL, name
            assert rep.var == port.var_level, name
            assert rep.cvar == port.var_level + port.cvar_excess, name
            assert rep.obj == objective(port, inst), name
            a_star, value = cvar(port.weights, inst)
            assert rep.var == pytest.approx(a_star, rel=1e-12, abs=0), name
            assert rep.cvar == pytest.approx(value, rel=1e-12, abs=0), name
