"""Tests for the master branch-and-bound solver."""

import itertools
import time

import numpy as np
import pytest

from cardcvar import master
from cardcvar.model import SelectionVector


def opt_cut(state, z0, f0, g):
    master.add_cut(state, SelectionVector(z0), f0, g)


def no_good(state, z0):
    """The cover row a lower solve adds for an infeasible z0 under several
    side rows, the complement of its support: it excludes z0 and every
    subset of it."""
    master.add_cover(state, np.asarray(z0) == 0)


def random_cover(rng, state):
    """A cover row over a random set of one to n - 1 members."""
    n = state.n_assets
    members = np.zeros(n, dtype=bool)
    members[rng.choice(n, int(rng.integers(1, n)), replace=False)] = True
    master.add_cover(state, members)


def brute_force(state, selections):
    """The smallest theta_at over the selections that meet every cover
    row, or None when none does."""
    return min((master.theta_at(state, bits) for bits in selections
                if not state.excluded(bits)), default=None)


def all_selections(n, k):
    out = []
    for count in range(k + 1):
        for combo in itertools.combinations(range(n), count):
            bits = np.zeros(n, dtype=np.int64)
            bits[list(combo)] = 1
            out.append(bits)
    return out


def enumerate_master(state):
    """Exhaustive reference: the master optimum, or None."""
    return brute_force(state, all_selections(state.n_assets, state.k))


def assert_optimum(state, result, ref_theta):
    """result is a master optimum: theta within the search's relative
    tolerance of the reference, and z a selection the region admits whose
    theta_at is theta exactly. Among tied selections any one may come
    back."""
    z, theta = result
    assert abs(theta - ref_theta) <= 1e-9 * (1.0 + abs(ref_theta))
    assert master.theta_at(state, z.bits) == theta
    assert not state.excluded(z.bits)
    assert z.count() <= state.k


def random_state(rng, n, k, n_opt, n_ng, p_zero=0.0, log=None, n_cov=0):
    """Continuous cuts; with p_zero, each gradient entry is exactly 0 with
    that probability, as a clipped omega makes it. log, when given,
    receives each optimality cut as (z0, f0, g). n_ng covers exclude a
    random selection and its subsets, and n_cov more have random
    members."""
    state = master.MasterState(n_assets=n, k=k,
                               theta_lb=float(rng.normal(-2.0, 1.0)))
    for _ in range(n_opt):
        bits = np.zeros(n, dtype=int)
        bits[rng.choice(n, rng.integers(0, k + 1), replace=False)] = 1
        g = -rng.uniform(0.0, 2.0, n)
        if p_zero:
            g[rng.random(n) < p_zero] = 0.0
        cut = (bits, float(rng.normal()), g)
        opt_cut(state, *cut)
        if log is not None:
            log.append(cut)
    for _ in range(n_ng):
        bits = np.zeros(n, dtype=int)
        bits[rng.choice(n, rng.integers(0, k + 1), replace=False)] = 1
        no_good(state, bits)
    for _ in range(n_cov):
        random_cover(rng, state)
    return state


def test_lower_bound_alone_binds():
    state = master.MasterState(n_assets=3, k=1, theta_lb=-5.0)
    z, theta = master.master_solve(state)
    assert theta == -5.0
    assert z.as_tuple() == (0, 0, 0)


def test_single_optimality_cut():
    state = master.MasterState(n_assets=2, k=1, theta_lb=-10.0)
    opt_cut(state, [1, 0], 5.0, [-2.0, -3.0])
    z, theta = master.master_solve(state)
    assert theta == pytest.approx(4.0, abs=1e-12)
    assert z.as_tuple() == (0, 1)


def test_no_good_shifts_optimum():
    state = master.MasterState(n_assets=2, k=1, theta_lb=-10.0)
    opt_cut(state, [1, 0], 5.0, [-2.0, -3.0])
    no_good(state, [0, 1])
    z, theta = master.master_solve(state)
    assert theta == pytest.approx(5.0, abs=1e-12)
    assert z.as_tuple() == (1, 0)


def test_excluded_best_selection_gives_the_next_best():
    # theta is 1 at the cut's origin, which a no-good excludes, and 2, 3
    # and 4 elsewhere: branch and bound must not start from the origin
    state = master.MasterState(n_assets=3, k=1, theta_lb=-10.0)
    opt_cut(state, [1, 0, 0], 1.0, [-3.0, -1.0, -2.0])
    no_good(state, [1, 0, 0])
    z, theta = master.master_solve(state)
    assert theta == 2.0
    assert z.as_tuple() == (0, 0, 1)


def test_positive_gradient_rejected():
    state = master.MasterState(n_assets=2, k=1, theta_lb=0.0)
    with pytest.raises(ValueError):
        opt_cut(state, [0, 0], 0.0, [0.5, -1.0])


@pytest.mark.parametrize("z0, f0, g", [
    ([0, 0], 0.0, [-1.0, -1.0, -1.0]),      # z of the wrong dimension
    ([0, 0], 0.0, [-1.0, -1.0]),            # both of the wrong dimension
    ([0, 0, 0], 0.0, [-1.0, -1.0]),         # gradient of the wrong length
    ([0, 0, 0], 0.0, None),                 # no gradient
    ([0, 0, 0], np.inf, [-1.0, -1.0, -1.0]),
    ([0, 0, 0], 0.0, [-1.0, -np.inf, -1.0]),
    ([0, 0, 0], 0.0, [-1.0, np.nan, -1.0]),
])
def test_malformed_optimality_cut_rejected(z0, f0, g):
    state = master.MasterState(n_assets=3, k=1, theta_lb=0.0)
    with pytest.raises(ValueError):
        opt_cut(state, z0, f0, g)
    assert state.n_cuts == state.base.size == 0


def test_no_good_of_the_wrong_dimension_rejected():
    state = master.MasterState(n_assets=3, k=1, theta_lb=0.0)
    with pytest.raises(ValueError):
        no_good(state, [1, 0])
    assert state.n_cuts == state.covers.shape[0] == 0


def test_matches_enumeration_on_random_pools():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, n + 1))
        state = random_state(rng, n, k, n_opt=int(rng.integers(1, 9)),
                             n_ng=int(rng.integers(0, 4)))
        result = master.master_solve(state)
        ref_theta = enumerate_master(state)
        if ref_theta is None:
            # a cover of every asset but those of an all-ones selection
            # has no member
            assert result is None
            continue
        assert_optimum(state, result, ref_theta)
        assert result[1] >= state.theta_lb


def test_branch_and_bound_matches_enumeration():
    # the box search agrees with enumeration: on continuous pools, on
    # quarter-grid pools, where distinct selections tie exactly, and on
    # pools whose gradients are 0 on most coordinates, each with up to two
    # cover rows of random members; each pool is solved again after the
    # cover of each optimum
    rng = np.random.default_rng(91)
    for trial in range(60):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, n + 1))
        n_opt = int(rng.integers(1, 9))
        if trial % 3 == 0:
            state = random_state(rng, n, k, n_opt,
                                 n_ng=int(rng.integers(0, 4)))
        elif trial % 3 == 1:
            state = dyadic_state(rng, n, k, n_opt)
        else:
            state = random_state(rng, n, k, n_opt, n_ng=0, p_zero=0.7)
        for _ in range(int(rng.integers(0, 3))):
            random_cover(rng, state)
        for _ in range(3):
            ref_theta = enumerate_master(state)
            if ref_theta is None:
                assert master.master_solve(state) is None
                break
            result = master.master_solve(state)
            assert_optimum(state, result, ref_theta)
            no_good(state, result[0].bits)


def test_theta_nondecreasing_as_cuts_accumulate():
    rng = np.random.default_rng(7)
    state = master.MasterState(n_assets=8, k=3, theta_lb=-4.0)
    prev = -np.inf
    for _ in range(12):
        bits = np.zeros(8, dtype=int)
        bits[rng.choice(8, 3, replace=False)] = 1
        opt_cut(state, bits, float(rng.normal()), -rng.uniform(0.0, 1.0, 8))
        _, theta = master.master_solve(state)
        assert theta >= prev - 1e-9
        prev = theta


def test_duplicate_cut_changes_nothing():
    rng = np.random.default_rng(3)
    cuts = []
    state = random_state(rng, 6, 2, n_opt=4, n_ng=1, log=cuts)
    ref_theta = enumerate_master(state)
    first = master.master_solve(state)
    assert_optimum(state, first, ref_theta)
    opt_cut(state, *cuts[0])
    assert enumerate_master(state) == ref_theta
    second = master.master_solve(state)
    assert_optimum(state, second, ref_theta)
    assert second[1] == first[1]


def test_no_good_is_never_returned_again():
    # each optimum's cover excludes it and its subsets, so no later optimum
    # is one of them, and the search runs out only after every pair, which
    # only its own cover excludes
    rng = np.random.default_rng(11)
    state = random_state(rng, 5, 2, n_opt=3, n_ng=0)
    seen = []
    while True:
        result = master.master_solve(state)
        if result is None:
            break
        z, _ = result
        assert not any(np.all(z.bits <= old) for old in seen)
        seen.append(z.bits)
        no_good(state, z.bits)
    pairs = {bits.tobytes() for bits in all_selections(5, 2)
             if bits.sum() == 2}
    assert pairs <= {bits.tobytes() for bits in seen}


def test_infeasible_when_no_goods_exhaust_region():
    state = master.MasterState(n_assets=3, k=1, theta_lb=0.0)
    for bits in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        no_good(state, bits)
    assert master.master_solve(state) is None


def test_root_bound_is_a_lower_bound():
    rng = np.random.default_rng(19)
    for _ in range(10):
        state = random_state(rng, 9, 3, n_opt=5, n_ng=2)
        bound, bits, _ = master.node_eval(state, np.full(9, 2, np.int8))
        assert bits.sum() <= state.k
        result = master.master_solve(state)
        if result is None:
            continue
        assert bound <= result[1] + 1e-9


def test_box_bound_is_the_best_single_cut():
    # on random boxes lb <= ub the bound is each cut's exact minimum over the
    # box's selections with at most k ones, maximised over the cuts, and it
    # lies below theta_at of every such selection
    rng = np.random.default_rng(4242)
    for _ in range(300):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n + 1))
        cuts = []
        state = random_state(rng, n, k, n_opt=int(rng.integers(0, 9)),
                             n_ng=0, p_zero=float(rng.choice([0.0, 0.3])),
                             log=cuts)
        mark = rng.integers(0, 3, n)   # 0 fixed off, 1 fixed on, 2 free
        on = np.flatnonzero(mark == 1)
        mark[on[k:]] = 2               # at most k fixed ones
        lb = (mark == 1).astype(float)
        ub = (mark >= 1).astype(float)
        bound, witness, branch = master.node_eval(state,
                                                  mark.astype(np.int8))

        free = [j for j in range(n) if lb[j] < ub[j]]
        budget = k - int(lb.sum())
        members = []
        for extra in range(min(budget, len(free)) + 1):
            for picked in itertools.combinations(free, extra):
                bits = lb.astype(np.int64)
                bits[list(picked)] = 1
                members.append(bits)
        for bits in members:
            theta = master.theta_at(state, bits)
            assert bound <= theta + 1e-12 * (1.0 + abs(theta))

        per_cut = [state.theta_lb]
        for z0, f0, g in cuts:
            at_lb = f0 + float(g @ (lb - z0))
            steps = sorted(float(g[j]) for j in free)
            per_cut.append(at_lb + sum(steps[:min(budget, len(free))]))
        assert bound == pytest.approx(max(per_cut), rel=1e-12, abs=1e-12)

        assert np.all(lb <= witness) and np.all(witness <= ub)
        assert witness.sum() <= k
        if len(members) == 1:
            assert branch == -1
        else:
            assert branch in free


def test_box_with_covers_bounds_its_cover_feasible_selections():
    # on random boxes with up to four cover rows: a dropped box holds no
    # selection that meets every cover; otherwise the bound lies below
    # theta_at of each that does, and the witness, when there is one, is
    # such a selection and lies in the box
    rng = np.random.default_rng(515)
    dropped = kept = 0
    for _ in range(400):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n + 1))
        state = random_state(rng, n, k, n_opt=int(rng.integers(0, 9)),
                             n_ng=int(rng.integers(0, 2)),
                             p_zero=float(rng.choice([0.0, 0.3])),
                             n_cov=int(rng.integers(1, 4)))
        mark = rng.integers(0, 3, n)
        on = np.flatnonzero(mark == 1)
        mark[on[k:]] = 2
        lb = (mark == 1).astype(np.int64)
        free = np.flatnonzero(mark == 2)
        members = []
        for extra in range(min(k - int(lb.sum()), free.size) + 1):
            for picked in itertools.combinations(free, extra):
                bits = lb.copy()
                bits[list(picked)] = 1
                if not state.excluded(bits):
                    members.append(bits)
        node = master.node_eval(state, mark.astype(np.int8))
        if node is None:
            assert not members
            dropped += 1
            continue
        kept += 1
        bound, witness, branch = node
        for bits in members:
            theta = master.theta_at(state, bits)
            assert bound <= theta + 1e-12 * (1.0 + abs(theta))
        if witness is not None:
            assert not state.excluded(witness)
            assert np.all(lb <= witness) and np.all(witness <= (mark >= 1))
            assert witness.sum() <= k
        assert branch in free or (branch == -1 and len(members) == 1)
    assert dropped > 20 and kept > 20


def test_master_solve_never_breaks_a_cover():
    # every selection the search offers or returns meets every cover row,
    # in both modes, while the callback adds random covers and cuts
    rng = np.random.default_rng(77)
    for trial in range(30):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, n))
        state = random_state(rng, n, k, n_opt=2, n_ng=0,
                             n_cov=int(rng.integers(1, 4)))
        for lazy in (False, True):
            offered = []

            def callback(z, theta, bound):
                assert not state.excluded(z.bits)
                offered.append(z.bits)
                if len(offered) > 6:
                    return True
                if rng.random() < 0.5:
                    random_cover(rng, state)
                else:
                    opt_cut(state, z.bits, theta + 0.5, -rng.uniform(0, 1, n))
                return False

            result = master.master_solve(state, callback, lazy=lazy)
            if result is None:
                assert enumerate_master(state) is None
                continue
            assert not state.excluded(result[0].bits)
            assert_optimum(state, result, enumerate_master(state))


def test_leaf_bound_is_theta_at_bit_for_bit():
    # theta has one definition: node_eval bounds a one-point box by exactly
    # theta_at, on float pools where differently ordered sums round apart
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(8, 41))
        k = int(rng.integers(1, n + 1))
        cuts = []
        state = random_state(rng, n, k, n_opt=int(rng.integers(1, 40)),
                             n_ng=0, log=cuts)
        for _ in range(20):
            bits = np.zeros(n, dtype=np.int64)
            bits[rng.choice(n, rng.integers(0, k + 1), replace=False)] = 1
            bound, witness, branch = master.node_eval(state,
                                                      bits.astype(np.int8))
            assert branch == -1
            assert witness.tolist() == bits.tolist()
            assert bound == master.theta_at(state, bits)
            # the per-cut form sums in another order: equal up to rounding
            per_cut = max([state.theta_lb] + [
                f0 + float(g @ (bits - z0)) for z0, f0, g in cuts])
            assert bound == pytest.approx(per_cut, rel=1e-12, abs=1e-12)


def milp_master(state):
    """HiGHS's solve of the master as a MILP over (z, theta), with the cover
    rows as rows."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = state.n_assets
    n_cov = state.covers.shape[0]
    rows = [np.hstack([state.grad, -np.ones((state.base.size, 1))]),
            np.append(np.ones(n), 0.0)[None, :],
            np.hstack([state.covers, np.zeros((n_cov, 1))])]
    lo = [np.full(state.base.size, -np.inf), [-np.inf], np.ones(n_cov)]
    hi = [-state.base, [state.k], np.full(n_cov, np.inf)]
    return milp(np.append(np.zeros(n), 1.0),
                constraints=LinearConstraint(np.vstack(rows),
                                             np.concatenate(lo),
                                             np.concatenate(hi)),
                integrality=np.append(np.ones(n), 0.0),
                bounds=Bounds(np.append(np.zeros(n), state.theta_lb),
                              np.append(np.ones(n), np.inf)),
                options={"mip_rel_gap": 0.0})


def test_branch_and_bound_matches_milp():
    # n = 40-80 is far past enumeration; every other pool is on the quarter
    # grid, where distinct selections tie exactly; up to two covers have
    # random members, and more exclude the master's own earlier optima
    rng = np.random.default_rng(1)
    for trial in range(12):
        n = int(rng.integers(40, 81))
        k = int(rng.integers(2, 6))
        n_opt = int(rng.integers(3, 12))
        if trial % 2 == 0:
            state = dyadic_state(rng, n, k, n_opt)
        else:
            state = random_state(rng, n, k, n_opt, n_ng=0)
        for _ in range(int(rng.integers(0, 3))):
            random_cover(rng, state)
        for _ in range(int(rng.integers(0, 4))):
            no_good(state, master.master_solve(state)[0].bits)
        ref = milp_master(state)
        assert ref.status == 0
        assert_optimum(state, master.master_solve(state), ref.fun)


def test_node_count_accumulates_across_solves():
    # node_count adds the boxes each solve bounds, at least one per solve:
    # a repeat over the same pool and a solve after a new cut both add to
    # it, each from the root box, since no box outlives its solve
    rng = np.random.default_rng(23)
    state = random_state(rng, 7, 3, n_opt=5, n_ng=0)
    counts = [0]
    for step in range(3):
        if step == 2:
            opt_cut(state, np.ones(7, dtype=int), 5.0, -np.ones(7))
        assert_optimum(state, master.master_solve(state),
                       enumerate_master(state))
        assert state.node_count > counts[-1]
        counts.append(state.node_count)


def test_deadline_raises_timeout():
    rng = np.random.default_rng(29)
    state = random_state(rng, 10, 4, n_opt=6, n_ng=0)
    with pytest.raises(master.MasterTimeout):
        master.master_solve(state, deadline=time.monotonic() - 1.0)


def test_callback_single_tree_injects_and_accepts():
    state = master.MasterState(n_assets=3, k=1, theta_lb=-10.0)
    seen = []

    def callback(z, theta, bound):
        seen.append((z.as_tuple(), theta))
        if state.n_cuts == 0:
            opt_cut(state, [0, 0, 0], 3.0, [-1.0, -1.0, -1.0])
            return False
        return True

    z, theta = master.master_solve(state, callback=callback, lazy=True)
    assert state.n_cuts == 1
    assert len(seen) >= 2
    assert theta == pytest.approx(2.0, abs=1e-9)
    assert z.count() == 1



def test_lazy_callback_that_accepts_after_adding_a_cut():
    """A single-tree callback may add a cut and still accept the candidate;
    the search then keeps the candidate at its theta with that cut, which
    master_solve returns."""
    state = master.MasterState(n_assets=3, k=1, theta_lb=-10.0)
    opt_cut(state, [1, 0, 0], 1.0, [-0.5, -0.2, -0.1])
    seen = set()

    def callback(z, theta, bound):
        if z.as_tuple() not in seen:
            seen.add(z.as_tuple())
            opt_cut(state, z.bits, theta + 0.3, np.zeros(3))
        return True

    z, theta = master.master_solve(state, callback=callback, lazy=True)
    assert theta == master.theta_at(state, z.bits)
    assert theta == pytest.approx(1.3, abs=1e-12)

def test_callback_reject_without_cut_is_an_error():
    # at a candidate (lazy) and at the search's optimum alike
    for lazy in (True, False):
        state = master.MasterState(n_assets=2, k=1, theta_lb=0.0)
        with pytest.raises(RuntimeError):
            master.master_solve(state, callback=lambda z, theta, bound:
                                False, lazy=lazy)


def dyadic_state(rng, n, k, n_opt):
    """Cuts on a grid of quarters: every theta is exact whatever the order
    of summation, so ties are exact."""
    state = master.MasterState(n_assets=n, k=k,
                               theta_lb=-0.25 * int(rng.integers(4, 12)))
    for _ in range(n_opt):
        bits = np.zeros(n, dtype=int)
        bits[rng.choice(n, int(rng.integers(0, k + 1)), replace=False)] = 1
        g = -0.25 * rng.integers(0, 3, n)
        opt_cut(state, bits, 0.25 * int(rng.integers(-4, 5)), g)
    return state


def test_tie_between_one_and_two_asset_selections():
    # n=16: {1, 2} (two ones) ties with {0} (one one) at the optimum, which
    # theta_lb caps; the pairs that hold 0 tie with {0} too
    n = 16
    state = master.MasterState(n_assets=n, k=2, theta_lb=-1.0)
    g = np.zeros(n)
    g[:3] = [-1.0, -0.5, -0.5]
    opt_cut(state, np.zeros(n, dtype=int), 0.0, g)
    z, theta = master.master_solve(state)
    assert theta == -1.0
    assert z.support().tolist() == [1, 2] or 0 in z.support()
    assert_optimum(state, (z, theta), enumerate_master(state))


def test_many_tied_optima_at_n_30():
    # n=30, k=3 on the quarter grid: several of the 4,525 selections tie
    # at the optimum, and the search returns one of them
    n, k = 30, 3
    rng = np.random.default_rng(30)
    state = dyadic_state(rng, n, k, n_opt=2)
    no_good(state, master.master_solve(state)[0].bits)
    scored = [master.theta_at(state, bits)
              for bits in all_selections(n, k) if not state.excluded(bits)]
    best = min(scored)
    assert scored.count(best) > 1
    result = master.master_solve(state)
    assert_optimum(state, result, best)
    assert result[1] == best


def test_empty_pool_returns_the_empty_selection():
    state = master.MasterState(n_assets=25, k=10, theta_lb=-1.5)
    z, theta = master.master_solve(state)
    assert z.as_tuple() == (0,) * 25
    assert theta == -1.5


def test_no_good_on_the_best_single_asset_at_n_70():
    # the last asset is the best single pick, and a no-good excludes it
    n = 70
    state = master.MasterState(n_assets=n, k=1, theta_lb=-2.0)
    opt_cut(state, np.zeros(n, dtype=int), 0.0, -np.linspace(0.0, 1.0, n))
    no_good(state, np.eye(n, dtype=int)[n - 1])
    z, theta = master.master_solve(state)
    assert z.support().tolist() == [n - 2]
    assert theta == pytest.approx(-68.0 / 69.0, abs=1e-12)


def test_lazy_master_matches_brute_force_over_cut_sequences():
    # one search takes nine cuts from its callback, which sees only the
    # search's proven optima, and each rejection reopens the boxes pruned
    # against the old incumbent; quarter-grid ties leave boxes on the heap
    # with stale bounds at the optimum's value
    rng = np.random.default_rng(64)
    for n, k in ((16, 4), (18, 3), (20, 3)):
        selections = all_selections(n, k)
        state = dyadic_state(rng, n, k, n_opt=1)
        offered = []

        def callback(z, theta, bound):
            assert bound == theta
            assert_optimum(state, (z, theta), brute_force(state, selections))
            offered.append(z.as_tuple())
            step = len(offered) - 1
            if step == 9:
                return True
            if step % 3 == 2:
                no_good(state, z.bits)
            else:
                bits = np.zeros(n, dtype=int)
                bits[rng.choice(n, int(rng.integers(0, k + 1)),
                                replace=False)] = 1
                opt_cut(state, bits, 0.25 * int(rng.integers(-4, 5)),
                        -0.25 * rng.integers(0, 3, n))
            return False

        z, theta = master.master_solve(state, callback)
        assert len(offered) == 10 and z.as_tuple() == offered[-1]
        assert state.n_cuts == 10
        assert_optimum(state, (z, theta), brute_force(state, selections))


def test_tie_left_by_no_goods_at_the_cutoff():
    # n=20, k=2: no-goods leave {0, 19} and {5, 6} tied at -2, the least
    # theta; either may come back
    n = 20
    state = master.MasterState(n_assets=n, k=2, theta_lb=-10.0)
    g = np.zeros(n)
    g[[0, 5, 6, 19]] = -1.0
    opt_cut(state, np.zeros(n, dtype=int), 0.0, g)
    for pair in ((5, 19), (6, 19), (0, 5), (0, 6)):
        bits = np.zeros(n, dtype=int)
        bits[list(pair)] = 1
        no_good(state, bits)
    result = master.master_solve(state)
    assert result[1] == -2.0
    assert result[0].support().tolist() in ([0, 19], [5, 6])
    assert_optimum(state, result, brute_force(state, all_selections(n, 2)))
