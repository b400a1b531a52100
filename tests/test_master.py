"""Tests for the master branch-and-bound solver."""

import itertools
import time

import numpy as np
import pytest

from cardcvar import master
from cardcvar.model import SelectionVector


def opt_cut(z0, f0, g):
    return master.Cut(kind=master.OPTIMALITY, origin=SelectionVector(z0),
                      intercept=f0, grad=g)


def no_good(z0):
    return master.Cut(kind=master.NO_GOOD, origin=SelectionVector(z0))


def enumerate_master(state):
    """Exhaustive reference: (theta, lexicographically smallest bits)."""
    best_theta, best_bits = np.inf, None
    for bits in itertools.product((0, 1), repeat=state.n_assets):
        arr = np.array(bits, dtype=np.int64)
        if arr.sum() > state.k:
            continue
        if any(c.kind == master.NO_GOOD
               and np.array_equal(arr, c.origin.bits) for c in state.cuts):
            continue
        theta = master.theta_at(state, arr)
        if theta < best_theta - 1e-12:
            best_theta, best_bits = theta, bits
        elif abs(theta - best_theta) <= 1e-12 and bits < best_bits:
            best_bits = bits
    return best_theta, best_bits


def random_state(rng, n, k, n_opt, n_ng):
    state = master.MasterState(n_assets=n, k=k,
                               theta_lb=float(rng.normal(-2.0, 1.0)))
    for _ in range(n_opt):
        bits = np.zeros(n, dtype=int)
        bits[rng.choice(n, rng.integers(0, k + 1), replace=False)] = 1
        g = -rng.uniform(0.0, 2.0, n)
        master.add_cut(state, opt_cut(bits, float(rng.normal()), g))
    for _ in range(n_ng):
        bits = np.zeros(n, dtype=int)
        bits[rng.choice(n, rng.integers(0, k + 1), replace=False)] = 1
        master.add_cut(state, no_good(bits))
    return state


def test_lower_bound_alone_binds():
    state = master.MasterState(n_assets=3, k=1, theta_lb=-5.0)
    z, theta = master.master_solve(state)
    assert theta == -5.0
    assert z.as_tuple() == (0, 0, 0)


def test_single_optimality_cut():
    state = master.MasterState(n_assets=2, k=1, theta_lb=-10.0)
    master.add_cut(state, opt_cut([1, 0], 5.0, [-2.0, -3.0]))
    z, theta = master.master_solve(state)
    assert theta == pytest.approx(4.0, abs=1e-12)
    assert z.as_tuple() == (0, 1)


def test_no_good_shifts_optimum():
    state = master.MasterState(n_assets=2, k=1, theta_lb=-10.0)
    master.add_cut(state, opt_cut([1, 0], 5.0, [-2.0, -3.0]))
    master.add_cut(state, no_good([0, 1]))
    z, theta = master.master_solve(state)
    assert theta == pytest.approx(5.0, abs=1e-12)
    assert z.as_tuple() == (1, 0)


def test_lexicographic_tie_break():
    # theta >= -sum(z) ties every single-asset selection at -1
    state = master.MasterState(n_assets=3, k=1, theta_lb=-10.0)
    master.add_cut(state, opt_cut([0, 0, 0], 0.0, [-1.0, -1.0, -1.0]))
    z, theta = master.master_solve(state)
    assert theta == pytest.approx(-1.0, abs=1e-12)
    assert z.as_tuple() == (0, 0, 1)


def test_positive_gradient_rejected():
    with pytest.raises(ValueError):
        opt_cut([0, 0], 0.0, [0.5, -1.0])


def test_matches_enumeration_on_random_pools():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, n + 1))
        state = random_state(rng, n, k, n_opt=int(rng.integers(1, 9)),
                             n_ng=int(rng.integers(0, 4)))
        ref_theta, ref_bits = enumerate_master(state)
        z, theta = master.master_solve(state)
        assert abs(theta - ref_theta) <= 1e-9 * (1.0 + abs(ref_theta))
        assert z.as_tuple() == ref_bits
        assert theta >= state.theta_lb
        assert theta == pytest.approx(master.theta_at(state, z.bits),
                                      abs=1e-12)


def test_branch_and_bound_matches_enumeration(monkeypatch):
    # force the box search even for tiny pools and check it agrees with
    # the tabulated path on value, selection, and lexicographic ties
    monkeypatch.setattr(master, "_ENUM_LIMIT", 0)
    rng = np.random.default_rng(91)
    for trial in range(20):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, n + 1))
        state = random_state(rng, n, k, n_opt=int(rng.integers(1, 9)),
                             n_ng=int(rng.integers(0, 4)))
        ref_theta, ref_bits = enumerate_master(state)
        z, theta = master.master_solve(state)
        assert abs(theta - ref_theta) <= 1e-9 * (1.0 + abs(ref_theta))
        assert z.as_tuple() == ref_bits


def test_theta_nondecreasing_as_cuts_accumulate():
    rng = np.random.default_rng(7)
    state = master.MasterState(n_assets=8, k=3, theta_lb=-4.0)
    prev = -np.inf
    for _ in range(12):
        bits = np.zeros(8, dtype=int)
        bits[rng.choice(8, 3, replace=False)] = 1
        master.add_cut(state, opt_cut(bits, float(rng.normal()),
                                      -rng.uniform(0.0, 1.0, 8)))
        _, theta = master.master_solve(state)
        assert theta >= prev - 1e-9
        prev = theta


def test_duplicate_cut_changes_nothing():
    rng = np.random.default_rng(3)
    state = random_state(rng, 6, 2, n_opt=4, n_ng=1)
    z1, t1 = master.master_solve(state)
    master.add_cut(state, state.cuts[0])
    z2, t2 = master.master_solve(state)
    assert z1.as_tuple() == z2.as_tuple()
    assert t1 == pytest.approx(t2, abs=1e-12)


def test_no_good_is_never_returned_again():
    rng = np.random.default_rng(11)
    state = random_state(rng, 5, 2, n_opt=3, n_ng=0)
    seen = set()
    while True:
        result = master.master_solve(state)
        if result is None:
            break
        z, _ = result
        assert z.as_tuple() not in seen
        seen.add(z.as_tuple())
        master.add_cut(state, no_good(z.bits))
    # all of {z : sum(z) <= 2} over 5 assets must have been visited
    assert len(seen) == 1 + 5 + 10


def test_infeasible_when_no_goods_exhaust_region():
    state = master.MasterState(n_assets=3, k=1, theta_lb=0.0)
    for bits in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        master.add_cut(state, no_good(bits))
    assert master.master_solve(state) is None


def test_root_bound_is_a_lower_bound():
    rng = np.random.default_rng(19)
    for _ in range(10):
        state = random_state(rng, 9, 3, n_opt=5, n_ng=2)
        table = master._CutTable(state)
        bound, bits, _ = table.node_eval(np.zeros(9), np.ones(9))
        assert bits.sum() <= state.k
        result = master.master_solve(state)
        if result is None:
            continue
        assert bound <= result[1] + 1e-9


def test_node_limit_raises_and_carries_incumbent():
    state = master.MasterState(n_assets=2, k=1, theta_lb=-10.0)
    master.add_cut(state, opt_cut([0, 0], 0.0, [-1.0, 0.0]))
    master.add_cut(state, opt_cut([0, 0], 0.0, [0.0, -1.0]))
    with pytest.raises(master.MasterNodeLimit) as info:
        master.master_solve(state, node_limit=1)
    inc = info.value.incumbent
    assert inc is None or isinstance(inc[0], SelectionVector)


def test_node_count_accumulates_across_solves():
    rng = np.random.default_rng(23)
    state = random_state(rng, 7, 3, n_opt=5, n_ng=0)
    master.master_solve(state)
    first = state.node_count
    assert first > 0
    master.master_solve(state)
    assert state.node_count > first


def test_deadline_raises_timeout():
    rng = np.random.default_rng(29)
    state = random_state(rng, 10, 4, n_opt=6, n_ng=0)
    with pytest.raises(master.MasterTimeout):
        master.master_solve(state, deadline=time.monotonic() - 1.0)


def test_callback_single_tree_injects_and_accepts():
    state = master.MasterState(n_assets=3, k=1, theta_lb=-10.0)
    seen = []

    def callback(z, theta):
        seen.append((z.as_tuple(), theta))
        if len(state.cuts) == 0:
            master.add_cut(state, opt_cut([0, 0, 0], 3.0,
                                          [-1.0, -1.0, -1.0]))
            return False
        return True

    z, theta = master.master_solve(state, callback=callback)
    assert len(state.cuts) == 1
    assert len(seen) >= 2
    assert theta == pytest.approx(2.0, abs=1e-9)
    assert z.count() == 1


def test_callback_reject_without_cut_is_an_error():
    state = master.MasterState(n_assets=2, k=1, theta_lb=0.0)
    with pytest.raises(RuntimeError):
        master.master_solve(state, callback=lambda z, theta: False)


def dyadic_state(rng, n, k, n_opt):
    """Cuts on a grid of quarters: every theta is exact in float32 and in
    float64 whatever the order of summation, so ties are exact."""
    state = master.MasterState(n_assets=n, k=k,
                               theta_lb=-0.25 * int(rng.integers(4, 12)))
    for _ in range(n_opt):
        bits = np.zeros(n, dtype=int)
        bits[rng.choice(n, int(rng.integers(0, k + 1)), replace=False)] = 1
        g = -0.25 * rng.integers(0, 3, n)
        master.add_cut(state, opt_cut(bits, 0.25 * int(rng.integers(-4, 5)),
                                      g))
    return state


def test_float32_blocks_match_enumeration_with_ties(monkeypatch):
    monkeypatch.setattr(master, "_F64_ROWS", 0)
    rng = np.random.default_rng(14)
    for n, k in ((14, 5), (15, 9), (16, 4)):
        state = dyadic_state(rng, n, k, n_opt=4)
        for _ in range(3):
            ref_theta, ref_bits = enumerate_master(state)
            z, theta = master.master_solve(state)
            assert state._enum_cache["theta"][0].dtype == np.float32
            assert theta == ref_theta
            assert z.as_tuple() == ref_bits
            master.add_cut(state, no_good(z.bits))


@pytest.mark.parametrize("f64_rows", [master._F64_ROWS, 0])
def test_tie_break_across_popcount_blocks(monkeypatch, f64_rows):
    # n=16: coordinates 0-2 form the high part of a code. {1, 2} (two high
    # ones) ties with {0} (one high one) and is lexicographically smaller
    monkeypatch.setattr(master, "_F64_ROWS", f64_rows)
    n = 16
    state = master.MasterState(n_assets=n, k=2, theta_lb=-5.0)
    g = np.zeros(n)
    g[:3] = [-1.0, -0.5, -0.5]
    master.add_cut(state, opt_cut(np.zeros(n, dtype=int), 0.0, g))
    for j in (1, 2):
        bits = np.zeros(n, dtype=int)
        bits[[0, j]] = 1
        master.add_cut(state, no_good(bits))
    z, theta = master.master_solve(state)
    assert theta == -1.0
    assert z.support().tolist() == [1, 2]


@pytest.mark.parametrize("f64_rows", [master._F64_ROWS, 0])
def test_high_part_wider_than_low_part(monkeypatch, f64_rows):
    # n=30: the high part of a code has 17 bits, the low part 13
    monkeypatch.setattr(master, "_F64_ROWS", f64_rows)
    n, k = 30, 3
    rng = np.random.default_rng(30)
    state = dyadic_state(rng, n, k, n_opt=2)
    master.add_cut(state, no_good(master.master_solve(state)[0].bits))
    scored = []
    for count in range(k + 1):
        for combo in itertools.combinations(range(n), count):
            bits = np.zeros(n, dtype=np.int64)
            bits[list(combo)] = 1
            if not any(c.kind == master.NO_GOOD and c.excludes(bits)
                       for c in state.cuts):
                scored.append((master.theta_at(state, bits), tuple(bits)))
    best = min(scored)
    assert sum(theta == best[0] for theta, _ in scored) > 1
    z, theta = master.master_solve(state)
    assert theta == best[0]
    assert z.as_tuple() == best[1]


def test_empty_pool_returns_the_empty_selection():
    state = master.MasterState(n_assets=25, k=10, theta_lb=-1.5)
    z, theta = master.master_solve(state)
    assert z.as_tuple() == (0,) * 25
    assert theta == -1.5
    assert state.node_count == master._selection_count(25, 10)


def test_enumeration_layout_stays_small():
    # the cached layout of the 7.1M-selection table at n=25, k=10, without
    # the theta scores themselves, holds no table-sized array
    n, k = 25, 10
    rows = master._selection_count(n, k)
    state = master.MasterState(n_assets=n, k=k, theta_lb=-1.0)
    master.add_cut(state, opt_cut(np.zeros(n, dtype=int), 0.0,
                                  -np.linspace(0.0, 1.0, n)))
    master.add_cut(state, no_good(np.zeros(n, dtype=int)))
    master.master_solve(state)
    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                yield from arrays(item)

    cached = list(arrays(tuple(master._layout(n, k))))
    cached += arrays([v for key, v in state._enum_cache.items()
                      if key != "theta"])
    assert sum(arr.nbytes for arr in cached) < 1 << 20
    for arr in cached:
        assert arr.size < 1 << n
        assert not (arr.dtype == np.intp and arr.size >= rows)
    assert sum(b.size for b in state._enum_cache["theta"]) == rows


def test_codes_wider_than_64_bits_fall_back_to_branch_and_bound():
    # 71 selections would be tabulated, but their codes need 70 bits
    n = 70
    state = master.MasterState(n_assets=n, k=1, theta_lb=-2.0)
    master.add_cut(state, opt_cut(np.zeros(n, dtype=int), 0.0,
                                  -np.linspace(0.0, 1.0, n)))
    master.add_cut(state, no_good(np.eye(n, dtype=int)[n - 1]))
    z, theta = master.master_solve(state)
    assert z.support().tolist() == [n - 2]
    assert theta == pytest.approx(-68.0 / 69.0, abs=1e-12)


def brute_force(state, selections):
    """(theta, bits) of the smallest theta_at over the selections a no-good
    does not exclude, ties to the lexicographically smallest bits."""
    excluded = {c.origin.as_tuple() for c in state.cuts
                if c.kind == master.NO_GOOD}
    return min((master.theta_at(state, bits), tuple(bits))
               for bits in selections if tuple(bits) not in excluded)


def all_selections(n, k):
    out = []
    for count in range(k + 1):
        for combo in itertools.combinations(range(n), count):
            bits = np.zeros(n, dtype=np.int64)
            bits[list(combo)] = 1
            out.append(bits)
    return out


@pytest.mark.parametrize("f64_rows", [master._F64_ROWS, 0])
def test_lazy_master_matches_brute_force_over_cut_sequences(monkeypatch,
                                                             f64_rows):
    # 64-entry chunks split each table into single rows (8-64 chunks), so
    # quarter-grid ties span chunks and most chunks stay stale between calls
    monkeypatch.setattr(master, "_ENUM_CHUNK", 64)
    monkeypatch.setattr(master, "_F64_ROWS", f64_rows)
    rng = np.random.default_rng(64)
    for n, k in ((16, 4), (18, 3), (20, 3)):
        selections = all_selections(n, k)
        state = dyadic_state(rng, n, k, n_opt=1)
        stale = 0
        for step in range(9):
            if step % 3 == 2:
                master.add_cut(state, no_good(z.bits))
            else:
                bits = np.zeros(n, dtype=int)
                bits[rng.choice(n, int(rng.integers(0, k + 1)),
                                replace=False)] = 1
                master.add_cut(state, opt_cut(
                    bits, 0.25 * int(rng.integers(-4, 5)),
                    -0.25 * rng.integers(0, 3, n)))
            z, theta = master.master_solve(state)
            assert (theta, z.as_tuple()) == brute_force(state, selections)
            cache = state._enum_cache
            stale += int((cache["done"] < len(state.cuts)).sum())
        assert cache["theta"][0].dtype == (np.float32 if f64_rows == 0
                                           else np.float64)
        assert cache["chunks"].block.size >= 8
        assert stale > 0


def test_chunk_bound_is_the_cut_minimum(monkeypatch):
    # one pending cut over a theta_lb below all its scores: the bound cached
    # for each chunk is bitwise the least score the cut gives that chunk
    monkeypatch.setattr(master, "_ENUM_CHUNK", 64)
    monkeypatch.setattr(master, "_F64_ROWS", 0)
    rng = np.random.default_rng(5)
    n, k = 20, 5
    state = master.MasterState(n_assets=n, k=k, theta_lb=-1e6)
    master.master_solve(state)
    bits = np.zeros(n, dtype=int)
    bits[rng.choice(n, k, replace=False)] = 1
    master.add_cut(state, opt_cut(bits, float(rng.normal()),
                                  -rng.uniform(0.0, 1.0, n)))
    cache = master._enum_cache(state)
    bounds = cache["bound"].copy()
    assert bounds.dtype == np.float32
    assert (cache["done"] < 1).all()
    chunks = cache["chunks"]
    for c in range(bounds.size):
        master._refresh(cache, c)
        rows = cache["theta"][chunks.block[c]][chunks.start[c]:
                                              chunks.stop[c]]
        assert bounds[c] == rows.min()
    assert bounds.size > 50


@pytest.mark.parametrize("f64_rows", [master._F64_ROWS, 0])
def test_tie_in_a_stale_chunk_at_the_cutoff(monkeypatch, f64_rows):
    # n=20, k=2, 64-entry chunks: block 1 (one high one) splits into rows
    # {6, 5, 4, 3} and {2, 1, 0} of the high coordinates, block 2 is one
    # chunk. {0, 19} and {5, 6} tie at -2; best-first brings {0, 19}'s
    # chunk up to date, while the chunk of the smaller {5, 6} still holds
    # its pending cut's bound, exactly -2
    monkeypatch.setattr(master, "_ENUM_CHUNK", 64)
    monkeypatch.setattr(master, "_F64_ROWS", f64_rows)
    n = 20
    state = master.MasterState(n_assets=n, k=2, theta_lb=-10.0)
    g = np.zeros(n)
    g[[0, 5, 6, 19]] = -1.0
    master.add_cut(state, opt_cut(np.zeros(n, dtype=int), 0.0, g))
    for pair in ((5, 19), (6, 19), (0, 5), (0, 6)):
        bits = np.zeros(n, dtype=int)
        bits[list(pair)] = 1
        master.add_cut(state, no_good(bits))
    z, theta = master.master_solve(state)
    assert theta == -2.0
    assert z.support().tolist() == [5, 6]
    assert (theta, z.as_tuple()) == brute_force(state, all_selections(n, 2))
