"""Upper-level master problem: minimize theta over selections z.

The feasible region is theta >= theta_lb, one affine row per optimality cut,
one exclusion row per no-good cut, and the cardinality bound 1'z <= k with z
binary. When the selection space is small enough to tabulate, master_solve
scores every selection directly. Selection codes split into a high part and
a low part of up to 13 bits; block p pairs every high part with p ones with
every low part with at most k - p ones, so each block is a dense 2-D array
and a cut is scored into it by one broadcast outer sum of the gradient's
subset sums over the two parts. Ties go to the lexicographically smallest
selection. Otherwise master_solve runs branch and bound over coordinate
boxes, bounding each box by every cut's exact minimum over it (cheap because
cut gradients are nonpositive), with a second, depth-first pass extracting
the lexicographically smallest optimal z. Either way reruns are
reproducible.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import SelectionVector

__all__ = [
    "OPTIMALITY",
    "NO_GOOD",
    "Cut",
    "MasterState",
    "MasterNodeLimit",
    "MasterTimeout",
    "add_cut",
    "theta_at",
    "master_solve",
]

OPTIMALITY = "Optimality"
NO_GOOD = "NoGood"

_BB_TOL = 1e-9         # relative pruning and tie tolerance
_NODE_LIMIT = 100_000_000
_ENUM_LIMIT = 8_000_000   # tabulate the selection space up to this many rows
_ENUM_BITS = 64           # tabulated selection codes fit in uint64
_ENUM_CHUNK = 65_536      # selections scored per broadcast outer sum
_F64_ROWS = 100_000       # exact float64 scoring up to this table size
_LO_BITS = 13             # code bits in the low part of the block layout
_MW_ROUNDS = 8            # weight-ascent rounds per node bound


class MasterNodeLimit(RuntimeError):
    """Node budget exhausted; carries the best incumbent found, if any."""

    def __init__(self, message: str, incumbent=None):
        super().__init__(message)
        self.incumbent = incumbent


class MasterTimeout(RuntimeError):
    """Deadline passed mid-search; carries the best incumbent found, if any."""

    def __init__(self, message: str, incumbent=None):
        super().__init__(message)
        self.incumbent = incumbent


@dataclass
class Cut:
    """Optimality cut theta >= intercept + grad @ (z - origin), or a no-good
    row excluding origin."""

    kind: str
    origin: SelectionVector
    intercept: float = 0.0
    grad: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in (OPTIMALITY, NO_GOOD):
            raise ValueError(f"unknown cut kind {self.kind!r}")
        self.intercept = float(self.intercept)
        if self.kind == OPTIMALITY:
            if self.grad is None:
                raise ValueError("optimality cut needs a gradient")
            self.grad = np.asarray(self.grad, dtype=float).ravel()
            if self.grad.size != self.origin.bits.size:
                raise ValueError("gradient length must match origin")
            if np.any(self.grad > 0.0):
                raise ValueError("optimality gradients must be nonpositive")
            if not (np.isfinite(self.intercept)
                    and np.all(np.isfinite(self.grad))):
                raise ValueError("cut coefficients must be finite")

    def value(self, bits: np.ndarray) -> float:
        if self.kind != OPTIMALITY:
            raise ValueError("no-good cuts have no value")
        return self.intercept + float(self.grad @ (bits - self.origin.bits))

    def excludes(self, bits: np.ndarray) -> bool:
        if self.kind != NO_GOOD:
            raise ValueError("optimality cuts exclude nothing")
        return bool(np.array_equal(bits, self.origin.bits))


@dataclass
class MasterState:
    """Accumulated cuts plus the region parameters of one outer solve."""

    n_assets: int
    k: int
    theta_lb: float
    cuts: list = field(default_factory=list)
    node_count: int = 0

    def __post_init__(self) -> None:
        self.theta_lb = float(self.theta_lb)
        if not np.isfinite(self.theta_lb):
            raise ValueError("theta_lb must be finite")
        if not 1 <= self.k <= self.n_assets:
            raise ValueError("need 1 <= k <= n_assets")
        for cut in self.cuts:
            if cut.origin.bits.size != self.n_assets:
                raise ValueError("cut dimension does not match n_assets")


def add_cut(state: MasterState, cut: Cut) -> MasterState:
    if cut.origin.bits.size != state.n_assets:
        raise ValueError("cut dimension does not match n_assets")
    state.cuts.append(cut)
    return state


def theta_at(state: MasterState, bits: np.ndarray) -> float:
    """Exact master objective at a binary point: the max of theta_lb and
    every optimality cut evaluated at bits."""
    theta = state.theta_lb
    for cut in state.cuts:
        if cut.kind == OPTIMALITY:
            theta = max(theta, cut.value(bits))
    return theta


def _selection_count(n: int, k: int) -> int:
    return sum(math.comb(n, j) for j in range(min(k, n) + 1))


class _Layout(NamedTuple):
    """Popcount-block layout of the selections with at most k assets.

    Bit n-1-j of a selection's code is coordinate j, so ascending codes are
    lexicographic order. A code splits as hi << lo_bits | lo. Block p pairs
    every high part with p ones (hi_codes[p], ascending) with the first
    widths[p] low parts in lo_codes, which are exactly those with at most
    k - p ones; lo_codes orders the low parts stably by popcount."""

    k: int
    lo_bits: int
    lo_codes: np.ndarray
    widths: tuple
    hi_codes: tuple


def _subset_sums(weights: np.ndarray, top: int) -> list:
    """Entry p lists the sums of weights over every p-subset of positions,
    p <= top, in ascending order of the code sum(2**t for t in subset).
    Every sum accumulates from its lowest position up."""
    blocks = [np.zeros(1, dtype=weights.dtype)] + [weights[:0]] * top
    for t, w in enumerate(weights):
        for p in range(min(t + 1, top), 0, -1):
            blocks[p] = np.concatenate([blocks[p], blocks[p - 1] + w])
    return blocks


def _bit_weights(m: int) -> np.ndarray:
    return np.left_shift(np.uint64(1), np.arange(m, dtype=np.uint64))


@functools.lru_cache(maxsize=8)
def _layout(n: int, k: int) -> _Layout:
    lo_bits = min(n, _LO_BITS)
    lo = _subset_sums(_bit_weights(lo_bits), min(k, lo_bits))
    hi = _subset_sums(_bit_weights(n - lo_bits), min(k, n - lo_bits))
    counts = np.cumsum([part.size for part in lo])
    widths = tuple(int(counts[min(k - p, lo_bits)]) for p in range(len(hi)))
    lo_codes = np.concatenate(lo)
    for arr in (lo_codes, *hi):
        arr.flags.writeable = False
    return _Layout(k, lo_bits, lo_codes, widths, tuple(hi))


def _decode(code: int, n: int) -> np.ndarray:
    return np.array([(code >> (n - 1 - j)) & 1 for j in range(n)],
                    dtype=np.int64)


def _encode(bits: np.ndarray) -> int:
    return sum(1 << (bits.size - 1 - int(j)) for j in np.flatnonzero(bits))


def _score_cut(blocks: list, cut: Cut, layout: _Layout) -> None:
    """Raise every selection's theta to the cut's value at it, one broadcast
    outer sum of low-part and high-part gradient sums per block."""
    dtype = blocks[0].dtype
    n_hi = cut.grad.size - layout.lo_bits
    lo = np.concatenate(_subset_sums(cut.grad[n_hi:][::-1],
                                     min(layout.k, layout.lo_bits)))
    lo = lo.astype(dtype)
    hi = _subset_sums(cut.grad[:n_hi][::-1], len(blocks) - 1)
    lift = dtype.type(cut.intercept - float(cut.grad @ cut.origin.bits))
    buf = np.empty(max(_ENUM_CHUNK, layout.widths[0]), dtype=dtype)
    for block, width, hi_sums in zip(blocks, layout.widths, hi):
        hi_sums = hi_sums.astype(dtype)
        step = max(1, _ENUM_CHUNK // width)
        for r0 in range(0, block.shape[0], step):
            rows = block[r0:r0 + step]
            vals = buf[:rows.size].reshape(rows.shape)
            np.add(lo[:width], hi_sums[r0:r0 + step, None], out=vals)
            vals += lift
            np.maximum(rows, vals, out=rows)


def _exclude(blocks: list, bits: np.ndarray, layout: _Layout) -> None:
    """Set theta to +inf at the one selection a no-good cut excludes."""
    if int(bits.sum()) > layout.k:
        return
    code = _encode(bits)
    hi, lo = code >> layout.lo_bits, code & ((1 << layout.lo_bits) - 1)
    p = hi.bit_count()
    row = int(np.searchsorted(layout.hi_codes[p], np.uint64(hi)))
    col = int(np.flatnonzero(layout.lo_codes == lo)[0])
    blocks[p][row, col] = np.inf


def _enum_scores(state: MasterState) -> list:
    """Per-state cache of every selection's theta, one 2-D array per block
    of the popcount layout (_Layout), updated incrementally: each cut is
    scored over the selection space exactly once.

    An optimality cut is scored per block as the broadcast outer sum
    (low-part gradient sums + high-part gradient sums) + lift, taken into
    the block by np.maximum; a no-good cut sets its one selection to +inf.
    Up to _F64_ROWS selections the scores are float64, above it float32:
    the rounding (well under 1e-6 at portfolio scales) can only sway which
    of two near-tied selections is returned, never the exactness of the cut
    model or the monotonicity of successive solves."""
    layout = _layout(state.n_assets, state.k)
    cache = getattr(state, "_enum_cache", None)
    if cache is None or cache["done"] > len(state.cuts):
        dtype = (np.float64 if _selection_count(state.n_assets, state.k)
                 <= _F64_ROWS else np.float32)
        cache = {"theta": [np.full((hi.size, width), state.theta_lb,
                                   dtype=dtype)
                           for hi, width in zip(layout.hi_codes,
                                                layout.widths)],
                 "done": 0}
        state._enum_cache = cache
    blocks = cache["theta"]
    for cut in state.cuts[cache["done"]:]:
        if cut.kind == OPTIMALITY:
            _score_cut(blocks, cut, layout)
        else:
            _exclude(blocks, cut.origin.bits, layout)
        cache["done"] += 1
    return blocks


def _enumerate_solve(state: MasterState, node_limit: int,
                     deadline: float | None):
    """Exact master solve by scoring the tabulated selection space; ties go
    to the smallest code, found as the smallest low part of the first
    qualifying row in each block."""
    if deadline is not None and time.monotonic() > deadline:
        raise MasterTimeout("master deadline passed")
    layout = _layout(state.n_assets, state.k)
    blocks = _enum_scores(state)
    total = sum(block.size for block in blocks)
    state.node_count += total
    best = None
    mins = [block.min() for block in blocks]
    theta_star = float(min(mins))
    if np.isfinite(theta_star):
        limit = blocks[0].dtype.type(
            theta_star + _BB_TOL * (1.0 + abs(theta_star)))
        pick = None
        for p, block in enumerate(blocks):
            if mins[p] > limit:
                continue
            width = block.shape[1]
            row = int(np.argmax(block.ravel() <= limit)) // width
            hits = np.flatnonzero(block[row] <= limit)
            col = int(hits[np.argmin(layout.lo_codes[hits])])
            code = ((int(layout.hi_codes[p][row]) << layout.lo_bits)
                    | int(layout.lo_codes[col]))
            if pick is None or code < pick[0]:
                pick = (code, float(block[row, col]))
        best = (SelectionVector(_decode(pick[0], state.n_assets)), pick[1])
    if total > node_limit:
        raise MasterNodeLimit(f"master node limit {node_limit} exceeded",
                              best)
    return best


class _CutTable:
    """Vectorized cut pool bounds for box nodes.

    Gradients are nonpositive, so any nonnegative unit-sum weighting lam of
    the optimality cuts bounds the node from below by lam'b plus the exact
    minimum of (lam'G)z over binary z in [lb, ub] with 1'z <= k, which is the
    sum of the aggregate's most negative free entries up to the remaining
    cardinality budget. Unit weightings give the cheap per-cut bound; when
    that fails to prune, multiplicative-weights ascent on lam tightens the
    bound toward the node's relaxation value. Every aggregate's minimizer is
    a feasible selection that doubles as an incumbent candidate.
    """

    def __init__(self, state: MasterState):
        self.rebuild(state)

    def rebuild(self, state: MasterState) -> None:
        self.state = state
        N = state.n_assets
        opt = [c for c in state.cuts if c.kind == OPTIMALITY]
        if opt:
            self.grad = np.array([c.grad for c in opt])
            self.base = np.array([c.intercept - float(c.grad @ c.origin.bits)
                                  for c in opt])
        else:
            self.grad = np.zeros((0, N))
            self.base = np.zeros(0)
        self.no_goods = [c for c in state.cuts if c.kind == NO_GOOD]

    def excluded(self, bits: np.ndarray) -> bool:
        return any(c.excludes(bits) for c in self.no_goods)

    def node_eval(self, lb: np.ndarray, ub: np.ndarray,
                  cutoff: float = np.inf):
        """Bound, witness, and branch coordinate for one box node.

        Returns (bound, bits, branch): a valid lower bound of the exact
        master objective over the node, the selection attaining the
        strongest aggregate's minimum, and the free coordinate that sways
        that aggregate the most (-1 when the node is the single point lb,
        in which case the bound is exact). A bound at or above cutoff is
        good enough for the caller, so refinement stops there.
        """
        state = self.state
        budget = max(0, state.k - int(lb.sum()))
        free = (lb < 0.5) & (ub > 0.5)
        n_free = int(free.sum())
        bits = lb.astype(np.int64)
        if self.base.size == 0:
            branch = int(np.argmax(free)) if n_free and budget else -1
            return state.theta_lb, bits, branch
        vals0 = self.base + self.grad @ lb
        take = min(budget, n_free)
        if take == 0:
            return max(state.theta_lb, float(vals0.max())), bits, -1
        fidx = np.flatnonzero(free)
        gfree = self.grad[:, fidx]
        colmin = gfree.min(axis=0)
        if float(colmin.min()) >= 0.0:
            # every cut is flat on the free coordinates, so the bound is
            # exact; still hand back a branch because the box is not a
            # single point and its witness may be excluded by a no-good
            bound = max(state.theta_lb, float(vals0.max()))
            return bound, bits, int(fidx[0])
        mins = vals0 + np.sort(gfree, axis=1)[:, :take].sum(axis=1)
        binding = int(np.argmax(mins))
        bound = float(mins[binding])
        h_best = gfree[binding]
        if bound < cutoff:
            lam = np.full(vals0.size, 1.0 / vals0.size)
            for _ in range(_MW_ROUNDS):
                h = lam @ gfree
                order = np.argsort(h, kind="stable")[:take]
                sel = order[h[order] < 0.0]
                s = vals0 + gfree[:, sel].sum(axis=1)
                phi = float(lam @ s)
                if phi > bound:
                    bound = phi
                    h_best = h
                spread = float(s.max() - s.min())
                if spread <= 0.0 or bound >= cutoff:
                    break
                lam = lam * np.exp((2.0 / spread) * (s - s.max()))
                lam = lam / lam.sum()
        bound = max(bound, state.theta_lb)
        order = np.argsort(h_best, kind="stable")[:take]
        sel = order[h_best[order] < 0.0]
        bits[fidx[sel]] = 1
        branch = int(fidx[int(np.argmin(h_best))]) if h_best.min() < 0.0 \
            else int(fidx[int(np.argmin(colmin))])
        return bound, bits, branch


class _Search:
    """Bookkeeping shared by the best-bound pass and the lex pass."""

    def __init__(self, state, node_limit, deadline):
        self.state = state
        self.node_limit = node_limit
        self.deadline = deadline
        self.nodes = 0
        self.best = np.inf
        self.best_bits = None

    def charge(self) -> None:
        self.nodes += 1
        self.state.node_count += 1
        if self.nodes > self.node_limit:
            raise MasterNodeLimit(
                f"master node limit {self.node_limit} exceeded",
                self._incumbent())
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise MasterTimeout("master deadline passed", self._incumbent())

    def _incumbent(self):
        if self.best_bits is None:
            return None
        return SelectionVector(self.best_bits.copy()), self.best


def _seed_incumbent(search: _Search) -> None:
    """Prime the incumbent with the best previously proposed selection so the
    search prunes against a realistic value instead of infinity."""
    state = search.state
    for cut in state.cuts:
        if cut.kind != OPTIMALITY:
            continue
        bits = cut.origin.bits
        if int(bits.sum()) > state.k:
            continue
        if any(c.kind == NO_GOOD and c.excludes(bits) for c in state.cuts):
            continue
        val = theta_at(state, bits)
        if val < search.best:
            search.best = val
            search.best_bits = bits.astype(np.int64)


def _propagate(lb: np.ndarray, ub: np.ndarray, k: int) -> bool:
    """Cardinality propagation in place; False when the fix is infeasible."""
    ones = int(lb.sum())
    if ones > k:
        return False
    if ones == k:
        np.copyto(ub, lb)
    return True


def _best_bound_pass(search: _Search, table: _CutTable, callback):
    """Best-bound branch and bound; returns the optimal theta or None when
    the no-good cuts exclude every selection."""
    state = search.state
    N = state.n_assets
    tick = itertools.count()
    root = (np.zeros(N), np.ones(N))
    heap = [(-np.inf, next(tick), root)]
    while heap:
        bound, _, (lb, ub) = heapq.heappop(heap)
        prune_at = search.best - _BB_TOL * (1.0 + abs(search.best))
        if bound >= prune_at:
            break
        search.charge()
        bound, bits, branch = table.node_eval(lb, ub, cutoff=prune_at)
        if bound >= search.best - _BB_TOL * (1.0 + abs(search.best)):
            continue
        if not table.excluded(bits):
            theta_z = theta_at(state, bits)
            if callback is not None:
                n_before = len(state.cuts)
                accepted = callback(SelectionVector(bits.copy()), theta_z)
                if len(state.cuts) != n_before:
                    table.rebuild(state)
                    theta_z = theta_at(state, bits)
                if not accepted:
                    if len(state.cuts) == n_before:
                        raise RuntimeError(
                            "callback rejected a node without adding a cut")
                    heapq.heappush(heap, (bound, next(tick), (lb, ub)))
                    continue
            if theta_z < search.best:
                search.best = theta_z
                search.best_bits = bits.copy()
        if branch < 0:
            continue
        lo = (lb.copy(), ub.copy())
        lo[1][branch] = 0.0
        hi = (lb.copy(), ub.copy())
        hi[0][branch] = 1.0
        for child in (lo, hi):
            heapq.heappush(heap, (bound, next(tick), child))
    return None if search.best_bits is None else search.best


def _lex_pass(search: _Search, table: _CutTable, theta_star: float):
    """Depth-first extraction of the lexicographically smallest z whose
    exact master objective matches theta_star; zero branches first."""
    state = search.state
    N, k = state.n_assets, state.k
    cutoff = theta_star + _BB_TOL * (1.0 + abs(theta_star))
    stack = [(0, np.zeros(N), np.ones(N))]
    while stack:
        depth, lb, ub = stack.pop()
        if np.any(lb > ub) or not _propagate(lb, ub, k):
            continue
        if depth == N:
            bits = lb.astype(np.int64)
            if table.excluded(bits):
                continue
            if theta_at(state, bits) <= cutoff:
                return bits
            continue
        search.charge()
        bound, _, _ = table.node_eval(lb, ub, cutoff=cutoff)
        if bound > cutoff:
            continue
        hi = (depth + 1, lb.copy(), ub.copy())
        hi[1][depth] = 1.0
        lo = (depth + 1, lb, ub)
        lo[2][depth] = 0.0
        stack.append(hi)
        stack.append(lo)
    raise RuntimeError("lex pass found no certified optimum")


def master_solve(state: MasterState, callback=None,
                 node_limit: int = _NODE_LIMIT, deadline: float | None = None):
    """Exact solve of the master problem; returns (z, theta) or None when the
    no-good cuts exclude all feasible selections.

    Small selection spaces are scored exhaustively. Otherwise node selection
    is best-bound first, branching on the free coordinate that most sways
    the cut binding at the node, and every node contributes the selection
    attaining that cut's minimum as an incumbent candidate. Ties among
    optimal z go to the lexicographically smallest. With a callback the
    search always runs single-tree branch and bound: the callback sees every
    integer-feasible candidate (z, theta) and either accepts it or injects
    at least one cut and rejects; the best accepted candidate is returned
    as-is since the cut pool is in flux.
    """
    if (callback is None and state.n_assets <= _ENUM_BITS
            and _selection_count(state.n_assets, state.k) <= _ENUM_LIMIT):
        return _enumerate_solve(state, node_limit, deadline)
    table = _CutTable(state)
    search = _Search(state, node_limit, deadline)
    if callback is None:
        _seed_incumbent(search)
    theta_star = _best_bound_pass(search, table, callback)
    if theta_star is None:
        return None
    if callback is not None:
        return SelectionVector(search.best_bits.copy()), search.best
    bits = _lex_pass(search, table, theta_star)
    return SelectionVector(bits), theta_at(state, bits)
