"""Upper-level master problem: minimize theta over selections z.

The feasible region is theta >= theta_lb, one affine row per optimality cut,
one exclusion row per no-good cut, and the cardinality bound 1'z <= k with z
binary. When the selection space is small enough to tabulate, master_solve
keeps every selection's theta in a table. Selection codes split into a high
part and a low part of up to 13 bits; block p pairs every high part with p
ones with every low part with at most k - p ones, so each block is a dense
2-D array and a cut is scored into it by one broadcast outer sum of the
gradient's subset sums over the two parts. The table is scored lazily, in
chunks of rows: cuts only raise theta, so a chunk's last exact minimum and
each pending cut's exact minimum over it bound it from below, and a solve
scores the pending cuts into a chunk only when that bound reaches the
optimum, best-first. Ties go to the lexicographically smallest selection.
Otherwise master_solve runs branch and bound over coordinate
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
_NODE_LIMIT = 100_000_000  # branch-and-bound nodes per master solve
_ENUM_LIMIT = 8_000_000   # tabulate the selection space up to this many rows
_ENUM_BITS = 64           # tabulated selection codes fit in uint64
_ENUM_CHUNK = 65_536      # selections per chunk of the lazily scored table
_F64_ROWS = 100_000       # exact float64 scoring up to this table size
_LO_BITS = 13             # code bits in the low part of the block layout
_MW_ROUNDS = 8            # weight-ascent rounds per node bound


class MasterNodeLimit(RuntimeError):
    """Branch and bound spent its node budget (_NODE_LIMIT) in one solve."""


class MasterTimeout(RuntimeError):
    """Deadline passed mid-search."""


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


class _Chunks(NamedTuple):
    """Row groups of about _ENUM_CHUNK entries of each block: chunk c is
    rows start[c]:stop[c] of block[c], whose rows hold width[c] entries,
    and flat[c] is start[c] counted across the blocks' rows laid end to
    end. Chunks run in block order and row order within a block; order
    lists them by the high part of their first row, which is ascending
    order of the smallest code each holds."""

    block: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    width: np.ndarray
    flat: np.ndarray
    order: np.ndarray


class _CutSums(NamedTuple):
    """An optimality cut split over the block layout: its value at row r,
    column j of block p is (lo[j] + hi[p][r]) + lift, in the scoring dtype."""

    lo: np.ndarray
    hi: tuple
    lift: np.floating


def _chunks(layout: _Layout) -> _Chunks:
    block, start, stop, widths, flat, first = [], [], [], [], [], []
    offset = 0
    for p, (hi, width) in enumerate(zip(layout.hi_codes, layout.widths)):
        r0 = np.arange(0, hi.size, max(1, _ENUM_CHUNK // width))
        block.append(np.full(r0.size, p))
        start.append(r0)
        stop.append(np.append(r0[1:], hi.size))
        widths.append(np.full(r0.size, width))
        flat.append(offset + r0)
        first.append(hi[r0])
        offset += hi.size
    order = np.argsort(np.concatenate(first), kind="stable")
    return _Chunks(*(np.concatenate(part)
                     for part in (block, start, stop, widths, flat)), order)


def _cut_sums(cut: Cut, layout: _Layout, dtype: np.dtype) -> _CutSums:
    n_hi = cut.grad.size - layout.lo_bits
    lo = np.concatenate(_subset_sums(cut.grad[n_hi:][::-1],
                                     min(layout.k, layout.lo_bits)))
    hi = _subset_sums(cut.grad[:n_hi][::-1], len(layout.hi_codes) - 1)
    lift = dtype.type(cut.intercept - float(cut.grad @ cut.origin.bits))
    return _CutSums(lo.astype(dtype), tuple(h.astype(dtype) for h in hi),
                    lift)


def _chunk_bounds(sums: _CutSums, layout: _Layout,
                  chunks: _Chunks) -> np.ndarray:
    """Exact minimum of the cut's scores over each chunk. A chunk's scores
    are (lo[j] + hi[r]) + lift over its rows r and columns j, and rounded
    addition is monotone in each argument, so the minimum is the same sum
    of the minima, added in the same order."""
    lo_min = np.minimum.accumulate(sums.lo)[np.array(layout.widths) - 1]
    hi_min = np.minimum.reduceat(np.concatenate(sums.hi), chunks.flat)
    return (lo_min[chunks.block] + hi_min) + sums.lift


def _locate(bits: np.ndarray, layout: _Layout):
    """(block, row, column) of a selection in the layout, or None when it
    has more than k assets."""
    if int(bits.sum()) > layout.k:
        return None
    code = _encode(bits)
    hi, lo = code >> layout.lo_bits, code & ((1 << layout.lo_bits) - 1)
    p = hi.bit_count()
    row = int(np.searchsorted(layout.hi_codes[p], np.uint64(hi)))
    return p, row, int(np.flatnonzero(layout.lo_codes == lo)[0])


def _enum_cache(state: MasterState) -> dict:
    """Per-state theta table of every selection, scored lazily chunk by
    chunk, with every cut of the pool taken in.

    "theta" holds one 2-D array per chunk of "chunks" (_Chunks), the row
    groups of the popcount layout's blocks (_Layout). Chunk c has applied
    the first "done"[c] cuts of the pool to theta_lb, or is None while
    "done"[c] is -1: a chunk is allocated when a search first reaches it,
    so the chunks a search never reaches take no memory. "bound"[c] is a
    lower bound of its theta: the larger of its exact minimum after those
    cuts and each pending cut's exact minimum over it (_chunk_bounds), so
    the exact minimum once nothing is pending. Cuts only raise theta, so a
    stale bound stays valid.
    "cuts" holds, per cut, what applying it takes, computed once when the
    cut joins: an optimality cut's subset sums (_CutSums), or the location
    of the one selection a no-good excludes (_locate).

    An optimality cut is applied to a chunk as the broadcast outer sum
    (low-part sums + high-part sums) + lift, taken in by np.maximum; a
    no-good sets its one selection to +inf. Up to _F64_ROWS selections the
    scores are float64, above it float32: the rounding (well under 1e-6 at
    portfolio scales) can only sway which of two near-tied selections is
    returned, never the exactness of the cut model or the monotonicity of
    successive solves."""
    layout = _layout(state.n_assets, state.k)
    cache = getattr(state, "_enum_cache", None)
    if cache is None or len(cache["cuts"]) > len(state.cuts):
        dtype = np.dtype(np.float64 if _selection_count(state.n_assets,
                                                        state.k)
                         <= _F64_ROWS else np.float32)
        chunks = _chunks(layout)
        cache = {"theta": [None] * chunks.block.size,
                 "chunks": chunks,
                 "done": np.full(chunks.block.size, -1),
                 "bound": np.full(chunks.block.size, state.theta_lb,
                                  dtype=dtype),
                 "cuts": [],
                 "theta_lb": state.theta_lb}
        state._enum_cache = cache
    dtype = cache["bound"].dtype
    for cut in state.cuts[len(cache["cuts"]):]:
        if cut.kind == OPTIMALITY:
            sums = _cut_sums(cut, layout, dtype)
            np.maximum(cache["bound"],
                       _chunk_bounds(sums, layout, cache["chunks"]),
                       out=cache["bound"])
            cache["cuts"].append(sums)
        else:
            cache["cuts"].append(_locate(cut.origin.bits, layout))
    return cache


def _refresh(cache: dict, c: int) -> None:
    """Apply chunk c's pending cuts, in pool order, and record its exact
    minimum as its bound; a chunk not allocated yet starts from theta_lb."""
    chunks = cache["chunks"]
    p, r0, r1 = (int(chunks.block[c]), int(chunks.start[c]),
                 int(chunks.stop[c]))
    rows = cache["theta"][c]
    if rows is None:
        rows = np.full((r1 - r0, int(chunks.width[c])), cache["theta_lb"],
                       dtype=cache["bound"].dtype)
        cache["theta"][c] = rows
    vals = np.empty_like(rows)
    for entry in cache["cuts"][max(cache["done"][c], 0):]:
        if isinstance(entry, _CutSums):
            np.add(entry.lo[:rows.shape[1]], entry.hi[p][r0:r1, None],
                   out=vals)
            vals += entry.lift
            np.maximum(rows, vals, out=rows)
        elif entry is not None and entry[0] == p and r0 <= entry[1] < r1:
            rows[entry[1] - r0, entry[2]] = np.inf
    cache["done"][c] = len(cache["cuts"])
    cache["bound"][c] = rows.min()


def _enumerate_solve(state: MasterState, deadline: float | None):
    """Exact master solve over the tabulated selection space, best-first
    over chunks (_enum_cache): the chunk of least bound is brought up to
    date until the least bound belongs to a chunk already up to date, which
    makes it the optimum. Ties go to the smallest code: the chunks whose
    bound is within the cutoff are visited in ascending order of their
    smallest code, each brought up to date, and each that has a selection
    within the cutoff offers the smallest low part of its first such row,
    until the next chunk's smallest code exceeds the best offer."""
    if deadline is not None and time.monotonic() > deadline:
        raise MasterTimeout("master deadline passed")
    layout = _layout(state.n_assets, state.k)
    cache = _enum_cache(state)
    theta, chunks = cache["theta"], cache["chunks"]
    bound, done = cache["bound"], cache["done"]
    n_cuts = len(cache["cuts"])
    state.node_count += _selection_count(state.n_assets, state.k)
    while True:
        c = int(np.argmin(bound))
        if done[c] == n_cuts:
            break
        _refresh(cache, c)
    theta_star = float(bound[c])
    best = None
    if np.isfinite(theta_star):
        limit = bound.dtype.type(
            theta_star + _BB_TOL * (1.0 + abs(theta_star)))
        pick = None
        for c in chunks.order[bound[chunks.order] <= limit]:
            p, r0 = int(chunks.block[c]), int(chunks.start[c])
            hi_codes = layout.hi_codes[p]
            smallest = int(hi_codes[r0]) << layout.lo_bits
            if pick is not None and smallest > pick[0]:
                break
            if done[c] < n_cuts:
                _refresh(cache, c)
            if bound[c] > limit:
                continue
            rows = theta[c]
            row = int(np.argmax(rows.ravel() <= limit)) // rows.shape[1]
            cols = np.flatnonzero(rows[row] <= limit)
            col = int(cols[np.argmin(layout.lo_codes[cols])])
            code = ((int(hi_codes[r0 + row]) << layout.lo_bits)
                    | int(layout.lo_codes[col]))
            if pick is None or code < pick[0]:
                pick = (code, float(rows[row, col]))
        best = (SelectionVector(_decode(pick[0], state.n_assets)), pick[1])
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

    def __init__(self, state, deadline):
        self.state = state
        self.deadline = deadline
        self.nodes = 0
        self.best = np.inf
        self.best_bits = None

    def charge(self) -> None:
        self.nodes += 1
        self.state.node_count += 1
        if self.nodes > _NODE_LIMIT:
            raise MasterNodeLimit(f"master node limit {_NODE_LIMIT} exceeded")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise MasterTimeout("master deadline passed")


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
                 deadline: float | None = None):
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
        return _enumerate_solve(state, deadline)
    table = _CutTable(state)
    search = _Search(state, deadline)
    if callback is None:
        _seed_incumbent(search)
    theta_star = _best_bound_pass(search, table, callback)
    if theta_star is None:
        return None
    if callback is not None:
        return SelectionVector(search.best_bits.copy()), search.best
    bits = _lex_pass(search, table, theta_star)
    return SelectionVector(bits), theta_at(state, bits)
