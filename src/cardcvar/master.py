"""Upper-level master problem: minimize theta over selections z.

The feasible region is theta >= theta_lb, one affine row per optimality cut,
one exclusion row per no-good cut, and the cardinality bound 1'z <= k with z
binary. MasterState stores the pool once, and every path reads it in place:
theta at z is max(theta_lb, max(base + grad @ z)) everywhere (theta_at).
When the selection space is small enough to tabulate, master_solve keeps
every selection's theta in a table. Selection codes split into a high
part and a low part of up to 13 bits; block p pairs every high part with p
ones with every low part with at most k - p ones, so each block is a dense
2-D array and a cut is scored into it by one broadcast outer sum of the
gradient's subset sums over the two parts. The table is scored lazily, in
chunks of rows: cuts only raise theta, so a chunk's last exact minimum and
each pending cut's exact minimum over it bound it from below, and a solve
scores the pending cuts into a chunk only when that bound reaches the
optimum, best-first. Ties go to the lexicographically smallest selection.
Otherwise master_solve runs one best-bound branch and bound over
coordinate boxes. Each box is bounded by its best single cut, the largest
of the cuts' exact minima over it (one sort per cut, because cut gradients
are nonpositive), and that binding cut picks the box's witness and branch
coordinate. Ties go to the lexicographically smallest z there too, by
keeping a box within the tie tolerance only while its smallest member
comes first. Either way reruns are reproducible.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import SelectionVector

__all__ = [
    "OPTIMALITY",
    "NO_GOOD",
    "Cut",
    "MasterState",
    "MasterTimeout",
    "add_cut",
    "theta_at",
    "master_solve",
]

OPTIMALITY = "Optimality"
NO_GOOD = "NoGood"

_BB_TOL = 1e-9         # relative pruning and tie tolerance
_ENUM_LIMIT = 8_000_000   # tabulate the selection space up to this many rows
_ENUM_BITS = 64           # tabulated selection codes fit in uint64
_ENUM_CHUNK = 65_536      # selections per chunk of the lazily scored table
_F64_ROWS = 100_000       # exact float64 scoring up to this table size
_LO_BITS = 13             # code bits in the low part of the block layout
_CUT_CAPACITY = 64        # optimality rows stored before the first doubling


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


def _key(bits: np.ndarray) -> bytes:
    return np.asarray(bits, dtype=np.int64).tobytes()


@dataclass(eq=False)
class MasterState:
    """The append-only cut pool of one outer solve (add_cut is its writer)
    and the region parameters. The first n_opt rows of base, grad and
    _origins are the optimality cuts theta >= base + grad @ z, with base =
    intercept - grad @ origin, in arrays that double when full. no_goods
    maps each excluded selection's _key to its bits; cuts records every Cut
    added. node_count sums the solves' work: box nodes, or entries scored."""

    n_assets: int
    k: int
    theta_lb: float
    node_count: int = 0

    def __post_init__(self) -> None:
        self.theta_lb = float(self.theta_lb)
        if not np.isfinite(self.theta_lb):
            raise ValueError("theta_lb must be finite")
        if not 1 <= self.k <= self.n_assets:
            raise ValueError("need 1 <= k <= n_assets")
        self.cuts, self.n_opt, self.no_goods = [], 0, {}
        self._base = np.empty(_CUT_CAPACITY)
        self._grad = np.empty((_CUT_CAPACITY, self.n_assets))
        self._origins = np.empty_like(self._grad)
        self._enum_cache = None

    @property
    def base(self) -> np.ndarray:
        return self._base[:self.n_opt]

    @property
    def grad(self) -> np.ndarray:
        return self._grad[:self.n_opt]

    def excluded(self, bits: np.ndarray) -> bool:
        return _key(bits) in self.no_goods


def add_cut(state: MasterState, cut: Cut) -> MasterState:
    bits = cut.origin.bits
    if bits.size != state.n_assets:
        raise ValueError("cut dimension does not match n_assets")
    state.cuts.append(cut)
    if cut.kind == NO_GOOD:
        state.no_goods.setdefault(_key(bits), bits)
        return state
    if state.n_opt == state._base.size:
        state._base, state._grad, state._origins = (
            np.concatenate([a, np.empty_like(a)])
            for a in (state._base, state._grad, state._origins))
    row = state.n_opt
    state._base[row] = cut.intercept - float(cut.grad @ bits)
    state._grad[row] = cut.grad
    state._origins[row] = bits
    state.n_opt += 1
    return state


def theta_at(state: MasterState, bits: np.ndarray) -> float:
    """Exact master objective at a binary point, max(theta_lb, max(base +
    grad @ bits)); node_eval bounds a one-point box by the same expression,
    so the two agree bit for bit."""
    rows = state.base + state.grad @ np.asarray(bits, dtype=float)
    return max(state.theta_lb, float(rows.max(initial=-np.inf)))


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


def _cut_sums(grad: np.ndarray, base: float, layout: _Layout,
              dtype: np.dtype) -> _CutSums:
    n_hi = grad.size - layout.lo_bits
    lo = np.concatenate(_subset_sums(grad[n_hi:][::-1],
                                     min(layout.k, layout.lo_bits)))
    hi = _subset_sums(grad[:n_hi][::-1], len(layout.hi_codes) - 1)
    return _CutSums(lo.astype(dtype), tuple(h.astype(dtype) for h in hi),
                    dtype.type(base))


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
    chunk from the pool's store.

    "theta" holds one 2-D array per chunk of "chunks" (_Chunks), the row
    groups of the popcount layout's blocks (_Layout). Chunk c has taken in
    the first "done"[c] optimality rows, or is None while "done"[c] is -1:
    a chunk is allocated when a search first reaches it. "bound"[c] is the
    larger of its exact minimum after those rows and each pending row's
    exact minimum over it (_chunk_bounds); cuts only raise theta, so a
    stale bound stays a valid lower bound.
    "cuts" holds each row's subset sums (_CutSums), applied to a chunk as
    the broadcast outer sum (low-part sums + high-part sums) + lift and
    taken in by np.maximum. "no_goods" holds each no-good's location
    (_locate), set to +inf when its chunk is allocated, so a new no-good
    frees its chunk. Up to _F64_ROWS selections the scores are float64,
    above it float32: the rounding (well under 1e-6 at portfolio scales)
    can only sway which of two near-tied selections is returned, never the
    exactness of the cut model or the monotonicity of successive solves."""
    layout = _layout(state.n_assets, state.k)
    cache = state._enum_cache
    if cache is None:
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
                 "no_goods": [],
                 "theta_lb": state.theta_lb}
        state._enum_cache = cache
    chunks, bound = cache["chunks"], cache["bound"]
    for row in range(len(cache["cuts"]), state.n_opt):
        sums = _cut_sums(state.grad[row], state.base[row], layout,
                         bound.dtype)
        np.maximum(bound, _chunk_bounds(sums, layout, chunks), out=bound)
        cache["cuts"].append(sums)
    for bits in itertools.islice(state.no_goods.values(),
                                 len(cache["no_goods"]), None):
        loc = _locate(bits, layout)
        cache["no_goods"].append(loc)
        if loc is not None:
            c = np.flatnonzero((chunks.block == loc[0])
                               & (chunks.start <= loc[1]))[-1]
            cache["theta"][c], cache["done"][c] = None, -1
    return cache


def _refresh(cache: dict, c: int) -> int:
    """Apply chunk c's pending rows and record its exact minimum as its
    bound; returns its entry count. A new chunk starts from theta_lb."""
    chunks = cache["chunks"]
    p, r0, r1 = (int(chunks.block[c]), int(chunks.start[c]),
                 int(chunks.stop[c]))
    rows = cache["theta"][c]
    if rows is None:
        rows = np.full((r1 - r0, int(chunks.width[c])), cache["theta_lb"],
                       dtype=cache["bound"].dtype)
        for q, row, col in filter(None, cache["no_goods"]):
            if q == p and r0 <= row < r1:
                rows[row - r0, col] = np.inf
        cache["theta"][c] = rows
    vals = np.empty_like(rows)
    for sums in cache["cuts"][max(cache["done"][c], 0):]:
        np.add(sums.lo[:rows.shape[1]], sums.hi[p][r0:r1, None], out=vals)
        vals += sums.lift
        np.maximum(rows, vals, out=rows)
    cache["done"][c] = len(cache["cuts"])
    cache["bound"][c] = rows.min()
    return rows.size


def _enumerate_solve(state: MasterState, deadline: float | None):
    """Exact master solve over the tabulated selection space, best-first
    over chunks (_enum_cache): the chunk of least bound is brought up to
    date until the least bound belongs to a chunk already up to date, which
    makes it the optimum. Ties go to the smallest code: the chunks whose
    bound is within the cutoff are visited in ascending order of their
    smallest code, each brought up to date, and each that has a selection
    within the cutoff offers the smallest low part of its first such row,
    until the next chunk's smallest code exceeds the best offer. Each
    chunk brought up to date adds its entries to state.node_count."""
    if deadline is not None and time.monotonic() > deadline:
        raise MasterTimeout("master deadline passed")
    layout = _layout(state.n_assets, state.k)
    cache = _enum_cache(state)
    theta, chunks = cache["theta"], cache["chunks"]
    bound, done = cache["bound"], cache["done"]
    n_cuts = len(cache["cuts"])
    while True:
        c = int(np.argmin(bound))
        if done[c] == n_cuts:
            break
        state.node_count += _refresh(cache, c)
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
                state.node_count += _refresh(cache, c)
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


def node_eval(state: MasterState, lb: np.ndarray, ub: np.ndarray):
    """Bound, witness, and branch coordinate for one box node.

    Gradients are nonpositive, so a cut's exact minimum over the box is its
    value at lb plus the sum of its most negative free entries up to the
    remaining cardinality budget. The box is bounded by its best single cut:
    the largest of these minima and theta_lb. Returns (bound, bits,
    branch): that bound, the selection attaining the binding cut's minimum
    (an incumbent candidate), and the free coordinate that sways that cut
    most, or -1 when the box holds the one selection lb, whose bound is
    exactly theta_at(lb).
    """
    base, grad = state.base, state.grad
    budget = max(0, state.k - int(lb.sum()))
    free = (lb < 0.5) & (ub > 0.5)
    n_free = int(free.sum())
    bits = lb.astype(np.int64)
    if base.size == 0:
        branch = int(np.argmax(free)) if n_free and budget else -1
        return state.theta_lb, bits, branch
    vals0 = base + grad @ lb
    take = min(budget, n_free)
    fidx = np.flatnonzero(free)
    gfree = grad[:, fidx]
    colmin = gfree.min(axis=0)
    if take == 0 or float(colmin.min()) >= 0.0:
        # the bound is exact: the box is the point lb, or every cut is flat
        # on its free coordinates; then it still hands back a branch, as
        # its witness may be excluded by a no-good
        return (max(state.theta_lb, float(vals0.max())), bits,
                int(fidx[0]) if take else -1)
    mins = vals0 + np.sort(gfree, axis=1)[:, :take].sum(axis=1)
    binding = int(np.argmax(mins))
    h = gfree[binding]
    order = np.argsort(h, kind="stable")[:take]
    bits[fidx[order[h[order] < 0.0]]] = 1
    branch = int(fidx[int(np.argmin(h))]) if h.min() < 0.0 \
        else int(fidx[int(np.argmin(colmin))])
    return max(float(mins[binding]), state.theta_lb), bits, branch


def _lex_key(bits: np.ndarray) -> bytes:
    """Bytes that order selections lexicographically."""
    return np.packbits(bits > 0.5).tobytes()


class _Search:
    """Incumbent and deadline of one branch-and-bound solve. Boxes and
    selections carry a key: _lex_key of the selection, or of a box's
    smallest member lb, while the pool is fixed; b"" while a callback may
    add cuts, so ties then have no order. best is the least theta of the
    incumbents, theta the current one's; the tie window is best -/+ the
    relative tolerance _BB_TOL. dominated is the one pruning test, applied
    to a box's bound when it is popped and again once node_eval bounds it."""

    def __init__(self, state, deadline, ordered: bool):
        self.state = state
        self.deadline = deadline
        self.key = _lex_key if ordered else lambda bits: b""
        self.best = np.inf
        self.best_bits = self.best_key = self.theta = None

    def charge(self) -> None:
        self.state.node_count += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise MasterTimeout("master deadline passed")

    def _window(self):
        tol = _BB_TOL * (1.0 + abs(self.best))
        return self.best - tol, self.best + tol

    def dominated(self, bound: float, key: bytes) -> bool:
        """No member of the box can replace the incumbent: all lie above the
        tie window, or none lies below it and none comes first."""
        if self.best_bits is None:
            return False
        lo, hi = self._window()
        return bound > hi or (bound >= lo and key >= self.best_key)

    def offer(self, bits: np.ndarray, theta: float) -> None:
        """Make bits the incumbent when its theta is below the tie window,
        or within it and first in (key, theta) order."""
        key = self.key(bits)
        if self.best_bits is not None:
            lo, hi = self._window()
            if not (theta < lo or (theta <= hi
                                   and (key, theta) < (self.best_key,
                                                       self.best))):
                return
        self.best = min(self.best, theta)
        self.best_bits, self.best_key, self.theta = bits.copy(), key, theta


def _seed_incumbent(search: _Search) -> None:
    """Prime the incumbent with the best previously proposed selection so the
    search prunes against a realistic value instead of infinity: one matmul
    scores every cut's origin against every row."""
    state = search.state
    origins = state._origins[:state.n_opt]
    scores = (state.base[:, None] + state.grad @ origins.T).max(
        axis=0, initial=-np.inf)
    scores[origins.sum(axis=1) > state.k] = np.inf
    for j in np.argsort(scores, kind="stable"):
        bits = origins[j].astype(np.int64)
        if scores[j] < np.inf and not state.excluded(bits):
            search.offer(bits, theta_at(state, bits))
            return


def _branch_and_bound(search: _Search, callback) -> None:
    """Best-bound branch and bound, heap ties to the smaller key, then the
    older box; the answer is the search's incumbent, none when the no-good
    cuts exclude every selection. The callback also gets the search's
    current lower bound: the least bound of the open boxes, the current one
    included, capped at the best theta."""
    state = search.state
    N = state.n_assets
    tick = itertools.count()
    root = (np.zeros(N), np.ones(N))
    heap = [(-np.inf, search.key(root[0]), next(tick), root)]
    while heap:
        bound, key, _, (lb, ub) = heapq.heappop(heap)
        if search.dominated(bound, key):
            continue
        search.charge()
        bound, bits, branch = node_eval(state, lb, ub)
        if search.dominated(bound, key):
            continue
        if not state.excluded(bits):
            theta_z = theta_at(state, bits)
            if callback is not None:
                n_before = len(state.cuts)
                least = min(bound, heap[0][0] if heap else np.inf,
                            search.best)
                accepted = callback(SelectionVector(bits.copy()), theta_z,
                                    least)
                if len(state.cuts) != n_before:
                    theta_z = theta_at(state, bits)
                if not accepted:
                    if len(state.cuts) == n_before:
                        raise RuntimeError(
                            "callback rejected a node without adding a cut")
                    heapq.heappush(heap, (bound, key, next(tick), (lb, ub)))
                    continue
            search.offer(bits, theta_z)
        if branch < 0:
            continue
        lo = (lb.copy(), ub.copy())
        lo[1][branch] = 0.0
        hi = (lb.copy(), ub.copy())
        hi[0][branch] = 1.0
        # the lower child keeps its parent's lb, and so its parent's key
        heapq.heappush(heap, (bound, key, next(tick), lo))
        heapq.heappush(heap, (bound, search.key(hi[0]), next(tick), hi))


def master_solve(state: MasterState, callback=None,
                 deadline: float | None = None):
    """Exact solve of the master problem; returns (z, theta) or None when the
    no-good cuts exclude all feasible selections.

    Small selection spaces are scored exhaustively. Otherwise one best-bound
    branch and bound runs, branching on the free coordinate that most sways
    the cut binding at the node, and every node contributes the selection
    attaining that cut's minimum as an incumbent candidate. Without a
    callback, ties among optimal z go to the lexicographically smallest:
    a box within the tie tolerance of the incumbent is kept only while its
    smallest member comes first. With a callback the search always runs
    single-tree branch and bound: callback(z, theta, bound) sees every
    integer-feasible candidate with its master value and the search's
    current lower bound on the master optimum, and either accepts it or
    injects at least one cut and rejects; ties have no order while the cut
    pool is in flux, and the best accepted candidate is returned as-is.
    """
    if (callback is None and state.n_assets <= _ENUM_BITS
            and _selection_count(state.n_assets, state.k) <= _ENUM_LIMIT):
        return _enumerate_solve(state, deadline)
    search = _Search(state, deadline, ordered=callback is None)
    if callback is None:
        _seed_incumbent(search)
    _branch_and_bound(search, callback)
    if search.best_bits is None:
        return None
    return SelectionVector(search.best_bits), search.theta
