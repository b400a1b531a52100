"""Upper-level master problem: minimize theta over selections z.

The feasible region is theta >= theta_lb, one affine row per optimality cut,
one exclusion row per no-good cut, and the cardinality bound 1'z <= k with z
binary. A cut is written straight into MasterState as a row (add_cut,
add_no_good), and every path reads the rows in place: theta at z is
max(theta_lb, max(base + grad @ z)) everywhere (theta_at). master_solve runs
one best-bound branch and bound over coordinate boxes. Each box is bounded
by its best single cut, the largest of the cuts' exact minima over it (one
sort per cut, because cut gradients are nonpositive), and that binding cut
picks the box's witness and branch coordinate. The cutting-plane loop needs
a master optimum, not a particular one among ties, so both modes share one
rule: a candidate replaces the incumbent only when its theta is lower, and a
box is pruned once its bound comes within the relative tolerance of the
incumbent's theta. The open boxes, the frontier, live on the MasterState and
carry over from one solve to the next: cuts only add rows, so a stored bound
stays a lower bound, and a pruned box is kept with its bound, to reopen in a
later solve whose incumbent theta has risen. Reruns are reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

import numpy as np

from .model import SelectionVector

__all__ = [
    "MasterState",
    "MasterTimeout",
    "add_cut",
    "add_no_good",
    "theta_at",
    "master_solve",
]

_BB_TOL = 1e-9         # relative pruning tolerance
_CUT_CAPACITY = 64     # optimality rows stored before the first doubling


class MasterTimeout(RuntimeError):
    """Deadline passed mid-search."""


def _key(bits: np.ndarray) -> bytes:
    return np.asarray(bits, dtype=np.int64).tobytes()


@dataclass(eq=False)
class MasterState:
    """The append-only cut pool of one outer solve and the region
    parameters. The first n_opt rows of base and grad are the optimality
    cuts theta >= base + grad @ z, in arrays that double when full (add_cut
    writes them). no_goods holds each excluded selection's _key
    (add_no_good); n_cuts counts the cuts of both kinds. _frontier is the
    branch and bound's heap of open boxes, the root box alone before the
    first solve; each box is an int8 vector over the assets, 0 fixed off, 1
    fixed on and 2 free, and _tick numbers them for the heap's order.
    node_count sums the boxes the solves have bounded."""

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
        self.n_cuts, self.n_opt, self.no_goods = 0, 0, set()
        self._base = np.empty(_CUT_CAPACITY)
        self._grad = np.empty((_CUT_CAPACITY, self.n_assets))
        self._tick = itertools.count()
        self._frontier = [(-np.inf, next(self._tick),
                           np.full(self.n_assets, 2, dtype=np.int8))]

    @property
    def base(self) -> np.ndarray:
        return self._base[:self.n_opt]

    @property
    def grad(self) -> np.ndarray:
        return self._grad[:self.n_opt]

    def excluded(self, bits: np.ndarray) -> bool:
        return _key(bits) in self.no_goods


def add_cut(state: MasterState, z: SelectionVector, value: float,
            grad) -> None:
    """Add the optimality cut theta >= value + grad @ (z' - z), stored as
    the row base + grad @ z' with base = value - grad @ z. The gradient must
    have one entry per asset, all nonpositive, and the row must be
    finite."""
    if z.bits.size != state.n_assets:
        raise ValueError("cut dimension does not match n_assets")
    value = float(value)
    grad = np.asarray(grad, dtype=float).ravel()
    if grad.size != state.n_assets:
        raise ValueError("gradient length must match z")
    if np.any(grad > 0.0):
        raise ValueError("optimality gradients must be nonpositive")
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        raise ValueError("cut coefficients must be finite")
    state.n_cuts += 1
    if state.n_opt == state._base.size:
        state._base, state._grad = (np.concatenate([a, np.empty_like(a)])
                                    for a in (state._base, state._grad))
    state._base[state.n_opt] = value - float(grad @ z.bits)
    state._grad[state.n_opt] = grad
    state.n_opt += 1


def add_no_good(state: MasterState, z: SelectionVector) -> None:
    """Exclude the selection z from the region."""
    if z.bits.size != state.n_assets:
        raise ValueError("cut dimension does not match n_assets")
    state.n_cuts += 1
    state.no_goods.add(_key(z.bits))


def theta_at(state: MasterState, bits: np.ndarray) -> float:
    """Exact master objective at a binary point, max(theta_lb, max(base +
    grad @ bits)); node_eval bounds a one-point box by the same expression,
    so the two agree bit for bit."""
    rows = state.base + state.grad @ np.asarray(bits, dtype=float)
    return max(state.theta_lb, float(rows.max(initial=-np.inf)))


def node_eval(state: MasterState, box: np.ndarray):
    """Bound, witness, and branch coordinate for one box node, an int8
    vector with 0 where the box fixes z_j off, 1 where it fixes z_j on and
    2 where z_j is free; lb is the box's smallest member, its fixed ones.

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
    bits = (box == 1).astype(np.int64)
    fidx = np.flatnonzero(box == 2)
    take = min(max(0, state.k - int(bits.sum())), fidx.size)
    if base.size == 0:
        return state.theta_lb, bits, int(fidx[0]) if take else -1
    vals0 = base + grad @ bits.astype(float)
    if take == 0:
        return max(state.theta_lb, float(vals0.max())), bits, -1
    gfree = grad[:, fidx]
    low = np.sort(gfree, axis=1)[:, :take]
    if float(low[:, 0].min()) >= 0.0:
        # every cut is flat on the free coordinates, so the bound is exact;
        # the box still hands back a branch, as its witness may be excluded
        # by a no-good
        return max(state.theta_lb, float(vals0.max())), bits, int(fidx[0])
    mins = vals0 + low.sum(axis=1)
    binding = int(np.argmax(mins))
    h = gfree[binding]
    order = np.argsort(h, kind="stable")[:take]
    bits[fidx[order[h[order] < 0.0]]] = 1
    branch = int(fidx[order[0]]) if h[order[0]] < 0.0 \
        else int(fidx[int(np.argmin(gfree.min(axis=0)))])
    return max(float(mins[binding]), state.theta_lb), bits, branch


def master_solve(state: MasterState, callback=None,
                 deadline: float | None = None):
    """Exact solve of the master problem; returns (z, theta) or None when the
    no-good cuts exclude all feasible selections.

    One best-bound branch and bound runs over the state's frontier, heap
    ties to the older box, branching on the free coordinate that most sways
    the cut binding at the node, and every node contributes the selection
    attaining that cut's minimum as an incumbent candidate. It starts from
    the frontier the state's earlier solves left, the root box at the first
    solve, so a solve after new cuts resumes where the last one stopped
    instead of at the root. A candidate replaces the incumbent only when its
    theta is below the incumbent's, and the cutoff is then the incumbent's
    theta less the relative tolerance 1e-9 (1 + |theta|): a box whose bound
    reaches it cannot hold a selection better by more than the tolerance.
    The search stops once the least open bound reaches the cutoff. The
    incumbent only improves during a solve, so a box pruned once stays
    pruned until the solve ends; boxes pruned when bounded, and leaves no
    no-good excludes, are set aside with their bounds and return to the
    frontier when the solve ends, also on a MasterTimeout, so the next solve
    is exact too. A box is counted in node_count, and the deadline checked,
    before it leaves the heap.

    Without a callback, theta is theta_at(z) and within the tolerance of
    the master optimum; among selections tied within it any one may come
    back. With a callback the search runs single-tree branch and bound:
    callback(z, theta, bound) sees every integer-feasible candidate with its
    master value and the search's current lower bound on the master optimum
    (the least bound of the open boxes, the current one included, capped at
    the incumbent's theta), and either accepts it or injects at least one
    cut and rejects; the best accepted candidate is returned as-is.
    """
    heap, tick = state._frontier, state._tick
    best = cutoff = np.inf
    best_bits = None
    kept = []
    try:
        while heap and heap[0][0] < cutoff:
            state.node_count += 1
            if deadline is not None and time.monotonic() > deadline:
                raise MasterTimeout("master deadline passed")
            _, t, box = heapq.heappop(heap)
            bound, bits, branch = node_eval(state, box)
            if bound >= cutoff:
                kept.append((bound, t, box))
                continue
            excluded = state.excluded(bits)
            if not excluded:
                theta_z = theta_at(state, bits)
                if callback is not None:
                    n_before = state.n_cuts
                    least = min(bound, heap[0][0] if heap else np.inf, best)
                    accepted = callback(SelectionVector(bits.copy()),
                                        theta_z, least)
                    if state.n_cuts != n_before:
                        theta_z = theta_at(state, bits)
                    if not accepted:
                        if state.n_cuts == n_before:
                            raise RuntimeError("callback rejected a node "
                                               "without adding a cut")
                        heapq.heappush(heap, (bound, next(tick), box))
                        continue
                if theta_z < best:
                    best, best_bits = theta_z, bits
                    cutoff = best - _BB_TOL * (1.0 + abs(best))
            if branch < 0:
                # the box holds the one selection bits
                if not excluded:
                    kept.append((bound, t, box))
                continue
            hi = box.copy()
            hi[branch] = 1
            box[branch] = 0
            heapq.heappush(heap, (bound, next(tick), box))
            heapq.heappush(heap, (bound, next(tick), hi))
    finally:
        for entry in kept:
            heapq.heappush(heap, entry)
    if best_bits is None:
        return None
    return SelectionVector(best_bits), best
