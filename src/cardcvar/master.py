"""Upper-level master problem: minimize theta over selections z.

The feasible region is theta >= theta_lb, one affine row per optimality cut,
one exclusion row per no-good cut, and the cardinality bound 1'z <= k with z
binary. MasterState holds the cut pool as plain arrays: add_cut appends one
row to base and grad, add_no_good one key to no_goods, and every path reads
the arrays as they stand, so theta at z is max(theta_lb, max(base + grad @
z)) everywhere (theta_at). master_solve runs one best-bound branch and bound
over coordinate boxes per outer solve. Each box is bounded by its best
single cut, the largest of the cuts' exact minima over it (one sort per cut,
because cut gradients are nonpositive), and that binding cut picks the box's
witness and branch coordinate. The cutting-plane loop needs a master
optimum, not a particular one among ties, so every mode shares one rule: a
candidate replaces the incumbent only when its theta is lower, and a box is
pruned once its bound comes within the relative tolerance of the incumbent's
theta. A pruned box stays on the heap with its bound: cuts only add rows, so
the bound stays a lower bound, and the box reopens when a callback rejects
the incumbent and the search goes on with the new cut. Multi-tree and
single-tree differ only in which selections the callback sees: the search's
proven optimum alone, or every candidate (lazy). Reruns are reproducible.
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


class MasterTimeout(RuntimeError):
    """Deadline passed mid-search."""


def _key(bits: np.ndarray) -> bytes:
    return np.asarray(bits, dtype=np.int64).tobytes()


@dataclass(eq=False)
class MasterState:
    """The append-only cut pool of one outer solve and the region
    parameters. Row i of base and grad is the optimality cut theta >= base
    + grad @ z; add_cut appends one row, so base.size counts them. no_goods
    holds each excluded selection's _key (add_no_good); n_cuts counts the
    cuts of both kinds. node_count sums the boxes master_solve has bounded;
    the boxes themselves live only for one call."""

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
        self.n_cuts, self.no_goods = 0, set()
        self.base = np.empty(0)
        self.grad = np.empty((0, self.n_assets))

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
    state.base = np.append(state.base, value - float(grad @ z.bits))
    state.grad = np.vstack([state.grad, grad])


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
    exactly theta_at(lb). When the binding cut is flat on the free
    coordinates, the branch is the free coordinate with the most negative
    entry of any cut, the first free one if every cut is flat there: a box
    with free coordinates always branches, as a no-good may exclude its
    witness.
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
    mins = vals0 + low.sum(axis=1)
    binding = int(np.argmax(mins))
    h = gfree[binding]
    order = np.argsort(h, kind="stable")[:take]
    bits[fidx[order[h[order] < 0.0]]] = 1
    branch = int(fidx[order[0]]) if h[order[0]] < 0.0 \
        else int(fidx[int(np.argmin(gfree.min(axis=0)))])
    return max(float(mins[binding]), state.theta_lb), bits, branch


def _offer(state: MasterState, callback, z: SelectionVector, theta: float,
           bound: float) -> bool:
    """callback(z, theta, bound), which must add a cut when it rejects."""
    n_before = state.n_cuts
    if callback(z, theta, bound):
        return True
    if state.n_cuts == n_before:
        raise RuntimeError("callback rejected a node without adding a cut")
    return False


def master_solve(state: MasterState, callback=None,
                 deadline: float | None = None, lazy: bool = False):
    """Exact solve of the master problem, cuts the callback adds included;
    returns (z, theta) or None when the no-good cuts exclude all feasible
    selections.

    One best-bound branch and bound runs from the root box, heap ties to
    the older box, branching on the free coordinate that most sways the cut
    binding at the node, and every node contributes the selection attaining
    that cut's minimum as an incumbent candidate. A candidate replaces the
    incumbent only when its theta is below the incumbent's, and the cutoff
    is then the incumbent's theta less the relative tolerance 1e-9 (1 +
    |theta|): a box whose bound reaches it cannot hold a selection better by
    more than the tolerance. Such a box goes back on the heap with its
    bound, and a leaf no no-good excludes goes back with its theta: cuts
    only add rows, so a stored key stays a lower bound. A box is counted in
    node_count, and the deadline checked, before it leaves the heap.

    Once the least open bound reaches the cutoff, the incumbent is a master
    optimum: theta is theta_at(z), and among selections tied within the
    tolerance any one may come back. Without a callback it is returned.
    With one, callback(z, theta, theta) either accepts it, and it is
    returned, or adds at least one cut and rejects it; best and cutoff then
    reset, so every box pruned against the old incumbent reopens, and the
    search goes on. This is multi-tree outer approximation: the callback
    takes its step only at the search's proven optimum. lazy=True makes it
    single-tree branch and cut: the callback also sees every candidate as
    callback(z, theta, bound), with its master value and the search's
    current lower bound on the master optimum (the least bound of the open
    boxes, the current one included, capped at the incumbent's theta); a
    rejected candidate's box goes back on the heap to be bounded again.
    """
    tick = itertools.count()
    heap = [(-np.inf, next(tick), np.full(state.n_assets, 2, dtype=np.int8))]
    while True:
        best = cutoff = np.inf
        best_bits = None
        while heap and heap[0][0] < cutoff:
            state.node_count += 1
            if deadline is not None and time.monotonic() > deadline:
                raise MasterTimeout("master deadline passed")
            _, t, box = heapq.heappop(heap)
            bound, bits, branch = node_eval(state, box)
            if bound >= cutoff:
                heapq.heappush(heap, (bound, t, box))
                continue
            excluded = state.excluded(bits)
            if not excluded:
                theta_z = theta_at(state, bits)
                if lazy:
                    n_before = state.n_cuts
                    least = min(bound, heap[0][0] if heap else np.inf, best)
                    z = SelectionVector(bits.copy())
                    if not _offer(state, callback, z, theta_z, least):
                        heapq.heappush(heap, (bound, next(tick), box))
                        continue
                    if state.n_cuts != n_before:
                        # the accepting callback added a cut
                        theta_z = theta_at(state, bits)
                if theta_z < best:
                    best, best_bits = theta_z, bits
                    cutoff = best - _BB_TOL * (1.0 + abs(best))
            if branch < 0:
                # the box holds the one selection bits
                if not excluded:
                    heapq.heappush(heap, (theta_z, t, box))
                continue
            hi = box.copy()
            hi[branch] = 1
            box[branch] = 0
            heapq.heappush(heap, (bound, next(tick), box))
            heapq.heappush(heap, (bound, next(tick), hi))
        if best_bits is None:
            return None
        z = SelectionVector(best_bits)
        if callback is None or _offer(state, callback, z, best, best):
            return z, best
