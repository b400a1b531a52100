"""Upper-level master problem: minimize theta over selections z.

The feasible region is theta >= theta_lb, one affine row per optimality cut,
one cover row sum_{j in C} z_j >= 1 per feasibility cut, and the
cardinality bound 1'z <= k with z binary. MasterState holds both pools as
plain arrays: add_cut appends one row to base and grad, add_cover one 0/1
row to covers, and every path reads the arrays as they stand, so theta at z
is max(theta_lb, max(base + grad @ z)) everywhere (theta_at). master_solve
runs one best-bound branch and bound over coordinate boxes per outer solve.
Each box is bounded by its best single cut, the largest of the cuts' exact
minima over it (one sort per cut, because cut gradients are nonpositive),
and that binding cut picks the box's witness and branch coordinate. Covers
cost a box one matvec, on its witness: only a cover the witness breaks is
read further, to drop a box that cannot meet it, to raise each cut's
minimum by a reserved slot for one of its members, and to rebuild the
witness from the members. The cutting-plane loop needs a master optimum,
not a particular one among ties, so every mode shares one rule: a candidate
replaces the incumbent only when its theta is lower, and a box is pruned
once its bound comes within the relative tolerance of the incumbent's
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
    "add_cover",
    "theta_at",
    "master_solve",
]

_BB_TOL = 1e-9         # relative pruning tolerance


class MasterTimeout(RuntimeError):
    """Deadline passed mid-search."""


@dataclass(eq=False)
class MasterState:
    """The append-only cut pools of one outer solve and the region
    parameters. Row i of base and grad is the optimality cut theta >= base
    + grad @ z; add_cut appends one row, so base.size counts them. Row i of
    covers is the 0/1 member mask of the cover row sum_{j in C} z_j >= 1
    (add_cover); n_cuts counts the rows of both kinds. node_count sums the
    boxes master_solve has bounded; the boxes themselves live only for one
    call."""

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
        self.n_cuts = 0
        self.base = np.empty(0)
        self.grad = np.empty((0, self.n_assets))
        self.covers = np.empty((0, self.n_assets))

    def excluded(self, bits: np.ndarray) -> bool:
        """Whether the selection bits breaks a cover row."""
        return bool(np.any(self.covers @ bits == 0.0))


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


def add_cover(state: MasterState, members) -> None:
    """Add the cover row sum_{j in C} z_j >= 1, with C the assets where the
    boolean mask members is set: every selection holding none of them
    leaves the region. A mask with no member empties the region."""
    members = np.asarray(members, dtype=bool).ravel()
    if members.size != state.n_assets:
        raise ValueError("cover length does not match n_assets")
    state.n_cuts += 1
    state.covers = np.vstack([state.covers, members])


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
    entry of any cut, the first free one if every cut is flat there.

    Covers are read only when that witness breaks one (one matvec). Every
    member of the box must then hold a member of each broken cover, so the
    box is dropped (None) when one of them has no free member or no budget
    is left. Otherwise each cut's minimum is raised to the larger of its
    unconstrained one and its take - 1 most negative free entries plus the
    cover's most negative free entry, for the broken cover that raises it
    most; both are lower bounds over the box. The witness is rebuilt on the
    new binding cut: the most negative member of each broken cover it does
    not hold yet, then its most negative other entries up to the budget. It
    is None when that overruns the budget or breaks another cover, and the
    branch is the member taken for the first broken cover, so a box with
    free coordinates always branches.
    """
    base, grad = state.base, state.grad
    bits = (box == 1).astype(np.int64)
    fidx = np.flatnonzero(box == 2)
    take = min(max(0, state.k - int(bits.sum())), fidx.size)
    if base.size:
        vals0 = base + grad @ bits.astype(float)
        gfree = grad[:, fidx]
    else:
        # theta_lb alone: one flat row that never binds
        vals0, gfree = np.full(1, -np.inf), np.zeros((1, fidx.size))
    if take == 0:
        bound, branch = max(state.theta_lb, float(vals0.max())), -1
    else:
        low = np.sort(gfree, axis=1)[:, :take]
        mins = vals0 + low.sum(axis=1)
        binding = int(np.argmax(mins))
        h = gfree[binding]
        order = np.argsort(h, kind="stable")[:take]
        bits[fidx[order[h[order] < 0.0]]] = 1
        branch = int(fidx[order[0]]) if h[order[0]] < 0.0 \
            else int(fidx[int(np.argmin(gfree.min(axis=0)))])
        bound = max(float(mins[binding]), state.theta_lb)
    if not state.covers.shape[0]:
        return bound, bits, branch
    broken = state.covers @ bits == 0.0
    if not broken.any():
        return bound, bits, branch
    members = state.covers[broken][:, fidx] > 0.0
    if take == 0 or not members.any(axis=1).all():
        return None
    slot = np.max([gfree[:, m].min(axis=1) for m in members], axis=0)
    mins = vals0 + np.maximum(low.sum(axis=1),
                              low[:, :take - 1].sum(axis=1) + slot)
    binding = int(np.argmax(mins))
    h = gfree[binding]
    picks = []
    for m in members:
        if not m[picks].any():
            picks.append(int(np.flatnonzero(m)[np.argmin(h[m])]))
    branch = int(fidx[picks[0]])
    rest = take - len(picks)
    bits = (box == 1).astype(np.int64)
    if rest >= 0:
        h = h.copy()
        h[picks] = np.inf
        order = np.argsort(h, kind="stable")[:rest]
        bits[fidx[picks]] = 1
        bits[fidx[order[h[order] < 0.0]]] = 1
    if rest < 0 or state.excluded(bits):
        bits = None
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
    returns (z, theta) or None when the cover rows exclude every
    selection.

    One best-bound branch and bound runs from the root box, heap ties to
    the older box, branching on the free coordinate that most sways the cut
    binding at the node, and every node contributes the selection attaining
    that cut's minimum as an incumbent candidate. A candidate replaces the
    incumbent only when its theta is below the incumbent's, and the cutoff
    is then the incumbent's theta less the relative tolerance 1e-9 (1 +
    |theta|): a box whose bound reaches it cannot hold a selection better by
    more than the tolerance. Such a box goes back on the heap with its
    bound, and a leaf goes back with its theta: cuts only add rows, so a
    stored key stays a lower bound. A box that holds no selection meeting
    every cover is dropped for good (node_eval), as covers only add rows
    too. A box is counted in
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
            node = node_eval(state, box)
            if node is None:
                continue    # no selection in the box meets every cover
            bound, bits, branch = node
            if bound >= cutoff:
                heapq.heappush(heap, (bound, t, box))
                continue
            if bits is not None:
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
                # the box holds the one selection bits, which meets every
                # cover, or node_eval would have dropped it
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
