"""Ground-truth solver by exhaustive support enumeration.

Only supports of size exactly k are enumerated: enlarging a support never
worsens the optimum, so the best size-k support also minimizes over all
selections with at most k assets. A test verifies that equivalence directly
on small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import Instance, SelectionVector
from . import lower

__all__ = ["OracleResult", "ENUM_BUDGET", "brute_force"]

ENUM_BUDGET = 1_000_000


@dataclass
class OracleResult:
    best_z: SelectionVector
    best_f: float
    evaluated: int


def brute_force(instance: Instance, k: int) -> OracleResult | None:
    """Minimum of the exact lower-level objective over all size-k supports.

    Ties go to the lexicographically smallest selection vector. Returns None
    when every support is infeasible; refuses instances whose enumeration
    exceeds ENUM_BUDGET supports.
    """
    n = instance.n_assets
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n_assets")
    if math.comb(n, k) > ENUM_BUDGET:
        raise ValueError(
            f"C({n},{k}) = {math.comb(n, k)} exceeds the enumeration budget "
            f"{ENUM_BUDGET}")
    best_f = np.inf
    best_bits = None
    evaluated = 0
    for support in itertools.combinations(range(n), k):
        bits = np.zeros(n, dtype=np.int64)
        bits[list(support)] = 1
        evaluated += 1
        res = lower.solve_lower_lifted(SelectionVector(bits), instance)
        if res is None:
            continue
        f = res.f_lo
        if f < best_f or (f == best_f and tuple(bits) < best_bits):
            best_f = f
            best_bits = tuple(bits)
    if best_bits is None:
        return None
    return OracleResult(SelectionVector(np.array(best_bits)), best_f,
                        evaluated)
