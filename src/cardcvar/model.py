"""Problem data model: instance container, CVaR evaluation, feasible set.

The decision variables throughout the package are a portfolio weight vector
x on the unit simplex, a scalar threshold a, and the scalar CVaR excess v.
Losses are negated returns, loss(x, r) = -r @ x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Instance",
    "SelectionVector",
    "Portfolio",
    "compute_mu_bar",
    "build_feasible_set",
    "cvar",
    "objective",
]


@dataclass
class Instance:
    """Full datum of one cardinality-constrained mean-CVaR problem.

    scenarios is the S x N matrix of asset returns, probs the matching
    occurrence probabilities, side_A / side_b extra linear constraints
    side_A @ x <= side_b (the simplex constraints are implicit and the
    required-return row is appended later by build_feasible_set).
    """

    n_assets: int
    scenarios: np.ndarray
    probs: np.ndarray
    side_A: np.ndarray
    side_b: np.ndarray
    beta: float
    gamma: float
    k: int

    def __post_init__(self) -> None:
        self.n_assets = int(self.n_assets)
        self.scenarios = np.atleast_2d(np.asarray(self.scenarios, dtype=float))
        self.probs = np.asarray(self.probs, dtype=float).ravel()
        self.side_A = np.asarray(self.side_A, dtype=float).reshape(-1, self.n_assets)
        self.side_b = np.asarray(self.side_b, dtype=float).ravel()
        self.beta = float(self.beta)
        self.gamma = float(self.gamma)
        self.k = int(self.k)

        n = self.n_assets
        if n < 1:
            raise ValueError("n_assets must be positive")
        if self.scenarios.shape[1] != n:
            raise ValueError("scenarios must have n_assets columns")
        if self.probs.shape[0] != self.scenarios.shape[0]:
            raise ValueError("probs length must match scenario count")
        if np.any(self.probs < 0):
            raise ValueError("probs must be nonnegative")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError("probs must sum to 1 within 1e-12")
        if self.side_A.shape[0] != self.side_b.shape[0]:
            raise ValueError("side_A row count must equal side_b length")
        for name, arr in (("scenarios", self.scenarios), ("probs", self.probs),
                          ("side_A", self.side_A), ("side_b", self.side_b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie strictly inside (0, 1)")
        if not (np.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError("gamma must be positive")
        if not 1 <= self.k <= n:
            raise ValueError("k must lie in [1, n_assets]")

    @property
    def n_scenarios(self) -> int:
        return self.scenarios.shape[0]

    @cached_property
    def expected_returns(self) -> np.ndarray:
        """Probability-weighted mean return of each asset, computed on first
        access (an Instance is not mutated after construction) and shared
        read-only by every later one."""
        mu = self.probs @ self.scenarios
        mu.flags.writeable = False
        return mu


@dataclass
class SelectionVector:
    """Binary asset-selection vector z with at most k ones."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        if bits.ndim != 1:
            raise ValueError("bits must be a vector")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("bits entries must be 0 or 1")
        self.bits = bits.astype(np.int64)

    def count(self) -> int:
        return int(self.bits.sum())

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def as_tuple(self) -> tuple:
        return tuple(int(b) for b in self.bits)

    def validate(self, k: int) -> None:
        if self.count() > k:
            raise ValueError(f"selection has {self.count()} assets, bound is {k}")


@dataclass
class Portfolio:
    """Weights x, threshold a (var_level) and CVaR excess v (cvar_excess).

    Construction only coerces and checks finiteness so that infeasible
    points stay evaluable; validate() enforces the feasibility tolerances.
    """

    weights: np.ndarray
    var_level: float
    cvar_excess: float

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        self.var_level = float(self.var_level)
        self.cvar_excess = float(self.cvar_excess)
        if not (np.all(np.isfinite(self.weights))
                and np.isfinite(self.var_level) and np.isfinite(self.cvar_excess)):
            raise ValueError("portfolio entries must be finite")

    def validate(self) -> None:
        if abs(self.weights.sum() - 1.0) > 1e-8:
            raise ValueError("weights must sum to 1 within 1e-8")
        if np.any(self.weights < -1e-10):
            raise ValueError("weights must be nonnegative within 1e-10")
        if self.cvar_excess < -1e-10:
            raise ValueError("cvar_excess must be nonnegative within 1e-10")


def compute_mu_bar(mu: np.ndarray, k: int) -> float:
    """Required return level: 0.3 * mean(k smallest mu) + 0.7 * mean(k largest)."""
    mu = np.asarray(mu, dtype=float).ravel()
    if not 1 <= k <= mu.size:
        raise ValueError("k must lie in [1, len(mu)]")
    srt = np.sort(mu)
    return float(0.3 * srt[:k].mean() + 0.7 * srt[-k:].mean())


def build_feasible_set(instance: Instance, mu_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Side constraints plus the required-return row -mu @ x <= -mu_bar.

    The simplex constraints (sum x = 1, x >= 0) are kept separate and are
    not rows of the returned matrix.
    """
    mu = instance.expected_returns
    A = np.vstack([instance.side_A, -mu[None, :]])
    b = np.concatenate([instance.side_b, [-float(mu_bar)]])
    return A, b


def cvar(x: np.ndarray, instance: Instance) -> tuple[float, float]:
    """Left beta-quantile of the loss distribution and the CVaR at that point.

    Returns (a_star, cvar_value) with a_star the smallest loss whose
    cumulative probability reaches beta and
    cvar_value = a_star + E[(loss - a_star)_+] / (1 - beta).
    """
    x = np.asarray(x, dtype=float).ravel()
    losses = -(instance.scenarios @ x)
    order = np.argsort(losses, kind="stable")
    cum = np.cumsum(instance.probs[order])
    idx = int(np.searchsorted(cum, instance.beta - 1e-12, side="left"))
    idx = min(idx, losses.size - 1)
    a_star = float(losses[order[idx]])
    tail = instance.probs @ np.maximum(losses - a_star, 0.0)
    return a_star, a_star + tail / (1.0 - instance.beta)


def objective(portfolio: Portfolio, instance: Instance) -> float:
    """Regularized objective x @ x / (2 gamma) + a + v."""
    x = portfolio.weights
    return float(x @ x / (2.0 * instance.gamma)
                 + portfolio.var_level + portfolio.cvar_excess)
