"""Input plumbing: moment-file parsing, Cholesky sampling, scenario files.

Scenario generation is deterministic by contract: a PCG64 stream seeded with
the given integer produces raw 64-bit words, mapped to uniforms in (0, 1) via
(word + 0.5) * 2**-64, then to standard normals through the inverse normal
CDF. Identical (moments, S, seed) give bitwise identical matrices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MomentData",
    "ParseError",
    "parse_orlibrary",
    "write_orlibrary",
    "cholesky",
    "generate_scenarios",
    "parse_scenarios",
    "write_scenarios",
]

log = logging.getLogger(__name__)

JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)


class ParseError(ValueError):
    """Malformed input text; the message names the offending line."""


@dataclass
class MomentData:
    """Mean vector and covariance matrix of asset returns."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=float).ravel()
        self.sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        n = self.mu.size
        if self.sigma.shape != (n, n):
            raise ValueError("sigma must be square and match mu length")
        if not np.all(np.isfinite(self.mu)) or not np.all(np.isfinite(self.sigma)):
            raise ValueError("moments must be finite")
        if np.max(np.abs(self.sigma - self.sigma.T), initial=0.0) > 1e-10:
            raise ValueError("sigma must be symmetric within 1e-10")
        if np.any(np.diag(self.sigma) < 0):
            raise ValueError("sigma diagonal must be nonnegative")


def _as_lines(text) -> list[str]:
    if isinstance(text, bytes):
        text = text.decode("ascii")
    return text.splitlines()


def parse_orlibrary(text, scale: float = 1.0) -> MomentData:
    """Parse 'N / mean stddev lines / i j corr triples' moment files.

    scale multiplies means and stddevs (so the covariance scales by scale**2).
    """
    lines = _as_lines(text)
    pos = 0

    def next_tokens(expect: int, what: str) -> list[str]:
        nonlocal pos
        while pos < len(lines) and not lines[pos].split():
            pos += 1
        if pos >= len(lines):
            raise ParseError(f"line {len(lines) + 1}: expected {what}, got end of input")
        toks = lines[pos].split()
        if len(toks) != expect:
            raise ParseError(f"line {pos + 1}: expected {what} "
                             f"({expect} fields), got {len(toks)}")
        pos += 1
        return toks

    toks = next_tokens(1, "asset count")
    try:
        n = int(toks[0])
    except ValueError:
        raise ParseError(f"line {pos}: asset count must be an integer") from None
    if n < 1:
        raise ParseError(f"line {pos}: asset count must be positive")

    mu = np.empty(n)
    std = np.empty(n)
    for i in range(n):
        toks = next_tokens(2, "mean and stddev")
        try:
            mu[i], std[i] = float(toks[0]), float(toks[1])
        except ValueError:
            raise ParseError(f"line {pos}: mean/stddev must be numeric") from None

    mu *= scale
    std *= scale

    sigma = np.full((n, n), np.nan)
    while True:
        while pos < len(lines) and not lines[pos].split():
            pos += 1
        if pos >= len(lines):
            break
        toks = next_tokens(3, "correlation triple")
        try:
            i, j, corr = int(toks[0]), int(toks[1]), float(toks[2])
        except ValueError:
            raise ParseError(f"line {pos}: correlation triple must be "
                             "'int int float'") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"line {pos}: asset index out of range 1..{n}")
        if abs(corr) > 1.0 + 1e-9:
            raise ParseError(f"line {pos}: |correlation| exceeds 1")
        sigma[i - 1, j - 1] = sigma[j - 1, i - 1] = corr * std[i - 1] * std[j - 1]

    missing = np.argwhere(np.isnan(sigma))
    if missing.size:
        # NaN pattern is symmetric, so the row-major first hit has i <= j
        i, j = missing[0]
        raise ParseError(f"missing correlation pair ({i + 1}, {j + 1})")
    return MomentData(mu=mu, sigma=sigma)


def write_orlibrary(moments: MomentData) -> str:
    """Inverse of parse_orlibrary (requires strictly positive variances)."""
    mu, sigma = moments.mu, moments.sigma
    std = np.sqrt(np.diag(sigma))
    out = [f"{mu.size}"]
    for m, s in zip(mu, std):
        out.append(f"{m:.17g} {s:.17g}")
    for i in range(mu.size):
        for j in range(i, mu.size):
            denom = std[i] * std[j]
            corr = sigma[i, j] / denom if denom > 0 else 0.0
            out.append(f"{i + 1} {j + 1} {corr:.17g}")
    return "\n".join(out) + "\n"


def cholesky(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T = sigma + jitter * I.

    The jitter escalates through JITTER_LADDER until the factorization
    succeeds; all-zero rows factor exactly to zero columns of L.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    n = sigma.shape[0]
    if sigma.shape != (n, n):
        raise ValueError("sigma must be square")
    if np.max(np.abs(sigma - sigma.T), initial=0.0) > 1e-8:
        raise ValueError("sigma must be symmetric")
    sigma = 0.5 * (sigma + sigma.T)

    live = ~(np.all(sigma == 0.0, axis=0) & np.all(sigma == 0.0, axis=1))
    if not live.all():
        L = np.zeros_like(sigma)
        if live.any():
            idx = np.flatnonzero(live)
            L[np.ix_(idx, idx)] = cholesky(sigma[np.ix_(idx, idx)])
        return L

    for jitter in JITTER_LADDER:
        try:
            L = np.linalg.cholesky(sigma + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            continue
        if jitter > 0.0:
            log.warning("covariance needed diagonal jitter %g to factor", jitter)
        return L
    raise ValueError("sigma is not positive semidefinite "
                     f"(cholesky failed up to jitter {JITTER_LADDER[-1]:g})")


def generate_scenarios(moments: MomentData, S: int, seed: int) -> np.ndarray:
    """S x N return matrix sampled from N(mu, sigma), deterministic in seed."""
    from scipy.special import ndtri

    if S < 1:
        raise ValueError("S must be at least 1")
    L = cholesky(moments.sigma)
    n = moments.mu.size
    raw = np.random.PCG64(seed).random_raw(S * n)
    # (word + 0.5) * 2**-64 lies strictly inside (0, 1), so ndtri is finite
    uniforms = (raw.astype(np.float64) + 0.5) * 2.0**-64
    gauss = ndtri(uniforms).reshape(S, n)
    return moments.mu + gauss @ L.T


def _stream_lines(source):
    """The lines of source, text (str or bytes) or a text file, as
    str.splitlines would split the whole text; a file is read one line at
    a time."""
    if isinstance(source, (str, bytes)):
        yield from _as_lines(source)
        return
    for raw in source:
        yield from raw.splitlines()


def parse_scenarios(source) -> tuple[np.ndarray, np.ndarray]:
    """Parse 'S N' header plus S rows of N returns; uniform probabilities.

    source is the text, str or bytes, or a text file, which is read one
    line at a time into the preallocated S x N matrix: no line outlives its
    own parse. A wrong row count is reported before any malformed row,
    which is reported at the first one."""
    lines = enumerate(_stream_lines(source), 1)
    for lineno, line in lines:
        toks = line.split()
        if toks:
            break
    else:
        raise ParseError("line 1: expected 'S N' header, got end of input")
    if len(toks) != 2:
        raise ParseError(f"line {lineno}: header must be 'S N'")
    try:
        S, n = int(toks[0]), int(toks[1])
    except ValueError:
        raise ParseError(f"line {lineno}: header must be two integers") from None
    if S < 1 or n < 1:
        raise ParseError(f"line {lineno}: S and N must be positive")
    try:
        R = np.empty((S, n))
    except (MemoryError, ValueError):
        raise ParseError(f"line {lineno}: {S} x {n} returns do not fit in "
                         "memory") from None
    rows, error, last = 0, None, lineno
    for last, line in lines:
        toks = line.split()
        if not toks:
            continue
        if rows < S and error is None:
            if len(toks) != n:
                error = f"line {last}: expected {n} returns, got {len(toks)}"
            else:
                try:
                    R[rows] = [float(t) for t in toks]
                except ValueError:
                    error = f"line {last}: returns must be numeric"
        rows += 1
    if rows != S:
        raise ParseError(f"line {last + 1}: expected {S} scenario rows, "
                         f"got {rows}")
    if error is not None:
        raise ParseError(error)
    return R, np.full(S, 1.0 / S)


def write_scenarios(scenarios: np.ndarray) -> str:
    """Inverse of parse_scenarios (probabilities are implied uniform)."""
    R = np.atleast_2d(np.asarray(scenarios, dtype=float))
    out = [f"{R.shape[0]} {R.shape[1]}"]
    for row in R:
        out.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(out) + "\n"
