"""Correlated-pair generation and Monte Carlo / exact tail machinery.

A rho-correlated pair is a uniform x together with y obtained by
rerandomizing each coordinate independently with probability 1 - rho, i.e.
flipping it with probability (1 - rho)/2. The Hamming distance of such a
pair is Binomial(d, (1 - rho)/2), which is what the exact tail computations
use; verify_sandwich combines those tails with a family's (p, q) sensitivity
to bracket the stability K(u) from both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from .hashing import HashFamily
from .points import Point, bit_rows_to_points
from .spectral import (
    EXACT,
    MONTE_CARLO,
    StabilityCurve,
    family_spectrum,
    stability,
)
from . import rng as rngmod

_MC_CHUNK = 4096


def _flipped_pairs(
    g: np.random.Generator, n: int, d: int, flip_prob: float
) -> tuple[np.ndarray, np.ndarray]:
    """n uniform points x of {0,1}^d and copies y of them with each bit
    flipped independently with probability flip_prob, as two (n, d) 0/1
    matrices. x is drawn before the flips."""
    x = g.integers(0, 2, size=(n, d), dtype=np.uint8)
    flips = (g.random(size=(n, d)) < flip_prob).astype(np.uint8)
    return x, x ^ flips


@dataclass(frozen=True)
class CorrelatedPair:
    x: Point
    y: Point
    rho: float


def correlated_bits(
    d: int, rho: float, n: int, seed: int, substream: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """n correlated pairs as two (n, d) 0/1 matrices."""
    if not 0 <= rho <= 1:
        raise ValueError(f"correlation must lie in [0, 1], got {rho}")
    return _flipped_pairs(rngmod.stream(seed, substream), n, d, (1 - rho) / 2)


def correlated_pair(d: int, rho: float, seed: int) -> CorrelatedPair:
    x, y = correlated_bits(d, rho, 1, seed)
    (px,) = bit_rows_to_points(x)
    (py,) = bit_rows_to_points(y)
    return CorrelatedPair(px, py, rho)


class StabilityEstimate(NamedTuple):
    estimate: float
    stderr: float
    n_samples: int


def mc_stability(
    family: HashFamily, rho: float, n_samples: int, seed: int
) -> StabilityEstimate:
    """Unbiased collision-rate estimate over fresh (function, pair) draws.

    Work is split into fixed-size chunks with one substream each; a chunk
    draws its pairs, then one function per pair, and scores them together.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    if not 0 <= rho <= 1:
        raise ValueError(f"correlation must lie in [0, 1], got {rho}")
    d = family.dim

    sizes = [_MC_CHUNK] * (n_samples // _MC_CHUNK)
    if n_samples % _MC_CHUNK:
        sizes.append(n_samples % _MC_CHUNK)

    hits = 0
    for idx, size in enumerate(sizes):
        g = rngmod.stream(seed, idx)
        x, y = _flipped_pairs(g, size, d, (1 - rho) / 2)
        hits += int(np.count_nonzero(family.collisions(x, y, g)))

    p_hat = hits / n_samples
    return StabilityEstimate(p_hat, math.sqrt(p_hat * (1 - p_hat) / n_samples), n_samples)


def mc_stability_curve(
    family: HashFamily, t_grid: Sequence[float], n_samples: int, seed: int
) -> StabilityCurve:
    grid = tuple(float(t) for t in t_grid)
    estimates = [
        mc_stability(family, math.exp(-t), n_samples, seed + 7919 * i)
        for i, t in enumerate(grid)
    ]
    return StabilityCurve(
        grid=grid,
        values=tuple(e.estimate for e in estimates),
        provenance=MONTE_CARLO,
        stderr=tuple(e.stderr for e in estimates),
    )


# ---------------------------------------------------------------------------
# Exact Binomial tails, summed in log space so d in the thousands is fine.


def _binom_logpmf(d: int, eta: float, js: np.ndarray) -> np.ndarray:
    return (
        gammaln(d + 1)
        - gammaln(js + 1)
        - gammaln(d - js + 1)
        + js * math.log(eta)
        + (d - js) * math.log1p(-eta)
    )


def _binomial_range(d: int, eta: float, lo: int, hi: int) -> float:
    """Pr[lo <= Binomial(d, eta) <= hi] for integers lo, hi."""
    if not 0 <= eta <= 1:
        raise ValueError(f"success probability must lie in [0, 1], got {eta}")
    lo, hi = max(lo, 0), min(hi, d)
    if lo > hi:
        return 0.0
    if lo == 0 and hi == d:
        return 1.0
    if eta == 0:
        return 1.0 if lo == 0 else 0.0
    if eta == 1:
        return 1.0 if hi == d else 0.0
    js = np.arange(lo, hi + 1, dtype=np.float64)
    return float(math.exp(logsumexp(_binom_logpmf(d, eta, js))))


def binomial_tail_above(d: int, eta: float, r: float) -> float:
    """Pr[Binomial(d, eta) > r], strict."""
    return _binomial_range(d, eta, math.floor(r) + 1, d)


def binomial_tail_below(d: int, eta: float, cr: float) -> float:
    """Pr[Binomial(d, eta) < cr], strict."""
    return _binomial_range(d, eta, 0, math.ceil(cr) - 1)


class TailEstimates(NamedTuple):
    above_r: float
    below_cr: float
    above_stderr: float
    below_stderr: float


def tail_probabilities(
    d: int,
    t: float,
    r: float,
    cr: float,
    mode: str = "exact",
    n_samples: int = 100_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> TailEstimates:
    """Pr[dist > r] and Pr[dist < cr] for an e^{-t}-correlated pair in
    dimension d; the distance is Binomial(d, (1 - e^{-t})/2).

    Both tails are evaluated at the single time t supplied; callers that need
    tails at two different correlations (one per side) call twice.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not 0 <= r <= d:
        raise ValueError(f"threshold r must lie in [0, d], got {r}")
    eta = -math.expm1(-t) / 2
    if mode == "exact":
        return TailEstimates(
            binomial_tail_above(d, eta, r), binomial_tail_below(d, eta, cr), 0.0, 0.0
        )
    if mode == "mc":
        g = rngmod.stream(seed, 0)
        dists = g.binomial(d, eta, size=n_samples)
        above = float(np.mean(dists > r))
        below = float(np.mean(dists < cr))
        return TailEstimates(
            above,
            below,
            math.sqrt(above * (1 - above) / n_samples),
            math.sqrt(below * (1 - below) / n_samples),
        )
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Sandwich check: for an (r, cr, p, q)-sensitive family and an
# e^{-u}-correlated pair, p (1 - Pr[dist > r]) <= K(u) <= q + Pr[dist < cr].


@dataclass(frozen=True)
class SandwichReport:
    u: float
    lower: float
    k_value: float
    upper: float
    tail_above_r: float
    tail_below_cr: float
    passed: bool
    tolerance: float
    mode: str
    k_stderr: float = 0.0


def verify_sandwich(
    family: HashFamily,
    r: float,
    cr: float,
    u: float,
    p: float,
    q: float,
    mode: str = "exact",
    n_samples: int = 100_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> SandwichReport:
    if u < 0:
        raise ValueError("u must be nonnegative")
    tails = tail_probabilities(family.dim, u, r, cr, mode="exact")
    lower = p * (1 - tails.above_r)
    upper = q + tails.below_cr

    if mode == "exact":
        k_value = stability(family_spectrum(family), math.exp(-u))
        tol = 1e-9
        stderr = 0.0
    elif mode == "mc":
        est = mc_stability(family, math.exp(-u), n_samples, seed)
        k_value = est.estimate
        stderr = est.stderr
        tol = 5 * stderr
    else:
        raise ValueError(f"unknown mode {mode!r}")

    passed = (lower <= k_value + tol) and (k_value <= upper + tol)
    return SandwichReport(
        u=u,
        lower=lower,
        k_value=k_value,
        upper=upper,
        tail_above_r=tails.above_r,
        tail_below_cr=tails.below_cr,
        passed=passed,
        tolerance=tol,
        mode=mode,
        k_stderr=stderr,
    )


# ---------------------------------------------------------------------------
# Jaccard view: flip each coordinate with probability t/2 and read the pair
# as two subsets of [d]; the Jaccard distance concentrates near t/(1 + t/2).


@dataclass(frozen=True)
class JaccardSummary:
    d: int
    t: float
    n_samples: int
    mean: float
    stderr: float
    minimum: float
    maximum: float
    predicted: float


def jaccard_of_correlated_sets(
    d: int, t: float, n_samples: int, seed: int = rngmod.DEFAULT_SEED
) -> JaccardSummary:
    if not 0 <= t <= 2:
        raise ValueError("flip model needs 0 <= t <= 2")
    x, y = _flipped_pairs(rngmod.stream(seed, 0), n_samples, d, t / 2)
    inter = np.logical_and(x, y).sum(axis=1).astype(np.float64)
    union = np.logical_or(x, y).sum(axis=1).astype(np.float64)
    dist = np.where(union > 0, 1.0 - inter / np.maximum(union, 1.0), 0.0)
    mean = float(dist.mean())
    stderr = float(dist.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return JaccardSummary(
        d=d,
        t=t,
        n_samples=n_samples,
        mean=mean,
        stderr=stderr,
        minimum=float(dist.min()),
        maximum=float(dist.max()),
        predicted=t / (1 + t / 2),
    )
