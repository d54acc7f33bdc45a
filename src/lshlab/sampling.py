"""Correlated-pair generation, Monte Carlo stability and exact tail machinery.

A rho-correlated pair is a uniform x together with y obtained by
rerandomizing each coordinate independently with probability 1 - rho, i.e.
flipping it with probability (1 - rho)/2. The Hamming distance of such a
pair is Binomial(d, (1 - rho)/2), which is what the exact tail computations
use; verify_sandwich combines those tails with a family's (p, q) sensitivity
to bracket the stability K(u) from both sides.

The tails are exact sums of Binomial probabilities in log space, with numpy
and math alone: ln(n!) comes from a table of math.lgamma below 32 and from
Stirling's series above (_log_factorial), and the sum takes its largest
term out and adds log1p of the others' exponentials, shifted by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .hashing import HashFamily
from .spectral import FourierSpectrum, StabilityCurve, _as_spectrum, _check_times, stability
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


def correlated_bits(
    d: int, rho: float, n: int, seed: int, substream: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """n correlated pairs as two (n, d) 0/1 matrices."""
    if not 0 <= rho <= 1:
        raise ValueError(f"correlation must lie in [0, 1], got {rho}")
    return _flipped_pairs(rngmod.stream(seed, substream), n, d, (1 - rho) / 2)


class StabilityEstimate(NamedTuple):
    estimate: float
    stderr: float
    n_samples: int


def mc_stability(
    family: HashFamily, rho: float, n_samples: int, seed: int, substream: int = 0
) -> StabilityEstimate:
    """Unbiased collision-rate estimate over fresh (function, pair) draws.

    Work is split into fixed-size chunks; chunk j draws from substream
    (substream << 32) + j of the seed. A chunk draws its pairs, then one
    function per pair, and scores them together.
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
        g = rngmod.stream(seed, (substream << 32) + idx)
        x, y = _flipped_pairs(g, size, d, (1 - rho) / 2)
        hits += int(np.count_nonzero(family.collisions(x, y, g)))

    p_hat = hits / n_samples
    return StabilityEstimate(p_hat, math.sqrt(p_hat * (1 - p_hat) / n_samples), n_samples)


def mc_stability_curve(
    family: HashFamily, t_grid: Sequence[float], n_samples: int, seed: int
) -> StabilityCurve:
    """mc_stability at each grid point, point i on substream i of the seed,
    so no two seeds or points share a stream."""
    grid = _check_times(tuple(float(t) for t in t_grid))
    estimates = [
        mc_stability(family, math.exp(-t), n_samples, seed, substream=i)
        for i, t in enumerate(grid)
    ]
    return StabilityCurve(
        grid=grid,
        values=tuple(e.estimate for e in estimates),
        stderr=tuple(e.stderr for e in estimates),
    )


# ---------------------------------------------------------------------------
# Exact Binomial tails, summed in log space so d in the thousands is fine.

_LOG_FACTORIALS = np.array([math.lgamma(n + 1) for n in range(32)])
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """ln(n!) of whole numbers n, as a float64 array of at least one
    dimension. Below 32 it is read from a table of math.lgamma; from 32 on
    it is Stirling's series for ln Gamma(x) at x = n + 1 up to its x^-7
    term, whose first omitted term is below 2e-17 there. The terms are
    added in the order of Cephes' lgam (scipy's gammaln): adding the
    constant and the correction first is nearer per value, but made the
    chernoff-domination tails ten times less accurate."""
    n = np.array(n, dtype=np.float64, ndmin=1, copy=None)
    top = len(_LOG_FACTORIALS) - 1
    x = np.maximum(n, top + 1)  # the series below its range is overwritten
    x += 1
    r = 1 / x
    r2 = r * r
    # tail = r * (1/12 - r2 * (1/360 - r2 * (1/1260 - r2/1680))), and out =
    # (x - 0.5) * ln x - x + ln(2 pi)/2 + tail, each updated in place.
    tail = r2 / 1680
    np.subtract(1 / 1260, tail, out=tail)
    tail *= r2
    np.subtract(1 / 360, tail, out=tail)
    tail *= r2
    np.subtract(1 / 12, tail, out=tail)
    tail *= r
    out = x - 0.5
    out *= np.log(x, out=r2)
    out -= x
    out += _HALF_LOG_2PI
    out += tail
    small = n <= top
    out[small] = _LOG_FACTORIALS[n[small].astype(np.intp)]
    return out


def _binom_logpmf(d: int, eta: float, js: np.ndarray) -> np.ndarray:
    """ln Pr[Binomial(d, eta) = j] at each j of js, which it overwrites."""
    rest = d - js
    logs = np.subtract(_log_factorial(d), _log_factorial(js))
    logs -= _log_factorial(rest)
    js *= math.log(eta)
    logs += js
    rest *= math.log1p(-eta)
    logs += rest
    return logs


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
    logs = _binom_logpmf(d, eta, np.arange(lo, hi + 1, dtype=np.float64))
    # Shifted by the largest term no exponential overflows, and log1p keeps
    # the digits of what the others add to it.
    top = int(np.argmax(logs))
    peak = logs[top]
    logs[top] = -np.inf
    logs -= peak
    return math.exp(math.log1p(float(np.exp(logs, out=logs).sum())) + peak)


def binomial_tail_above(d: int, eta: float, r: float) -> float:
    """Pr[Binomial(d, eta) > r], strict."""
    return _binomial_range(d, eta, math.floor(r) + 1, d)


def binomial_tail_below(d: int, eta: float, cr: float) -> float:
    """Pr[Binomial(d, eta) < cr], strict."""
    return _binomial_range(d, eta, 0, math.ceil(cr) - 1)


class TailEstimates(NamedTuple):
    above_r: float
    below_cr: float


def tail_probabilities(d: int, t: float, r: float, cr: float) -> TailEstimates:
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
    return TailEstimates(binomial_tail_above(d, eta, r), binomial_tail_below(d, eta, cr))


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


def verify_sandwich(
    family: Union[HashFamily, FourierSpectrum], r: float, cr: float, u: float, p: float, q: float
) -> SandwichReport:
    """Check p (1 - Pr[dist > r]) <= K(u) <= q + Pr[dist < cr] with the
    exact K(u); the family may be given as its spectrum, computed once for
    every u."""
    if u < 0:
        raise ValueError("u must be nonnegative")
    tails = tail_probabilities(family.dim, u, r, cr)
    lower = p * (1 - tails.above_r)
    upper = q + tails.below_cr
    k_value = stability(_as_spectrum(family), math.exp(-u))
    tol = 1e-9
    return SandwichReport(
        u=u,
        lower=lower,
        k_value=k_value,
        upper=upper,
        tail_above_r=tails.above_r,
        tail_below_cr=tails.below_cr,
        passed=(lower <= k_value + tol) and (k_value <= upper + tol),
        tolerance=tol,
    )

