"""Exact noise-stability analysis of hash functions and families.

A hash function h is embedded as the vector-valued map x -> e_{h(x)}, whose
squared Fourier mass w_S at each subset S is computed with a Walsh-Hadamard
transform of every label's indicator. The noise stability at correlation rho
is then sum_S w_S rho^|S|, which equals the collision probability of h on a
rho-correlated pair of strings. Writing K(t) for the stability at e^{-t}
makes K a nonnegative combination of the functions e^{-t|S|}, hence
log-convex in t; check_log_convexity certifies that numerically and
stability_ratio exhibits the resulting ln(1/K(t)) / ln(1/K(ct)) >= 1/c bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .hashing import HashFamily, HashFunction, _code_chunks, collision_codes, finite_family
from .points import cube_distance_rows
from . import rng as rngmod

_TRANSFORM_DIM_LIMIT = 20
_BRUTE_FORCE_DIM_LIMIT = 12
# Cells of the integer block in which exact spectra transform their label
# columns: 512 KiB as int16 with 1 MiB of int32 squares up to d = 14, and
# 1 MiB as int32 with 2 MiB of int64 squares above.
_BATCH_CELLS = 1 << 18

EXACT = "exact-spectral"
MONTE_CARLO = "monte-carlo"


def _fwht_in_place(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform down the first axis (length 2^d),
    overwriting a with butterflies on strided views."""
    n = a.shape[0]
    h = 1
    while h < n:
        # Splitting the first axis is always a view, even of a column slice.
        pairs = a.reshape(n // (2 * h), 2, h, -1)
        x, y = pairs[:, 0], pairs[:, 1]
        x += y  # x + y
        y *= -2
        y += x  # (x + y) - 2y = x - y
        h *= 2
    return a


def _fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a float64 copy of a."""
    return _fwht_in_place(np.array(a, dtype=np.float64))


@dataclass(frozen=True)
class FourierSpectrum:
    """Squared Fourier mass per subset of coordinates (subsets are bitmasks).

    Weights are nonnegative and sum to 1 (Parseval for the unit-vector
    embedding); exact spectra leave out only the subsets of zero mass.
    """

    dim: int
    weights: dict[int, float]

    def __post_init__(self):
        n = 1 << self.dim
        for mask, w in self.weights.items():
            if not 0 <= mask < n:
                raise ValueError(f"subset mask {mask} out of range for dimension {self.dim}")
            if w < 0:
                raise ValueError(f"negative weight at mask {mask}")
        total = self.total_mass()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, expected 1")

    def total_mass(self) -> float:
        return math.fsum(self.weights.values())

    def level_weights(self) -> np.ndarray:
        """Mass per subset size, length dim + 1."""
        levels = np.zeros(self.dim + 1)
        for mask, w in self.weights.items():
            levels[mask.bit_count()] += w
        return levels

    def weight_zero(self) -> float:
        return self.weights.get(0, 0.0)


def _spectrum_from_array(dim: int, w: np.ndarray) -> FourierSpectrum:
    weights = {int(mask): float(w[mask]) for mask in np.flatnonzero(w)}
    return FourierSpectrum(dim=dim, weights=weights)


def _squared_mass_rows(functions: Iterable[HashFunction], dim: int) -> Iterator[np.ndarray]:
    """Each function's squared Fourier mass w_S (indexed by subset mask S), in order.

    Functions come a code chunk at a time. A row holds n^2 w_S as an exact
    integer (n = 2^dim) and starts at its function's count of one-point
    label classes: the transform of one point's indicator is +-1 at every S,
    so each such class adds exactly 1 to every entry. Every class of two or
    more points is one indicator column, in function order; columns are
    transformed _BATCH_CELLS cells at a time as one contiguous (n, c) block,
    squared, and summed into their function's row. Every partial sum of the
    transform has magnitude at most n, which int16 holds up to dim 14 and
    int32 up to the limit of 20; every row entry is at most n^2, which int32
    holds up to dim 14 and int64 up to 2^40. The float64 row is exact and
    independent of the batching.
    """
    n = 1 << dim
    width = max(1, _BATCH_CELLS // n)
    cells = np.zeros(n * width, dtype=np.int16 if dim <= 14 else np.int32)
    square_type = np.int32 if dim <= 14 else np.int64
    points = np.arange(n, dtype=np.int32)
    for codes in _code_chunks(functions, dim):
        m, k = len(codes), int(codes.max()) + 1
        # Flat (function, code) cells of the chunk's class tables.
        codes = codes + (np.arange(m, dtype=np.int32) * k)[:, None]
        sizes = np.bincount(codes.ravel(), minlength=m * k)
        sums = np.zeros((m, n), dtype=square_type)
        sums += (sizes == 1).reshape(m, k).sum(axis=1, dtype=square_type)[:, None]
        shared = np.flatnonzero(sizes > 1)  # one column per class, in function order
        function_of = shared // k
        column = np.full(m * k, -1, dtype=np.int32)
        column[shared] = np.arange(len(shared), dtype=np.int32)
        at = column[codes]  # each (function, point)'s column, -1 for a one-point class
        for lo in range(0, len(shared), width):
            hi = min(lo + width, len(shared))
            batch = cells[: n * (hi - lo)].reshape(n, hi - lo)
            # The batch's columns belong to a run of consecutive functions.
            run = at[function_of[lo] : function_of[hi - 1] + 1]
            cells[(run + (points * (hi - lo) - lo))[(run >= lo) & (run < hi)]] = 1
            _fwht_in_place(batch)
            fns = function_of[lo:hi]
            starts = np.flatnonzero(np.diff(fns, prepend=-1))
            sums[fns[starts]] += np.add.reduceat(
                np.square(batch, dtype=square_type), starts, axis=1, dtype=square_type
            ).T
            batch[:] = 0
        yield from sums / float(n * n)


def fourier_spectrum(h: HashFunction) -> FourierSpectrum:
    """Squared Fourier mass of the label-indicator embedding of h: the
    spectrum of the one-atom family."""
    return family_spectrum(finite_family([h]))


def family_spectrum(
    family: HashFamily,
    mode: str = "exact",
    n_samples: Optional[int] = None,
    seed: int = rngmod.DEFAULT_SEED,
) -> FourierSpectrum:
    """Expected spectrum over the family: the probability-weighted average in
    exact mode (finite support), or an average over sampled functions."""
    if family.dim > _TRANSFORM_DIM_LIMIT:
        raise ValueError(
            f"transform limited to d <= {_TRANSFORM_DIM_LIMIT}; "
            "use Monte Carlo stability estimates instead"
        )
    if mode == "exact":
        if family.atoms is None:
            raise ValueError("exact family spectrum needs a finite support")
        w = np.zeros(1 << family.dim)
        rows = _squared_mass_rows((h for _, h in family.atoms), family.dim)
        for (weight, _), row in zip(family.atoms, rows):
            w += float(weight) * row
        return _spectrum_from_array(family.dim, w)
    if mode == "mc":
        if not n_samples or n_samples < 1:
            raise ValueError("mc mode needs n_samples >= 1")
        w = np.zeros(1 << family.dim)
        for row in _squared_mass_rows(family.sample(n_samples, seed), family.dim):
            w += row
        return _spectrum_from_array(family.dim, w / n_samples)
    raise ValueError(f"unknown mode {mode!r}")


SpectrumSource = Union[FourierSpectrum, HashFamily, HashFunction]


def _as_spectrum(source: SpectrumSource) -> FourierSpectrum:
    if isinstance(source, FourierSpectrum):
        return source
    if isinstance(source, HashFamily):
        return family_spectrum(source)
    if isinstance(source, HashFunction):
        return fourier_spectrum(source)
    raise TypeError(f"cannot take a spectrum of {type(source).__name__}")


def stability(spectrum: FourierSpectrum, rho: float) -> float:
    """sum_S w_S rho^|S|: the collision probability on a rho-correlated pair."""
    if not 0 <= rho <= 1:
        raise ValueError(f"correlation must lie in [0, 1], got {rho}")
    levels = spectrum.level_weights()
    return float(np.dot(levels, rho ** np.arange(len(levels))))


def noise_stability_at_time(source: SpectrumSource, t: float) -> float:
    """K(t): the stability at correlation e^{-t}, for t >= 0."""
    if t < 0:
        raise ValueError(f"time parameter must be nonnegative, got {t}")
    return stability(_as_spectrum(source), math.exp(-t))


@dataclass(frozen=True)
class StabilityCurve:
    """K sampled on a time grid. Exact-provenance curves satisfy K(0) = 1 and
    are nonincreasing; Monte Carlo curves carry standard errors instead."""

    grid: tuple[float, ...]
    values: tuple[float, ...]
    provenance: str
    stderr: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values must align")
        if list(self.grid) != sorted(self.grid):
            raise ValueError("grid must be sorted")
        if any(t < 0 for t in self.grid):
            raise ValueError("time grid must be nonnegative")
        if self.provenance not in (EXACT, MONTE_CARLO):
            raise ValueError(f"unknown provenance {self.provenance!r}")


def stability_curve(source: SpectrumSource, t_grid: Sequence[float]) -> StabilityCurve:
    spectrum = _as_spectrum(source)
    grid = tuple(float(t) for t in t_grid)
    levels = spectrum.level_weights()
    sizes = np.arange(len(levels))
    values = tuple(float(np.dot(levels, np.exp(-t * sizes))) for t in grid)
    return StabilityCurve(grid=grid, values=values, provenance=EXACT)


# ---------------------------------------------------------------------------
# Independent oracle: direct summation over all ordered pairs, weighting each
# by the probability that a rho-correlated draw produces it.


def collision_counts_by_distance(h: HashFunction) -> np.ndarray:
    """Number of ordered pairs (x, y) at each Hamming distance with h(x) = h(y)."""
    d = h.dim
    if d > _BRUTE_FORCE_DIM_LIMIT:
        raise ValueError(f"pair enumeration limited to d <= {_BRUTE_FORCE_DIM_LIMIT}")
    codes = collision_codes(h)
    counts = np.zeros(d + 1, dtype=np.int64)
    for xs, dist in cube_distance_rows(d):
        counts += np.bincount(dist[codes[xs][:, None] == codes], minlength=d + 1)
    return counts


def brute_force_stability(h: HashFunction, rho: float) -> float:
    """Exact stability by summing over all 4^d ordered pairs: a pair at
    distance m has probability 2^{-d} ((1+rho)/2)^{d-m} ((1-rho)/2)^m."""
    if not 0 <= rho <= 1:
        raise ValueError(f"correlation must lie in [0, 1], got {rho}")
    d = h.dim
    counts = collision_counts_by_distance(h)
    agree = (1 + rho) / 2
    differ = (1 - rho) / 2
    m = np.arange(d + 1)
    terms = counts * (2.0**-d) * agree ** (d - m) * differ**m
    return float(math.fsum(terms))


# ---------------------------------------------------------------------------
# Log-convexity certification


@dataclass(frozen=True)
class LogConvexityCertificate:
    passed: bool
    worst_rel_slack: float
    worst_abs_slack: float
    worst_triple: Optional[tuple[float, float, float]]
    n_checks: int
    tolerance: float
    note: str = ""


def check_log_convexity(curve: StabilityCurve, tolerance: float = 1e-9) -> LogConvexityCertificate:
    """Certify midpoint log-convexity of an exact curve.

    Checks K(m)^2 <= K(t1) K(t2) (1 + tolerance) for every grid pair whose
    midpoint lies on the grid, plus the weighted inequality for every
    consecutive triple; reports the worst slack found.
    """
    if curve.provenance != EXACT:
        raise ValueError("log-convexity certification needs an exact-provenance curve")
    if len(curve.grid) < 3:
        raise ValueError("need at least 3 grid points")
    t = np.array(curve.grid)
    k = np.array(curve.values)
    if np.any(k <= 0):
        return LogConvexityCertificate(
            passed=False,
            worst_rel_slack=math.inf,
            worst_abs_slack=math.inf,
            worst_triple=None,
            n_checks=0,
            tolerance=tolerance,
            note="nonpositive curve value",
        )
    logk = np.log(k)

    worst_rel = -math.inf
    worst_abs = -math.inf
    worst_triple = None
    n_checks = 0

    def consider(rel: float, abs_slack: float, triple) -> None:
        nonlocal worst_rel, worst_abs, worst_triple, n_checks
        n_checks += 1
        if rel > worst_rel:
            worst_rel = rel
            worst_triple = triple
        worst_abs = max(worst_abs, abs_slack)

    n = len(t)
    # Pairs with an on-grid midpoint (includes uniformly spaced triples).
    for i in range(n):
        for j in range(i + 2, n):
            mid = (t[i] + t[j]) / 2
            pos = int(np.searchsorted(t, mid))
            for cand in (pos - 1, pos, pos + 1):
                if 0 <= cand < n and math.isclose(t[cand], mid, rel_tol=1e-12, abs_tol=1e-12):
                    rel = math.expm1(2 * logk[cand] - logk[i] - logk[j])
                    abs_slack = k[cand] ** 2 - k[i] * k[j]
                    consider(rel, abs_slack, (float(t[i]), float(t[cand]), float(t[j])))
                    break
    # Consecutive triples in general position.
    for i in range(1, n - 1):
        span = t[i + 1] - t[i - 1]
        if span <= 0:
            continue
        theta = (t[i + 1] - t[i]) / span
        rel = math.expm1(logk[i] - theta * logk[i - 1] - (1 - theta) * logk[i + 1])
        bound = k[i - 1] ** theta * k[i + 1] ** (1 - theta)
        consider(rel, k[i] - bound, (float(t[i - 1]), float(t[i]), float(t[i + 1])))

    return LogConvexityCertificate(
        passed=worst_rel <= tolerance,
        worst_rel_slack=worst_rel,
        worst_abs_slack=worst_abs,
        worst_triple=worst_triple,
        n_checks=n_checks,
        tolerance=tolerance,
    )


def stability_ratio(source: SpectrumSource, t: float, c: float) -> float:
    """ln(1/K(t)) / ln(1/K(ct)), which log-convexity keeps at or above 1/c."""
    if t <= 0:
        raise ValueError("t must be positive")
    if c < 1:
        raise ValueError("c must be at least 1")
    spectrum = _as_spectrum(source)
    k_t = stability(spectrum, math.exp(-t))
    if k_t >= 1:
        raise ValueError("K(t) = 1: ratio undefined for a collision-certain family")
    k_ct = stability(spectrum, math.exp(-c * t))
    return math.log(1 / k_t) / math.log(1 / k_ct)
