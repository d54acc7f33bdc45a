"""Exact noise-stability analysis of hash functions and families.

A hash function h is embedded as the vector-valued map x -> e_{h(x)}, whose
squared Fourier mass w_S at each subset S is computed with a Walsh-Hadamard
transform of every label's indicator. The noise stability at correlation rho
is then sum_S w_S rho^|S|, which equals the collision probability of h on a
rho-correlated pair of strings. Writing K(t) for the stability at e^{-t}
makes K a nonnegative combination of the functions e^{-t|S|}, hence
log-convex in t; check_log_convexity certifies that numerically and
stability_ratio exhibits the resulting ln(1/K(t)) / ln(1/K(ct)) >= 1/c bound.

A coordinate permutation or a shift x -> x ^ s keeps every level weight, so
family_spectrum transforms one atom per orbit key (HashFunction._orbit):
projections, subsets, parities, MinHash permutations, pair collapses and
concatenations of projections carry keys; any other function is its own
orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .hashing import HashFamily, HashFunction, _as_keys, _code_groups, _cube_bits, finite_family
from .points import cube_distance_rows

_TRANSFORM_DIM_LIMIT = 20
_BRUTE_FORCE_DIM_LIMIT = 12
# Cells of the integer block in which exact spectra transform their label
# columns: 512 KiB as int16 with 1 MiB of int32 squares up to d = 14, and
# 1 MiB as int32 with 2 MiB of int64 squares above. A subcube of more
# points (from 2^19) grows the block to one column of it.
_BATCH_CELLS = 1 << 18


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


@dataclass(frozen=True)
class FourierSpectrum:
    """Squared Fourier mass per subset size: levels[k] is the sum of w_S
    over the subsets S of k coordinates, for k = 0..dim.

    Levels are nonnegative and sum to 1 (Parseval for the unit-vector
    embedding).
    """

    dim: int
    levels: tuple[float, ...]

    def __post_init__(self):
        if len(self.levels) != self.dim + 1:
            raise ValueError(f"need {self.dim + 1} level weights, got {len(self.levels)}")
        if not all(w >= 0 for w in self.levels):
            raise ValueError("level weights must be nonnegative")
        total = self.total_mass()
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"weights sum to {total}, expected 1")

    def total_mass(self) -> float:
        return math.fsum(self.levels)


def _class_mass(codes: np.ndarray, cells: np.ndarray, square_type) -> np.ndarray:
    """(m, 2^j) rows of n^2 w_S (n = 2^j), as exact integers, of the
    functions on {0,1}^j whose labels are the (m, 2^j) code matrix.

    A row starts at its function's count of one-point label classes: the
    transform of one point's indicator is +-1 at every S, so each such class
    adds exactly 1 to every entry. Every class of two or more points is one
    indicator column, in function order; columns are transformed as many at
    a time as fill the flat buffer `cells`, as one contiguous (n, c) block,
    squared, and summed into their function's row.
    """
    m, n = codes.shape
    width = max(1, len(cells) // n)
    points = np.arange(n, dtype=np.int32)
    k = int(codes.max()) + 1
    # Flat (function, code) cells of the class tables.
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
        squares = np.square(batch, dtype=square_type)
        if len(starts) < hi - lo:  # some function owns several columns
            squares = np.add.reduceat(squares, starts, axis=1, dtype=square_type)
        sums[fns[starts]] += squares.T
        batch[:] = 0
    return sums


def _level_rows(functions: Sequence[HashFunction], dim: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(atoms, rows) of each code group slice: rows[i] holds 4^dim W_k, k = 0..dim,
    of the function at index atoms[i] of `functions`, as exact int64s.

    A function is transformed on its subcube (_code_groups), whose point s,
    the cube point pdep(s, J), spells a subset of J of popcount(s)
    coordinates, so its _class_mass row summed by popcount(s) is its levels
    at the scale 4^|J|, shifted by 2(dim - |J|) onto 4^dim. Every partial
    sum of a transform has magnitude at most 2^|J|, which int16 holds up to
    dim 14 and int32 up to the limit of 20; its squares, at most 4^|J|, fit
    int32 up to dim 14 and int64 beyond, and a row sums to 4^dim <= 2^40.
    """
    cell_type = np.int16 if dim <= 14 else np.int32
    cells = np.zeros(_BATCH_CELLS, dtype=cell_type)
    square_type = np.int32 if dim <= 14 else np.int64
    for atoms, J, codes in _code_groups(functions):
        if len(cells) < codes.shape[1]:  # one column of the largest subcube met so far
            cells = np.zeros(codes.shape[1], dtype=cell_type)
        j = J.shape[1]
        sizes = np.bitwise_count(np.arange(1 << j, dtype=np.int32))
        order = np.argsort(sizes, kind="stable")  # subcube points by popcount
        mass = _class_mass(codes, cells, square_type)[:, order]
        rows = np.zeros((len(atoms), dim + 1), np.int64)
        starts = np.searchsorted(sizes[order], np.arange(j + 1))
        rows[:, : j + 1] = np.add.reduceat(mass, starts, axis=1, dtype=np.int64) << 2 * (dim - j)
        yield atoms, rows


def fourier_spectrum(h: HashFunction) -> FourierSpectrum:
    """Squared Fourier mass of the label-indicator embedding of h: the
    spectrum of the one-atom family."""
    return family_spectrum(finite_family([h]))


def family_spectrum(family: HashFamily) -> FourierSpectrum:
    """Expected spectrum over a finite family: the probability-weighted
    average of its atoms' spectra, each level summed exactly and rounded once.
    Atoms of one orbit (HashFunction._orbit) have equal levels, so only the
    first of each is transformed, weighted by the orbit's summed numerators."""
    if family.dim > _TRANSFORM_DIM_LIMIT:
        raise ValueError(
            f"transform limited to d <= {_TRANSFORM_DIM_LIMIT}; "
            "use Monte Carlo stability estimates instead"
        )
    if family.atoms is None:
        raise ValueError("exact family spectrum needs a finite support")
    denom, nums = family._integer_weights
    orbits: dict[object, list] = {}
    for (_, h), n in zip(family.atoms, nums):
        orbits.setdefault(h._orbit(), [h, 0])[1] += n
    functions, weights = zip(*orbits.values())
    # The orbits of one weight numerator add into one row of sums.
    numerators, key = np.unique(np.array(weights, dtype=object), return_inverse=True)
    total = np.zeros(family.dim + 1, dtype=object)
    for atoms, rows in _level_rows(functions, family.dim):
        used, at = np.unique(key[atoms], return_inverse=True)
        sums = np.zeros((len(used), family.dim + 1), np.int64)
        np.add.at(sums, at, rows)  # a slice's at most 2^16 rows of 4^dim <= 2^40 stay below 2^56
        total += numerators[used] @ sums.astype(object)
    # Python's int / int rounds each exact level once.
    return FourierSpectrum(family.dim, tuple(s / (denom << 2 * family.dim) for s in total))


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
    return float(np.dot(spectrum.levels, rho ** np.arange(spectrum.dim + 1)))


def _check_times(grid: tuple[float, ...]) -> tuple[float, ...]:
    """The grid, each of whose times must be finite and nonnegative."""
    if not all(0 <= t < math.inf for t in grid):
        raise ValueError("time grid must be finite and nonnegative")
    return grid


@dataclass(frozen=True)
class StabilityCurve:
    """K sampled on a time grid. Every value is a collision probability in
    [0, 1], up to the 1e-9 by which a spectrum's mass may exceed 1. An exact
    curve (stderr None) satisfies K(0) = 1 and is nonincreasing; a Monte
    Carlo curve carries one finite, nonnegative standard error per grid
    point."""

    grid: tuple[float, ...]
    values: tuple[float, ...]
    stderr: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values must align")
        _check_times(self.grid)
        if list(self.grid) != sorted(self.grid):
            raise ValueError("grid must be sorted")
        if not all(0 <= v <= 1 + 1e-9 for v in self.values):
            raise ValueError("curve values must lie in [0, 1]")
        if self.stderr is not None and not (
            len(self.stderr) == len(self.grid)
            and all(isinstance(e, float) and 0 <= e < math.inf for e in self.stderr)
        ):
            raise ValueError("stderr must hold one finite, nonnegative float per grid point")


def stability_curve(source: SpectrumSource, t_grid: Sequence[float]) -> StabilityCurve:
    grid = _check_times(tuple(float(t) for t in t_grid))
    levels = np.array(_as_spectrum(source).levels)
    sizes = np.arange(len(levels))
    # Past t = 1e307, -t |S| overflows to -inf, whose e^{-inf} = 0 is the limit.
    with np.errstate(over="ignore"):
        values = tuple(float(np.dot(levels, np.exp(-t * sizes))) for t in grid)
    return StabilityCurve(grid=grid, values=values)


# ---------------------------------------------------------------------------
# Independent oracle: direct summation over all ordered pairs, weighting each
# by the probability that a rho-correlated draw produces it. It ranks the
# labels h gives the whole cube itself, so it shares no code with the
# subcube codes (_code_groups) that the spectra transform.


def collision_counts_by_distance(h: HashFunction) -> np.ndarray:
    """Number of ordered pairs (x, y) at each Hamming distance with h(x) = h(y)."""
    d = h.dim
    if d > _BRUTE_FORCE_DIM_LIMIT:
        raise ValueError(f"pair enumeration limited to d <= {_BRUTE_FORCE_DIM_LIMIT}")
    _, codes = np.unique(_as_keys(h.labels(_cube_bits(d))), return_inverse=True)
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
    tolerance: float = 1e-9
    note: str = ""


def _expm1_or_inf(x: float) -> float:
    try:
        return math.expm1(x)
    except OverflowError:  # past about 709.78
        return math.inf


# libm's expm1 and pow, one element at a time: numpy's vector loops (even its
# square, x * x) may round the last bit differently.
_expm1 = np.frompyfunc(_expm1_or_inf, 1, 1)
_pow = np.frompyfunc(pow, 2, 1)


def check_log_convexity(curve: StabilityCurve) -> LogConvexityCertificate:
    """Certify midpoint log-convexity of an exact curve.

    Checks K(m)^2 <= K(t1) K(t2) (1 + tolerance) for every grid pair whose
    midpoint lies on the grid, plus the weighted inequality for every
    consecutive triple; reports the worst slacks, with the first triple of
    the worst relative slack in check order.
    """
    if curve.stderr is not None:
        raise ValueError("log-convexity certification needs an exact curve")
    if len(curve.grid) < 3:
        raise ValueError("need at least 3 grid points")
    t = np.array(curve.grid)
    k = np.array(curve.values)
    if not all(v > 0 for v in curve.values):
        return LogConvexityCertificate(
            passed=False,
            worst_rel_slack=math.inf,
            worst_abs_slack=math.inf,
            worst_triple=None,
            n_checks=0,
            note="curve value not positive",
        )
    logk = np.log(k)
    worst_rel, worst_triple, worst_abs, n_checks = -math.inf, None, -math.inf, 0
    n = len(t)
    # Pairs with an on-grid midpoint (includes uniformly spaced triples), in
    # (i, j) order: the first of the grid points pos - 1, pos, pos + 1 around
    # the midpoint that math.isclose(., mid, rel_tol=1e-12, abs_tol=1e-12)
    # accepts, for the pairs of as many rows i at a time as fill 2^16 pairs;
    # then one block of the consecutive triples in general position.
    rows = max(1, (1 << 16) // n)
    for lo in [*range(0, n - 2, rows), None]:
        if lo is None:
            a = np.flatnonzero(t[2:] > t[:-2])
            c, b = a + 1, a + 2
            theta = (t[b] - t[c]) / (t[b] - t[a])
            exponent = logk[c] - theta * logk[a] - (1 - theta) * logk[b]
            slack = k[c] - (_pow(k[a], theta) * _pow(k[b], 1 - theta)).astype(float)
        else:
            i, j = np.nonzero(np.arange(n) >= np.arange(lo, min(lo + rows, n - 2))[:, None] + 2)
            i += lo
            with np.errstate(over="ignore"):
                mid = (t[i] + t[j]) / 2
            # Past about 9e307 the sum overflows; halving first keeps those midpoints finite.
            mid = np.where(np.isinf(mid), t[i] / 2 + t[j] / 2, mid)[:, None]
            cand = np.searchsorted(t, mid) + np.arange(-1, 2)
            near = t[np.clip(cand, 0, n - 1)]
            within = np.abs(near - mid) <= np.maximum(1e-12 * np.maximum(np.abs(near), np.abs(mid)), 1e-12)
            close = (cand >= 0) & (cand < n) & ((near == mid) | (np.isfinite(near) & np.isfinite(mid) & within))
            hit = close.any(axis=1)
            a, c, b = i[hit], cand[hit, close[hit].argmax(axis=1)], j[hit]
            exponent = 2 * logk[c] - logk[a] - logk[b]
            slack = _pow(k[c], 2).astype(float) - k[a] * k[b]
        if not len(a):
            continue
        with np.errstate(over="ignore"):  # libm's overflow flag, where _expm1 gives inf
            rel = _expm1(exponent).astype(float)
        top = int(np.argmax(rel))
        if rel[top] > worst_rel:
            worst_rel, worst_triple = float(rel[top]), (float(t[a[top]]), float(t[c[top]]), float(t[b[top]]))
        worst_abs = max(worst_abs, slack.max())
        n_checks += len(a)
    return LogConvexityCertificate(worst_rel <= 1e-9, worst_rel, float(worst_abs), worst_triple, n_checks)


def stability_ratio(source: SpectrumSource, t: float, c: float) -> float:
    """ln(1/K(t)) / ln(1/K(ct)), which log-convexity keeps at or above 1/c."""
    if not 0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    if not 1 <= c < math.inf:
        raise ValueError("c must be finite and at least 1")
    spectrum = _as_spectrum(source)
    k_t = stability(spectrum, math.exp(-t))
    if k_t >= 1:
        raise ValueError("K(t) = 1: ratio undefined for a collision-certain family")
    k_ct = stability(spectrum, math.exp(-c * t))
    return math.log(1 / k_t) / math.log(1 / k_ct)
