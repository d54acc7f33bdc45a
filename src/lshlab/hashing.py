"""Hash functions and hash families on the Hamming cube.

A hash function maps {0,1}^d to non-negative integer labels; a hash family is
a probability distribution over such functions, kept either as an explicit
weighted list (weights are exact rationals) or as a seeded sampling law.
Collision probabilities of finite families are computed exactly, which is
what makes the enumeration-based sensitivity measurements trustworthy.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .bounds import im_rho
from .points import Point, cube_distance_rows, points_to_bit_matrix
from . import rng as rngmod


class DimensionMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# Hash functions. Every function evaluates a whole batch at once: labels(bits)
# maps an (n, dim) 0/1 uint8 matrix, column i = coordinate i, to n labels.
# Labels are int64 while label_bound <= 2^63 and exact Python ints (object
# dtype) beyond, so a long concatenation never wraps.

_INT64_BOUND = 1 << 63


def _label_dtype(bound: int):
    return np.int64 if bound <= _INT64_BOUND else object


def _row_values(bits: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Little-endian value of each 0/1 row (column j contributes 2^j).

    int64 holds rows of up to 63 columns; object dtype is exact at any width.
    """
    if dtype is object:
        packed = np.packbits(bits, axis=1, bitorder="little")
        return np.array([int.from_bytes(row.tobytes(), "little") for row in packed], dtype=object)
    return bits.astype(np.int64) @ (np.int64(1) << np.arange(bits.shape[1], dtype=np.int64))


def _min_rank(ranks: np.ndarray, bits: np.ndarray, empty: int) -> np.ndarray:
    """Smallest rank among each row's set coordinates, `empty` for an empty row."""
    return np.where(bits.astype(bool), ranks, empty).min(axis=1)


@functools.lru_cache(maxsize=4)
def _cube_bits(d: int) -> np.ndarray:
    """All 2^d points as bit rows, row v being the point with value v (read-only)."""
    ids = np.arange(1 << d, dtype="<u8").view(np.uint8).reshape(-1, 8)
    bits = np.ascontiguousarray(np.unpackbits(ids, axis=1, bitorder="little")[:, :d])
    bits.flags.writeable = False
    return bits


class HashFunction:
    """Deterministic total map {0,1}^dim -> [0, label_bound)."""

    dim: int

    @property
    def label_bound(self) -> int:
        raise NotImplementedError

    def labels(self, bits: np.ndarray) -> np.ndarray:
        """Labels of the rows of an (n, dim) 0/1 uint8 matrix: int64 while
        label_bound <= 2^63, exact Python ints (object dtype) beyond."""
        if bits.ndim != 2 or bits.shape[1] != self.dim:
            raise DimensionMismatch(f"bit rows of shape {bits.shape}, function expects width {self.dim}")
        return self._labels(bits)

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: Point) -> int:
        if x.dim != self.dim:
            raise DimensionMismatch(f"point has dimension {x.dim}, function expects {self.dim}")
        return int(self._labels(points_to_bit_matrix([x]))[0])


# Cells of one stacked code matrix: 128 KiB as int16, 512 KiB of int64 labels.
# Its presence table has at most twice as many.
_CODE_CELLS = 1 << 16


def collision_code_matrix(functions: Sequence[HashFunction]) -> np.ndarray:
    """Row i holds the labels of all 2^dim inputs of functions[i], in
    point-value order, recoded to consecutive ints in label order: int16 up
    to dim 14, int32 beyond.

    Rows whose label_bound is at most 2^(dim+1) are recoded together: a
    presence table marks each row's labels, and its running count along the
    row is every present label's code plus one. Other rows (long
    concatenations, wide tables) are ranked by one row-wise sort.
    """
    dim = functions[0].dim
    n = 1 << dim
    bits = _cube_bits(dim)
    dtype = np.int16 if dim <= 14 else np.int32
    codes = np.empty((len(functions), n), dtype=dtype)
    narrow = np.array([h.label_bound <= 2 * n for h in functions])
    for rows in (np.flatnonzero(narrow), np.flatnonzero(~narrow)):
        if not len(rows):
            continue
        bound = max(functions[i].label_bound for i in rows)
        labels = np.empty((len(rows), n), dtype=_label_dtype(bound))
        for j, i in enumerate(rows):
            labels[j] = functions[i].labels(bits)
        if narrow[rows[0]]:
            seen = np.zeros((len(rows), bound), dtype=dtype)
            labels += (np.arange(len(rows)) * bound)[:, None]  # flat cells of seen
            seen.reshape(-1)[labels] = 1
            np.cumsum(seen, axis=1, out=seen)
            codes[rows] = seen.reshape(-1)[labels] - 1
        else:
            order = np.argsort(labels, axis=1)
            ranked = np.take_along_axis(labels, order, axis=1)
            step = np.zeros(labels.shape, dtype=dtype)
            step[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
            np.cumsum(step, axis=1, out=step)
            ranks = np.empty_like(step)
            np.put_along_axis(ranks, order, step, axis=1)
            codes[rows] = ranks
    return codes


def _code_chunks(functions: Iterable[HashFunction], dim: int) -> Iterator[np.ndarray]:
    """collision_code_matrix of consecutive runs of the functions, at most
    _CODE_CELLS cells (and at least one row) at a time."""
    functions = iter(functions)
    rows = max(1, _CODE_CELLS >> dim)
    while chunk := list(itertools.islice(functions, rows)):
        yield collision_code_matrix(chunk)


def collision_codes(h: HashFunction) -> np.ndarray:
    """Labels of all 2^dim inputs of h, in point-value order, recoded to
    consecutive ints in label order: the one-row collision_code_matrix.

    Only the equality structure is preserved; use h.labels for real labels.
    """
    return collision_code_matrix([h])[0].astype(np.int64)


@dataclass(frozen=True)
class CoordinateProjection(HashFunction):
    dim: int
    coord: int

    def __post_init__(self):
        if not 0 <= self.coord < self.dim:
            raise ValueError(f"coordinate {self.coord} out of range for dimension {self.dim}")

    @property
    def label_bound(self) -> int:
        return 2

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        return bits[:, self.coord].astype(np.int64)


@dataclass(frozen=True)
class CoordinateSubset(HashFunction):
    """Projection onto a subset of coordinates, packed as one label."""

    dim: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("duplicate coordinates")
        for i in self.coords:
            if not 0 <= i < self.dim:
                raise ValueError(f"coordinate {i} out of range for dimension {self.dim}")

    @property
    def label_bound(self) -> int:
        return 1 << len(self.coords)

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        return _row_values(bits[:, list(self.coords)], _label_dtype(self.label_bound))


@dataclass(frozen=True)
class Parity(HashFunction):
    dim: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("duplicate coordinates")
        for i in self.coords:
            if not 0 <= i < self.dim:
                raise ValueError(f"coordinate {i} out of range for dimension {self.dim}")

    @property
    def label_bound(self) -> int:
        return 2

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        return bits[:, list(self.coords)].sum(axis=1, dtype=np.int64) & 1


@dataclass(frozen=True)
class Constant(HashFunction):
    dim: int

    @property
    def label_bound(self) -> int:
        return 1

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        return np.zeros(len(bits), dtype=np.int64)


@dataclass(frozen=True)
class ExplicitTable(HashFunction):
    """A label for every point, listed in point-value order (small dim only)."""

    dim: int
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != 1 << self.dim:
            raise ValueError(f"table needs {1 << self.dim} entries, got {len(self.table)}")
        if any(l < 0 for l in self.table):
            raise ValueError("labels must be non-negative")

    @functools.cached_property
    def label_bound(self) -> int:
        return max(self.table) + 1

    @functools.cached_property
    def _lookup(self) -> np.ndarray:
        return np.array(self.table, dtype=_label_dtype(self.label_bound))

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        return self._lookup[_row_values(bits)]


@dataclass(frozen=True)
class MinHashPermutation(HashFunction):
    """Min of a fixed permutation over the set {i : x_i = 1}.

    The empty set gets the reserved label dim, distinct from every element
    rank, so two empty sets collide and an empty set never collides with a
    nonempty one.
    """

    dim: int
    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(self.dim)):
            raise ValueError("not a permutation of range(dim)")

    @property
    def label_bound(self) -> int:
        return self.dim + 1

    @functools.cached_property
    def _ranks(self) -> np.ndarray:
        return np.array(self.perm, dtype=np.int64)

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        return _min_rank(self._ranks, bits, self.dim)


@dataclass(frozen=True)
class PairCollapse(HashFunction):
    """Sends one designated pair to the shared label 0; everything else is kept apart."""

    dim: int
    x0: int
    y0: int

    def __post_init__(self):
        n = 1 << self.dim
        if not (0 <= self.x0 < n and 0 <= self.y0 < n):
            raise ValueError("designated points out of range")

    @property
    def label_bound(self) -> int:
        return (1 << self.dim) + 1

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        v = _row_values(bits, _label_dtype(self.label_bound))
        return np.where((v == self.x0) | (v == self.y0), 0, v + 1)


@dataclass(frozen=True)
class Concatenation(HashFunction):
    """Tuple of component labels, packed little-endian mixed radix: part j's
    label is scaled by the product of the earlier parts' label bounds, so two
    packed labels are equal iff every component label is."""

    parts: tuple[HashFunction, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("need at least one component")
        dims = {p.dim for p in self.parts}
        if len(dims) != 1:
            raise ValueError(f"components disagree on dimension: {sorted(dims)}")

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.parts[0].dim

    @functools.cached_property
    def label_bound(self) -> int:
        bound = 1
        for p in self.parts:
            bound *= p.label_bound
        return bound

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        dtype = _label_dtype(self.label_bound)
        packed = np.zeros(len(bits), dtype=dtype)
        scale = 1
        for p in self.parts:
            packed += p._labels(bits).astype(dtype) * scale
            scale *= p.label_bound
        return packed


@dataclass(frozen=True, eq=False)
class ProjectionProduct:
    """The labels of concatenated coordinate projections, all functions at
    once, as one float64 matrix product.

    Function t's packed label is the sum of 2^j over its parts j whose
    coordinate is set: the row's product with the column holding, at each
    coordinate, the sum of 2^j over the parts j that project it
    (coordinates may repeat). A float64 sum of distinct powers of two is
    exact below 2^53 whatever the summation order, so a label below 2^53
    is one column; a wider one is split into 32-bit limbs, one column each,
    and reassembled: in int64 up to 2^63, in Python ints beyond.
    """

    coords: np.ndarray  # the projected coordinates, once each
    weights: np.ndarray  # (len(coords), limbs * n_functions), limb-major
    n_functions: int
    bound: int  # the largest label_bound

    @classmethod
    def of(cls, functions: Sequence[HashFunction]) -> Optional["ProjectionProduct"]:
        """None unless every function concatenates coordinate projections."""
        if not functions or not all(
            isinstance(fn, Concatenation) and all(isinstance(p, CoordinateProjection) for p in fn.parts)
            for fn in functions
        ):
            return None
        bound = max(fn.label_bound for fn in functions)
        width = 53 if bound <= 1 << 53 else 32
        limbs = -(-(bound.bit_length() - 1) // width)
        w = np.zeros((functions[0].dim, limbs, len(functions)), dtype=np.int64)
        for t, fn in enumerate(functions):
            for j, part in enumerate(fn.parts):
                w[part.coord, j // width, t] += 1 << (j % width)
        w = w.reshape(len(w), -1)
        coords = np.flatnonzero(w.any(axis=1))
        return cls(coords, w[coords].astype(np.float64), len(functions), bound)

    def labels(self, bits: np.ndarray) -> np.ndarray:
        """(n, n_functions) labels of the rows of an (n, dim) 0/1 matrix:
        int64 while every label_bound <= 2^63, exact Python ints beyond."""
        n_limbs = self.weights.shape[1] // self.n_functions
        limbs = (bits[:, self.coords].astype(np.float64) @ self.weights).astype(np.int64)
        limbs = limbs.reshape(len(bits), n_limbs, self.n_functions)
        if n_limbs == 1:
            return limbs[:, 0]
        if self.bound <= _INT64_BOUND:
            return limbs[:, 0] | (limbs[:, 1] << 32)
        labels = limbs[:, -1].astype(object)
        for i in range(n_limbs - 2, -1, -1):
            labels = (labels << 32) | limbs[:, i]
        return labels


# ---------------------------------------------------------------------------
# Hash families


@dataclass(frozen=True)
class MinHashLaw:
    dim: int

    def draw(self, g: np.random.Generator) -> HashFunction:
        return MinHashPermutation(self.dim, tuple(int(i) for i in g.permutation(self.dim)))

    def collisions(self, x_bits: np.ndarray, y_bits: np.ndarray, g: np.random.Generator) -> np.ndarray:
        # One row of ranks per pair, shuffled row by row as successive draws would be.
        ranks = g.permuted(np.tile(np.arange(self.dim), (len(x_bits), 1)), axis=1)
        return _min_rank(ranks, x_bits, self.dim) == _min_rank(ranks, y_bits, self.dim)


@dataclass(frozen=True)
class PowerLaw:
    base: "HashFamily"
    k: int

    def draw(self, g: np.random.Generator) -> HashFunction:
        return Concatenation(tuple(self.base.draw(g) for _ in range(self.k)))

    def collisions(self, x_bits: np.ndarray, y_bits: np.ndarray, g: np.random.Generator) -> np.ndarray:
        # A concatenation collides iff all k components do; each pair's k
        # component draws come consecutively, as in draw.
        k = self.k
        hits = self.base.collisions(np.repeat(x_bits, k, axis=0), np.repeat(y_bits, k, axis=0), g)
        return hits.reshape(-1, k).all(axis=1)


@dataclass(frozen=True)
class HashFamily:
    """A distribution over hash functions on {0,1}^dim.

    Exactly one of ``atoms`` (finite weighted support, Fraction weights that
    sum to exactly 1) and ``law`` (a seeded sampling rule) may be preferred for
    computation, but a finite family is always also samplable.
    ``distance_symmetric`` asserts that the collision probability of a pair
    depends on its Hamming distance only (true for coordinate sampling and
    its powers); enumeration uses one representative pair per distance class
    when it is set.
    """

    dim: int
    atoms: Optional[tuple[tuple[Fraction, HashFunction], ...]] = None
    law: object = None
    description: str = ""
    distance_symmetric: bool = False
    descriptor_doc: Optional[dict] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.atoms is None and self.law is None:
            raise ValueError("family needs a finite support or a sampling law")
        if self.atoms is not None:
            if not self.atoms:
                raise ValueError("empty finite support")
            denom, nums = self._integer_weights
            if min(nums) < 0:
                raise ValueError("negative weight")
            if sum(nums) != denom:
                raise ValueError(f"weights sum to {Fraction(sum(nums), denom)}, expected exactly 1")
            for _, h in self.atoms:
                if h.dim != self.dim:
                    raise DimensionMismatch("atom dimension differs from family dimension")

    @functools.cached_property
    def _integer_weights(self) -> tuple[int, list[int]]:
        """(D, numerators): the atoms' weights over their common denominator D."""
        denom = math.lcm(*(w.denominator for w, _ in self.atoms))
        return denom, [w.numerator * (denom // w.denominator) for w, _ in self.atoms]

    @functools.cached_property
    def is_uniform(self) -> bool:
        if self.atoms is None:
            return False
        w0 = self.atoms[0][0]
        return all(w == w0 for w, _ in self.atoms)

    @functools.cached_property
    def _draw_weights(self) -> np.ndarray:
        weights = np.array([float(w) for w, _ in self.atoms])
        weights /= weights.sum()
        return weights

    def draw(self, g: np.random.Generator) -> HashFunction:
        if self.atoms is not None:
            if self.is_uniform:
                return self.atoms[int(g.integers(len(self.atoms)))][1]
            return self.atoms[int(g.choice(len(self.atoms), p=self._draw_weights))][1]
        return self.law.draw(g)

    def sample(self, n: int, seed: int, substream: int = 0) -> list[HashFunction]:
        """n independent draws; the same (seed, substream) always gives the same list."""
        g = rngmod.stream(seed, substream)
        return [self.draw(g) for _ in range(n)]

    def collisions(self, x_bits: np.ndarray, y_bits: np.ndarray, g: np.random.Generator) -> np.ndarray:
        """Whether h(x) = h(y) on each row pair of two (n, dim) bit matrices,
        with a fresh h drawn per pair.

        The draws take g to the same state as n calls of draw would, so the
        result equals scoring those draws one pair at a time; here they come
        from one generator call and each drawn function labels all of its
        pairs at once.
        """
        if self.atoms is None:
            return self.law.collisions(x_bits, y_bits, g)
        n = len(x_bits)
        if self.is_uniform:
            picks = g.integers(len(self.atoms), size=n)
        else:
            picks = g.choice(len(self.atoms), size=n, p=self._draw_weights)
        hits = np.empty(n, dtype=bool)
        # Group the pairs by drawn atom with one sort; each group is labelled in one call.
        order = np.argsort(picks, kind="stable")
        drawn, starts = np.unique(picks[order], return_index=True)
        for atom, rows in zip(drawn, np.split(order, starts[1:])):
            labels = self.atoms[atom][1].labels(np.concatenate((x_bits[rows], y_bits[rows])))
            hits[rows] = labels[: len(rows)] == labels[len(rows) :]
        return hits


def finite_family(
    functions: Sequence[HashFunction],
    weights: Optional[Sequence] = None,
    description: str = "",
    distance_symmetric: bool = False,
) -> HashFamily:
    """Finite support with the given weights (uniform when omitted).

    Weights are converted to exact rationals; once their sum is within
    1e-12 of 1 they are divided by it, so they sum to exactly 1 and collision
    probabilities of the family come out exact.
    """
    functions = list(functions)
    if weights is None:
        w = Fraction(1, len(functions))
        atoms = tuple((w, h) for h in functions)
    else:
        if len(weights) != len(functions):
            raise ValueError("weights and functions must align")
        exact = [Fraction(w) for w in weights]
        total = sum(exact)
        if abs(total - 1) > Fraction(1, 10**12):
            raise ValueError(f"weights sum to {float(total)}, expected 1")
        atoms = tuple((w / total, h) for w, h in zip(exact, functions))
    dim = functions[0].dim
    return HashFamily(
        dim=dim, atoms=atoms, description=description, distance_symmetric=distance_symmetric
    )


def bit_sampling_family(d: int) -> HashFamily:
    """Uniform over the d coordinate projections x -> x_i."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    fam = finite_family(
        [CoordinateProjection(d, i) for i in range(d)],
        description=f"uniform over the {d} coordinate projections on {{0,1}}^{d}",
        distance_symmetric=True,
    )
    return replace(fam, descriptor_doc={"kind": "bit-sampling", "d": d})


def constant_family(d: int) -> HashFamily:
    fam = finite_family([Constant(d)], description=f"the constant function on {{0,1}}^{d}")
    return replace(fam, descriptor_doc={"kind": "constant", "d": d})


def minhash_family(d: int, exact: bool = False) -> HashFamily:
    """MinHash: a uniformly random permutation of [d], hashing a set to the
    smallest rank among its elements. Points are read as subsets of [d].

    With exact=True the full d! permutations are materialized (d <= 8), which
    makes collision probabilities exactly the Jaccard similarity.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if exact:
        if d > 8:
            raise ValueError("exact MinHash enumeration is limited to d <= 8")
        fns = [MinHashPermutation(d, perm) for perm in itertools.permutations(range(d))]
        fam = finite_family(fns, description=f"uniform over all {d}! MinHash permutations")
    else:
        fam = HashFamily(
            dim=d,
            law=MinHashLaw(d),
            description=f"MinHash with a seeded random permutation of [{d}]",
        )
    return replace(fam, descriptor_doc={"kind": "minhash", "d": d, "exact": bool(exact)})


def trivial_family(d: int, r: int) -> HashFamily:
    """Uniform over pair-collapse functions, one per unordered pair at
    distance in [1, r]. Far pairs never collide, so q = 0 and the rho
    parameter degenerates to 0; this is the construction that forces every
    lower bound to assume q is not tiny.
    """
    if d > 14:
        raise ValueError("trivial family enumeration is limited to d <= 14")
    if r < 1:
        raise ValueError("no pairs within distance < 1")
    n = 1 << d
    fns = []
    for x in range(n):
        for y in range(x + 1, n):
            dist = (x ^ y).bit_count()
            if dist <= r:
                fns.append(PairCollapse(d, x, y))
    if not fns:
        raise ValueError(f"no point pairs within distance {r}")
    fam = finite_family(
        fns, description=f"uniform over the {len(fns)} pair-collapse functions at distance <= {r}"
    )
    return replace(fam, descriptor_doc={"kind": "trivial", "d": d, "r": r})


_POWER_ATOM_LIMIT = 200_000


def power(family: HashFamily, k: int) -> HashFamily:
    """k-fold independent concatenation. An (r, cr, p, q)-sensitive input
    yields an (r, cr, p^k, q^k)-sensitive output, since the k components
    collide independently for any fixed pair.
    """
    if k < 1:
        raise ValueError("concatenation length k must be at least 1")
    doc = None
    if family.descriptor_doc is not None:
        doc = {"kind": "power", "k": k, "base": family.descriptor_doc}
    shared = dict(
        dim=family.dim,
        description=f"{k}-fold concatenation of: {family.description}",
        distance_symmetric=family.distance_symmetric,
        descriptor_doc=doc,
    )
    if family.atoms is not None and len(family.atoms) ** k <= _POWER_ATOM_LIMIT:
        atoms = []
        for combo in itertools.product(family.atoms, repeat=k):
            w = Fraction(1)
            for wi, _ in combo:
                w *= wi
            atoms.append((w, Concatenation(tuple(h for _, h in combo))))
        return HashFamily(atoms=tuple(atoms), **shared)
    return HashFamily(law=PowerLaw(family, k), **shared)


def sample_power(family: HashFamily, k: int, n: int, seed: int) -> list[HashFunction]:
    """power(family, k).sample(n, seed), without building the power's atoms.

    For a uniform base of m atoms the power draws its atom indices from one
    generator, and n draws at once equal n draws one at a time. Below
    _POWER_ATOM_LIMIT the power is uniform over its m^k atoms in
    itertools.product order, so one g.integers(m^k) per function names the
    k parts by its base-m digits, most significant first; past it the power
    is a law whose draws take one g.integers(m) per part.
    """
    if not family.is_uniform:
        return power(family, k).sample(n, seed)
    m = len(family.atoms)
    g = rngmod.stream(seed, 0)
    if m**k <= _POWER_ATOM_LIMIT:
        picks = g.integers(m**k, size=n)[:, None] // m ** np.arange(k - 1, -1, -1) % m
    else:
        picks = g.integers(m, size=(n, k))
    fns = [h for _, h in family.atoms]
    return [Concatenation(tuple(fns[i] for i in row)) for row in picks.tolist()]


# ---------------------------------------------------------------------------
# Sensitivity


@dataclass(frozen=True)
class SensitivityProfile:
    """(r, cr, p, q) with rho = ln(1/p)/ln(1/q) when that is meaningful.

    p lower-bounds the collision probability of pairs within r; q
    upper-bounds it for pairs at distance at least cr. rho is None when the
    ratio degenerates (q = 0, or p = 1, or the thresholds fail p > q), with
    the reason in rho_note. Exact rational values ride along when the
    profile came from enumeration of a finite family.
    """

    r: float
    cr: float
    p: float
    q: float
    rho: Optional[float]
    distance_kind: str = "hamming"
    rho_note: str = ""
    p_exact: Optional[Fraction] = None
    q_exact: Optional[Fraction] = None

    def __post_init__(self):
        if self.rho is not None:
            if not 0 <= self.q < self.p <= 1:
                raise ValueError("rho populated but 0 <= q < p <= 1 fails")


def _rho_from(p: float, q: float) -> tuple[Optional[float], str]:
    if not (0 <= q <= 1 and 0 <= p <= 1):
        raise ValueError("p, q must be probabilities")
    if q == 0:
        return None, "undefined (trivial regime: q = 0)"
    if p <= q:
        return None, f"undefined (not sensitive: p = {p} <= q = {q})"
    if p == 1:
        return None, "undefined (p = 1: near pairs always collide)"
    return math.log(1 / p) / math.log(1 / q), ""


def _snap(v: float) -> float:
    """v, or the integer within 1e-9 of it: float droop must not carry a
    rounding past an integer ((61 / 7) * 7 is 60.99999999999999)."""
    nearest = round(v)
    return nearest if abs(v - nearest) < 1e-9 else v


def bit_sampling_profile(d: int, r: float, c: float) -> SensitivityProfile:
    """Sensitivity of coordinate sampling: (r, cr, 1 - r/d, 1 - cr/d), with
    rho = bounds.im_rho(d, r, c), which increases to 1/c as r/d -> 0. A cr
    within 1e-9 of an integer is that integer, so integer radii keep their
    exact p and q."""
    rho = im_rho(d, r, c)
    cr = _snap(c * r)
    p = 1 - r / d
    q = 1 - cr / d
    p_exact = q_exact = None
    if float(r).is_integer() and float(cr).is_integer():
        p_exact = Fraction(d - int(r), d)
        q_exact = Fraction(d - int(cr), d)
    return SensitivityProfile(
        r=r, cr=cr, p=p, q=q, rho=rho, p_exact=p_exact, q_exact=q_exact
    )


def _collision_masses(family: HashFamily, bits: np.ndarray) -> list[Fraction]:
    """Exact Pr[h(row i) = h(row 0)] for each row i of a bit matrix."""
    if family.atoms is None:
        raise ValueError("collision probability needs a finite family")
    masses = [Fraction(0)] * len(bits)
    for w, h in family.atoms:
        labels = h.labels(bits)
        for i in np.flatnonzero(labels == labels[0]):
            masses[i] += w
    return masses


def collision_probability(family: HashFamily, x: Point, y: Point) -> Fraction:
    """Exact Pr[h(x) = h(y)] for a finite family."""
    if x.dim != family.dim or y.dim != family.dim:
        raise DimensionMismatch("point dimension differs from family dimension")
    return _collision_masses(family, points_to_bit_matrix([x, y]))[1]


_ENUM_DIM_LIMIT = 14


def collision_by_distance(family: HashFamily) -> list[Fraction]:
    """Collision probability per Hamming distance class, for families whose
    collision law depends on distance only (one representative pair per class).
    """
    if not family.distance_symmetric:
        raise ValueError("family is not marked distance_symmetric")
    d = family.dim
    # Row m has its first m coordinates set: at distance m from row 0, the origin.
    return _collision_masses(family, np.tri(d + 1, d, -1, dtype=np.uint8))


_BLOCK_VECTORS = 1 << 16
# Cells of one broadcast collision comparison in _class_extremes: 1 MiB of bool.
_COMPARE_CELLS = 1 << 20


def _class_extremes(family: HashFamily) -> tuple[list[Fraction], list[Fraction]]:
    """Exact per-distance-class (min, max) collision probability over all pairs.

    With the weights scaled to integers over their common denominator D, D
    times a pair's collision probability is a sum over groups of equal-weight
    atoms: weight times how many of the group's atoms collide on the pair.
    A group's counts come from its rows of the family's code matrix, one
    broadcast comparison per run of atoms. Groups are packed into blocks of
    at most _BLOCK_VECTORS count vectors, each indexing an exact table of
    its block's part of the sum; a lone block's table holds the sums' ranks
    instead. Sums past 2^63 are held as base-2^b digits and compared from
    the top digit down.
    """
    d = family.dim
    denom, nums = family._integer_weights
    codes = np.concatenate(list(_code_chunks((h for _, h in family.atoms), d)))
    members: dict[int, list[int]] = {}
    for i, w in enumerate(nums):
        members.setdefault(w, []).append(i)
    groups = {w: np.array(atoms) for w, atoms in members.items()}
    blocks: list[list[np.ndarray]] = []
    sums: list[list[int]] = []
    vectors = _BLOCK_VECTORS + 1
    for w, group in groups.items():
        if vectors * (len(group) + 1) > _BLOCK_VECTORS:
            blocks.append([])
            sums.append([0])
            vectors = 1
        blocks[-1].append(group)
        # Entry sum(c_g * radix_g) of a block's table is its sum for count vector c.
        sums[-1] = [v + w * c for c in range(len(group) + 1) for v in sums[-1]]
        vectors *= len(group) + 1
    levels = sorted(set(sums[0])) if len(blocks) == 1 else None
    if levels:
        rank = {v: i for i, v in enumerate(levels)}
        sums = [[rank[v] for v in sums[0]]]
    top = len(levels) - 1 if levels else denom
    if top < 1 << 63:
        bits, dtype = 63, np.int32 if top < 1 << 31 else np.int64
    else:
        # Each digit's sum over the blocks, carry included, stays below 2^63.
        bits, dtype = 63 - (len(blocks) + 1).bit_length(), np.int64
    n_limbs = -(-top.bit_length() // bits)
    digit = (1 << bits) - 1
    tables = [
        np.array([[(v >> (bits * j)) & digit for v in s] for j in range(n_limbs)], dtype)
        for s in sums
    ]
    mins, maxs = [top] * (d + 1), [0] * (d + 1)
    extremes = ((np.minimum, min, np.iinfo(dtype).max, mins), (np.maximum, max, -1, maxs))
    for xs, dist in cube_distance_rows(d):
        step = max(1, _COMPARE_CELLS // dist.size)  # atoms per broadcast comparison
        limbs = np.zeros((n_limbs,) + dist.shape, dtype=dtype)
        for block, table in zip(blocks, tables):
            key = np.zeros(dist.shape, dtype=np.min_scalar_type(table.shape[1] - 1))
            radix = 1
            for group in block:
                count = np.zeros(dist.shape, dtype=np.min_scalar_type(len(group)))
                for start in range(0, len(group), step):
                    t = codes[group[start : start + step]]
                    same = t[:, xs][:, :, None] == t[:, None, :]
                    count += same[0] if len(same) == 1 else same.sum(0, dtype=count.dtype)
                key += count * key.dtype.type(radix)
                radix *= len(group) + 1
            for j in range(n_limbs):
                limbs[j] += table[j][key]
        for j in range(n_limbs - 1):
            limbs[j + 1] += limbs[j] >> bits
            limbs[j] &= digit
        dist, limbs = dist.ravel(), limbs.reshape(n_limbs, -1)
        # `start` loses to every digit. Only cells whose higher digits tie
        # with their class's extreme compete on the next digit.
        for extreme, keep, start, found in extremes:
            value, digits = [0] * (d + 1), limbs[-1]
            for j in reversed(range(n_limbs)):
                best = np.full(d + 1, start, dtype=dtype)
                extreme.at(best, dist, digits)
                value = [(v << bits) + int(b) for v, b in zip(value, best)]
                if j:
                    digits = np.where(digits == best[dist], limbs[j - 1], start)
            found[:] = map(keep, found, value)
    if levels:
        mins, maxs = [levels[v] for v in mins], [levels[v] for v in maxs]
    return [Fraction(v, denom) for v in mins], [Fraction(v, denom) for v in maxs]


def exact_sensitivity(family: HashFamily, r: float, cr: float) -> SensitivityProfile:
    """Measure (p, q) at thresholds (r, cr) by exhaustive enumeration:
    p = min collision probability over pairs at distance <= r,
    q = max over pairs at distance >= cr.
    """
    if family.atoms is None:
        raise ValueError("exact sensitivity needs a finite family; use Monte Carlo instead")
    d = family.dim
    if d > _ENUM_DIM_LIMIT:
        raise ValueError(
            f"enumeration is limited to d <= {_ENUM_DIM_LIMIT}; use Monte Carlo estimates"
        )
    if not 0 <= r < cr <= d:
        raise ValueError(f"need 0 <= r < cr <= d, got r={r}, cr={cr}, d={d}")

    if family.distance_symmetric:
        mins = maxs = collision_by_distance(family)
    else:
        mins, maxs = _class_extremes(family)
    p_exact = min(mins[: math.floor(r) + 1])
    q_exact = max(maxs[math.ceil(cr) :])
    p = float(p_exact)
    q = float(q_exact)
    rho, note = _rho_from(p, q)
    return SensitivityProfile(
        r=r, cr=cr, p=p, q=q, rho=rho, rho_note=note, p_exact=p_exact, q_exact=q_exact
    )


# ---------------------------------------------------------------------------
# Descriptors: a small JSON-able document describing a function or family,
# with exact round-trip (weights serialize as "numerator/denominator").


def function_descriptor(h: HashFunction) -> dict:
    if isinstance(h, CoordinateProjection):
        return {"kind": "proj", "d": h.dim, "i": h.coord}
    if isinstance(h, CoordinateSubset):
        return {"kind": "subset", "d": h.dim, "coords": list(h.coords)}
    if isinstance(h, Parity):
        return {"kind": "parity", "d": h.dim, "coords": list(h.coords)}
    if isinstance(h, Constant):
        return {"kind": "const", "d": h.dim}
    if isinstance(h, ExplicitTable):
        return {"kind": "table", "d": h.dim, "labels": list(h.table)}
    if isinstance(h, MinHashPermutation):
        return {"kind": "minperm", "d": h.dim, "perm": list(h.perm)}
    if isinstance(h, PairCollapse):
        return {"kind": "pair", "d": h.dim, "x": h.x0, "y": h.y0}
    if isinstance(h, Concatenation):
        return {"kind": "concat", "parts": [function_descriptor(p) for p in h.parts]}
    raise TypeError(f"no descriptor for {type(h).__name__}")


def _int(doc: dict, key: str) -> int:
    """doc[key], which must be an integer (JSON true and 1.0 are not)."""
    v = doc[key]
    if type(v) is not int:
        raise ValueError(f"{key!r} must be an integer, got {v!r}")
    return v


def _bool(doc: dict, key: str) -> bool:
    """doc.get(key, False), which must be a JSON boolean (the string "false" is not)."""
    v = doc.get(key, False)
    if type(v) is not bool:
        raise ValueError(f"{key!r} must be true or false, got {v!r}")
    return v


def _ints(doc: dict, key: str) -> tuple[int, ...]:
    v = doc[key]
    if type(v) is not list or any(type(i) is not int for i in v):
        raise ValueError(f"{key!r} must be a list of integers")
    return tuple(v)


def _function_args(doc: dict) -> tuple[type, tuple]:
    """The class and checked constructor arguments a non-concat descriptor names."""
    kind = doc["kind"]
    if kind == "proj":
        return CoordinateProjection, (_int(doc, "d"), _int(doc, "i"))
    if kind == "subset":
        return CoordinateSubset, (_int(doc, "d"), _ints(doc, "coords"))
    if kind == "parity":
        return Parity, (_int(doc, "d"), _ints(doc, "coords"))
    if kind == "const":
        return Constant, (_int(doc, "d"),)
    if kind == "table":
        return ExplicitTable, (_int(doc, "d"), _ints(doc, "labels"))
    if kind == "minperm":
        return MinHashPermutation, (_int(doc, "d"), _ints(doc, "perm"))
    if kind == "pair":
        return PairCollapse, (_int(doc, "d"), _int(doc, "x"), _int(doc, "y"))
    raise ValueError(f"unknown function kind {kind!r}")


def function_from_descriptor(doc: dict, built: Optional[dict] = None) -> HashFunction:
    """The function a descriptor names. With a `built` dict, a descriptor
    whose checked arguments were seen before (a part shared by many
    concatenations) returns the function made then."""
    if doc["kind"] == "concat":
        return Concatenation(tuple(function_from_descriptor(p, built) for p in doc["parts"]))
    cls, args = _function_args(doc)
    if built is None:
        return cls(*args)
    key = (cls, args)
    if key not in built:
        built[key] = cls(*args)
    return built[key]


def family_descriptor(family: HashFamily) -> dict:
    if family.descriptor_doc is not None:
        return family.descriptor_doc
    if family.atoms is None:
        raise ValueError("cannot describe a bare sampling law without a constructor descriptor")
    return {
        "kind": "finite",
        "d": family.dim,
        "distance_symmetric": family.distance_symmetric,
        "description": family.description,
        "atoms": [
            {"weight": f"{w.numerator}/{w.denominator}", "fn": function_descriptor(h)}
            for w, h in family.atoms
        ],
    }


def family_from_descriptor(doc: dict) -> HashFamily:
    kind = doc["kind"]
    if kind == "bit-sampling":
        return bit_sampling_family(_int(doc, "d"))
    if kind == "constant":
        return constant_family(_int(doc, "d"))
    if kind == "minhash":
        return minhash_family(_int(doc, "d"), exact=_bool(doc, "exact"))
    if kind == "trivial":
        return trivial_family(_int(doc, "d"), _int(doc, "r"))
    if kind == "power":
        return power(family_from_descriptor(doc["base"]), _int(doc, "k"))
    if kind == "finite":
        atoms = tuple(
            (Fraction(a["weight"]), function_from_descriptor(a["fn"])) for a in doc["atoms"]
        )
        return HashFamily(
            dim=_int(doc, "d"),
            atoms=atoms,
            description=doc.get("description", ""),
            distance_symmetric=_bool(doc, "distance_symmetric"),
        )
    raise ValueError(f"unknown family kind {kind!r}")


def family_to_json(family: HashFamily) -> str:
    return json.dumps(family_descriptor(family), sort_keys=True)


def family_from_json(text: str) -> HashFamily:
    """Parse a family document; a malformed one raises ValueError."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a family descriptor must be a JSON object")
        return family_from_descriptor(doc)
    except KeyError as exc:
        raise ValueError(f"family descriptor lacks key {exc}") from exc
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed family descriptor: {exc}") from exc
