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
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .bounds import im_rho
from .points import Point, cube_distance_rows, points_to_bit_matrix, unpack_rows
from . import rng as rngmod


class DimensionMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# Hash functions. Every function evaluates a whole batch at once: labels(bits)
# maps an (n, dim) 0/1 uint8 matrix, column i = coordinate i, to n labels,
# each a row of `width` uint64 words, most significant first: one for a leaf
# (any function but a Concatenation); a Concatenation packs its leaves' labels
# into words in mixed radix (_pack), so word order is leaf-tuple order.


@functools.lru_cache(maxsize=256)
def _pack(bounds: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(word, scale, top) for digits below these bounds, the first least
    significant: digit i times scale[i] adds into word[i], counted from the
    last word, and a new word opens where the next bound would pass 2^64."""
    words, scales, word, scale = [], [], 0, 1
    for b in bounds:
        if scale * b > 1 << 64:
            word, scale = word + 1, 1
        words.append(word)
        scales.append(scale % (1 << 64))  # 2^64 only ahead of bound-1 digits, which are 0
        scale *= b
    return tuple(words), tuple(scales), scale


def _row_values(bits: np.ndarray) -> np.ndarray:
    """Little-endian value of each 0/1 row of at most 64 columns (column j contributes 2^j)."""
    return bits.astype(np.uint64) @ (np.uint64(1) << np.arange(bits.shape[1], dtype=np.uint64))


def _as_keys(words: np.ndarray) -> np.ndarray:
    """Rows of uint64 words, most significant first, as big-endian byte
    strings: byte order is then numeric order. The words are swapped in
    place, so the caller gives up `words`."""
    if sys.byteorder == "little":
        words.byteswap(inplace=True)
    return words.view(f"S{8 * words.shape[-1]}")[..., 0]


@functools.lru_cache(maxsize=4)
def _cube_bits(d: int) -> np.ndarray:
    """All 2^d points as bit rows, row v being the point with value v (read-only)."""
    ids = np.arange(1 << d, dtype="<u8").view(np.uint8).reshape(-1, 8)
    bits = np.ascontiguousarray(np.unpackbits(ids, axis=1, bitorder="little")[:, :d])
    bits.flags.writeable = False
    return bits


class HashFunction:
    """Deterministic total map {0,1}^dim -> [0, label_bound), each label a
    row of `width` uint64 words read as one big-endian integer."""

    dim: int
    width = 1

    @property
    def label_bound(self) -> int:
        raise NotImplementedError

    def labels(self, bits: np.ndarray) -> np.ndarray:
        """(n, width) uint64 labels of the rows of an (n, dim) 0/1 uint8 matrix."""
        if bits.ndim != 2 or bits.shape[1] != self.dim:
            raise DimensionMismatch(f"bit rows of shape {bits.shape}, function expects width {self.dim}")
        return self._labels(bits).reshape(len(bits), self.width)

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        """A leaf's labels of the rows, one uint64 each."""
        raise NotImplementedError

    # The non-concatenation functions h is built from, in part order.
    _leaves = property(lambda self: (self,))

    def __call__(self, x: Point) -> int:
        if x.dim != self.dim:
            raise DimensionMismatch(f"point has dimension {x.dim}, function expects {self.dim}")
        return int.from_bytes(self.labels(points_to_bit_matrix([x])).astype(">u8").tobytes(), "big")

    @property
    def support(self) -> tuple[int, ...]:
        """The sorted coordinates the labels may read: all of them, unless
        the class knows a smaller set."""
        return tuple(range(self.dim))

    def _orbit(self) -> object:
        """A key that two functions share only if a coordinate permutation
        and a shift x -> x ^ s carry one's label partition onto the other's,
        which keeps every level weight: the function itself, unless the
        class knows its orbit."""
        return self

    @classmethod
    def _cube_labels(cls, functions: Sequence["HashFunction"], J: np.ndarray) -> np.ndarray:
        """(m, 2^j, w) labels of the 2^j points pdep(s, J[i]) of each function's
        subcube, in order of s (J[i]: the support of functions[i], all of this
        class): a leaf labels its own block, concatenations each distinct leaf
        once over all blocks (LabelStack); closed forms give one word of any int dtype."""
        m, j = J.shape
        bits = np.zeros((m, 1 << j, functions[0].dim), dtype=np.uint8)
        bits[np.arange(m)[:, None, None], np.arange(1 << j)[:, None], J[:, None, :]] = _cube_bits(j)
        if cls is Concatenation:
            return LabelStack.of(functions).words(bits)
        return np.stack([h._labels(rows) for h, rows in zip(functions, bits)])[..., None]


# Subcube points of one slice of a code group: 128 KiB as int16, 512 KiB
# per label word. Its presence tables have at most twice as many.
_CODE_CELLS = 1 << 16


def _code_groups(functions: Sequence[HashFunction]) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(rows, J, codes) for each slice of a group of the functions of one
    class whose supports have one size j, at most _CODE_CELLS >> j functions
    (and at least one) per slice: J[i] is the support of functions[rows[i]]
    and codes[i] its labels at the 2^j points of its subcube (_cube_labels,
    all rows at once), which are all its labels, recoded to consecutive ints
    in label order: int16 up to dim 14, int32 beyond. If every label is one
    word below 2^(j+1), a presence table marks each row's labels, and its
    running count along the row is every present label's code plus one;
    otherwise one row-wise sort ranks them, as byte strings past one word.
    """
    dtype = np.int16 if functions[0].dim <= 14 else np.int32
    supports = [h.support for h in functions]
    groups: dict[tuple[int, type], list[int]] = {}
    for i, h in enumerate(functions):
        groups.setdefault((len(supports[i]), type(h)), []).append(i)
    for (j, kind), group in groups.items():
        width = max(1, _CODE_CELLS >> j)
        for lo in range(0, len(group), width):
            rows = group[lo : lo + width]
            fns = [functions[i] for i in rows]
            J = np.array([supports[i] for i in rows], dtype=np.int32).reshape(len(rows), j)
            labels = kind._cube_labels(fns, J)
            bound = int(labels.max()) + 1
            if labels.shape[2] == 1 and bound <= 2 << j:
                seen = np.zeros((len(rows), bound), dtype=dtype)
                labels = labels[..., 0].astype(np.intp) + (np.arange(len(rows)) * bound)[:, None]  # cells of seen
                seen.reshape(-1)[labels] = 1
                np.cumsum(seen, axis=1, out=seen)
                codes = seen.reshape(-1)[labels] - 1
            else:
                labels = labels[..., 0] if labels.shape[2] == 1 else _as_keys(labels)
                order = np.argsort(labels, axis=1)
                ranked = np.take_along_axis(labels, order, axis=1)
                step = np.zeros(labels.shape, dtype=dtype)
                step[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
                np.cumsum(step, axis=1, out=step)
                codes = np.empty_like(step)
                np.put_along_axis(codes, order, step, axis=1)
            yield np.array(rows), J, codes


def collision_code_matrix(functions: Sequence[HashFunction]) -> np.ndarray:
    """Row i holds the labels of all 2^dim inputs of functions[i], in
    point-value order, recoded to consecutive ints in label order: int16 up
    to dim 14, int32 beyond. Cube point v has the code of the subcube point
    pext(v, support) (_code_groups)."""
    dim = functions[0].dim
    codes = np.empty((len(functions), 1 << dim), dtype=np.int16 if dim <= 14 else np.int32)
    for rows, J, sub in _code_groups(functions):
        if J.shape[1] == dim:
            codes[rows] = sub
            continue
        # pext(v, J) packs the bits of v at the coordinates J.
        place = np.zeros((dim, len(rows)), dtype=np.int32)
        place[J.T, np.arange(len(rows))] = 1 << np.arange(J.shape[1])[:, None]
        codes[rows] = np.take_along_axis(sub, (_cube_bits(dim) @ place).T, axis=1)
    return codes


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

    support = property(lambda self: (self.coord,))

    def _orbit(self) -> object:
        # Swapping two coordinates carries either projection onto the other.
        return (CoordinateProjection, self.dim)

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        return bits[:, self.coord].astype(np.uint64)


@dataclass(frozen=True)
class CoordinateSubset(HashFunction):
    """Projection onto at most 64 coordinates, packed as one label."""

    dim: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("duplicate coordinates")
        if len(self.coords) > 64:
            raise ValueError(f"a subset projection reads at most 64 coordinates, got {len(self.coords)}")
        for i in self.coords:
            if not 0 <= i < self.dim:
                raise ValueError(f"coordinate {i} out of range for dimension {self.dim}")

    @property
    def label_bound(self) -> int:
        return 1 << len(self.coords)

    support = property(lambda self: tuple(sorted(self.coords)))

    def _orbit(self) -> object:
        # The partition is by the values at the set of coords, and a
        # permutation carries any set onto any other of its size.
        return (CoordinateSubset, self.dim, len(self.coords))

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        return _row_values(bits[:, list(self.coords)])


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

    support = property(lambda self: tuple(sorted(self.coords)))

    def _orbit(self) -> object:
        # A permutation carries any set of coords onto any other of its size.
        return (Parity, self.dim, len(self.coords))

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        return bits[:, list(self.coords)].sum(axis=1, dtype=np.uint64) & np.uint64(1)


@dataclass(frozen=True)
class Constant(HashFunction):
    dim: int

    @property
    def label_bound(self) -> int:
        return 1

    support = ()

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        return np.zeros(len(bits), dtype=np.uint64)


@dataclass(frozen=True)
class ExplicitTable(HashFunction):
    """A label below 2^64 for every point, listed in point-value order (small dim only)."""

    dim: int
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != 1 << self.dim:
            raise ValueError(f"table needs {1 << self.dim} entries, got {len(self.table)}")
        if not all(0 <= l < 1 << 64 for l in self.table):
            raise ValueError("table labels must lie in [0, 2^64)")

    @functools.cached_property
    def label_bound(self) -> int:
        return max(self.table) + 1

    @functools.cached_property
    def _lookup(self) -> np.ndarray:
        return np.array(self.table, dtype=np.uint64)

    @functools.cached_property
    def support(self) -> tuple[int, ...]:
        # Coordinate i is read iff the table's two halves along i differ.
        halves = (self._lookup.reshape(-1, 2, 1 << i) for i in range(self.dim))
        return tuple(i for i, h in enumerate(halves) if (h[:, 0] != h[:, 1]).any())

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

    def _orbit(self) -> object:
        # Moving coordinate i to place perm[i] turns h into the identity permutation.
        return (MinHashPermutation, self.dim)

    @functools.cached_property
    def _ranks(self) -> np.ndarray:
        return np.array(self.perm, dtype=np.uint64)

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        return np.where(bits.astype(bool), self._ranks, np.uint64(self.dim)).min(axis=1)

    @classmethod
    def _cube_labels(cls, functions: Sequence["MinHashPermutation"], J: np.ndarray) -> np.ndarray:
        # A running minimum: coordinate i lowers the half of the cube that
        # contains it to its rank, and the empty set keeps the label dim.
        d = functions[0].dim
        ranks = np.array([h.perm for h in functions], dtype=np.min_scalar_type(d))
        out = np.full((len(functions), 1 << d), d, dtype=ranks.dtype)
        for i in range(d):
            ones = out.reshape(len(functions), -1, 2, 1 << i)[:, :, 1]
            np.minimum(ones, ranks[:, i, None, None], out=ones)
        return out[..., None]


@dataclass(frozen=True)
class PairCollapse(HashFunction):
    """Sends one designated pair to the shared label 0; everything else is kept apart."""

    dim: int
    x0: int
    y0: int

    def __post_init__(self):
        if self.dim > 63:
            raise ValueError(f"a pair collapse takes dim <= 63, got {self.dim}")
        n = 1 << self.dim
        if not (0 <= self.x0 < n and 0 <= self.y0 < n):
            raise ValueError("designated points out of range")

    @property
    def label_bound(self) -> int:
        return (1 << self.dim) + 1

    def _orbit(self) -> object:
        # The shift by x0 and then a permutation carry the pair to (0, 2^m - 1),
        # m = popcount(x0 ^ y0), and every other point stays alone.
        return (PairCollapse, self.dim, (self.x0 ^ self.y0).bit_count())

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        v = _row_values(bits)
        return np.where((v == self.x0) | (v == self.y0), np.uint64(0), v + np.uint64(1))

    @classmethod
    def _cube_labels(cls, functions: Sequence["PairCollapse"], J: np.ndarray) -> np.ndarray:
        # Point v has the label v + 1, except the pair's points, which have 0.
        n = 1 << functions[0].dim
        out = np.tile(np.arange(1, n + 1), (len(functions), 1))
        for ends in ([h.x0 for h in functions], [h.y0 for h in functions]):
            out[np.arange(len(functions)), ends] = 0
        return out[..., None]


@dataclass(frozen=True)
class Concatenation(HashFunction):
    """Tuple of component labels: the leaves' labels (nested concatenations
    flattened), packed in mixed radix into 64-bit words (_pack), so two
    labels are equal iff every leaf's labels are."""

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

    @property
    def _leaves(self) -> tuple[HashFunction, ...]:
        if Concatenation not in map(type, self.parts):
            return self.parts
        return tuple(itertools.chain.from_iterable(p._leaves for p in self.parts))

    @functools.cached_property
    def label_bound(self) -> int:
        word, _, top = _pack(tuple([p.label_bound for p in self._leaves]))
        return top << 64 * word[-1]

    @property
    def width(self) -> int:  # type: ignore[override]
        return -(-(self.label_bound - 1).bit_length() // 64) or 1

    @functools.cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(set().union(*(p.support for p in self.parts))))

    def _orbit(self) -> object:
        leaves = self._leaves
        if not _projections(leaves):
            return self
        # A permutation sends each coordinate to its number in order of first
        # use, and carries any two projection tuples of one pattern onto it.
        first: dict[int, int] = {}
        return (Concatenation, self.dim, tuple([first.setdefault(p.coord, len(first)) for p in leaves]))

    @functools.cached_property
    def _stack(self) -> "LabelStack":
        return LabelStack.of([self])

    def _labels(self, bits: np.ndarray) -> np.ndarray:
        return self._stack.words(bits)[0]


@dataclass(frozen=True, eq=False)
class LabelStack:
    """The labels of several functions at once: each distinct leaf labels its
    rows once, and each function packs its leaves' labels by its own layout."""

    leaves: list[HashFunction]
    table: np.ndarray  # (m, k) leaf numbers, padded with -1

    @classmethod
    def of(cls, functions: Sequence[HashFunction]) -> "LabelStack":
        # The distinct leaves, equal ones once, in order of first use, and each
        # function's leaves by number; each distinct object is hashed once.
        rows = [h._leaves for h in functions]
        flat = list(itertools.chain.from_iterable(rows))
        index: dict[HashFunction, int] = {}
        number = {i: index.setdefault(p, len(index)) for i, p in dict(zip(map(id, flat), flat)).items()}
        lengths = np.fromiter(map(len, rows), np.int64, len(rows))
        table = np.full((len(rows), lengths.max()), -1, dtype=np.int64)
        table[np.arange(table.shape[1]) < lengths[:, None]] = list(map(number.__getitem__, map(id, flat)))
        return cls(list(index), table)

    @functools.cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(word, scale, bound): the (m, k) word of each digit, counted from
        the last, and its uint64 scale (both 0 in padding), and the largest
        label_bound; computed on first use, as only labels need it."""
        # Functions whose leaves have equal bounds share a layout: number each
        # bound by its first leaf, and pack each distinct row once.
        first: dict[int, int] = {}
        bound = np.array([first.setdefault(p.label_bound, i) for i, p in enumerate(self.leaves)] + [-1])
        layouts: dict[tuple[int, ...], int] = {}
        inverse = [layouts.setdefault(tuple(row), len(layouts)) for row in bound[self.table].tolist()]
        word = np.zeros((len(layouts), self.table.shape[1]), dtype=np.int64)
        scale = np.zeros(word.shape, dtype=np.uint64)
        top = 0
        for i, row in enumerate(layouts):
            bounds = tuple(self.leaves[b].label_bound for b in row if b >= 0)
            words, scale[i, : len(bounds)], last = _pack(bounds)
            word[i, : len(bounds)] = words
            top = max(top, last << 64 * words[-1])
        return word[inverse], scale[inverse], top

    def digits(self, bits: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """(m, k, n) uint64 leaf labels of functions[rows] (all by default) of the
        rows of bits: (n, dim), shared, or (m, n, dim), one block per function."""
        table = self.table if rows is None else self.table[rows]
        if bits.ndim == 2:
            # One row per leaf these functions use, and a zero row that the padding -1 reads.
            used, inverse = np.unique(table, return_inverse=True)
            values = np.zeros((len(used), len(bits)), dtype=np.uint64)
            for i, leaf in enumerate(used.tolist()):
                if leaf >= 0:
                    values[i] = self.leaves[leaf]._labels(bits)
            return values[inverse.reshape(table.shape)]
        # Each leaf labels the rows of its cells, grouped by one sort (padding first).
        (m, k), n = table.shape, bits.shape[1]
        digits = np.zeros((m, k, n), dtype=np.uint64)
        cells = np.argsort(table, axis=None)
        leaf = table.ravel()[cells]
        cut = (np.flatnonzero(leaf[1:] != leaf[:-1]) + 1).tolist()
        for lo, hi in zip([0] + cut, cut + [len(leaf)]):
            if leaf[lo] >= 0:
                f, s = np.divmod(cells[lo:hi], k)
                digits[f, s] = self.leaves[leaf[lo]]._labels(bits[f].reshape(-1, bits.shape[2])).reshape(len(f), n)
        return digits

    @functools.cached_property
    def width(self) -> int:
        """Words of the widest function's labels."""
        return int(self.layout[0].max()) + 1

    def words(self, bits: np.ndarray, rows: slice = slice(None), out: Optional[np.ndarray] = None) -> np.ndarray:
        """(m, n, width) uint64 labels of functions[rows] (all by default) of the rows
        of bits (as for digits), right-aligned in `width` words; written to `out` if given."""
        word, scale, _ = self.layout
        word = word[rows]
        digits = self.digits(bits, rows) * scale[rows, :, None]
        if out is None:
            out = np.empty((len(digits), digits.shape[2], self.width), dtype=np.uint64)
        for c in range(self.width):  # word c from the last sums its digits
            out[:, :, -1 - c] = np.where((word == c)[:, :, None], digits, 0).sum(axis=1, dtype=np.uint64)
        return out

    def matches(self, rows: np.ndarray, x_words: np.ndarray, functions: slice = slice(None)) -> np.ndarray:
        """(m, n) bool: whether the functions numbered in `functions` give the
        point packed as rows[i] (pack_rows) the label of the point packed as
        x_words; both are unpacked to be labelled."""
        words = self.words(unpack_rows(np.vstack((rows, x_words)), self.leaves[0].dim), functions)
        return (words[:, :-1] == words[:, -1:]).all(axis=2)


# Cells of one block of ProjectionProduct's float64 points, its product or its masked words: 512 KiB each.
_PRODUCT_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class ProjectionProduct:
    """The labels of concatenated coordinate projections, all functions at
    once, as one float64 matrix product, in 64-bit words, and their matches.

    Function t's packed label is the sum of 2^j over its parts j whose
    coordinate is set: the point's product with a weight row holding, at
    each coordinate, the sum of 2^j over the parts j that project it
    (coordinates may repeat). A float64 sum of distinct powers of two is
    exact below 2^53 whatever the summation order, so labels below 2^53
    take one weight row; wider ones take two per word they reach, one per
    32-bit limb. Two points share function t's label exactly when they agree
    on every coordinate t projects: a match needs no product, only t's
    coordinate bitmask (masks) against the two packed points' difference.
    """

    coords: np.ndarray  # the projected coordinates, once each
    weights: np.ndarray  # (rows per function * n_functions, len(coords)), top limb first
    n_functions: int
    width: int  # words per label

    @classmethod
    def of(cls, stack: LabelStack) -> Optional["ProjectionProduct"]:
        """The product for a stack's functions, or None unless every leaf is
        a coordinate projection."""
        if not _projections(stack.leaves):
            return None
        m, k = stack.table.shape  # the longest function has k parts: labels below 2^k
        width = -(-k // 64)  # words the labels reach
        limb = 53 if k <= 53 else 32
        rows = 1 if limb == 53 else 2 * width
        t, j = np.nonzero(stack.table >= 0)
        coord = np.array([p.coord for p in stack.leaves], dtype=np.intp)[stack.table[t, j]]
        # Part j of function t adds 2^(j % limb) at its coordinate in its
        # limb's row; parts that meet in one cell hold distinct powers, so
        # the float64 sums are exact.
        row = (rows - 1 - j // limb) * m + t
        dim = stack.leaves[0].dim
        w = np.bincount(row * dim + coord, np.ldexp(1.0, j % limb), m * rows * dim).reshape(-1, dim)
        coords = np.flatnonzero(w.any(axis=0))
        return cls(coords, w[:, coords], m, width)

    def words(self, bits: np.ndarray, rows: slice = slice(None), out: Optional[np.ndarray] = None) -> np.ndarray:
        """(m, n, width) uint64 words of the labels, under functions[rows] (all
        by default), of the rows of an (n, dim) 0/1 matrix, most significant
        first; written to `out` if given."""
        # Weight row (limb, t) of each function t in rows.
        weights = self.weights.reshape(-1, self.n_functions, len(self.coords))[:, rows]
        m = weights.shape[1]
        weights = weights.reshape(-1, len(self.coords))
        if out is None:
            out = np.empty((m, len(bits), self.width), dtype=np.uint64)
        block = max(1, _PRODUCT_CELLS // max(weights.shape))
        for lo in range(0, len(bits), block):
            points = bits[lo : lo + block, self.coords].T.astype(np.float64)
            limbs = (weights @ points).reshape(-1, m, points.shape[1])
            del points  # no chunk's blocks outlive it
            if len(limbs) > 1:  # two 32-bit limbs per word
                limbs = (limbs[0::2].astype(np.uint64) << np.uint64(32)) | limbs[1::2].astype(np.uint64)
            out[:, lo : lo + block] = limbs.transpose(1, 2, 0)  # exact integers, cast as they are copied
            del limbs
        return out

    @functools.cached_property
    def masks(self) -> np.ndarray:
        """(n_functions, w) uint64: each function's coordinate bitmask, laid out
        as pack_rows lays out a point, up to the word of the last coordinate."""
        t, c = np.nonzero(self.weights)
        w = int(self.coords[-1]) // 64 + 1
        bit = np.sort(t % self.n_functions * 64 * w + self.coords[c])  # bit number of each (function, coordinate)
        first = np.flatnonzero(np.r_[True, np.diff(bit >> 6) != 0])  # the first bit of each word
        masks = np.zeros((self.n_functions, w), dtype=np.uint64)
        masks.ravel()[bit[first] >> 6] = np.bitwise_or.reduceat(np.uint64(1) << (bit & 63).astype(np.uint64), first)
        return masks

    def matches(self, rows: np.ndarray, x_words: np.ndarray, functions: slice = slice(None)) -> np.ndarray:
        """(m, n) bool: whether the functions numbered in `functions` give the
        point packed as rows[i] (pack_rows) the label of the point packed as
        x_words, that is, whether (rows[i] ^ x_words) & mask is 0 in every
        word, a chunk of points at a time."""
        masks = self.masks[functions]
        out = np.ones((len(masks), len(rows)), dtype=bool)
        block = max(1, _PRODUCT_CELLS // len(masks))
        for lo in range(0, len(rows), block):
            for j in range(masks.shape[1]):
                out[:, lo : lo + block] &= (masks[:, j, None] & (rows[lo : lo + block, j] ^ x_words[j])) == 0
        return out


# ---------------------------------------------------------------------------
# Hash families


@dataclass(frozen=True)
class MinHashLaw:
    dim: int

    def draw(self, g: np.random.Generator) -> HashFunction:
        return MinHashPermutation(self.dim, tuple(int(i) for i in g.permutation(self.dim)))

    def collisions(self, x_bits: np.ndarray, y_bits: np.ndarray, g: np.random.Generator) -> np.ndarray:
        # One row of ranks per pair, shuffled row by row as successive draws
        # would be. The minima of x and y agree iff the smallest-ranked
        # element of x | y lies in both sets, or x | y is empty.
        ranks = g.permuted(np.tile(np.arange(self.dim), (len(x_bits), 1)), axis=1)
        union = (x_bits | y_bits).astype(bool)
        first = np.where(union, ranks, self.dim).argmin(axis=1)
        rows = np.arange(len(x_bits))
        return (x_bits[rows, first] & y_bits[rows, first]).astype(bool) | ~union.any(axis=1)


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
    """

    dim: int
    atoms: Optional[tuple[tuple[Fraction, HashFunction], ...]] = None
    law: object = None
    description: str = ""
    descriptor_doc: Optional[dict] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be at least 1, got {self.dim}")
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

    def sample(self, n: int, seed: int) -> list[HashFunction]:
        """n independent draws; the same seed always gives the same list."""
        g = rngmod.stream(seed)
        return [self.draw(g) for _ in range(n)]

    @functools.cached_property
    def _stack(self) -> "LabelStack":
        """The atoms' LabelStack: their leaves, nested concatenations flattened."""
        return LabelStack.of([h for _, h in self.atoms])

    @functools.cached_property
    def distance_symmetric(self) -> bool:
        """Whether a pair's collision probability depends on its Hamming
        distance only, read off the atoms: true exactly when the family is
        uniform over all d^k ordered k-tuples of coordinate projections
        (bit sampling and its powers, nested ones flattened), where a pair
        at distance m collides with probability (1 - m/d)^k. The first
        atom's leaves settle every other family before any per-atom work."""
        if self.atoms is None:
            return False
        leaves = self.atoms[0][1]._leaves
        d, k = self.dim, len(leaves)
        if not (_projections(leaves) and len(self.atoms) == d**k and self.is_uniform):
            return False
        parts, table = self._stack.leaves, self._stack.table
        if table.shape[1] != k or table.min() < 0 or not _projections(parts):
            return False
        # d^k atoms spell d^k distinct tuples iff they spell every one.
        coords = np.array([p.coord for p in parts], dtype=np.int64)[table]
        return len(np.unique(coords @ d ** np.arange(k, dtype=np.int64))) == d**k

    def collisions(self, x_bits: np.ndarray, y_bits: np.ndarray, g: np.random.Generator) -> np.ndarray:
        """Whether h(x) = h(y) on each row pair of two (n, dim) bit matrices,
        with a fresh h drawn per pair.

        The draws take g to the same state as n calls of draw would, so the
        result equals scoring those draws one pair at a time; here they come
        from one generator call, and the atoms' LabelStack labels each pair's
        two rows, each distinct part once over all of its pairs.
        """
        if self.atoms is None:
            return self.law.collisions(x_bits, y_bits, g)
        n = len(x_bits)
        if self.is_uniform:
            picks = g.integers(len(self.atoms), size=n)
        else:
            picks = g.choice(len(self.atoms), size=n, p=self._draw_weights)
        digits = self._stack.digits(np.stack((x_bits, y_bits), axis=1), picks)
        return (digits[:, :, 0] == digits[:, :, 1]).all(axis=1)


def _projections(functions: Iterable[HashFunction]) -> bool:
    return all(isinstance(h, CoordinateProjection) for h in functions)


def finite_family(
    functions: Sequence[HashFunction],
    weights: Optional[Sequence] = None,
    description: str = "",
    descriptor_doc: Optional[dict] = None,
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
    return HashFamily(
        dim=functions[0].dim, atoms=atoms, description=description, descriptor_doc=descriptor_doc
    )


def bit_sampling_family(d: int) -> HashFamily:
    """Uniform over the d coordinate projections x -> x_i."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return finite_family(
        [CoordinateProjection(d, i) for i in range(d)],
        description=f"uniform over the {d} coordinate projections on {{0,1}}^{d}",
        descriptor_doc={"kind": "bit-sampling", "d": d},
    )


def constant_family(d: int) -> HashFamily:
    return finite_family(
        [Constant(d)],
        description=f"the constant function on {{0,1}}^{d}",
        descriptor_doc={"kind": "constant", "d": d},
    )


_EXACT_MINHASH_DIM_LIMIT = 8


def minhash_family(d: int, exact: bool = False) -> HashFamily:
    """MinHash: a uniformly random permutation of [d], hashing a set to the
    smallest rank among its elements. Points are read as subsets of [d].

    With exact=True the full d! permutations are materialized (d <= 8), which
    makes collision probabilities exactly the Jaccard similarity.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    doc = {"kind": "minhash", "d": d, "exact": bool(exact)}
    if exact:
        if d > _EXACT_MINHASH_DIM_LIMIT:
            raise ValueError(f"exact MinHash enumeration is limited to d <= {_EXACT_MINHASH_DIM_LIMIT}")
        fns = [MinHashPermutation(d, perm) for perm in itertools.permutations(range(d))]
        return finite_family(
            fns, description=f"uniform over all {d}! MinHash permutations", descriptor_doc=doc
        )
    return HashFamily(
        dim=d,
        law=MinHashLaw(d),
        description=f"MinHash with a seeded random permutation of [{d}]",
        descriptor_doc=doc,
    )


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
    # The pairs (x, x ^ m) over the masks m of weight 1..r, kept where
    # x ^ m > x, in (x, y) order: each row of partners sorted.
    points = np.arange(1 << d)
    masks = points[1:][np.bitwise_count(points[1:]) <= r]
    partners = np.sort(points[:, None] ^ masks, axis=1)
    keep = partners > points[:, None]
    xs = np.broadcast_to(points[:, None], partners.shape)[keep]
    fns = [PairCollapse(d, x, y) for x, y in zip(xs.tolist(), partners[keep].tolist())]
    if not fns:
        raise ValueError(f"no point pairs within distance {r}")
    return finite_family(
        fns,
        description=f"uniform over the {len(fns)} pair-collapse functions at distance <= {r}",
        descriptor_doc={"kind": "trivial", "d": d, "r": r},
    )


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
        descriptor_doc=doc,
    )
    if family.atoms is not None and len(family.atoms) ** k <= _POWER_ATOM_LIMIT:
        # Atom weights over D^k, in itertools.product order (last part fastest).
        denom, nums = family._integer_weights
        products = [1]
        for _ in range(k):
            products = [p * n for p in products for n in nums]
        weight = {p: Fraction(p, denom**k) for p in set(products)}
        combos = itertools.product([h for _, h in family.atoms], repeat=k)
        atoms = tuple((weight[p], Concatenation(combo)) for p, combo in zip(products, combos))
        return HashFamily(atoms=atoms, **shared)
    return HashFamily(law=PowerLaw(family, k), **shared)


def sample_power(family: HashFamily, k: int, n: int, seed: int) -> tuple[list[HashFunction], np.ndarray]:
    """power(family, k).sample(n, seed) as (parts, table), without building
    the power's atoms: draw i concatenates parts[table[i, j]] over j < k.

    A uniform base's atoms are the parts, and n draws of their indices from
    one generator equal n draws one at a time. Below _POWER_ATOM_LIMIT the
    power is uniform over its m^k atoms in itertools.product order, so one
    g.integers(m^k) per function names the k parts by its base-m digits, most
    significant first; past it the power is a law whose draws take one
    g.integers(m) per part. Other bases number their drawn parts' objects.
    """
    if not family.is_uniform:
        flat = [p for fn in power(family, k).sample(n, seed) for p in fn.parts]
        number: dict[int, int] = {}
        table = [number.setdefault(id(p), len(number)) for p in flat]
        return list({id(p): p for p in flat}.values()), np.array(table).reshape(n, k)
    m = len(family.atoms)
    g = rngmod.stream(seed, 0)
    if m**k <= _POWER_ATOM_LIMIT:
        table = g.integers(m**k, size=n)[:, None] // m ** np.arange(k - 1, -1, -1) % m
    else:
        table = g.integers(m, size=(n, k))
    return [h for _, h in family.atoms], table


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
    """Exact Pr[h(row i) = h(row 0)] for each row i of a bit matrix.

    The atoms' LabelStack labels the rows, each distinct part once, and D
    times a row's mass is the sum of its colliding atoms' integer weights."""
    if family.atoms is None:
        raise ValueError("collision probability needs a finite family")
    digits = family._stack.digits(bits)
    hits = (digits == digits[:, :, :1]).all(axis=1).T.tolist()  # (rows, atoms)
    denom, nums = family._integer_weights
    return [Fraction(sum(itertools.compress(nums, row)), denom) for row in hits]


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
        raise ValueError("family is not distance-symmetric")
    d = family.dim
    # Row m has its first m coordinates set: at distance m from row 0, the origin.
    return _collision_masses(family, np.tri(d + 1, d, -1, dtype=np.uint8))


# Cells of one broadcast collision comparison in _class_extremes: 1 MiB of bool.
_COMPARE_CELLS = 1 << 20


def _class_extremes(family: HashFamily) -> tuple[list[Fraction], list[Fraction]]:
    """Exact per-distance-class (min, max) collision probability over all pairs.

    With the weights scaled to integers over their common denominator D, D
    times a pair's collision probability is a sum over groups of equal-weight
    atoms: weight times how many of the group's atoms collide on the pair.
    A group's counts come from its rows of the family's code matrix, one
    broadcast comparison per run of atoms, and add straight into the sums'
    limbs: one, int32 or int64, while D < 2^63, and otherwise base-2^b
    digits, carried and then compared from the top digit down.
    """
    d = family.dim
    denom, nums = family._integer_weights
    codes = collision_code_matrix([h for _, h in family.atoms])
    members: dict[int, list[int]] = {}
    for i, w in enumerate(nums):
        members.setdefault(w, []).append(i)
    if denom < 1 << 63:
        bits, dtype = 63, np.int32 if denom < 1 << 31 else np.int64
    else:
        # A digit's sum over all atoms, carry included, stays below 2^63.
        bits, dtype = 62 - len(nums).bit_length(), np.int64
    n_limbs = -(-denom.bit_length() // bits)
    digit = (1 << bits) - 1
    groups = [(np.array(atoms), [dtype((w >> bits * j) & digit) for j in range(n_limbs)])
              for w, atoms in members.items()]
    mins, maxs = [denom] * (d + 1), [0] * (d + 1)
    extremes = ((np.minimum, min, np.iinfo(dtype).max, mins), (np.maximum, max, -1, maxs))
    for xs, dist in cube_distance_rows(d):
        step = max(1, _COMPARE_CELLS // dist.size)  # atoms per broadcast comparison
        limbs = np.zeros((n_limbs,) + dist.shape, dtype=dtype)
        for group, weight in groups:
            count = np.zeros(dist.shape, dtype=np.min_scalar_type(len(group)))
            for start in range(0, len(group), step):
                t = codes[group[start : start + step]]
                same = t[:, xs][:, :, None] == t[:, None, :]
                count += same[0] if len(same) == 1 else same.sum(0, dtype=count.dtype)
            for limb, w in zip(limbs, weight):
                limb += count * w
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


# kind -> (class, fields): one (descriptor key, attribute, reader) per
# constructor argument, in order.
_FUNCTION_KINDS = {
    "proj": (CoordinateProjection, (("d", "dim", _int), ("i", "coord", _int))),
    "subset": (CoordinateSubset, (("d", "dim", _int), ("coords", "coords", _ints))),
    "parity": (Parity, (("d", "dim", _int), ("coords", "coords", _ints))),
    "const": (Constant, (("d", "dim", _int),)),
    "table": (ExplicitTable, (("d", "dim", _int), ("labels", "table", _ints))),
    "minperm": (MinHashPermutation, (("d", "dim", _int), ("perm", "perm", _ints))),
    "pair": (PairCollapse, (("d", "dim", _int), ("x", "x0", _int), ("y", "y0", _int))),
}


_KIND_OF = {cls: kind for kind, (cls, _) in _FUNCTION_KINDS.items()}


def function_descriptor(h: HashFunction) -> dict:
    if isinstance(h, Concatenation):
        return {"kind": "concat", "parts": [function_descriptor(p) for p in h.parts]}
    if type(h) not in _KIND_OF:
        raise TypeError(f"no descriptor for {type(h).__name__}")
    kind = _KIND_OF[type(h)]
    doc = {"kind": kind}
    for key, attr, read in _FUNCTION_KINDS[kind][1]:
        v = getattr(h, attr)
        doc[key] = list(v) if read is _ints else v
    return doc


def function_from_descriptor(doc: dict) -> HashFunction:
    """The function a descriptor names, with its fields checked."""
    kind = doc["kind"]
    if kind == "concat":
        return Concatenation(tuple(function_from_descriptor(p) for p in doc["parts"]))
    if type(kind) is not str or kind not in _FUNCTION_KINDS:
        raise ValueError(f"unknown function kind {kind!r}")
    cls, fields = _FUNCTION_KINDS[kind]
    return cls(*[read(doc, key) for key, _, read in fields])


def family_descriptor(family: HashFamily) -> dict:
    if family.descriptor_doc is not None:
        return family.descriptor_doc
    if family.atoms is None:
        raise ValueError("cannot describe a bare sampling law without a constructor descriptor")
    return {
        "kind": "finite",
        "d": family.dim,
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
        family = HashFamily(dim=_int(doc, "d"), atoms=atoms, description=doc.get("description", ""))
        # The legacy key, still checked: the atoms decide the symmetry.
        if _bool(doc, "distance_symmetric") and not family.distance_symmetric:
            raise ValueError(
                "'distance_symmetric' is true, but the atoms are not uniform over all "
                "k-tuples of coordinate projections"
            )
        return family
    raise ValueError(f"unknown family kind {kind!r}")


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
