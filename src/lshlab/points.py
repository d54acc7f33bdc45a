"""Points of the Boolean hypercube {0,1}^d and bit-level helpers.

One point is a `Point`, an integer bitmask: bit i of ``value`` is coordinate
i. A point set is an (n, d) 0/1 uint8 matrix, column i = coordinate i. The
string form, coded by `bits_from01` and `bits_to01`, reads coordinates left
to right: ``from01("01011")`` has coordinate 0 equal to 0 and coordinate 3 equal to 1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class Point:
    value: int
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if not 0 <= self.value < (1 << self.dim):
            raise ValueError(f"value {self.value} out of range for dimension {self.dim}")

    def flip(self, coords: Iterable[int]) -> "Point":
        mask = 0
        for i in coords:
            if not 0 <= i < self.dim:
                raise IndexError(f"coordinate {i} out of range for dimension {self.dim}")
            mask |= 1 << i
        return Point(self.value ^ mask, self.dim)

    def to01(self) -> str:
        return bits_to01(points_to_bit_matrix([self]))[0]

    @classmethod
    def from01(cls, s: str) -> "Point":
        return bit_rows_to_points(bits_from01([s.strip()]))[0]

    @classmethod
    def random(cls, dim: int, rng: np.random.Generator) -> "Point":
        nbytes = (dim + 7) // 8
        value = int.from_bytes(rng.bytes(nbytes), "little") & ((1 << dim) - 1)
        return cls(value, dim)


def hamming(x: Point, y: Point) -> int:
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return (x.value ^ y.value).bit_count()


# Entries per block of cube_distance_rows: 8 MiB of int32 per block-sized array.
_DISTANCE_CELLS = 1 << 21


def cube_distance_rows(d: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every ordered pair of {0,1}^d, a block of rows at a time.

    Yields (xs, dist): xs is a run of consecutive point values and
    dist[i, y] the Hamming distance from xs[i] to y, for every y in
    0 .. 2^d - 1. A block has at most _DISTANCE_CELLS entries, but at least
    one row, and every row meets every distance 0 .. d.
    """
    # The narrowest unsigned type that holds every point halves the XOR's cost at d = 14.
    ids = np.arange(1 << d, dtype=np.min_scalar_type((1 << d) - 1))
    rows = max(1, _DISTANCE_CELLS >> d)
    for start in range(0, len(ids), rows):
        xs = ids[start : start + rows]
        yield xs, np.bitwise_count(xs[:, None] ^ ids)


def points_to_bit_matrix(points: Sequence[Point]) -> np.ndarray:
    """Rows of 0/1 uint8, one row per point, column i = coordinate i."""
    if not points:
        raise ValueError("empty point list")
    d = points[0].dim
    for i, p in enumerate(points):
        if p.dim != d:
            raise ValueError(f"point {i} has dimension {p.dim}, expected {d}")
    nbytes = (d + 7) // 8
    raw = np.frombuffer(
        b"".join(p.value.to_bytes(nbytes, "little") for p in points), dtype=np.uint8
    ).reshape(len(points), nbytes)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :d]


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """0/1 rows -> (n, ceil(d/64)) uint64 words, little-endian bit packing
    (bit i of the row's bytes is coordinate i) and zero padding.

    Hamming distance is np.bitwise_count(a ^ b).sum(-1).
    """
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((len(bits), -(-bits.shape[1] // 64) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view(np.uint64)


def unpack_rows(words: np.ndarray, d: int) -> np.ndarray:
    """Inverse of pack_rows: (n, d) 0/1 uint8 rows."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=d, bitorder="little")


def bits_from01(strings: Sequence[str]) -> np.ndarray:
    """(n, d) 0/1 uint8 rows from 0/1 strings of one length d, coordinate 0
    leftmost, parsed in one pass rather than one Point per string."""
    if not strings:
        raise ValueError("empty point list")
    d = len(strings[0])
    if d < 1:
        raise ValueError("dimension must be at least 1")
    lengths = np.fromiter(map(len, strings), dtype=np.intp, count=len(strings))
    bad = np.flatnonzero(lengths != d)
    if len(bad):
        raise ValueError(f"point {bad[0]} has dimension {lengths[bad[0]]}, expected {d}")
    bits = np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint8).reshape(-1, d) - ord("0")
    bad = np.flatnonzero((bits > 1).any(axis=1))
    if len(bad):
        raise ValueError(f"point {bad[0]} is not a 0/1 string: {strings[bad[0]]!r}")
    return bits


def bits_to01(bits: np.ndarray) -> list[str]:
    """0/1 rows -> one 0/1 string per row, coordinate 0 leftmost."""
    d = bits.shape[1]
    text = (bits + ord("0")).tobytes().decode("ascii")
    return [text[i : i + d] for i in range(0, len(text), d)]


def bit_rows_to_points(rows: np.ndarray) -> list[Point]:
    rows = np.asarray(rows, dtype=np.uint8)
    d = rows.shape[1]
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [Point(int.from_bytes(row.tobytes(), "little"), d) for row in packed]


# ---------------------------------------------------------------------------
# Dataset files hold (n, d) 0/1 rows. Text form is one 0/1 string per line;
# binary form is a header (magic, d, n) followed by rows of ceil(d/8) bytes,
# little-endian bit packing (bit i of byte i//8 is coordinate i).

_BINARY_MAGIC = b"LSHPTS01"


def save_points_text(bits: np.ndarray, path) -> None:
    with open(path, "w") as f:
        f.write("\n".join([*bits_to01(bits), ""]))


def load_points_text(path) -> np.ndarray:
    """(n, d) 0/1 rows; blank lines and surrounding whitespace are ignored.
    A malformed file raises a ValueError that names it."""
    try:
        with open(path) as f:
            lines = list(filter(None, map(str.strip, f)))
        if lines:
            return bits_from01(lines)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    raise ValueError(f"no points in {path}")


def save_points_binary(bits: np.ndarray, path) -> None:
    n, d = bits.shape
    with open(path, "wb") as f:
        f.write(_BINARY_MAGIC + struct.pack("<II", d, n))
        f.write(np.packbits(bits, axis=1, bitorder="little").tobytes())


def load_points_binary(path) -> np.ndarray:
    """(n, d) 0/1 rows; the file must hold exactly the n rows its header
    announces, with n, d >= 1."""
    with open(path, "rb") as f:
        data = f.read()
    start = len(_BINARY_MAGIC) + 8
    if not data.startswith(_BINARY_MAGIC):
        raise ValueError(f"{path} is not a packed point file")
    if len(data) < start:
        raise ValueError(f"{path} truncated")
    d, n = struct.unpack_from("<II", data, len(_BINARY_MAGIC))
    if n == 0:
        raise ValueError(f"no points in {path}")
    if d == 0:
        raise ValueError(f"{path}: dimension must be at least 1")
    nbytes = (d + 7) // 8
    if len(data) != start + n * nbytes:
        raise ValueError(f"{path} holds {len(data) - start} bytes of rows, not {n} rows of {nbytes}")
    raw = np.frombuffer(data, dtype=np.uint8, offset=start).reshape(n, nbytes)
    return np.unpackbits(raw, axis=1, count=d, bitorder="little")
