from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lshlab import points
from lshlab import rng as rngmod
from lshlab.points import (
    Point,
    bit_rows_to_points,
    cube_distance_rows,
    hamming,
    load_points_binary,
    load_points_text,
    points_to_bit_matrix,
    save_points_binary,
    save_points_text,
)


def test_from01_reads_coordinates_left_to_right():
    p = Point.from01("01011")
    assert p.bits() == (0, 1, 0, 1, 1)
    assert p.bit(3) == 1
    assert p.to01() == "01011"


def test_point_validation():
    with pytest.raises(ValueError):
        Point(4, 2)
    with pytest.raises(ValueError):
        Point(0, 0)
    with pytest.raises(ValueError):
        Point.from01("01x1")


def test_flip_and_hamming():
    p = Point.from01("0000")
    q = p.flip([1, 3])
    assert q.to01() == "0101"
    assert hamming(p, q) == 2
    with pytest.raises(ValueError):
        hamming(p, Point(0, 5))


@given(st.integers(1, 24), st.integers(0, 2**24 - 1))
def test_string_roundtrip(dim, raw):
    p = Point(raw & ((1 << dim) - 1), dim)
    assert Point.from01(p.to01()) == p


def test_cube_distance_rows():
    for d, cells in [(1, 1), (5, 1), (5, 64), (8, 1 << 10), (8, 1 << 30)]:
        n = 1 << d
        with mock.patch.object(points, "_DISTANCE_CELLS", cells):
            blocks = list(cube_distance_rows(d))
        assert np.concatenate([xs for xs, _ in blocks]).tolist() == list(range(n))
        for xs, dist in blocks:
            assert dist.shape == (len(xs), n) and dist.size <= max(cells, n)
            expected = [[(int(x) ^ y).bit_count() for y in range(n)] for x in xs]
            assert np.array_equal(dist, expected)


def test_bit_matrix_roundtrip():
    g = rngmod.stream(3, 0)
    pts = [Point.random(37, g) for _ in range(20)]
    mat = points_to_bit_matrix(pts)
    assert mat.shape == (20, 37)
    assert bit_rows_to_points(mat) == pts
    # column i is coordinate i
    assert mat[0, 5] == pts[0].bit(5)


def test_dataset_files_roundtrip(tmp_path):
    g = rngmod.stream(4, 0)
    pts = [Point.random(19, g) for _ in range(11)]
    txt = tmp_path / "pts.txt"
    binp = tmp_path / "pts.bin"
    save_points_text(pts, txt)
    save_points_binary(pts, binp)
    assert load_points_text(txt) == pts
    assert load_points_binary(binp) == pts


def test_binary_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a point file")
    with pytest.raises(ValueError):
        load_points_binary(path)


@pytest.mark.parametrize(
    "corrupt", [lambda data: data[:11], lambda data: data + b"\x00"],
    ids=["truncated-header", "trailing-byte"],
)
def test_binary_rejects_truncated_header_and_trailing_bytes(tmp_path, corrupt):
    g = rngmod.stream(5, 0)
    path = tmp_path / "pts.bin"
    save_points_binary([Point.random(13, g) for _ in range(4)], path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError):
        load_points_binary(path)


def test_random_point_reproducible():
    a = Point.random(100, rngmod.stream(9, 2))
    b = Point.random(100, rngmod.stream(9, 2))
    assert a == b
