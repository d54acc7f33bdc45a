from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lshlab import points
from lshlab import rng as rngmod
from lshlab.points import (
    Point,
    bit_rows_to_points,
    bits_from01,
    bits_to01,
    cube_distance_rows,
    hamming,
    load_points_binary,
    load_points_text,
    pack_rows,
    points_to_bit_matrix,
    unpack_rows,
    save_points_binary,
    save_points_text,
)


def test_from01_reads_coordinates_left_to_right():
    p = Point.from01("01011")
    assert p.value == 0b11010
    assert points_to_bit_matrix([p]).tolist() == [[0, 1, 0, 1, 1]]
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
    assert mat[0, 5] == (pts[0].value >> 5) & 1
    with pytest.raises(ValueError, match="point 1 has dimension 36, expected 37"):
        points_to_bit_matrix([pts[0], Point(0, 36)])


@given(st.integers(1, 200), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_packed_rows_and_strings_match_points(d, n, seed):
    g = np.random.default_rng(seed)
    pts = [Point(int.from_bytes(g.bytes((d + 7) // 8), "little") & ((1 << d) - 1), d) for _ in range(n)]
    bits = points_to_bit_matrix(pts)
    words = pack_rows(bits)
    assert words.dtype == np.uint64 and words.shape == (n, -(-d // 64))
    assert np.array_equal(unpack_rows(words, d), bits)
    dist = np.bitwise_count(words[:, None] ^ words[None]).sum(axis=-1)
    assert dist.tolist() == [[hamming(a, b) for b in pts] for a in pts]
    strings = bits_to01(bits)
    assert strings == [p.to01() for p in pts]
    assert np.array_equal(bits_from01(strings), bits)


def test_bits_from01_names_the_bad_point():
    with pytest.raises(ValueError, match="point 2 has dimension 3, expected 4"):
        bits_from01(["0101", "1111", "010"])
    with pytest.raises(ValueError, match="point 1 is not a 0/1 string"):
        bits_from01(["0101", "01/1"])
    with pytest.raises(ValueError):
        bits_from01([])


def test_dataset_files_roundtrip(tmp_path):
    g = rngmod.stream(4, 0)
    pts = [Point.random(19, g) for _ in range(11)]
    bits = points_to_bit_matrix(pts)
    txt = tmp_path / "pts.txt"
    binp = tmp_path / "pts.bin"
    save_points_text(bits, txt)
    save_points_binary(bits, binp)
    assert txt.read_text() == "".join(p.to01() + "\n" for p in pts)
    assert binp.read_bytes()[16:] == b"".join(p.value.to_bytes(3, "little") for p in pts)
    for loaded in (load_points_text(txt), load_points_binary(binp)):
        assert loaded.dtype == np.uint8 and np.array_equal(loaded, bits)


def test_text_file_skips_blank_lines_and_names_itself(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("\n  0110 \n\n1011\n")
    assert load_points_text(path).tolist() == [[0, 1, 1, 0], [1, 0, 1, 1]]
    path.write_text("0110\n10x1\n")
    with pytest.raises(ValueError, match="pts.txt: point 1 is not a 0/1 string"):
        load_points_text(path)
    path.write_text("01 10\n11 00\n")
    with pytest.raises(ValueError, match="point 0 is not a 0/1 string"):
        load_points_text(path)
    path.write_text("0110\n101\n")
    with pytest.raises(ValueError, match="pts.txt: point 1 has dimension 3, expected 4"):
        load_points_text(path)
    path.write_text("\n \n")
    with pytest.raises(ValueError, match="no points in .*pts.txt"):
        load_points_text(path)


def test_binary_rejects_zero_rows(tmp_path):
    path = tmp_path / "pts.bin"
    save_points_binary(np.zeros((0, 24), dtype=np.uint8), path)
    with pytest.raises(ValueError, match="no points in .*pts.bin"):
        load_points_binary(path)


def test_binary_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a point file")
    with pytest.raises(ValueError):
        load_points_binary(path)


@pytest.mark.parametrize(
    "corrupt, message", [
        (lambda data: data[:11], "pts.bin truncated"),
        (lambda data: data[:-1], "pts.bin holds 7 bytes of rows, not 4 rows of 2"),
        (lambda data: data + b"\x00", "pts.bin holds 9 bytes of rows, not 4 rows of 2"),
    ],
    ids=["truncated-header", "truncated-rows", "trailing-byte"],
)
def test_binary_rejects_truncated_header_and_trailing_bytes(tmp_path, corrupt, message):
    g = rngmod.stream(5, 0)
    path = tmp_path / "pts.bin"
    save_points_binary(points_to_bit_matrix([Point.random(13, g) for _ in range(4)]), path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        load_points_binary(path)


def test_random_point_reproducible():
    a = Point.random(100, rngmod.stream(9, 2))
    b = Point.random(100, rngmod.stream(9, 2))
    assert a == b
