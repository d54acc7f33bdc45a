"""Corrupt input files must be refused with a ValueError, never another exception.

Each case starts from a small valid file, overwrites a few bytes and maybe
truncates it; loading the result either succeeds or raises ValueError, which
the CLI turns into exit code 2 with a one-line message.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lshlab import rng as rngmod
from lshlab.annindex import IndexParams, build, load_index, save_index
from lshlab.hashing import (
    CoordinateProjection,
    CoordinateSubset,
    MinHashPermutation,
    PairCollapse,
    bit_sampling_family,
    family_descriptor,
    family_from_json,
    finite_family,
)
from lshlab.points import (
    Point,
    load_points_binary,
    load_points_text,
    points_to_bit_matrix,
    save_points_binary,
    save_points_text,
)


def _bits():
    g = rngmod.stream(61, 0)
    return points_to_bit_matrix([Point.random(12, g) for _ in range(5)])


def _write_index(bits, path):
    params = IndexParams(r=1, cr=3, k=2, L=3, delta=0.1, seed=4)
    save_index(build(bits, bit_sampling_family(12), params), path)


def _write_family(bits, path):
    fns = [CoordinateProjection(4, 1), CoordinateSubset(4, (1, 3)), MinHashPermutation(4, (2, 0, 3, 1)),
           PairCollapse(4, 3, 5)]
    weights = [Fraction(1, 2), Fraction(1, 8), Fraction(1, 8), Fraction(1, 4)]
    path.write_text(json.dumps(family_descriptor(finite_family(fns, weights)), sort_keys=True))


LOADERS = {
    "text-points": (save_points_text, load_points_text),
    "binary-points": (save_points_binary, load_points_binary),
    "index": (_write_index, load_index),
    "family": (_write_family, lambda path: family_from_json(path.read_text())),
}


@pytest.mark.parametrize("kind", list(LOADERS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    flips=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=4),
    keep=st.none() | st.integers(0, 1 << 16),
)
def test_corrupt_file_raises_value_error_or_loads(tmp_path, kind, flips, keep):
    save, load = LOADERS[kind]
    path = tmp_path / f"{kind}.dat"
    save(_bits(), path)
    data = bytearray(path.read_bytes())
    for pos, byte in flips:
        data[pos % len(data)] = byte
    path.write_bytes(bytes(data[: keep % (len(data) + 1) if keep is not None else None]))
    try:
        load(path)
    except ValueError:
        pass
