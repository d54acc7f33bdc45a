"""Batch labels against per-point references written from each class's
definition, and bulk Monte Carlo scoring against one draw per pair."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lshlab import hashing, rng as rngmod
from lshlab.hashing import (
    Concatenation,
    Constant,
    CoordinateProjection,
    CoordinateSubset,
    ExplicitTable,
    LabelStack,
    MinHashPermutation,
    PairCollapse,
    Parity,
    ProjectionProduct,
    bit_sampling_family,
    collision_code_matrix,
    finite_family,
    minhash_family,
    power,
)
from lshlab.points import Point, bit_rows_to_points, pack_rows


def ref_label(h, v: int) -> int:
    """h's label of the point with value v, straight from h's definition."""
    if isinstance(h, CoordinateProjection):
        return (v >> h.coord) & 1
    if isinstance(h, CoordinateSubset):
        return sum(((v >> c) & 1) << j for j, c in enumerate(h.coords))
    if isinstance(h, Parity):
        return sum((v >> c) & 1 for c in h.coords) % 2
    if isinstance(h, Constant):
        return 0
    if isinstance(h, ExplicitTable):
        return h.table[v]
    if isinstance(h, MinHashPermutation):
        return min((h.perm[i] for i in range(h.dim) if (v >> i) & 1), default=h.dim)
    if isinstance(h, PairCollapse):
        return 0 if v in (h.x0, h.y0) else v + 1
    if isinstance(h, Concatenation):
        label, scale = 0, 1
        for p in h.parts:
            label += ref_label(p, v) * scale
            scale *= p.label_bound
        return label
    raise TypeError(type(h).__name__)


def _flat(h):
    """h's leaves, nested concatenations flattened, in part order."""
    return [p for part in h.parts for p in _flat(part)] if isinstance(h, Concatenation) else [h]


def ref_words(h, v: int) -> list[int]:
    """h's label of the point with value v as uint64 words, most significant
    first: its leaves' ref_labels in mixed radix, the first leaf least
    significant, with a new word whenever the next leaf's bound would carry
    the word past 2^64."""
    words, scale = [0], 1
    for leaf in _flat(h):
        if scale * leaf.label_bound > 1 << 64:
            words, scale = words + [0], 1
        words[-1] += ref_label(leaf, v) * scale
        scale *= leaf.label_bound
    return words[::-1]


def _value(words) -> int:
    return sum(int(w) << (64 * j) for j, w in enumerate(reversed(words)))


def _dense_ranks(keys) -> list[int]:
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


def ref_codes(h) -> list[int]:
    """Collision codes over the cube: the rank of each point's label."""
    return _dense_ranks([ref_label(h, v) for v in range(1 << h.dim)])


def _rows(values, d) -> np.ndarray:
    return np.array([[(v >> i) & 1 for i in range(d)] for v in values], dtype=np.uint8).reshape(-1, d)


@st.composite
def atoms(draw, d):
    kind = draw(st.sampled_from(["proj", "subset", "parity", "const", "table", "minperm", "pair"]))
    coords = st.lists(st.integers(0, d - 1), unique=True, max_size=d)
    if kind == "proj":
        return CoordinateProjection(d, draw(st.integers(0, d - 1)))
    if kind == "subset":
        return CoordinateSubset(d, tuple(draw(coords)))
    if kind == "parity":
        return Parity(d, tuple(draw(coords)))
    if kind == "const":
        return Constant(d)
    if kind == "table":
        top = draw(st.sampled_from([3, 1 << 40, (1 << 64) - 1]))  # up to a full word
        return ExplicitTable(d, tuple(draw(st.lists(st.integers(0, top), min_size=1 << d, max_size=1 << d))))
    if kind == "minperm":
        return MinHashPermutation(d, tuple(draw(st.permutations(range(d)))))
    n = 1 << d
    return PairCollapse(d, draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))


@st.composite
def functions(draw):
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):
        h = draw(atoms(d))
    else:
        parts = draw(st.lists(atoms(d), min_size=1, max_size=4))
        if draw(st.booleans()):  # a concatenation as one of the parts
            parts.append(Concatenation(tuple(draw(st.lists(atoms(d), min_size=1, max_size=3)))))
        h = Concatenation(tuple(parts))
    values = draw(st.lists(st.integers(0, (1 << d) - 1), max_size=12))
    return h, values


def _check(h, values):
    labels = h.labels(_rows(values, h.dim))
    want = [ref_words(h, v) for v in values]
    assert labels.dtype == np.uint64 and labels.shape == (len(values), h.width)
    assert labels.tolist() == want
    assert [h(Point(v, h.dim)) for v in values] == [_value(w) for w in want]
    assert all(_value(w) < h.label_bound for w in want)


@settings(max_examples=300, deadline=None)
@given(functions())
def test_labels_match_definitions(case):
    _check(*case)


@settings(max_examples=150, deadline=None)
@given(functions())
def test_collision_codes_match_definitions(case):
    h, _ = case
    assert np.array_equal(collision_code_matrix([h])[0], ref_codes(h))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_code_matrix_rows_are_collision_codes(data):
    # One matrix of several functions: rows of narrow labels (presence table)
    # and of wide or object labels (row-wise sort) interleave.
    d = data.draw(st.integers(1, 6))
    fns = data.draw(st.lists(st.one_of(atoms(d), st.lists(atoms(d), min_size=1, max_size=12)
                                       .map(lambda ps: Concatenation(tuple(ps)))), min_size=1, max_size=6))
    codes = collision_code_matrix(fns)
    assert codes.shape == (len(fns), 1 << d) and codes.dtype == np.int16
    for h, row in zip(fns, codes):
        assert row.tolist() == ref_codes(h)


@pytest.mark.parametrize("d", [1, 2, 5, 7])
def test_stacked_cube_labels_equal_per_function_codes(d):
    # All MinHash permutations of a matrix are labelled at once, and so are
    # all pair collapses (the pair may be one point). Each row must match
    # that function's own labels recoded, and its one-row code matrix, with rows
    # of other classes interleaved.
    n = 1 << d
    fns = [MinHashPermutation(d, p) for p in itertools.permutations(range(d))]
    fns[1:1] = [Parity(d, tuple(range(d))), PairCollapse(d, 0, n - 1), CoordinateProjection(d, d - 1)]
    fns[-1:-1] = [PairCollapse(d, x, (3 * x + 1) % n) for x in range(n)]
    codes = collision_code_matrix(fns)
    cube = _rows(range(1 << d), d)
    for h, row in zip(fns, codes, strict=True):
        assert np.array_equal(row, np.unique(h.labels(cube), axis=0, return_inverse=True)[1])
        assert np.array_equal(row, collision_code_matrix([h])[0])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 10])
def test_minhash_cube_labels_by_doubling_are_the_labels(d):
    # The whole-cube labeler against each permutation's own labels at every
    # subcube point, in its uint8 dtype: all permutations up to d = 5 and
    # seeded ones at d = 10.
    if d <= 5:
        perms = list(itertools.permutations(range(d)))
    else:
        g = np.random.default_rng(10)
        perms = [tuple(int(i) for i in g.permutation(d)) for _ in range(50)]
    fns = [MinHashPermutation(d, p) for p in perms]
    J = np.tile(np.arange(d, dtype=np.int32), (len(fns), 1))
    labels = MinHashPermutation._cube_labels(fns, J)
    assert labels.shape == (len(fns), 1 << d, 1) and labels.dtype == np.uint8
    cube = hashing._cube_bits(d)
    for h, row in zip(fns, labels[..., 0], strict=True):
        assert np.array_equal(row, h._labels(cube))


@pytest.mark.parametrize("n", [0, 1, 37])
def test_shared_rows_label_as_one_block_per_function(n):
    # One leaf loop labels shared (n, d) rows and one block per function
    # alike. The stack pads its shorter functions, one MinHash leaf is used
    # by four of them, and table and constant leaves sit beside projections.
    d = 6
    g = np.random.default_rng(n)
    shared = MinHashPermutation(d, tuple(int(i) for i in g.permutation(d)))
    table = ExplicitTable(d, tuple(int(v) for v in g.integers(0, 1 << 40, size=1 << d)))
    fns = [
        Concatenation((shared, CoordinateProjection(d, 2), table, Constant(d))),
        Concatenation((Constant(d), shared)),
        shared,
        Concatenation((table, shared, CoordinateProjection(d, 5))),
        table,
    ]
    stack = LabelStack.of(fns)
    assert stack.table.shape == (5, 4) and (stack.table < 0).sum() == 9
    bits = g.integers(0, 2, size=(n, d), dtype=np.uint8)
    digits = stack.digits(bits)
    want = np.zeros((5, 4, n), dtype=np.uint64)
    for (t, j), leaf in np.ndenumerate(stack.table):
        if leaf >= 0:
            want[t, j] = stack.leaves[leaf]._labels(bits)
    assert digits.dtype == np.uint64 and np.array_equal(digits, want)
    blocks = np.ascontiguousarray(np.broadcast_to(bits, (5, n, d)))
    assert np.array_equal(stack.digits(blocks), digits)
    picks = np.array([3, 0, 3, 4])
    assert np.array_equal(stack.digits(bits, picks), digits[picks])
    assert np.array_equal(stack.digits(blocks[:4], picks), digits[picks])
    # Rows packed by pack_rows are unpacked to be labelled.
    assert np.array_equal(stack.words(pack_rows(bits)), stack.words(bits))


@st.composite
def ignoring_tables(draw, d):
    # A table that reads only the coordinates outside a drawn set.
    ignored = sum(1 << i for i in draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d)))
    base = draw(st.lists(st.integers(0, draw(st.sampled_from([1, 5, (1 << 64) - 1]))), min_size=1 << d, max_size=1 << d))
    return ExplicitTable(d, tuple(base[v & ~ignored] for v in range(1 << d)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_labels_ignore_coordinates_outside_support(data):
    # Every class, nested concatenations and tables that ignore coordinates:
    # flipping a coordinate outside the support never changes a label, and a
    # table's support is exactly the coordinates its labels depend on.
    d = data.draw(st.integers(1, 6))
    leaf = st.one_of(atoms(d), ignoring_tables(d))
    nested = st.lists(leaf, min_size=1, max_size=3).map(lambda ps: Concatenation(tuple(ps)))
    h = data.draw(st.one_of(leaf, st.lists(st.one_of(leaf, nested), min_size=1, max_size=4)
                            .map(lambda ps: Concatenation(tuple(ps)))))
    n = 1 << d
    assert list(h.support) == sorted(set(h.support)) and set(h.support) <= set(range(d))
    labels = h.labels(_rows(range(n), d))
    for i in set(range(d)) - set(h.support):
        assert np.array_equal(labels, labels[np.arange(n) ^ (1 << i)])
    for t in h._leaves:
        if isinstance(t, ExplicitTable):
            own = t.labels(_rows(range(n), d))
            assert t.support == tuple(i for i in range(d) if (own != own[np.arange(n) ^ (1 << i)]).any())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wide_projection_concatenation_is_exact(data):
    d = data.draw(st.integers(1, 80))
    parts = tuple(CoordinateProjection(d, c) for c in data.draw(st.lists(st.integers(0, d - 1), min_size=70, max_size=70)))
    h = Concatenation(parts)
    values = data.draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1, max_size=8))
    _check(h, values)
    if d <= 6:
        assert np.array_equal(collision_code_matrix([h])[0], ref_codes(h))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_projection_product_is_exact(data):
    # One product labels several functions at once, exactly, as 64-bit
    # words: labels below 2^53 take one float64 weight row, wider ones two
    # 32-bit limb rows per word they reach. Narrower labels sit right-aligned
    # under zero words.
    d = data.draw(st.integers(1, 80))
    widths = st.one_of(st.integers(1, 130), st.sampled_from([52, 53, 54, 63, 64, 65, 127, 128, 129]))
    fns = [
        Concatenation(tuple(CoordinateProjection(d, c) for c in data.draw(st.lists(st.integers(0, d - 1), min_size=k, max_size=k))))
        for k in data.draw(st.lists(widths, min_size=1, max_size=4))
    ]
    width = -(-max(len(h.parts) for h in fns) // 64)
    values = data.draw(st.lists(st.integers(0, (1 << d) - 1), max_size=8)) + [(1 << d) - 1]
    words = ProjectionProduct.of(LabelStack.of(fns)).words(pack_rows(_rows(values, d)))
    assert words.dtype == np.uint64 and words.shape == (len(fns), len(values), width)
    labels = [[_value(row) for row in fn_words] for fn_words in words]
    assert labels == [[ref_label(h, v) for v in values] for h in fns]
    for h, fn_words in zip(fns, words):
        _check(h, values)
        # The product's words are the concatenation's own, zero above them.
        assert np.array_equal(fn_words[:, width - h.width :], h.labels(_rows(values, d)))
        assert not fn_words[:, : width - h.width].any()
    # Any other leaf takes the LabelStack path.
    assert ProjectionProduct.of(LabelStack.of(fns + [Concatenation((Parity(d, (0,)),))])) is None


def test_wide_labels_reach_past_int64():
    h = Concatenation(tuple(CoordinateProjection(3, 2) for _ in range(70)))
    (label,) = h.labels(_rows([4], 3)).tolist()
    assert label == [(1 << 6) - 1, (1 << 64) - 1]
    assert h(Point(4, 3)) == (1 << 70) - 1


def test_labels_reject_wrong_width():
    with pytest.raises(ValueError):
        CoordinateProjection(5, 1).labels(np.zeros((2, 4), dtype=np.uint8))


# ---------------------------------------------------------------------------
# Bulk Monte Carlo scoring: one generator call for a chunk's draws must score
# exactly what one draw per pair would, and leave the generator in the same
# state.


def _weighted_family():
    fns = [CoordinateProjection(10, 0), CoordinateProjection(10, 3), Parity(10, (1, 2, 5)),
           CoordinateSubset(10, (4, 7, 9)), MinHashPermutation(10, (3, 1, 4, 0, 5, 9, 2, 6, 8, 7))]
    return finite_family(fns, [Fraction(1, 2), Fraction(1, 8), Fraction(1, 8), Fraction(3, 16), Fraction(1, 16)])


def _repeated_part_family():
    # One part twice in an atom, and a part shared by atoms of different lengths.
    p, q = Parity(10, (1, 2, 5)), CoordinateProjection(10, 0)
    return finite_family([Concatenation((p, p)), Concatenation((q, p, q)), p])


def _mixed_family():
    # Atoms of mixed lengths and kinds, a nested concatenation, equal parts
    # held by distinct objects, and a table whose labels pass 2^63.
    d = 10
    table = ExplicitTable(d, tuple((v * 0x9E3779B97F4A7C15) % (1 << 64) for v in range(1 << d)))
    perm = MinHashPermutation(d, (3, 1, 4, 0, 5, 9, 2, 6, 8, 7))
    fns = [
        CoordinateProjection(d, 4),
        Concatenation((CoordinateProjection(d, 4), Constant(d), perm)),
        Concatenation((Concatenation((Parity(d, (0, 9)), table)), CoordinateProjection(d, 4))),
        Concatenation((CoordinateSubset(d, (2, 3)), PairCollapse(d, 5, 6), perm, Parity(d, (0, 9)))),
        table,
    ]
    return finite_family(fns, [Fraction(1, 3), Fraction(1, 6), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)])


@pytest.mark.parametrize("family", [
    bit_sampling_family(10),
    power(bit_sampling_family(10), 2),
    _weighted_family(),
    minhash_family(10),
    power(minhash_family(10), 3),
    power(minhash_family(6, exact=True), 2),
    _repeated_part_family(),
    power(power(bit_sampling_family(6), 2), 2),
    _mixed_family(),
    power(bit_sampling_family(128), 2),
], ids=["uniform", "uniform-power", "weighted", "minhash-law", "minhash-law-power", "exact-minhash-power-law",
        "repeated-part", "nested-power", "mixed-atoms", "paper-dim-power"])
def test_bulk_collisions_match_one_draw_per_pair(family):
    g = rngmod.stream(3, 1)
    xb = g.integers(0, 2, size=(500, family.dim), dtype=np.uint8)
    yb = xb ^ (g.random(size=xb.shape) < 0.2).astype(np.uint8)
    # Empty sets for MinHash: x alone, both, then y alone.
    xb[:40] = 0
    yb[20:60] = 0
    bulk_g, seq_g = rngmod.stream(4, 0), rngmod.stream(4, 0)
    bulk = family.collisions(xb, yb, bulk_g)
    seq = []
    for x, y in zip(bit_rows_to_points(xb), bit_rows_to_points(yb)):
        h = family.draw(seq_g)
        seq.append(h(x) == h(y))
    assert bulk.tolist() == seq
    assert bulk_g.random() == seq_g.random()


def test_part_table_flattens_and_dedupes():
    p, q = Parity(10, (1, 2, 5)), CoordinateProjection(10, 0)
    stack = _repeated_part_family()._stack
    parts, table = stack.leaves, stack.table
    assert parts == [p, q]
    assert table.tolist() == [[0, 0, -1], [1, 0, 1], [0, -1, -1]]
    stack = power(power(bit_sampling_family(6), 2), 2)._stack
    parts, table = stack.leaves, stack.table
    assert parts == [CoordinateProjection(6, i) for i in range(6)]
    assert table.shape == (6**4, 4)
    assert table[1 + 6 * 2 + 36 * 3].tolist() == [0, 3, 2, 1]
