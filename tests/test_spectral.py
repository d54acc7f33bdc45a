import functools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lshlab import hashing
from lshlab.hashing import (
    Concatenation,
    Constant,
    CoordinateProjection,
    CoordinateSubset,
    ExplicitTable,
    MinHashPermutation,
    PairCollapse,
    Parity,
    bit_sampling_family,
    collision_code_matrix,
    constant_family,
    finite_family,
    power,
)
from lshlab import spectral
from lshlab.points import Point
from lshlab.spectral import (
    FourierSpectrum,
    StabilityCurve,
    _fwht_in_place,
    brute_force_stability,
    check_log_convexity,
    collision_counts_by_distance,
    family_spectrum,
    fourier_spectrum,
    stability,
    stability_curve,
    stability_ratio,
)

RHOS = (0.0, 0.25, 0.5, 0.9, 1.0)


def _random_table(g, d, n_labels=8):
    return ExplicitTable(d, tuple(int(v) for v in g.integers(0, n_labels, 1 << d)))


@functools.lru_cache(maxsize=None)
def _subcube_bits(d, coords):
    """(2^j, d) 0/1 rows of the subcube of the j coordinates `coords`: row s
    sets coordinate coords[i] to bit i of s and every other one to 0."""
    s = np.arange(1 << len(coords))
    bits = np.zeros((len(s), d), np.uint8)
    for i, c in enumerate(coords):
        bits[:, c] = s >> i & 1
    return bits


@functools.lru_cache(maxsize=4)
def _exact_levels(fam):
    """Each level weight of a finite family as a Fraction, from scratch.

    Every atom is labelled on the whole cube at d <= 8 and otherwise on the
    subcube of h.support, one column of points per atom: MinHash atoms all
    at once from the definition (a point's label is the least rank among its
    set coordinates, d for the empty set), the others by h.labels. One sort
    down the columns finds every atom's distinct labels, and each (atom,
    label) pair gives an integer indicator column. Columns of one subcube
    size are transformed by butterflies, about 2^20 cells at a time. Their
    squares, summed by popcount, are the atom's levels times 4^j, which add
    up weighted by the atoms' weight numerators over a common denominator.
    """
    d = fam.dim
    cubes = {}  # j -> (weights, label columns) of the atoms labelled on 2^j points
    perms = [(w, h.perm) for w, h in fam.atoms if type(h) is MinHashPermutation]
    if perms:
        weights, perm = zip(*perms)
        ranks = np.array(perm, np.uint8).T
        labels = np.empty((1 << d, len(perm)), np.uint8)
        labels[0] = d
        for v in range(1, 1 << d):  # the lowest set coordinate's rank against the rest's least
            labels[v] = np.minimum(ranks[(v & -v).bit_length() - 1], labels[v & (v - 1)])
        cubes[d] = (list(weights), [labels])
    for weight, h in fam.atoms:
        if type(h) is not MinHashPermutation:
            coords = tuple(range(d)) if d <= 8 else h.support
            weights, labels = cubes.setdefault(len(coords), ([], []))
            weights.append(weight)
            # Only equality counts: each row of label words becomes its rank.
            words = h.labels(_subcube_bits(d, coords))
            labels.append(np.unique(words, axis=0, return_inverse=True)[1].reshape(-1, 1))
    denom = math.lcm(*(w.denominator for w, _ in fam.atoms))
    total = np.zeros(d + 1, dtype=object)  # each level times D 4^d, D the common denominator
    for j, (weights, blocks) in cubes.items():
        labels = np.concatenate(blocks, axis=1)
        ranked = np.sort(labels, axis=0)
        new = np.ones(labels.shape, dtype=bool)
        new[1:] = ranked[1:] != ranked[:-1]
        atom, at = np.nonzero(new.T)  # indicator c: label ranked[at[c], atom[c]] of atom[c]
        label = ranked[at, atom]
        sizes = np.bitwise_count(np.arange(1 << j))
        levels = np.zeros((len(weights), j + 1), np.int64)
        width = max(1, (1 << 20) >> j)
        for lo in range(0, len(atom), width):
            cols = slice(lo, lo + width)
            a = (labels.take(atom[cols], axis=1) == label[cols]).astype(np.int16 if j <= 14 else np.int32, order="C")
            step = 1
            while step < len(a):
                pairs = a.reshape(-1, 2, step, a.shape[1])
                x, y = pairs[:, 0], pairs[:, 1]
                x += y
                y *= -2
                y += x  # (x + y) - 2y = x - y
                step *= 2
            squares = np.square(a, dtype=np.int32 if j <= 14 else np.int64)
            level_sums = [squares[sizes == k].sum(axis=0, dtype=np.int64) for k in range(j + 1)]
            np.add.at(levels, atom[cols], np.stack(level_sums, axis=1))
        nums = np.array([w.numerator * (denom // w.denominator) for w in weights], dtype=object)
        total[: j + 1] += nums @ (levels.astype(object) << 2 * (d - j))
    return tuple(Fraction(v, denom << 2 * d) for v in total)


def _rounded(source):
    """The correctly rounded exact levels of a function or family."""
    fam = source if isinstance(source, hashing.HashFamily) else finite_family([source])
    return tuple(float(w) for w in _exact_levels(fam))


# ---------------------------------------------------------------------------
# transform


def test_fwht_matches_naive():
    g = np.random.default_rng(0)
    d = 5
    n = 1 << d
    f = g.normal(size=(n, 2))
    got = _fwht_in_place(f.copy())
    naive = np.zeros_like(f)
    for s in range(n):
        for x in range(n):
            naive[s] += f[x] * (-1) ** ((x & s).bit_count())
    assert np.allclose(got, naive, atol=1e-10)


def test_dictator_spectrum():
    h = CoordinateProjection(6, 2)
    assert fourier_spectrum(h).levels == _rounded(h) == (0.5, 0.5, 0, 0, 0, 0, 0)


def test_constant_spectrum():
    assert fourier_spectrum(Constant(5)).levels == _rounded(Constant(5)) == (1.0, 0, 0, 0, 0, 0)


def test_full_parity_spectrum():
    h = Parity(5, tuple(range(5)))
    assert fourier_spectrum(h).levels == _rounded(h) == (0.5, 0, 0, 0, 0, 0.5)


@pytest.mark.parametrize("d", [14, 16])
def test_constant_spectrum_at_transform_word_sizes(d):
    # The zero coefficient of a constant is 2^d: at d = 16 it needs 32-bit
    # transform words, and 16-bit ones would wrap it to 0.
    assert fourier_spectrum(Constant(d)).levels == _rounded(Constant(d)) == (1.0,) + (0.0,) * d
    parity = Parity(d, tuple(range(d)))
    assert fourier_spectrum(parity).levels == _rounded(parity) == (0.5,) + (0.0,) * (d - 1) + (0.5,)


def test_transform_dimension_guard():
    with pytest.raises(ValueError, match="Monte Carlo"):
        fourier_spectrum(CoordinateProjection(21, 0))


@settings(deadline=None, max_examples=25)
@given(d=st.integers(2, 8), seed=st.integers(0, 10**6))
def test_parseval(d, seed):
    g = np.random.default_rng(seed)
    spec = fourier_spectrum(_random_table(g, d))
    assert abs(spec.total_mass() - 1.0) <= 1e-10


@settings(deadline=None, max_examples=15)
@given(d=st.integers(2, 7), seed=st.integers(0, 10**6))
def test_weight_zero_at_least_inverse_image(d, seed):
    g = np.random.default_rng(seed)
    h = _random_table(g, d, n_labels=6)
    spec = fourier_spectrum(h)
    image = len({h(Point(v, d)) for v in range(1 << d)})
    assert spec.levels[0] >= 1 / image - 1e-12  # the mass at the empty set


def test_spectrum_validation():
    assert FourierSpectrum(2, (0.25, 0.5, 0.25)).total_mass() == 1.0
    with pytest.raises(ValueError, match="3 level weights"):
        FourierSpectrum(2, (0.5, 0.5))  # one level short
    with pytest.raises(ValueError, match="3 level weights"):
        FourierSpectrum(2, (0.5, 0.5, 0.0, 0.0))
    with pytest.raises(ValueError, match="nonnegative"):
        FourierSpectrum(2, (1.5, -0.5, 0.0))
    with pytest.raises(ValueError, match="nonnegative"):
        FourierSpectrum(2, (math.nan, 0.5, 0.5))
    with pytest.raises(ValueError, match="sum to"):
        FourierSpectrum(2, (0.5, 0.2, 0.0))  # mass under 1
    with pytest.raises(ValueError, match="sum to"):
        FourierSpectrum(2, (0.5, 0.5, 1e-8))  # mass over 1
    with pytest.raises(ValueError, match="sum to"):
        FourierSpectrum(2, (0.5, 0.5, math.inf))


@pytest.mark.parametrize(
    "family, fact",
    [
        pytest.param(
            lambda: finite_family([_random_table(np.random.default_rng(i), 7) for i in range(5)]), None, id="uniform"
        ),
        pytest.param(
            lambda: finite_family(
                [_random_table(np.random.default_rng(i), 6, 3) for i in range(4)], [0.1, 0.2, 0.3, 0.4]
            ),
            None,
            id="float-weighted",
        ),
        pytest.param(
            lambda: hashing.minhash_family(8, exact=True),
            lambda levels: levels[1] == 7283 / 16384,
            id="minhash-exact-8",
        ),
        pytest.param(lambda: power(bit_sampling_family(20), 2), None, id="bit-sampling-power-20"),
        pytest.param(
            lambda: power(bit_sampling_family(10), 2),
            lambda levels: stability_curve(FourierSpectrum(10, levels), [0.0]).values == (1.0,),
            id="bit-sampling-power-10",
        ),
    ],
)
def test_levels_are_correctly_rounded_exact_sums(family, fact):
    # Each level is its exact rational sum rounded once: W_1 of MinHash at
    # d = 8 is 7283/16384, and the square of bit sampling at d = 10 has K(0) = 1.
    fam = family()
    levels = family_spectrum(fam).levels
    assert levels == _rounded(fam)
    assert fact is None or fact(levels)


# ---------------------------------------------------------------------------
# family spectra


def test_bit_sampling_family_spectrum():
    fam = bit_sampling_family(7)
    assert family_spectrum(fam).levels == _rounded(fam) == (0.5, 0.5, 0, 0, 0, 0, 0, 0)


def test_point_mass_family_spectrum():
    fam = constant_family(4)
    assert family_spectrum(fam).levels == _rounded(fam) == (1.0, 0, 0, 0, 0)


def test_powered_family_spectrum_matches_enumeration():
    base = bit_sampling_family(2)
    fam = power(base, 2)
    atom_levels = [(w, _exact_levels(finite_family([h]))) for w, h in fam.atoms]
    accum = tuple(sum(w * levels[k] for w, levels in atom_levels) for k in range(fam.dim + 1))
    assert _exact_levels(fam) == accum
    assert family_spectrum(fam).levels == tuple(float(w) for w in accum)


def test_injective_table_spans_many_batches():
    # 4096 labels at d = 12: one label column per point, far more than one
    # transform batch holds, so the function is split across batches.
    d = 12
    g = np.random.default_rng(12)
    h = ExplicitTable(d, tuple(int(v) for v in g.permutation(1 << d)))
    spec = fourier_spectrum(h)
    assert spec.levels == _rounded(h) == tuple(math.comb(d, k) / 4096 for k in range(d + 1))
    for rho in (0.0, 0.5, 0.9):
        assert stability(spec, rho) == pytest.approx(brute_force_stability(h, rho), rel=1e-12)


def test_two_point_classes_span_many_batches():
    # Labels x >> 1 at d = 12: 2048 classes of two points, so 2048 label
    # columns, which a 64-column batch splits 32 ways. w_S = 1/2048 on every
    # S without coordinate 0, where each class's transform is +-2, so
    # W_k = C(11, k)/2048.
    d = 12
    h = ExplicitTable(d, tuple(x >> 1 for x in range(1 << d)))
    spec = fourier_spectrum(h)
    assert spec.levels == _rounded(h) == tuple(math.comb(d - 1, k) / 2048 for k in range(d + 1))
    for rho in (0.0, 0.5, 0.9):
        assert stability(spec, rho) == pytest.approx(brute_force_stability(h, rho), rel=1e-12)


@st.composite
def _table_families(draw):
    d = draw(st.integers(1, 8))
    n_atoms = draw(st.integers(1, 6))
    tables = [
        ExplicitTable(d, tuple(draw(st.lists(st.integers(0, draw(st.sampled_from([1, 3, 40, 300]))),
                                             min_size=1 << d, max_size=1 << d))))
        for _ in range(n_atoms)
    ]
    parts = draw(st.lists(st.integers(1, 50), min_size=n_atoms, max_size=n_atoms))
    return finite_family(tables, [Fraction(p, sum(parts)) for p in parts])


@settings(deadline=None, max_examples=40)
@given(fam=_table_families(), width=st.sampled_from([3, 64, None]))
def test_family_spectrum_equals_per_atom_reference(fam, width):
    # The batched integer transform must give the correctly rounded exact
    # levels, however the label columns fall into batches (narrow batches
    # split most functions).
    want = _rounded(fam)
    cells = spectral._BATCH_CELLS if width is None else width << fam.dim
    with mock.patch.object(spectral, "_BATCH_CELLS", cells):
        assert family_spectrum(fam).levels == want


@st.composite
def _mixed_families(draw):
    # Atoms of every kind the code matrix treats apart: injective tables (no
    # label column at all), tables of two-point classes (no one-point class),
    # random tables (both), wide labels (ranked by sorting) and pair-collapse
    # concatenations past 2^63 (object labels).
    d = draw(st.integers(1, 7))
    n = 1 << d
    fns = []
    for kind in draw(st.lists(st.sampled_from(["injective", "pairs", "random", "wide", "object"]),
                              min_size=1, max_size=8)):
        perm = draw(st.permutations(range(n)))
        if kind == "injective":
            fns.append(ExplicitTable(d, tuple(perm)))
        elif kind == "pairs":
            fns.append(ExplicitTable(d, tuple(v >> 1 for v in perm)))
        elif kind == "random":
            fns.append(ExplicitTable(d, tuple(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))))
        elif kind == "wide":
            fns.append(ExplicitTable(d, tuple(draw(st.lists(st.integers(0, 1 << 40), min_size=n, max_size=n)))))
        else:
            xy = st.integers(0, n - 1)
            fns.append(Concatenation(tuple(PairCollapse(d, draw(xy), draw(xy)) for _ in range(64 // d + 1))))
    parts = draw(st.lists(st.integers(1, 50), min_size=len(fns), max_size=len(fns)))
    return finite_family(fns, [Fraction(p, sum(parts)) for p in parts])


@settings(deadline=None, max_examples=60)
@given(fam=_mixed_families(), width=st.sampled_from([1, 3, 64, None]), code_rows=st.sampled_from([1, 3, None]))
def test_family_spectrum_mixed_atoms_equal_per_atom_reference(fam, width, code_rows):
    # Column-free atoms, atoms split across batches and code slices of one
    # or a few rows must still give the correctly rounded exact levels.
    want = _rounded(fam)
    cells = spectral._BATCH_CELLS if width is None else width << fam.dim
    code_cells = hashing._CODE_CELLS if code_rows is None else code_rows << fam.dim
    with (
        mock.patch.object(spectral, "_BATCH_CELLS", cells),
        mock.patch.object(hashing, "_CODE_CELLS", code_cells),
    ):
        assert family_spectrum(fam).levels == want


@st.composite
def _junta_families(draw):
    # Functions of every support size J in one family: constants
    # (|J| = 0), projections, subsets, parities, concatenations that read a
    # coordinate twice, tables that ignore chosen coordinates, and MinHash
    # (|J| = d).
    d = draw(st.integers(1, 7))
    n = 1 << d
    coord = st.integers(0, d - 1)
    coords = st.lists(coord, unique=True, max_size=d).map(tuple)
    fns = []
    for kind in draw(st.lists(st.sampled_from(["const", "proj", "subset", "parity", "repeat", "table", "minhash"]),
                              min_size=1, max_size=10)):
        if kind == "const":
            fns.append(Constant(d))
        elif kind == "proj":
            fns.append(CoordinateProjection(d, draw(coord)))
        elif kind == "subset":
            fns.append(CoordinateSubset(d, draw(coords)))
        elif kind == "parity":
            fns.append(Parity(d, draw(coords)))
        elif kind == "repeat":
            i = draw(coord)
            fns.append(Concatenation((CoordinateProjection(d, i), Parity(d, draw(coords)), CoordinateProjection(d, i))))
        elif kind == "table":
            ignored = sum(1 << i for i in draw(coords))
            base = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
            fns.append(ExplicitTable(d, tuple(base[v & ~ignored] for v in range(n))))
        else:
            fns.append(MinHashPermutation(d, tuple(draw(st.permutations(range(d))))))
    parts = draw(st.lists(st.integers(1, 50), min_size=len(fns), max_size=len(fns)))
    return finite_family(fns, [Fraction(p, sum(parts)) for p in parts])


@settings(deadline=None, max_examples=60)
@given(fam=_junta_families(), cells=st.sampled_from([1, 3, 64, None]), code_rows=st.sampled_from([1, 3, None]))
def test_junta_spectra_equal_per_atom_reference(fam, cells, code_rows):
    # Each function is transformed on the subcube of its relevant
    # coordinates; code groups of every |J| are sliced, and batches of one
    # or a few cells split every subcube's columns.
    want = _rounded(fam)
    code_cells = hashing._CODE_CELLS if code_rows is None else code_rows << fam.dim
    with (
        mock.patch.object(spectral, "_BATCH_CELLS", cells or spectral._BATCH_CELLS),
        mock.patch.object(hashing, "_CODE_CELLS", code_cells),
    ):
        assert family_spectrum(fam).levels == want


@pytest.mark.parametrize("code_rows", [1, 3, None])
def test_full_and_partial_support_rows_at_dimension_14(code_rows):
    # A table that is constant but at one point reads all 14 coordinates,
    # and its zero entry (n - 1)^2 + 1 comes within 2^15 of 4^14 = n^2, the
    # top of the int32 rows.
    d, n = 14, 1 << 14
    table = ExplicitTable(d, (1,) + (0,) * (n - 1))
    subset = CoordinateSubset(d, tuple(range(1, d)))
    fns = [table, Parity(d, tuple(range(d))), Constant(d), subset, CoordinateProjection(d, 5)]
    # Each function's level sums times 4^14 = n^2.
    expected = np.zeros((len(fns), d + 1), np.int64)
    expected[0] = [2 * math.comb(d, k) for k in range(d + 1)]
    expected[0][0] = (n - 1) ** 2 + 1
    expected[1][[0, d]] = n * n // 2
    expected[2][0] = n * n
    expected[3][:d] = [2 * n * math.comb(d - 1, k) for k in range(d)]  # every subset of coordinates 1..13
    expected[4][[0, 1]] = n * n // 2
    code_cells = hashing._CODE_CELLS if code_rows is None else code_rows << d
    rows = np.zeros_like(expected)
    with mock.patch.object(hashing, "_CODE_CELLS", code_cells):
        for atoms, level_rows in spectral._level_rows(fns, d):
            rows[atoms] = level_rows
        levels = family_spectrum(finite_family(fns)).levels
    assert np.array_equal(rows, expected)
    assert levels == _rounded(finite_family(fns))


def test_multi_word_label_concatenation_spectrum():
    # 17^16 > 2^64: the concatenation's labels take two words, ranked as
    # byte strings by the code matrix's sorting path, next to one-word
    # atoms in the same family.
    d = 4
    wide = Concatenation(tuple(PairCollapse(d, x, (x * 5 + 3) % 16) for x in range(16)))
    assert wide.width == 2 and wide.label_bound > 1 << 64
    fam = finite_family([wide, CoordinateProjection(d, 2), ExplicitTable(d, tuple(range(16)))], [0.5, 0.25, 0.25])
    assert family_spectrum(fam).levels == _rounded(fam)


@settings(deadline=None, max_examples=40)
@given(fam=_junta_families(), huge=st.booleans(), data=st.data())
def test_mixed_weight_spectra_equal_per_row_loop(fam, huge, data):
    # Weights of every size, zero included, and a common denominator past
    # 2^53 when `huge`: summing the rows of each weight numerator at once
    # must give the correctly rounded exact levels.
    fns = [h for _, h in fam.atoms]
    top = (1 << 60) if huge else 50
    raw = data.draw(st.lists(st.integers(0, top), min_size=len(fns), max_size=len(fns)).filter(any))
    fam = finite_family(fns, [Fraction(r, sum(raw)) for r in raw])
    assert family_spectrum(fam).levels == _rounded(fam)


def test_weights_past_2_53_round_once():
    # Both numerators and their sum pass 2^53, and float(a) / float(a + b)
    # rounds three times to a different float than a / (a + b) does once.
    # The projection puts half its weight on level 1, the parity on level 2.
    a, b = 877329965204690299, 544461693100611747
    assert float(a) / float(a + b) != a / (a + b)
    fam = finite_family([CoordinateProjection(3, 0), Parity(3, (1, 2))], [Fraction(a, a + b), Fraction(b, a + b)])
    want = (0.5, float(Fraction(a, a + b)) / 2, float(Fraction(b, a + b)) / 2, 0.0)
    assert family_spectrum(fam).levels == _rounded(fam) == want


def test_code_groups_slice_each_group_by_subcube_cells():
    # Support sizes 0, 1, 2 (both table paths) and 5, interleaved, sliced
    # at 8 subcube points: every function comes out once, in a slice of at
    # most 8 points or of one function, with the codes of its subcube points.
    d = 5
    g = np.random.default_rng(14)
    fns = []
    for i in range(12):
        wide = tuple(100 * (v >> i % d & 1) + (v >> (i + 2) % d & 1) for v in range(1 << d))  # labels to 101
        perm = tuple(int(c) for c in g.permutation(d))
        fns += [Constant(d), CoordinateProjection(d, i % d), ExplicitTable(d, wide),
                CoordinateSubset(d, (i % d, (i + 3) % d)), MinHashPermutation(d, perm)]
    want = [collision_code_matrix([h])[0] for h in fns]
    seen = []
    with mock.patch.object(hashing, "_CODE_CELLS", 8):
        for rows, J, codes in hashing._code_groups(fns):
            assert len(rows) == 1 or len(rows) << J.shape[1] <= 8
            assert len({(len(fns[i].support), type(fns[i])) for i in rows}) == 1
            seen += rows.tolist()
            for i, support, row in zip(rows, J, codes):
                assert tuple(support) == fns[i].support
                cube_point = (np.arange(1 << len(support))[:, None] >> np.arange(len(support)) & 1) << support
                assert np.array_equal(row, want[i][cube_point.sum(axis=1)])
    assert sorted(seen) == list(range(len(fns)))


def test_exact_curve_at_dimension_20_matches_closed_form():
    # A pair at distance m collides under the square of bit sampling with
    # probability (1 - m/d)^2, and m is Binomial(d, (1 - e^-t)/2).
    d, grid = 20, [0.0, 0.1, 0.5, 1.0, 2.0, 4.0]
    curve = stability_curve(power(bit_sampling_family(d), 2), grid)
    for t, value in zip(grid, curve.values):
        b = (1 - math.exp(-t)) / 2
        want = sum(math.comb(d, m) * b**m * (1 - b) ** (d - m) * (1 - m / d) ** 2 for m in range(d + 1))
        assert abs(value - want) <= 1e-12


def test_transform_block_grows_to_largest_subcube():
    # Two coordinates first, then a parity on a subcube of 2^19 points,
    # more than the block's 2^18 cells: the block grows to one column.
    d = 19
    fam = finite_family([CoordinateSubset(d, (4, 5)), Parity(d, tuple(range(d)))])
    want = (3 / 8, 1 / 4, 1 / 8) + (0.0,) * (d - 3) + (1 / 4,)
    assert family_spectrum(fam).levels == _rounded(fam) == want


# ---------------------------------------------------------------------------
# orbits: family_spectrum transforms one atom per orbit key


@st.composite
def _orbit_members(draw, d=None, kinds=("proj", "subset", "parity", "minhash", "pair", "concat")):
    """Random members of the keyed classes, each followed by its image
    under a random coordinate permutation, which moves coordinate i to
    perm[i], and for a pair collapse also a random shift."""
    d = d or draw(st.integers(1, 6))
    coord = st.integers(0, d - 1)
    fns = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        perm = draw(st.permutations(range(d)))
        if kind == "proj":
            i = draw(coord)
            fns += [CoordinateProjection(d, i), CoordinateProjection(d, perm[i])]
        elif kind in ("subset", "parity"):
            cls = CoordinateSubset if kind == "subset" else Parity
            coords = draw(st.lists(coord, unique=True, max_size=d))
            fns += [cls(d, tuple(coords)), cls(d, tuple(perm[c] for c in coords))]
        elif kind == "minhash":
            ranks = draw(st.permutations(range(d)))
            moved = [0] * d
            for i, rank in enumerate(ranks):  # coordinate perm[i] takes the rank of i
                moved[perm[i]] = rank
            fns += [MinHashPermutation(d, tuple(ranks)), MinHashPermutation(d, tuple(moved))]
        elif kind == "pair":
            point = st.integers(0, (1 << d) - 1)
            x0, y0, shift = draw(point), draw(point), draw(point)

            def move(v):
                return sum((v >> i & 1) << perm[i] for i in range(d)) ^ shift

            fns += [PairCollapse(d, x0, y0), PairCollapse(d, move(x0), move(y0))]
        else:
            coords = draw(st.lists(coord, min_size=1, max_size=4))
            nest = len(coords) > 2 and draw(st.booleans())  # leaves flatten

            def concat(cs):
                parts = [CoordinateProjection(d, c) for c in cs]
                return Concatenation((Concatenation(tuple(parts[:2])), *parts[2:]) if nest else tuple(parts))

            fns += [concat(coords), concat([perm[c] for c in coords])]
    return fns


@settings(deadline=None, max_examples=80)
@given(fns=_orbit_members())
def test_functions_of_one_orbit_key_have_equal_levels(fns):
    # A permuted (and shifted) image shares its function's key, and all
    # functions that share a key have the same exact levels.
    for h, image in zip(fns[::2], fns[1::2]):
        assert image._orbit() == h._orbit()
    levels = {}
    for h in fns:
        got = _exact_levels(finite_family([h]))
        assert levels.setdefault(h._orbit(), got) == got


def test_unkeyed_functions_are_their_own_orbit():
    d = 3
    table = ExplicitTable(d, (0, 1, 1, 2, 0, 3, 3, 1))
    mixed = Concatenation((CoordinateProjection(d, 0), Parity(d, (1, 2))))
    for h in (table, Constant(d), mixed):
        assert h._orbit() is h
    assert len({ExplicitTable(d, table.table)._orbit(), table._orbit()}) == 1


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_orbit_sums_of_mixed_weighted_families_equal_reference(data):
    # MinHash, pair-collapse and projection-concatenation orbits summed
    # with tables (their own orbits) must give the correctly rounded
    # exact levels, whatever the weights.
    d = data.draw(st.integers(1, 6))
    fns = data.draw(_orbit_members(d, ("minhash", "pair", "concat")))
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    fns += [_random_table(g, d, 4) for _ in range(data.draw(st.integers(0, 3)))]
    raw = data.draw(st.lists(st.integers(1, 50), min_size=len(fns), max_size=len(fns)))
    fam = finite_family(fns, [Fraction(r, sum(raw)) for r in raw])
    assert family_spectrum(fam).levels == _rounded(fam)


def test_named_families_mixed_with_tables_equal_reference():
    # Whole named families, 120 + 240 + 25 atoms in 1 + 2 + 2 orbits, and
    # two tables, at unequal weights.
    d = 5
    g = np.random.default_rng(5)
    fns = [h for f in (hashing.minhash_family(d, exact=True), hashing.trivial_family(d, 2),
                       power(bit_sampling_family(d), 2)) for _, h in f.atoms]
    fns += [_random_table(g, d, 3), _random_table(g, d, 6)]
    raw = [1 + i % 7 for i in range(len(fns))]
    fam = finite_family(fns, [Fraction(r, sum(raw)) for r in raw])
    assert len({h._orbit() for h in fns}) == 7
    assert family_spectrum(fam).levels == _rounded(fam)


def test_exact_minhash_curve_at_dimension_8_matches_jaccard():
    # Each coordinate of a pair differs with probability f; given a nonempty
    # union, each union element is shared with probability (1 - f)/(1 + f),
    # the expected Jaccard similarity, and two empty sets collide.
    d, grid = 8, [0.0, 0.1, 0.5, 1.0, 2.0, 4.0]
    curve = stability_curve(hashing.minhash_family(d, exact=True), grid)
    for t, value in zip(grid, curve.values):
        f = -math.expm1(-t) / 2
        both_empty = ((1 - f) / 2) ** d
        assert abs(value - (both_empty + (1 - both_empty) * (1 - f) / (1 + f))) <= 1e-12


def test_trivial_curve_at_dimension_14_matches_closed_form():
    # Equal points collide, and a pair at distance 1 collides iff it is the
    # drawn one of the d 2^(d-1) edges: 114,688 atoms in one orbit.
    d, grid = 14, [0.0, 0.1, 0.5, 1.0, 2.0, 4.0]
    curve = stability_curve(hashing.trivial_family(d, 1), grid)
    for t, value in zip(grid, curve.values):
        f = -math.expm1(-t) / 2
        want = (1 - f) ** d + d * f * (1 - f) ** (d - 1) / (d * 2 ** (d - 1))
        assert abs(value - want) <= 1e-12


# ---------------------------------------------------------------------------
# stability values


def test_dictator_stability_closed_form():
    spec = fourier_spectrum(CoordinateProjection(8, 1))
    for rho in RHOS:
        assert stability(spec, rho) == pytest.approx((1 + rho) / 2, abs=1e-12)


def test_stability_at_one_is_one():
    g = np.random.default_rng(5)
    spec = fourier_spectrum(_random_table(g, 6))
    assert stability(spec, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_stability_at_zero_is_label_collision_mass():
    g = np.random.default_rng(6)
    h = _random_table(g, 6, n_labels=4)
    spec = fourier_spectrum(h)
    counts = {}
    for v in range(64):
        lab = h(Point(v, 6))
        counts[lab] = counts.get(lab, 0) + 1
    expected = sum((c / 64) ** 2 for c in counts.values())
    assert stability(spec, 0.0) == pytest.approx(expected, abs=1e-12)


def test_stability_rejects_bad_rho():
    spec = fourier_spectrum(Constant(3))
    with pytest.raises(ValueError):
        stability(spec, -0.1)
    with pytest.raises(ValueError):
        stability(spec, 1.1)


def test_time_parametrization():
    fam = bit_sampling_family(9)
    assert stability_curve(fam, [0.0, math.log(2)]).values == pytest.approx((1.0, 0.75), abs=1e-12)
    # curve is d-independent for bit sampling
    for d in (2, 5, 12):
        assert stability_curve(bit_sampling_family(d), [0.7]).values[0] == pytest.approx(
            (1 + math.exp(-0.7)) / 2, abs=1e-12
        )
    with pytest.raises(ValueError):
        stability_curve(fam, [-0.2])


# ---------------------------------------------------------------------------
# brute-force oracle


def test_brute_force_constant():
    for rho in RHOS:
        assert brute_force_stability(Constant(5), rho) == pytest.approx(1.0, abs=1e-12)


def test_brute_force_identity_hash():
    d = 6
    h = ExplicitTable(d, tuple(range(1 << d)))
    for rho in (0.0, 0.3, 0.8, 1.0):
        assert brute_force_stability(h, rho) == pytest.approx(
            ((1 + rho) / 2) ** d, abs=1e-12
        )


def test_collision_counts_total():
    g = np.random.default_rng(7)
    h = _random_table(g, 5)
    counts = collision_counts_by_distance(h)
    assert counts[0] == 1 << 5  # every point collides with itself
    assert counts.sum() <= (1 << 5) ** 2


@pytest.mark.parametrize("d", [1, 4, 6])
def test_oracle_reads_no_collision_codes(d):
    # The oracle ranks the labels h gives the cube itself: with the code
    # groups the spectra transform unavailable, its counts still equal a
    # direct count over all ordered pairs.
    g = np.random.default_rng(d)
    wide = Concatenation(tuple(PairCollapse(d, int(x), int(x) ^ 1) for x in g.integers(0, 1 << d, 11)))
    assert d < 6 or wide.width == 2
    fns = [_random_table(g, d), MinHashPermutation(d, tuple(int(i) for i in g.permutation(d))), wide]
    broken = mock.Mock(side_effect=AssertionError("the oracle read collision codes"))
    for h in fns:
        labels = [h(Point(v, d)) for v in range(1 << d)]
        want = np.zeros(d + 1, dtype=np.int64)
        for x in range(1 << d):
            for y in range(1 << d):
                want[(x ^ y).bit_count()] += labels[x] == labels[y]
        with mock.patch.object(hashing, "_code_groups", broken), \
                mock.patch.object(hashing, "collision_code_matrix", broken), \
                mock.patch.object(spectral, "_code_groups", broken):
            assert collision_counts_by_distance(h).tolist() == want.tolist()


@settings(deadline=None, max_examples=20)
@given(d=st.integers(2, 8), seed=st.integers(0, 10**6))
def test_oracle_equivalence(d, seed):
    g = np.random.default_rng(seed)
    h = _random_table(g, d)
    spec = fourier_spectrum(h)
    for rho in RHOS:
        assert abs(stability(spec, rho) - brute_force_stability(h, rho)) <= 1e-9


# ---------------------------------------------------------------------------
# curves and log-convexity


def test_curve_invariants():
    curve = stability_curve(bit_sampling_family(6), np.linspace(0, 3, 13))
    assert curve.stderr is None
    assert curve.values[0] == pytest.approx(1.0, abs=1e-12)
    # strictly decreasing whenever mass sits above the empty set
    assert all(a > b for a, b in zip(curve.values, curve.values[1:]))
    flat = stability_curve(constant_family(4), np.linspace(0, 3, 5))
    assert set(flat.values) == {1.0}


def test_curve_rejects_unsorted_grid():
    with pytest.raises(ValueError):
        stability_curve(bit_sampling_family(4), [1.0, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e400, -0.5])
def test_curve_rejects_non_finite_times(bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        stability_curve(bit_sampling_family(4), [0.0, bad])
    with pytest.raises(ValueError, match="finite and nonnegative"):
        StabilityCurve((0.0, bad), (1.0, 0.5))
    with pytest.raises(ValueError):
        stability_ratio(bit_sampling_family(4), bad, 2.0)
    with pytest.raises(ValueError):
        stability_ratio(bit_sampling_family(4), 0.5, bad)


def test_curve_at_a_time_past_overflow():
    # -t * |S| overflows to -inf above level 0, where e^{-inf} = 0 is the limit.
    assert stability_curve(bit_sampling_family(4), [0.0, 1e308]).values == (1.0, 0.5)


def test_dictator_certificate_passes():
    curve = stability_curve(fourier_spectrum(CoordinateProjection(4, 0)), [0.0, 0.5, 1.0])
    cert = check_log_convexity(curve)
    assert cert.passed
    assert cert.worst_abs_slack <= 0
    k = [(1 + math.exp(-t)) / 2 for t in (0.0, 0.5, 1.0)]
    assert k[1] ** 2 - k[0] * k[2] <= 0  # the midpoint inequality itself


def test_single_level_spectrum_is_log_linear():
    spec = FourierSpectrum(4, (0, 0, 0, 1.0, 0))  # all mass at size 3
    curve = stability_curve(spec, np.linspace(0.0, 2.0, 9))
    assert curve.values[1] == pytest.approx(math.exp(-3 * 0.25), abs=1e-12)
    cert = check_log_convexity(curve)
    assert cert.passed
    assert abs(cert.worst_rel_slack) <= 1e-12  # equality case


def test_certificate_flags_violation():
    # a hand-corrupted curve cannot come from any hash family
    grid = (0.0, 0.5, 1.0, 1.5)
    values = (1.0, 0.9, 0.85, 0.2)
    cert = check_log_convexity(StabilityCurve(grid, values))
    assert not cert.passed
    assert cert.worst_triple is not None


def test_certificate_fails_a_check_past_the_float_range():
    # K(1)^2 / (K(0) K(2)) is e^745: expm1 overflows, and the relative slack is inf.
    cert = check_log_convexity(StabilityCurve((0.0, 1.0, 2.0), (5e-324, 1.0, 0.5)))
    assert not cert.passed and cert.worst_rel_slack == math.inf
    assert cert.worst_triple == (0.0, 1.0, 2.0) and cert.n_checks == 2


def test_certificate_fails_a_square_past_the_float_range():
    # K(1)^2 is 1e320: the square overflows, so both slacks read inf.
    cert = check_log_convexity(StabilityCurve((0.0, 1.0, 2.0), (1.0, 1e160, 1.0)))
    assert not cert.passed and cert.worst_rel_slack == cert.worst_abs_slack == math.inf
    assert cert.worst_triple == (0.0, 1.0, 2.0) and cert.n_checks == 2


def test_certificate_of_a_flat_curve_past_the_float_range():
    # Every K^2 and K K' is inf: the absolute slack is taken without
    # inf - inf, so no nan (a RuntimeWarning here), and the flat curve ties.
    cert = check_log_convexity(StabilityCurve((0.0, 1.0, 2.0), (1e300,) * 3))
    assert cert.passed and cert.worst_rel_slack == 0.0 and cert.n_checks == 2
    assert type(cert.worst_abs_slack) is float and math.isfinite(cert.worst_abs_slack)


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
def test_certificate_fails_a_value_not_positive_and_finite(bad):
    cert = check_log_convexity(StabilityCurve((0.0, 0.5, 1.0, 1.5), (1.0, bad, 0.8, 0.7)))
    assert not cert.passed and cert.n_checks == 0 and cert.worst_triple is None


def test_certificate_requires_exact_curve():
    curve = StabilityCurve((0.0, 0.5, 1.0), (1.0, 0.9, 0.8), stderr=(0.0,) * 3)
    with pytest.raises(ValueError):
        check_log_convexity(curve)
    with pytest.raises(ValueError):
        check_log_convexity(StabilityCurve((0.0, 1.0), (1.0, 0.9)))


@pytest.mark.parametrize("stderr", [(0.1,), (0.1, -0.2, 0.0), (0.1, math.nan, 0.0), "abc", (0.1, math.inf, 0.0)])
def test_curve_refuses_malformed_stderr(stderr):
    # An exact curve has no stderr; a Monte Carlo one has one finite,
    # nonnegative float per point, so a positional label string is refused.
    with pytest.raises(ValueError, match="stderr"):
        StabilityCurve((0.0, 0.5, 1.0), (1.0, 0.9, 0.8), stderr)


def test_certificate_names_the_first_worst_check():
    # A flat curve ties every check at slack 0, over three blocks of rows
    # and the triples. The first on-grid midpoint is that of points 2 and
    # 4, so the first worst check is neither a later pair nor a triple.
    grid = (0.0, 0.3) + tuple(float(t) for t in np.linspace(0.5, 3, 398))
    curve = StabilityCurve(grid, (1.0,) * 400)
    cert = check_log_convexity(curve)
    assert cert.passed and cert.worst_rel_slack == 0.0
    assert cert.worst_triple == grid[2:5]
    assert cert.n_checks == _pairwise_log_convexity(curve)[4]


def test_certificate_memory_stays_blocked():
    # 1001 points make 250,999 checks; blocks of at most 2^16 pairs keep
    # the certificate's peak allocation far below all checks at once
    # (about 10 MiB traced, against about 72 MiB unblocked).
    curve = stability_curve(bit_sampling_family(10), np.linspace(0, 3, 1001))
    tracemalloc.start()
    try:
        cert = check_log_convexity(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.passed and cert.n_checks == 250_999
    assert peak <= 16 << 20


def _pairwise_log_convexity(curve, tolerance=1e-9):
    # The certificate's former loop: one searchsorted and up to three
    # math.isclose per grid pair.
    t, k = np.array(curve.grid), np.array(curve.values)
    logk = np.log(k)
    worst_rel = worst_abs = -math.inf
    worst_triple, n_checks = None, 0

    def consider(rel, abs_slack, triple):
        nonlocal worst_rel, worst_abs, worst_triple, n_checks
        n_checks += 1
        if rel > worst_rel:
            worst_rel, worst_triple = rel, triple
        worst_abs = max(worst_abs, abs_slack)

    n = len(t)
    for i in range(n):
        for j in range(i + 2, n):
            mid = (t[i] + t[j]) / 2
            pos = int(np.searchsorted(t, mid))
            for cand in (pos - 1, pos, pos + 1):
                if 0 <= cand < n and math.isclose(t[cand], mid, rel_tol=1e-12, abs_tol=1e-12):
                    rel = math.expm1(2 * logk[cand] - logk[i] - logk[j])
                    consider(rel, k[cand] ** 2 - k[i] * k[j], (float(t[i]), float(t[cand]), float(t[j])))
                    break
    for i in range(1, n - 1):
        span = t[i + 1] - t[i - 1]
        if span <= 0:
            continue
        theta = (t[i + 1] - t[i]) / span
        rel = math.expm1(logk[i] - theta * logk[i - 1] - (1 - theta) * logk[i + 1])
        consider(rel, k[i] - k[i - 1] ** theta * k[i + 1] ** (1 - theta), (float(t[i - 1]), float(t[i]), float(t[i + 1])))
    return (worst_rel <= tolerance, worst_rel, float(worst_abs), worst_triple, n_checks)


@st.composite
def _grids(draw):
    # Uniform grids, random sorted grids, and grids with points moved to
    # within 1e-12 (relative or absolute) of some pair's midpoint.
    n = draw(st.integers(3, 31))
    kind = draw(st.sampled_from(["uniform", "random", "near-midpoints"]))
    if kind == "uniform":
        grid = np.linspace(0, draw(st.floats(1e-6, 50)), n)
    else:
        grid = np.array(sorted(draw(st.lists(st.floats(0, 50), min_size=n, max_size=n))))
    if kind == "near-midpoints":
        for _ in range(draw(st.integers(1, n))):
            i, j, m = sorted(draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)))
            mid = (grid[i] + grid[m]) / 2
            # Times are nonnegative: a nudge below a midpoint at 0 stays at 0.
            grid[j] = max(0.0, mid + draw(st.sampled_from([0.0, 1, -1, 0.5, 2, -2])) * 1e-12 * max(1.0, abs(mid)))
        grid = np.sort(grid)
    values = draw(st.one_of(
        st.just(None),  # the exact curve of a family
        st.lists(st.floats(1e-3, 1), min_size=n, max_size=n).map(lambda v: sorted(v, reverse=True)),
    ))
    return tuple(float(x) for x in grid), values


@settings(deadline=None, max_examples=200)
@given(case=_grids())
# libm's pow(x, 2) and the product x * x differ in the last bit at this K(0.5).
@example(case=((0.0, 0.5, 1.0), [0.75, 0.6986048931476442, 0.5]))
def test_log_convexity_matches_pairwise_loop(case):
    grid, values = case
    if values is None:
        curve = stability_curve(power(bit_sampling_family(5), 2), grid)
    else:
        curve = StabilityCurve(grid, tuple(values))
    cert = check_log_convexity(curve)
    got = (cert.passed, cert.worst_rel_slack, cert.worst_abs_slack, cert.worst_triple, cert.n_checks)
    want = _pairwise_log_convexity(curve)
    assert repr(got) == repr(want)


def test_log_convexity_blocks_of_rows_match_pairwise_loop():
    # 400 points: the pairs come in three blocks of rows. Every third point
    # is nudged, so some midpoints fall on the grid and others just off it.
    g = np.random.default_rng(11)
    grid = np.linspace(1, 5, 400)
    grid[::3] += g.uniform(-1e-11, 1e-11, len(grid[::3]))
    values = np.sort(g.uniform(1e-3, 1, 400))[::-1]
    curve = StabilityCurve(tuple(map(float, grid)), tuple(map(float, values)))
    cert = check_log_convexity(curve)
    got = (cert.passed, cert.worst_rel_slack, cert.worst_abs_slack, cert.worst_triple, cert.n_checks)
    assert repr(got) == repr(_pairwise_log_convexity(curve))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6))
def test_random_families_are_log_convex(seed):
    g = np.random.default_rng(seed)
    d = int(g.integers(2, 9))
    fns = [_random_table(g, d, int(g.integers(2, 9))) for _ in range(int(g.integers(1, 4)))]
    raw = g.random(len(fns)) + 0.1
    weights = [float(w) for w in raw / raw.sum()]
    weights[-1] = float(1 - math.fsum(weights[:-1]))
    fam = finite_family(fns, weights)
    curve = stability_curve(fam, np.linspace(0, 3, 21))
    assert check_log_convexity(curve).passed


# ---------------------------------------------------------------------------
# stability ratio


def test_ratio_is_one_at_c_equal_one():
    assert stability_ratio(bit_sampling_family(5), 0.4, 1.0) == 1.0


def test_ratio_tightness_witness():
    # mass on a single level makes K(t) = e^{-kt}, the exact equality case
    spec = FourierSpectrum(5, (0, 0, 0, 1.0, 0, 0))
    for c in (1.5, 2.0, 7.0):
        assert stability_ratio(spec, 0.3, c) == pytest.approx(1 / c, abs=1e-12)


def test_ratio_bit_sampling_bound():
    r = stability_ratio(bit_sampling_family(6), 0.1, 2.0)
    k1 = (1 + math.exp(-0.1)) / 2
    k2 = (1 + math.exp(-0.2)) / 2
    assert r == pytest.approx(math.log(1 / k1) / math.log(1 / k2), abs=1e-12)
    assert r >= 0.5 - 1e-9


def test_ratio_rejects_constant_family():
    with pytest.raises(ValueError):
        stability_ratio(constant_family(4), 0.5, 2.0)
    with pytest.raises(ValueError):
        stability_ratio(bit_sampling_family(4), 0.0, 2.0)
    with pytest.raises(ValueError):
        stability_ratio(bit_sampling_family(4), 0.5, 0.9)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6))
def test_scaled_ratio_at_least_one(seed):
    g = np.random.default_rng(seed)
    d = int(g.integers(2, 8))
    h = _random_table(g, d, 5)
    spec = fourier_spectrum(h)
    if stability(spec, math.exp(-0.2)) >= 1:
        return  # constant table, ratio undefined
    for c in (1.1, 2.0, 5.0):
        assert stability_ratio(spec, 0.2, c) * c >= 1 - 1e-9


def test_spectrum_csv_export(tmp_path):
    from lshlab.cli import write_rows

    spec = fourier_spectrum(CoordinateProjection(3, 1))
    path = tmp_path / "spec.csv"
    write_rows(path, ("level", "weight"), list(enumerate(spec.levels)), "csv")
    lines = path.read_text().strip().splitlines()
    assert lines == ["level,weight", "0,0.5", "1,0.5", "2,0.0", "3,0.0"]
