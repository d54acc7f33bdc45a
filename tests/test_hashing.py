import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lshlab import hashing
from lshlab import rng as rngmod
from lshlab.hashing import (
    Concatenation,
    Constant,
    CoordinateProjection,
    CoordinateSubset,
    DimensionMismatch,
    ExplicitTable,
    HashFamily,
    MinHashPermutation,
    PairCollapse,
    Parity,
    bit_sampling_family,
    bit_sampling_profile,
    collision_by_distance,
    collision_code_matrix,
    collision_probability,
    constant_family,
    exact_sensitivity,
    family_descriptor,
    family_from_descriptor,
    family_from_json,
    finite_family,
    function_descriptor,
    function_from_descriptor,
    minhash_family,
    power,
    sample_power,
    trivial_family,
)
from lshlab.points import Point


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_projection():
    h = CoordinateProjection(5, 3)
    assert h(Point.from01("01011")) == 1
    assert h(Point.from01("01001")) == 0


def test_evaluate_constant():
    h = Constant(4)
    assert all(h(Point(v, 4)) == 0 for v in range(16))


def test_evaluate_parity():
    h = Parity(5, (0, 1))
    assert h(Point.from01("11010")) == 0
    assert h(Point.from01("10010")) == 1


def test_evaluate_rejects_dimension_mismatch():
    h = CoordinateProjection(5, 3)
    with pytest.raises(DimensionMismatch):
        h(Point(0, 4))


def test_subset_and_pair_collapse():
    h = CoordinateSubset(4, (1, 3))
    assert h(Point.from01("0101")) == 3
    pc = PairCollapse(3, 1, 6)
    assert pc(Point(1, 3)) == 0
    assert pc(Point(6, 3)) == 0
    labels = {pc(Point(v, 3)) for v in range(8)}
    assert len(labels) == 7  # the pair shares one label, the rest stay apart


def test_collision_codes_match_eval():
    fns = [
        CoordinateProjection(4, 2),
        CoordinateSubset(4, (0, 3)),
        Parity(4, (1, 2, 3)),
        Constant(4),
        PairCollapse(4, 3, 9),
        MinHashPermutation(4, (2, 0, 3, 1)),
        Concatenation((CoordinateProjection(4, 1), Parity(4, (0, 2)))),
    ]
    for h in fns:
        codes = collision_code_matrix([h])[0]
        raw = [h(Point(v, 4)) for v in range(16)]
        for a in range(16):
            for b in range(16):
                assert (codes[a] == codes[b]) == (raw[a] == raw[b])


# ---------------------------------------------------------------------------
# label packing


@given(st.lists(st.integers(2, 40), min_size=1, max_size=6))
def test_packing_bijective(bounds):
    # Packing is little-endian mixed radix: each input's packed label lies
    # below the product of the bounds and unpacks, digit by digit, to its
    # component labels, so equal packed labels mean equal components.
    parts = tuple(
        ExplicitTable(3, tuple(range(b)) + (0,) * (8 - b)) if b <= 8
        else ExplicitTable(3, (b - 1,) + (0,) * 7)
        for b in bounds
    )
    h = Concatenation(parts)
    assert h.label_bound == math.prod(p.label_bound for p in parts)
    bits = hashing._cube_bits(3)
    packed = h.labels(bits)[:, 0].tolist()
    columns = [p.labels(bits)[:, 0].tolist() for p in parts]
    for v, lab in enumerate(packed):
        assert 0 <= lab < h.label_bound
        unpacked = []
        for p in parts:
            lab, digit = divmod(lab, p.label_bound)
            unpacked.append(digit)
        assert unpacked == [col[v] for col in columns]


def test_leaves_refuse_labels_past_one_word():
    # A leaf's labels fit one uint64 word; the top of the word is allowed.
    assert ExplicitTable(1, (0, (1 << 64) - 1)).labels(np.eye(2, 1, -1, dtype=np.uint8)).tolist() == [[0], [(1 << 64) - 1]]
    with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
        ExplicitTable(1, (0, 1 << 64))
    assert CoordinateSubset(64, tuple(range(64))).label_bound == 1 << 64
    with pytest.raises(ValueError, match="at most 64 coordinates, got 65"):
        CoordinateSubset(65, tuple(range(65)))
    assert PairCollapse(63, 0, 1).label_bound == (1 << 63) + 1
    with pytest.raises(ValueError, match="dim <= 63, got 64"):
        PairCollapse(64, 0, 1)


@pytest.mark.parametrize("d", [0, -1])
def test_family_refuses_dimension_below_one(d):
    with pytest.raises(ValueError, match=f"at least 1, got {d}"):
        HashFamily(dim=d, atoms=((Fraction(1), Constant(d)),))


def test_packing_validates():
    with pytest.raises(ValueError, match="at least one component"):
        Concatenation(())
    with pytest.raises(ValueError, match="disagree on dimension"):
        Concatenation((CoordinateProjection(3, 0), CoordinateProjection(4, 0)))
    with pytest.raises(DimensionMismatch):
        Concatenation((CoordinateProjection(3, 0),)).labels(np.zeros((2, 4), dtype=np.uint8))


def test_concatenation_collides_iff_components_do():
    parts = (CoordinateProjection(3, 0), Parity(3, (1, 2)))
    h = Concatenation(parts)
    for a in range(8):
        for b in range(8):
            x, y = Point(a, 3), Point(b, 3)
            assert (h(x) == h(y)) == all(p(x) == p(y) for p in parts)


# ---------------------------------------------------------------------------
# bit sampling


def test_bit_sampling_family_shape():
    fam = bit_sampling_family(3)
    assert len(fam.atoms) == 3
    assert all(w == Fraction(1, 3) for w, _ in fam.atoms)
    single = bit_sampling_family(1)
    assert len(single.atoms) == 1 and single.atoms[0][0] == 1
    with pytest.raises(ValueError):
        bit_sampling_family(0)


def test_bit_sampling_exact_sensitivity_d8():
    prof = exact_sensitivity(bit_sampling_family(8), 1, 2)
    assert prof.p_exact == Fraction(7, 8)
    assert prof.q_exact == Fraction(6, 8)
    prof = exact_sensitivity(bit_sampling_family(8), 2, 4)
    assert prof.p_exact == Fraction(6, 8)
    assert prof.q_exact == Fraction(4, 8)


def test_bit_sampling_profile_values():
    prof = bit_sampling_profile(100, 10, 2)
    assert prof.p == 0.9 and prof.q == 0.8
    assert prof.rho == pytest.approx(0.4721647344828152, abs=1e-12)
    prof = bit_sampling_profile(10**5, 1, 2)
    assert prof.rho == pytest.approx(0.5, abs=1e-4)
    with pytest.raises(ValueError, match="degenerate q"):
        bit_sampling_profile(10, 4, 3)


def test_bit_sampling_profile_snaps_integer_cr():
    # index-build --r 7 --cr 61 passes c = 61 / 7, and (61 / 7) * 7 is
    # 60.99999999999999: the radii are still integers with exact p and q.
    prof = bit_sampling_profile(128, 7, 61 / 7)
    assert prof.cr == 61
    assert (prof.p_exact, prof.q_exact) == (Fraction(121, 128), Fraction(67, 128))
    assert bit_sampling_profile(128, 3, 1.5).q_exact is None


def test_bit_sampling_rho_increases_to_limit():
    # rho climbs toward 1/c as r/d shrinks
    rhos = [bit_sampling_profile(d, 1, 2).rho for d in (10, 100, 1000, 10**5)]
    assert rhos == sorted(rhos)
    assert all(r < 0.5 for r in rhos)


@given(st.integers(2, 14))
@settings(deadline=None)
def test_bit_sampling_sensitivity_formula_all_thresholds(d):
    by_dist = collision_by_distance(bit_sampling_family(d))
    for m in range(d + 1):
        assert by_dist[m] == Fraction(d - m, d)


# ---------------------------------------------------------------------------
# power


def test_power_identity():
    fam = bit_sampling_family(4)
    p1 = power(fam, 1)
    prof = exact_sensitivity(p1, 1, 2)
    base = exact_sensitivity(fam, 1, 2)
    assert prof.p_exact == base.p_exact and prof.q_exact == base.q_exact
    with pytest.raises(ValueError):
        power(fam, 0)


def test_power_bit_sampling_squares():
    prof = exact_sensitivity(power(bit_sampling_family(8), 2), 1, 2)
    assert prof.p_exact == Fraction(7, 8) ** 2
    assert prof.q_exact == Fraction(6, 8) ** 2


@settings(deadline=None, max_examples=30)
@given(
    d=st.integers(2, 6),
    k=st.integers(1, 3),
    seed=st.integers(0, 10**6),
)
def test_power_collision_probability_is_kth_power(d, k, seed):
    g = np.random.default_rng(seed)
    fns = [
        ExplicitTable(d, tuple(int(v) for v in g.integers(0, 3, 1 << d)))
        for _ in range(int(g.integers(1, 4)))
    ]
    raw = g.random(len(fns)) + 0.05
    weights = [float(w) for w in raw / raw.sum()]
    weights[-1] = float(1 - math.fsum(weights[:-1]))
    fam = finite_family(fns, weights)
    powered = power(fam, k)
    x = Point(int(g.integers(0, 1 << d)), d)
    y = Point(int(g.integers(0, 1 << d)), d)
    base = collision_probability(fam, x, y)
    assert collision_probability(powered, x, y) == base**k


def test_power_large_support_falls_back_to_sampling():
    fam = power(bit_sampling_family(128), 57)
    assert fam.atoms is None
    fns = fam.sample(3, seed=11)
    assert all(len(f.parts) == 57 for f in fns)
    assert fam.sample(3, seed=11) == fns


@pytest.mark.parametrize("past_limit", [False, True], ids=["at-limit", "past-limit"])
def test_sample_power_matches_power_sample(past_limit):
    # Below the atom limit the power is a materialized uniform family, past
    # it a sampling law; sample_power must draw what each would.
    weighted = finite_family(
        [CoordinateProjection(4, 0), Parity(4, (1, 2)), Constant(4)], [0.5, 0.25, 0.25]
    )
    for fam, k in [(bit_sampling_family(5), 3), (minhash_family(3, exact=True), 2), (weighted, 2)]:
        size = len(fam.atoms) ** k
        with mock.patch.object(hashing, "_POWER_ATOM_LIMIT", size - 1 if past_limit else size):
            powered = power(fam, k)
            assert (powered.atoms is None) == past_limit
            parts, table = sample_power(fam, k, 40, seed=3)
            assert table.shape == (40, k)
            assert [Concatenation(tuple(parts[j] for j in row)) for row in table] == powered.sample(40, seed=3)


def test_sample_power_never_lists_a_weighted_power():
    # 5^7 = 78,125 atoms are under the limit, so power() would list them;
    # sample_power draws their numbers and decodes them without power().
    fam = finite_family([CoordinateProjection(6, i) for i in range(5)], [0.1, 0.2, 0.3, 0.15, 0.25])
    assert len(fam.atoms) ** 7 <= hashing._POWER_ATOM_LIMIT
    want = power(fam, 7).sample(20, seed=4)

    def refuse(*args):
        raise AssertionError("the power was built")

    with mock.patch.object(hashing, "power", refuse):
        parts, table = sample_power(fam, 7, 20, seed=4)
    assert [Concatenation(tuple(parts[j] for j in row)) for row in table] == want


@pytest.mark.parametrize("parts, width, bound", [
    ([CoordinateProjection(128, i) for i in range(64)], 1, 1 << 64),
    ([CoordinateProjection(128, i) for i in range(64)] + [Constant(128)], 1, 1 << 64),
    ([CoordinateProjection(128, i) for i in range(65)], 2, 2 << 64),
    ([CoordinateProjection(128, i) for i in range(128)] + [Constant(128), CoordinateProjection(128, 0)], 3, 2 << 128),
    ([MinHashPermutation(12, tuple(range(12)))] * 20, 2, 13**3 << 64),
    ([ExplicitTable(1, (0, 1 << 63))] * 3, 3, ((1 << 63) + 1) << 128),
], ids=["64-projections", "64-and-constant", "65-projections", "128-constant-projection", "20-minhash-d12",
        "3-tables-2^63"])
def test_concatenation_width_and_bound_at_word_edges(parts, width, bound):
    # A concatenation's width and label bound are its LabelStack's layout:
    # a word holds digits while their product stays at most 2^64, and the
    # bound is the last word's digit product above the full words below it.
    h = Concatenation(tuple(parts))
    assert h.width == width and h.label_bound == bound
    assert h.labels(np.zeros((1, h.dim), dtype=np.uint8)).shape == (1, width)


# ---------------------------------------------------------------------------
# minhash


def _jaccard(a: int, b: int) -> Fraction:
    inter = (a & b).bit_count()
    union = (a | b).bit_count()
    return Fraction(inter, union) if union else Fraction(1)


def test_minhash_identical_and_disjoint():
    fam = minhash_family(4, exact=True)
    a = Point.from01("1010")
    assert collision_probability(fam, a, a) == 1
    b = Point.from01("0101")
    assert collision_probability(fam, a, b) == 0


def test_minhash_one_of_three():
    fam = minhash_family(4, exact=True)
    a = Point.from01("1100")
    b = Point.from01("0110")
    assert collision_probability(fam, a, b) == Fraction(1, 3)


@settings(deadline=None, max_examples=25)
@given(d=st.integers(2, 5), av=st.integers(0, 31), bv=st.integers(0, 31))
def test_minhash_collision_law_matches_jaccard(d, av, bv):
    mask = (1 << d) - 1
    a, b = Point(av & mask, d), Point(bv & mask, d)
    fam = minhash_family(d, exact=True)
    assert len(fam.atoms) == math.factorial(d)
    assert collision_probability(fam, a, b) == _jaccard(a.value, b.value)


def test_minhash_empty_sets_collide():
    h = MinHashPermutation(4, (0, 1, 2, 3))
    empty = Point(0, 4)
    assert h(empty) == 4  # reserved sentinel
    assert h(empty) != h(Point.from01("1000"))


def test_minhash_sampler_reproducible():
    fam = minhash_family(12)
    assert fam.atoms is None
    assert fam.sample(5, seed=3) == fam.sample(5, seed=3)
    assert fam.sample(5, seed=3) != fam.sample(5, seed=4)


def _minhash_collisions_by_gather(x_bits, y_bits, g, d):
    # The oracle: the smallest-ranked element of x | y by where and argmin,
    # gathered from both sides; an empty union collides.
    ranks = g.permuted(np.tile(np.arange(d), (len(x_bits), 1)), axis=1)
    union = (x_bits | y_bits).astype(bool)
    first = np.where(union, ranks, d).argmin(axis=1)
    rows = np.arange(len(x_bits))
    return (x_bits[rows, first] & y_bits[rows, first]).astype(bool) | ~union.any(axis=1)


@pytest.mark.parametrize("d", [1, 2, 64, 65, 300])
def test_minhash_keyed_minimum_is_the_gather(d):
    # Keys are uint8 up to d = 64 and uint16 from 65 on. Every third row has
    # an empty union and every fifth is an identical pair. In every seventh
    # the union is one element of x alone: at d = 65 its rank is 64, whose
    # key needs the ninth bit, in 5 of those 286 rows. The others are random
    # at densities from 0 to 1.
    g = np.random.default_rng(d)
    n = 2000
    x = (g.random((n, d)) < g.random((n, 1))).astype(np.uint8)
    y = (g.random((n, d)) < g.random((n, 1))).astype(np.uint8)
    x[::3] = y[::3] = 0
    y[1::5] = x[1::5]
    x[2::7] = y[2::7] = 0
    x[np.arange(2, n, 7), g.integers(0, d, len(x[2::7]))] = 1
    fam = minhash_family(d)
    got_g, want_g = rngmod.stream(8, d), rngmod.stream(8, d)
    got = fam.collisions(x, y, got_g)
    want = _minhash_collisions_by_gather(x, y, want_g, d)
    assert got.dtype == want.dtype == bool and np.array_equal(got, want)
    empty = ~(x | y).any(axis=1)
    assert empty.sum() > 500 and want[empty].all() and not want.all()
    assert got_g.random() == want_g.random()


# ---------------------------------------------------------------------------
# trivial family


def test_trivial_family_d2():
    fam = trivial_family(2, 1)
    assert len(fam.atoms) == 4
    prof = exact_sensitivity(fam, 1, 2)
    assert prof.q == 0
    assert prof.rho is None and "trivial regime" in prof.rho_note


def test_trivial_family_d3_collision_rate():
    fam = trivial_family(3, 1)
    assert len(fam.atoms) == 12
    x, y = Point(0, 3), Point(1, 3)
    assert collision_probability(fam, x, y) == Fraction(1, 12)


def test_trivial_family_far_pairs_never_collide():
    fam = trivial_family(4, 1)
    for xv in range(16):
        for yv in range(16):
            if (xv ^ yv).bit_count() >= 2:
                assert collision_probability(fam, Point(xv, 4), Point(yv, 4)) == 0


def test_trivial_family_rejects_r_zero():
    with pytest.raises(ValueError):
        trivial_family(3, 0)


@pytest.mark.parametrize("d, r", [(1, 1), (2, 2), (5, 9), (6, 1), (8, 1), (8, 2), (8, 3)])
def test_trivial_family_pairs_in_loop_order(d, r):
    # Monte Carlo draws index the atoms, so their order is the former loop's:
    # every x, then every y > x within distance r, as Python ints.
    n = 1 << d
    want = [(x, y) for x in range(n) for y in range(x + 1, n) if (x ^ y).bit_count() <= r]
    atoms = [h for _, h in trivial_family(d, r).atoms]
    assert [(h.x0, h.y0) for h in atoms] == want
    assert all(type(h.x0) is int and type(h.y0) is int for h in atoms)


# ---------------------------------------------------------------------------
# exact sensitivity


def test_constant_family_profile():
    prof = exact_sensitivity(constant_family(4), 1, 2)
    assert prof.p == 1 and prof.q == 1
    assert prof.rho is None


def test_exact_sensitivity_validates():
    fam = bit_sampling_family(4)
    with pytest.raises(ValueError):
        exact_sensitivity(fam, 3, 2)
    with pytest.raises(ValueError):
        exact_sensitivity(fam, 1, 7)
    with pytest.raises(ValueError):
        exact_sensitivity(power(bit_sampling_family(128), 2), 1, 2)


def test_symmetric_path_agrees_with_full_enumeration():
    fam = bit_sampling_family(6)
    assert fam.distance_symmetric
    mins, maxs = hashing._class_extremes(fam)  # every pair, no symmetry assumed
    for r, cr in ((1, 2), (2, 4), (1, 5), (1.5, 2.5)):
        prof = exact_sensitivity(fam, r, cr)
        assert prof.p_exact == min(mins[: math.floor(r) + 1]) == Fraction(6 - math.floor(r), 6)
        assert prof.q_exact == max(maxs[math.ceil(cr) :]) == Fraction(6 - math.ceil(cr), 6)


def _finite_file(d, atoms, symmetric):
    # A "finite" family document with the legacy symmetry key.
    return json.dumps({"kind": "finite", "d": d, "distance_symmetric": symmetric, "atoms": [
        {"weight": str(w), "fn": function_descriptor(h)} for w, h in atoms
    ]})


def _all_but_one_pair(d, repeat):
    # Uniform over the d^2 - 1 ordered pairs of projections but the first,
    # or over d^2 atoms with the last pair listed twice in its place.
    fns = [h for _, h in power(bit_sampling_family(d), 2).atoms[1:]]
    return finite_family(fns + fns[-1:] * repeat)


def _short_atom(d):
    # The pair (x_0, x_2) replaced by x_0 alone: d^2 atoms of projections,
    # one of them shorter, so pairs differing only in x_2 collide more often
    # than pairs differing only in x_0.
    fns = [h for _, h in power(bit_sampling_family(d), 2).atoms]
    fns[2] = CoordinateProjection(d, 0)
    return finite_family(fns)


SYMMETRY_CASES = {
    "bit-sampling-1": (lambda: bit_sampling_family(1), True),
    "bit-sampling-5": (lambda: bit_sampling_family(5), True),
    "power-4-2": (lambda: power(bit_sampling_family(4), 2), True),
    "nested-power-3": (lambda: power(power(bit_sampling_family(3), 2), 2), True),
    "finite-file-projections-5": (lambda: family_from_json(_finite_file(
        5, [(Fraction(1, 5), CoordinateProjection(5, i)) for i in (3, 0, 4, 2, 1)], True)), True),
    "dictator-4": (lambda: finite_family([CoordinateProjection(4, 0)]), False),
    "all-but-one-pair-3": (lambda: _all_but_one_pair(3, 0), False),
    "one-pair-twice-3": (lambda: _all_but_one_pair(3, 1), False),
    "short-atom-3": (lambda: _short_atom(3), False),
    "nonuniform-projections-5": (lambda: finite_family(
        [CoordinateProjection(5, i) for i in range(5)], [Fraction(2, 6)] + [Fraction(1, 6)] * 4), False),
    "minhash-exact-4": (lambda: minhash_family(4, exact=True), False),
    "trivial-4": (lambda: trivial_family(4, 1), False),
}


@pytest.mark.parametrize("case", list(SYMMETRY_CASES))
def test_distance_symmetry_is_derived_from_atoms(case):
    make, symmetric = SYMMETRY_CASES[case]
    fam = make()
    assert fam.distance_symmetric is symmetric
    # Collision masses, counted part by part, against a sum over the atoms.
    x = Point(0, fam.dim)
    for v in range(1 << fam.dim):
        y = Point(v, fam.dim)
        assert collision_probability(fam, x, y) == sum(w for w, h in fam.atoms if h(x) == h(y))
    # Whichever path exact_sensitivity takes, it equals the all-pairs enumeration.
    d = fam.dim
    mins, maxs = hashing._class_extremes(fam)
    for r in range(d):
        for cr in range(r + 1, d + 1):
            prof = exact_sensitivity(fam, r, cr)
            assert (prof.p_exact, prof.q_exact) == (min(mins[: r + 1]), max(maxs[cr:]))
    # The legacy key may say true only when the atoms agree.
    text = _finite_file(d, fam.atoms, True)
    if symmetric:
        assert family_from_json(text).distance_symmetric
    else:
        with pytest.raises(ValueError, match="distance_symmetric"):
            family_from_json(text)


def test_constructor_families_keep_their_symmetry():
    # The derived flag is what the constructors used to set by hand: true
    # for bit sampling and its finite powers, false for the rest.
    for d in range(1, 15):
        fams = [bit_sampling_family(d), power(bit_sampling_family(d), 2)]
        if d <= 8:
            fams.append(power(power(bit_sampling_family(d), 2), 2))
        assert all(f.distance_symmetric for f in fams), d
    others = (constant_family(4), minhash_family(5), minhash_family(5, exact=True), trivial_family(3, 1),
              power(minhash_family(4, exact=True), 2))
    assert not any(f.distance_symmetric for f in others)
    # Past the atom limit a power is a sampling law, with no atoms to enumerate.
    assert power(bit_sampling_family(14), 5).atoms is None
    assert not power(bit_sampling_family(14), 5).distance_symmetric


def test_mixed_weights_full_path():
    fns = [CoordinateProjection(4, 0), Constant(4)]
    fam = finite_family(fns, [0.25, 0.75])
    prof = exact_sensitivity(fam, 1, 3)
    # constant always collides; projection 0 collides unless coordinate 0 differs
    assert prof.p_exact == Fraction(3, 4)
    assert prof.q_exact == 1
    x, y = Point(0, 4), Point(1, 4)
    assert collision_probability(fam, x, y) == Fraction(3, 4)


# ---------------------------------------------------------------------------
# family plumbing


def test_family_weight_validation():
    fns = [Constant(3), CoordinateProjection(3, 0)]
    with pytest.raises(ValueError):
        finite_family(fns, [0.5, 0.6])
    with pytest.raises(ValueError):
        finite_family(fns, [1.5, -0.5])


def test_weights_sum_to_exactly_one():
    fns = [Constant(3), CoordinateProjection(3, 0)]
    with pytest.raises(ValueError, match="weights sum to 10000000000001/10000000000000, expected exactly 1"):
        HashFamily(dim=3, atoms=((Fraction(1, 2), fns[0]), (Fraction(1, 2) + Fraction(1, 10**13), fns[1])))
    with pytest.raises(ValueError, match="negative weight"):
        HashFamily(dim=3, atoms=((Fraction(3, 2), fns[0]), (Fraction(-1, 2), fns[1])))
    # The float 1 - 1e-30 is 1.0, so the raw weights sum to 1 + 1e-30; they
    # are divided by that sum, which keeps every probability at most 1.
    fam = finite_family(fns, [1e-30, 1 - 1e-30])
    assert sum(w for w, _ in fam.atoms) == 1
    assert exact_sensitivity(fam, 1, 2).q_exact == 1


@st.composite
def weighted_tables(draw):
    d = draw(st.integers(1, 5))
    n_atoms = draw(st.integers(1, 4))
    # Common denominators that fit int32, int64 and neither. Weights just
    # below 2^70 tie on their top digits and carry out of the lower ones.
    top = draw(st.sampled_from([3, 1 << 40, 1 << 70]))
    base = draw(st.sampled_from([0, (1 << 70) - 4]))
    raw = [base + w for w in draw(st.lists(st.integers(1, top), min_size=n_atoms, max_size=n_atoms))]
    table = st.lists(st.integers(0, 3), min_size=1 << d, max_size=1 << d)
    fns = [ExplicitTable(d, tuple(draw(table))) for _ in range(n_atoms)]
    # Half-integer thresholds too: p covers m <= floor(r), q covers m >= ceil(cr).
    r = draw(st.integers(0, 2 * d - 1)) / 2
    cr = draw(st.integers(int(2 * r) + 1, 2 * d)) / 2
    return finite_family(fns, [Fraction(w, sum(raw)) for w in raw]), r, cr


@settings(max_examples=60, deadline=None)
@given(weighted_tables(), st.sampled_from([1, 1 << 21]))
def test_weighted_exact_sensitivity_matches_all_pairs(case, cells):
    # One compare cell makes every row of x a block of its own.
    fam, r, cr = case
    d = fam.dim
    near, far = [], []
    for x, y in itertools.combinations_with_replacement(range(1 << d), 2):
        prob = collision_probability(fam, Point(x, d), Point(y, d))
        dist = (x ^ y).bit_count()
        if dist <= r:
            near.append(prob)
        if dist >= cr:
            far.append(prob)
    with mock.patch.object(hashing, "_COMPARE_CELLS", cells):
        prof = exact_sensitivity(fam, r, cr)
    assert prof.p_exact == min(near) and prof.q_exact == max(far)
    assert (prof.p, prof.q) == (float(min(near)), float(max(far)))


def _all_pairs_extremes(fam):
    # Per distance, the min and max collision probability over every
    # unordered pair, one collision_probability call each.
    d = fam.dim
    lo, hi = [Fraction(1)] * (d + 1), [Fraction(0)] * (d + 1)
    for x, y in itertools.combinations_with_replacement(range(1 << d), 2):
        prob = collision_probability(fam, Point(x, d), Point(y, d))
        m = (x ^ y).bit_count()
        lo[m], hi[m] = min(lo[m], prob), max(hi[m], prob)
    return lo, hi


def test_minhash_class_extremes_in_atom_chunks_match_all_pairs():
    # A non-symmetric weighted MinHash family at d = 5: groups of 5, 4 and 3
    # equal-weight permutations, compared two atoms at a time and coded
    # three at a time, against every pair's exact collision probability.
    d = 5
    g = np.random.default_rng(55)
    fns = [MinHashPermutation(d, tuple(int(i) for i in g.permutation(d))) for _ in range(12)]
    fam = finite_family(fns, [Fraction(w, 34) for w in [2] * 5 + [3] * 4 + [4] * 3])
    lo, hi = _all_pairs_extremes(fam)
    with (
        mock.patch.object(hashing, "_COMPARE_CELLS", 2 << (2 * d)),
        mock.patch.object(hashing, "_CODE_CELLS", 3 << d),
    ):
        for r in range(d):
            for cr in range(r + 1, d + 1):
                prof = exact_sensitivity(fam, r, cr)
                assert (prof.p_exact, prof.q_exact) == (min(lo[: r + 1]), max(hi[cr:]))


def test_byte_sums_of_atoms_carry_past_255():
    # 300 equal-weight constants and two projections, one group of 302
    # atoms: pairs that agree on x_0 and x_1 collide under all of them, so
    # the group's count passes 255 and must carry out of each run's byte sum.
    d = 4
    fam = finite_family([Constant(d)] * 300 + [CoordinateProjection(d, 0), CoordinateProjection(d, 1)])
    assert not fam.distance_symmetric
    lo, hi = _all_pairs_extremes(fam)
    assert hi[0] == 1 and hi[2] == 1
    assert hashing._class_extremes(fam) == (lo, hi)


def test_pair_blocks_past_row_zero_match_all_pairs():
    # d = 8 with the compare buffer patched small: blocks of 4 rows of x
    # (1 KiB), or of one row (16 cells, below one row of 256), so most blocks
    # start past row 0 and meet only the columns from their first row on.
    # Pair collapses join (5, 200), across blocks, and (8, 9), inside the
    # block of rows 8-11, whose weight of 1/2 makes it the one pair at
    # distance 1 with the class's largest collision probability.
    d = 8
    g = np.random.default_rng(8)
    fns = [MinHashPermutation(d, tuple(int(i) for i in g.permutation(d))) for _ in range(4)]
    fns += [ExplicitTable(d, tuple(int(v) for v in g.integers(0, 3, 1 << d))) for _ in range(3)]
    fns += [PairCollapse(d, 5, 200), PairCollapse(d, 8, 9)]
    fam = finite_family(fns, [Fraction(w, 72) for w in range(1, 9)] + [Fraction(1, 2)])
    expected = _all_pairs_extremes(fam)
    assert expected[1][1] >= Fraction(1, 2)
    for cells in (1 << 10, 16):
        with mock.patch.object(hashing, "_COMPARE_CELLS", cells):
            assert hashing._class_extremes(fam) == expected
    assert hashing._class_extremes(fam) == expected


def test_class_extremes_memory_stays_blocked():
    # At d = 12 one (N, N) bool array of pairs takes 16 MiB. Blocks of 64
    # rows of x and one reused 1 MiB compare buffer keep the traced peak
    # near 4.5 MiB, under half of that.
    d = 12
    g = np.random.default_rng(12)
    fns = [ExplicitTable(d, tuple(int(v) for v in g.integers(0, 3, 1 << d))) for _ in range(3)]
    fam = finite_family(fns + [CoordinateProjection(d, 0)], [Fraction(w, 10) for w in range(1, 5)])
    tracemalloc.start()
    try:
        mins, maxs = hashing._class_extremes(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mins[0] == maxs[0] == 1
    assert peak <= 8 << 20


def test_digit_sums_carry_before_they_compare():
    # D > 2^63 and four atoms give base-2^59 digits. The pair (0, 1) collides
    # under atoms 0 and 2, whose top digits 3 and 1 lose to atom 1's 5, but
    # whose lower digits carry: 6 * 2^59 - 2 beats 5 * 2^59 on the pair (0, 2).
    s = [2**61 - 1, 5 * 2**59, 2**60 - 1, 2**64]
    denom = sum(s)
    tables = [(0, 0, 1, 2), (0, 1, 0, 2), (0, 0, 1, 2), (0, 1, 2, 3)]
    fam = finite_family([ExplicitTable(2, t) for t in tables], [Fraction(v, denom) for v in s])
    assert collision_probability(fam, Point(0, 2), Point(1, 2)) == Fraction(s[0] + s[2], denom)
    prof = exact_sensitivity(fam, 0, 1)
    assert (prof.p_exact, prof.q_exact) == (1, Fraction(s[0] + s[2], denom))


def test_family_sampling_reproducible():
    fam = bit_sampling_family(9)
    assert fam.sample(20, seed=42) == fam.sample(20, seed=42)


def test_descriptor_roundtrip_named_families():
    for fam in (
        bit_sampling_family(6),
        minhash_family(5),
        minhash_family(4, exact=True),
        trivial_family(3, 1),
        power(bit_sampling_family(5), 2),
        power(power(bit_sampling_family(4), 2), 2),
    ):
        doc = family_descriptor(fam)
        clone = family_from_descriptor(doc)
        assert family_descriptor(clone) == doc
        assert clone.dim == fam.dim
        assert clone.sample(4, seed=9) == fam.sample(4, seed=9)
        assert family_from_json(json.dumps(doc, sort_keys=True)).sample(2, seed=1) == fam.sample(2, seed=1)


def test_descriptor_roundtrip_generic_finite():
    g = np.random.default_rng(8)
    fns = [
        ExplicitTable(3, tuple(int(v) for v in g.integers(0, 4, 8))),
        Parity(3, (0, 2)),
    ]
    raw = [0.3, 0.7]
    fam = finite_family(fns, raw)
    doc = family_descriptor(fam)
    clone = family_from_descriptor(doc)
    assert clone.atoms == fam.atoms


def test_function_descriptor_roundtrip():
    fns = [
        CoordinateProjection(7, 2),
        CoordinateSubset(7, (1, 4)),
        Parity(7, (0, 6)),
        Constant(7),
        ExplicitTable(2, (3, 1, 4, 1)),
        MinHashPermutation(3, (2, 0, 1)),
        PairCollapse(4, 2, 13),
        Concatenation((CoordinateProjection(4, 0), CoordinateProjection(4, 3))),
    ]
    for h in fns:
        assert function_from_descriptor(function_descriptor(h)) == h
