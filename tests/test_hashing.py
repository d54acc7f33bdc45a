import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lshlab import hashing, points
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
    collision_codes,
    collision_by_distance,
    collision_probability,
    exact_sensitivity,
    family_descriptor,
    family_from_descriptor,
    family_from_json,
    family_to_json,
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
        codes = collision_codes(h)
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
    packed = h.labels(bits).tolist()
    columns = [p.labels(bits).tolist() for p in parts]
    for v, lab in enumerate(packed):
        assert 0 <= lab < h.label_bound
        unpacked = []
        for p in parts:
            lab, digit = divmod(lab, p.label_bound)
            unpacked.append(digit)
        assert unpacked == [col[v] for col in columns]


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
            assert sample_power(fam, k, 40, seed=3) == powered.sample(40, seed=3)


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


# ---------------------------------------------------------------------------
# exact sensitivity


def test_constant_family_profile():
    from lshlab.hashing import constant_family

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
    general = finite_family([h for _, h in fam.atoms])  # same atoms, symmetry flag off
    for r, cr in ((1, 2), (2, 4), (1, 5), (1.5, 2.5)):
        a = exact_sensitivity(fam, r, cr)
        b = exact_sensitivity(general, r, cr)
        assert a.p_exact == b.p_exact == Fraction(6 - math.floor(r), 6)
        assert a.q_exact == b.q_exact == Fraction(6 - math.ceil(cr), 6)


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
@given(weighted_tables(), st.sampled_from([2, 1 << 16]), st.sampled_from([1, 1 << 21]))
def test_weighted_exact_sensitivity_matches_all_pairs(case, block_vectors, cells):
    # A block of 2 count vectors holds one single-atom group, so every
    # family of two or more weights takes the multi-block sums (and digits).
    # One cell per distance block makes every row of pairs a block of its own.
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
    with (
        mock.patch.object(hashing, "_BLOCK_VECTORS", block_vectors),
        mock.patch.object(points, "_DISTANCE_CELLS", cells),
    ):
        prof = exact_sensitivity(fam, r, cr)
    assert prof.p_exact == min(near) and prof.q_exact == max(far)
    assert (prof.p, prof.q) == (float(min(near)), float(max(far)))


def test_minhash_class_extremes_in_atom_chunks_match_all_pairs():
    # A non-symmetric weighted MinHash family at d = 5: groups of 5, 4 and 3
    # equal-weight permutations, compared two atoms at a time from code
    # matrices of three rows, against every pair's exact collision probability.
    d = 5
    g = np.random.default_rng(55)
    fns = [MinHashPermutation(d, tuple(int(i) for i in g.permutation(d))) for _ in range(12)]
    fam = finite_family(fns, [Fraction(w, 34) for w in [2] * 5 + [3] * 4 + [4] * 3])
    lo, hi = [Fraction(1)] * (d + 1), [Fraction(0)] * (d + 1)
    for x, y in itertools.combinations_with_replacement(range(1 << d), 2):
        prob = collision_probability(fam, Point(x, d), Point(y, d))
        m = (x ^ y).bit_count()
        lo[m], hi[m] = min(lo[m], prob), max(hi[m], prob)
    with (
        mock.patch.object(hashing, "_COMPARE_CELLS", 2 << (2 * d)),
        mock.patch.object(hashing, "_CODE_CELLS", 3 << d),
    ):
        for r in range(d):
            for cr in range(r + 1, d + 1):
                prof = exact_sensitivity(fam, r, cr)
                assert (prof.p_exact, prof.q_exact) == (min(lo[: r + 1]), max(hi[cr:]))


def test_digit_sums_carry_before_they_compare():
    # D > 2^63 and four blocks give base-2^60 digits. The pair (0, 1) collides
    # under atoms 0 and 2, whose top digits 1 and 0 lose to atom 1's 2, but
    # whose lower digits carry: 3 * 2^60 - 2 beats 2^61 on the pair (0, 2).
    s = [2**61 - 1, 2**61, 2**60 - 1, 2**64]
    denom = sum(s)
    tables = [(0, 0, 1, 2), (0, 1, 0, 2), (0, 0, 1, 2), (0, 1, 2, 3)]
    fam = finite_family([ExplicitTable(2, t) for t in tables], [Fraction(v, denom) for v in s])
    assert collision_probability(fam, Point(0, 2), Point(1, 2)) == Fraction(s[0] + s[2], denom)
    for block_vectors in (2, 1 << 16):
        with mock.patch.object(hashing, "_BLOCK_VECTORS", block_vectors):
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
        assert family_from_json(family_to_json(fam)).sample(2, seed=1) == fam.sample(2, seed=1)


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
