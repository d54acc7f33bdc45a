import functools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lshlab.hashing import (
    Concatenation,
    Constant,
    CoordinateProjection,
    ExplicitTable,
    Parity,
    bit_sampling_family,
    constant_family,
    finite_family,
    power,
)
from lshlab import spectral
from lshlab.points import Point
from lshlab.spectral import (
    EXACT,
    FourierSpectrum,
    StabilityCurve,
    _fwht,
    _spectrum_from_array,
    brute_force_stability,
    check_log_convexity,
    collision_counts_by_distance,
    family_spectrum,
    fourier_spectrum,
    noise_stability_at_time,
    stability,
    stability_curve,
    stability_ratio,
)

RHOS = (0.0, 0.25, 0.5, 0.9, 1.0)


def _random_table(g, d, n_labels=8):
    return ExplicitTable(d, tuple(int(v) for v in g.integers(0, n_labels, 1 << d)))


# ---------------------------------------------------------------------------
# transform


def test_fwht_matches_naive():
    g = np.random.default_rng(0)
    d = 5
    n = 1 << d
    f = g.normal(size=(n, 2))
    got = _fwht(f)
    naive = np.zeros_like(f)
    for s in range(n):
        for x in range(n):
            naive[s] += f[x] * (-1) ** ((x & s).bit_count())
    assert np.allclose(got, naive, atol=1e-10)


def test_dictator_spectrum():
    spec = fourier_spectrum(CoordinateProjection(6, 2))
    assert spec.weights == pytest.approx({0: 0.5, 1 << 2: 0.5})


def test_constant_spectrum():
    spec = fourier_spectrum(Constant(5))
    assert spec.weights == pytest.approx({0: 1.0})


def test_full_parity_spectrum():
    d = 5
    spec = fourier_spectrum(Parity(d, tuple(range(d))))
    full = (1 << d) - 1
    assert spec.weights == pytest.approx({0: 0.5, full: 0.5})


@pytest.mark.parametrize("d", [14, 16])
def test_constant_spectrum_at_transform_word_sizes(d):
    # The zero coefficient of a constant is 2^d: at d = 16 it needs 32-bit
    # transform words, and 16-bit ones would wrap it to 0.
    assert fourier_spectrum(Constant(d)).weights == {0: 1.0}
    spec = fourier_spectrum(Parity(d, tuple(range(d))))
    assert spec.weights == {0: 0.5, (1 << d) - 1: 0.5}


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
    assert spec.weight_zero() >= 1 / image - 1e-12


def test_spectrum_validation():
    with pytest.raises(ValueError):
        FourierSpectrum(2, {0: 0.5, 1: 0.2})  # mass under 1
    with pytest.raises(ValueError):
        FourierSpectrum(2, {0: 1.0, 9: 0.0})  # mask out of range
    with pytest.raises(ValueError):
        FourierSpectrum(2, {0: 1.5, 1: -0.5})


# ---------------------------------------------------------------------------
# family spectra


def test_bit_sampling_family_spectrum():
    d = 7
    spec = family_spectrum(bit_sampling_family(d))
    assert spec.weights[0] == pytest.approx(0.5, abs=1e-12)
    for i in range(d):
        assert spec.weights[1 << i] == pytest.approx(1 / (2 * d), abs=1e-12)


def test_point_mass_family_spectrum():
    spec = family_spectrum(constant_family(4))
    assert spec.weights == pytest.approx({0: 1.0})


def test_powered_family_spectrum_matches_enumeration():
    base = bit_sampling_family(2)
    fam = power(base, 2)
    spec = family_spectrum(fam)
    accum = {}
    for w, h in fam.atoms:
        for mask, wt in fourier_spectrum(h).weights.items():
            accum[mask] = accum.get(mask, 0.0) + float(w) * wt
    for mask in set(accum) | set(spec.weights):
        assert spec.weights.get(mask, 0.0) == pytest.approx(accum.get(mask, 0.0), abs=1e-12)


def test_family_spectrum_mc_mode_converges():
    fam = bit_sampling_family(5)
    exact = family_spectrum(fam)
    sampled = family_spectrum(fam, mode="mc", n_samples=4000, seed=2)
    assert stability(sampled, 0.5) == pytest.approx(stability(exact, 0.5), abs=0.02)


def test_injective_table_spans_many_batches():
    # 4096 labels at d = 12: one label column per point, far more than one
    # transform batch holds, so the function is split across batches.
    d = 12
    g = np.random.default_rng(12)
    h = ExplicitTable(d, tuple(int(v) for v in g.permutation(1 << d)))
    spec = fourier_spectrum(h)
    assert spec.weights == {mask: 1 / 4096 for mask in range(1 << d)}
    for rho in (0.0, 0.5, 0.9):
        assert stability(spec, rho) == pytest.approx(brute_force_stability(h, rho), rel=1e-12)


@functools.lru_cache(maxsize=None)
def _characters(d):
    n = 1 << d
    return np.array([[(-1) ** (x & s).bit_count() for x in range(n)] for s in range(n)], dtype=np.float64)


def _naive_squared_mass(h):
    # Direct sum over points of every label indicator of an explicit table.
    labels = np.array(h.table)
    onehot = (labels[:, None] == np.unique(labels)[None, :]).astype(np.float64)
    return ((_characters(h.dim) @ onehot / (1 << h.dim)) ** 2).sum(axis=1)


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
@given(fam=_table_families(), seed=st.integers(0, 100), width=st.sampled_from([3, 64, None]))
def test_family_spectrum_equals_per_atom_reference(fam, seed, width):
    # The batched integer transform must reproduce, bit for bit, the float64
    # accumulation of one naively transformed atom at a time, however the
    # label columns fall into batches (narrow batches split most functions).
    w = np.zeros(1 << fam.dim)
    for weight, h in fam.atoms:
        w += float(weight) * _naive_squared_mass(h)
    sampled = np.zeros(1 << fam.dim)
    for h in fam.sample(5, seed):
        sampled += _naive_squared_mass(h)
    cells = spectral._BATCH_CELLS if width is None else width << fam.dim
    with mock.patch.object(spectral, "_BATCH_CELLS", cells):
        assert family_spectrum(fam) == _spectrum_from_array(fam.dim, w)
        got = family_spectrum(fam, mode="mc", n_samples=5, seed=seed)
    assert got == _spectrum_from_array(fam.dim, sampled / 5)


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
    assert noise_stability_at_time(fam, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert noise_stability_at_time(fam, math.log(2)) == pytest.approx(0.75, abs=1e-12)
    # curve is d-independent for bit sampling
    for d in (2, 5, 12):
        assert noise_stability_at_time(bit_sampling_family(d), 0.7) == pytest.approx(
            (1 + math.exp(-0.7)) / 2, abs=1e-12
        )
    with pytest.raises(ValueError):
        noise_stability_at_time(fam, -0.2)


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
    assert curve.provenance == EXACT
    assert curve.values[0] == pytest.approx(1.0, abs=1e-12)
    # strictly decreasing whenever mass sits above the empty set
    assert all(a > b for a, b in zip(curve.values, curve.values[1:]))
    flat = stability_curve(constant_family(4), np.linspace(0, 3, 5))
    assert set(flat.values) == {1.0}


def test_curve_rejects_unsorted_grid():
    with pytest.raises(ValueError):
        stability_curve(bit_sampling_family(4), [1.0, 0.5])


def test_dictator_certificate_passes():
    curve = stability_curve(fourier_spectrum(CoordinateProjection(4, 0)), [0.0, 0.5, 1.0])
    cert = check_log_convexity(curve)
    assert cert.passed
    assert cert.worst_abs_slack <= 0
    k = [(1 + math.exp(-t)) / 2 for t in (0.0, 0.5, 1.0)]
    assert k[1] ** 2 - k[0] * k[2] <= 0  # the midpoint inequality itself


def test_single_level_spectrum_is_log_linear():
    spec = FourierSpectrum(4, {0b0111: 1.0})
    curve = stability_curve(spec, np.linspace(0.0, 2.0, 9))
    assert curve.values[1] == pytest.approx(math.exp(-3 * 0.25), abs=1e-12)
    cert = check_log_convexity(curve)
    assert cert.passed
    assert abs(cert.worst_rel_slack) <= 1e-12  # equality case


def test_certificate_flags_violation():
    # a hand-corrupted curve cannot come from any hash family
    grid = (0.0, 0.5, 1.0, 1.5)
    values = (1.0, 0.9, 0.85, 0.2)
    cert = check_log_convexity(StabilityCurve(grid, values, EXACT))
    assert not cert.passed
    assert cert.worst_triple is not None


def test_certificate_requires_exact_curve():
    curve = StabilityCurve((0.0, 0.5, 1.0), (1.0, 0.9, 0.8), "monte-carlo", stderr=(0.0,) * 3)
    with pytest.raises(ValueError):
        check_log_convexity(curve)
    with pytest.raises(ValueError):
        check_log_convexity(StabilityCurve((0.0, 1.0), (1.0, 0.9), EXACT))


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
    spec = FourierSpectrum(5, {0b11100: 1.0})
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
    write_rows(path, ("mask", "weight"), [(m, spec.weights[m]) for m in sorted(spec.weights)], "csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "mask,weight"
    assert len(lines) == 3
