import math

import mpmath
import numpy as np
import pytest
from scipy import stats as sps

from lshlab import rng as rngmod
from lshlab.bounds import chernoff_ledger
from lshlab.hashing import (
    ExplicitTable,
    bit_sampling_family,
    constant_family,
    exact_sensitivity,
    finite_family,
    trivial_family,
)
from lshlab.points import hamming
from lshlab.sampling import (
    _log_factorial,
    binomial_tail_above,
    binomial_tail_below,
    correlated_bits,
    mc_stability,
    mc_stability_curve,
    tail_probabilities,
    verify_sandwich,
)
from lshlab.spectral import brute_force_stability, family_spectrum, stability


# ---------------------------------------------------------------------------
# correlated pairs


def test_rho_one_copies_x():
    x, y = correlated_bits(64, 1.0, 5, seed=0)
    assert np.array_equal(x, y)


def test_rho_zero_independent_mean_distance():
    x, y = correlated_bits(1000, 0.0, 400, seed=1)
    dists = (x ^ y).sum(axis=1)
    # Binomial(1000, 1/2): mean 500, sd ~ 15.8; mean of 400 draws has sd ~ 0.8
    assert abs(dists.mean() - 500) < 4


def test_half_correlation_distance_fraction():
    d, n = 10**4, 1000
    x, y = correlated_bits(d, 0.5, n, seed=2)
    frac = (x ^ y).sum(axis=1) / d
    stderr = frac.std(ddof=1) / math.sqrt(n)
    assert abs(frac.mean() - 0.25) < 3 * stderr


def test_flip_rate_chi_squared():
    d, n = 8, 10**5
    rho = 0.5
    x, y = correlated_bits(d, rho, n, seed=3)
    flips = (x ^ y).sum(axis=0).astype(float)
    f = (1 - rho) / 2
    chi2 = float((((flips - n * f) ** 2) / (n * f * (1 - f))).sum())
    assert chi2 < sps.chi2.ppf(1 - 1e-4, d)


def test_correlated_bits_validate():
    with pytest.raises(ValueError):
        correlated_bits(8, 1.5, 10, seed=0)


def test_pair_reproducible():
    x, y = correlated_bits(50, 0.3, 4, seed=7)
    x2, y2 = correlated_bits(50, 0.3, 4, seed=7)
    assert np.array_equal(x, x2) and np.array_equal(y, y2)


# ---------------------------------------------------------------------------
# Monte Carlo stability


def test_mc_constant_family():
    est = mc_stability(constant_family(6), 0.5, 500, seed=4)
    assert est.estimate == 1.0 and est.stderr == 0.0


def test_mc_bit_sampling_matches_exact():
    est = mc_stability(bit_sampling_family(12), 0.5, 4000, seed=5)
    assert abs(est.estimate - 0.75) <= 4 * est.stderr


def test_mc_matches_brute_force_on_random_table():
    g = np.random.default_rng(11)
    h = ExplicitTable(8, tuple(int(v) for v in g.integers(0, 6, 256)))
    fam = finite_family([h])
    exact = brute_force_stability(h, 0.4)
    est = mc_stability(fam, 0.4, 6000, seed=6)
    assert abs(est.estimate - exact) <= 4 * est.stderr


def test_mc_stderr_shrinks_with_samples():
    small = mc_stability(bit_sampling_family(8), 0.5, 1000, seed=7)
    large = mc_stability(bit_sampling_family(8), 0.5, 4000, seed=7)
    assert large.stderr < small.stderr
    assert small.stderr / large.stderr == pytest.approx(2.0, rel=0.25)


def test_mc_needs_enough_samples():
    with pytest.raises(ValueError):
        mc_stability(bit_sampling_family(4), 0.5, 50, seed=0)


def test_mc_deterministic_given_seed():
    fam = bit_sampling_family(10)
    a = mc_stability(fam, 0.3, 2000, seed=9)
    b = mc_stability(fam, 0.3, 2000, seed=9)
    assert a == b


def test_mc_curve():
    curve = mc_stability_curve(bit_sampling_family(9), [0.0, 0.5], 1500, seed=10)
    assert len(curve.stderr) == len(curve.grid)
    assert curve.values[0] == 1.0
    expected = (1 + math.exp(-0.5)) / 2
    assert abs(curve.values[1] - expected) <= 4 * curve.stderr[1]


def test_mc_curve_seeds_do_not_share_streams():
    # Seeds 0 and 7919 once shared streams: grid point i + 1 of seed 0
    # replayed grid point i of seed 7919, so on a grid of one repeated t the
    # second curve was the first shifted by one. Point 0 keeps mc_stability's.
    fam = bit_sampling_family(10)
    a = mc_stability_curve(fam, [0.5] * 4, 1000, seed=0)
    b = mc_stability_curve(fam, [0.5] * 4, 1000, seed=7919)
    assert a.values[1:] != b.values[:-1]
    assert a.values[0] == mc_stability(fam, math.exp(-0.5), 1000, seed=0).estimate


def test_stream_refuses_keys_outside_64_bits():
    # Keys were once masked to 64 bits, so seed -5 replayed seed 2^64 - 5,
    # and seed 2^64 replayed seed 0. Both ends of [0, 2^64) are keys.
    for seed, substream in ((-5, 0), (1 << 64, 0), (0, -1), (0, 1 << 64)):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            rngmod.stream(seed, substream)
    top = (1 << 64) - 1
    draws = {tuple(rngmod.stream(s, t).integers(0, 1 << 62, 4)) for s, t in ((0, 0), (top, 0), (0, top), (top, top))}
    assert len(draws) == 4


# ---------------------------------------------------------------------------
# exact Binomial tails


def test_log_factorial_matches_lgamma():
    # Every n up to 5000, across the switch from the table (n < 32) to the
    # series, then seeded large n.
    g = np.random.default_rng(20)
    ns = np.concatenate([np.arange(5001), g.integers(5001, 10**7, 200)])
    got = _log_factorial(ns.astype(np.float64))
    for n, v in zip(ns.tolist(), got.tolist()):
        want = math.lgamma(n + 1)
        assert abs(v - want) <= 4 * math.ulp(want), n
    assert _log_factorial(20) == math.lgamma(21)  # a scalar, as _binom_logpmf passes d


def test_tails_match_exact_sums():
    mpmath.mp.prec = 200
    for d in (1, 2, 5, 17, 31, 32, 33, 60):
        for eta in (1e-3, 0.1, 0.5, 0.77, 0.999):
            e = mpmath.mpf(eta)  # the float's exact value
            pmf = [mpmath.binomial(d, j) * e**j * (1 - e) ** (d - j) for j in range(d + 1)]
            for thr in range(d + 1):
                above = float(mpmath.fsum(pmf[thr + 1 :]))
                below = float(mpmath.fsum(pmf[:thr]))
                assert binomial_tail_above(d, eta, thr) == pytest.approx(above, rel=1e-12, abs=0)
                assert binomial_tail_below(d, eta, thr) == pytest.approx(below, rel=1e-12, abs=0)


def test_tails_match_scipy():
    for d, eta in ((100, 0.2), (1000, 0.01), (5000, 0.003)):
        for thr in (0, 1, 5, 15, d // 2):
            assert binomial_tail_above(d, eta, thr) == pytest.approx(
                float(sps.binom.sf(thr, d, eta)), rel=1e-10, abs=1e-300
            )
            assert binomial_tail_below(d, eta, thr) == pytest.approx(
                float(sps.binom.cdf(thr - 1, d, eta)), rel=1e-10, abs=1e-300
            )
    # The chernoff-domination suite's ledger points.
    for c in (1.5, 2.0, 5.0):
        for d in (2000, 20000):
            for q in (0.05, 0.25):
                for delta in (0.002, 0.004):
                    led = chernoff_ledger(c, d, q, delta)
                    r, cr = (led.epsilon / c) * d, led.epsilon * d
                    assert binomial_tail_above(d, led.eta1, r) == pytest.approx(
                        float(sps.binom.sf(math.floor(r), d, led.eta1)), rel=1e-10, abs=1e-300
                    )
                    assert binomial_tail_below(d, led.eta2, cr) == pytest.approx(
                        float(sps.binom.cdf(math.ceil(cr) - 1, d, led.eta2)), rel=1e-10, abs=1e-300
                    )


@pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
def test_tails_exact_at_the_boundaries(eta):
    d = 10
    # Thresholds below 0, at d and above d: empty or full ranges.
    assert binomial_tail_above(d, eta, -1) == 1.0
    assert binomial_tail_above(d, eta, -0.5) == 1.0
    assert binomial_tail_above(d, eta, d) == 0.0
    assert binomial_tail_above(d, eta, d + 5) == 0.0
    assert binomial_tail_below(d, eta, 0) == 0.0
    assert binomial_tail_below(d, eta, -3) == 0.0
    assert binomial_tail_below(d, eta, d + 0.5) == 1.0
    assert binomial_tail_below(d, eta, d + 5) == 1.0
    if eta != 0.3:
        # All the mass sits at 0 (eta = 0) or at d (eta = 1).
        assert binomial_tail_above(d, eta, 2) == eta
        assert binomial_tail_above(d, eta, d - 1) == eta
        assert binomial_tail_below(d, eta, 2) == 1 - eta
        assert binomial_tail_below(d, eta, d) == 1 - eta


def test_tails_no_underflow_at_large_d():
    v = binomial_tail_above(5000, 0.001, 60)
    assert 0 < v < 1e-30  # far tail computed in log space


def test_tail_probabilities_zero_time():
    est = tail_probabilities(1000, 0.0, 5, 10)
    assert est.above_r == 0.0
    assert est.below_cr == 1.0


def test_tail_probabilities_exact_example():
    # d=1000, eta=0.01 corresponds to t = -ln(1 - 0.02)
    t = -math.log1p(-0.02)
    est = tail_probabilities(1000, t, 15, 5)
    assert est.above_r == pytest.approx(float(sps.binom.sf(15, 1000, 0.01)), rel=1e-9)


def test_tail_probabilities_validates():
    with pytest.raises(ValueError):
        tail_probabilities(100, 0.1, 200, 5)
    with pytest.raises(ValueError):
        tail_probabilities(100, -0.1, 5, 10)


def test_exact_tails_below_chernoff_bounds():
    for c in (1.5, 3.0):
        for d in (5000, 50000):
            for delta in (0.001, 0.004):
                led = chernoff_ledger(c, d, 0.2, delta)
                e1 = binomial_tail_above(d, led.eta1, (led.epsilon / c) * d)
                e2 = binomial_tail_below(d, led.eta2, led.epsilon * d)
                assert e1 <= led.e1_chernoff() <= led.e1_bound
                assert e2 <= led.e2_chernoff() <= led.e2_bound


# ---------------------------------------------------------------------------
# sandwich


def test_sandwich_bit_sampling_exact():
    fam = bit_sampling_family(12)
    prof = exact_sensitivity(fam, 2, 4)
    spec = family_spectrum(fam)
    for u in (0.1, 0.3, 1.0):
        rep = verify_sandwich(fam, 2, 4, u, prof.p, prof.q)
        assert rep.passed
        assert rep.lower <= rep.k_value <= rep.upper
        # The spectrum, taken once, stands in for the family in exact mode.
        assert verify_sandwich(spec, 2, 4, u, prof.p, prof.q) == rep


def test_sandwich_trivial_family_q_zero():
    fam = trivial_family(6, 1)
    prof = exact_sensitivity(fam, 1, 2)
    assert prof.q == 0
    for u in (0.2, 0.8):
        rep = verify_sandwich(fam, 1, 2, u, prof.p, prof.q)
        assert rep.passed
        # with q = 0 the upper side is exactly the near-distance mass
        assert rep.upper == rep.tail_below_cr
        assert rep.k_value <= rep.tail_below_cr


def test_sandwich_large_u_is_loose_but_holds():
    fam = bit_sampling_family(10)
    prof = exact_sensitivity(fam, 1, 3)
    rep = verify_sandwich(fam, 1, 3, 30.0, prof.p, prof.q)
    assert rep.passed
    # K decays to the weight at the empty set (1/2 for bit sampling) while
    # the lower side collapses toward 0
    assert rep.k_value == pytest.approx(0.5, abs=1e-6)
    assert rep.lower < 0.05


def test_sandwich_detects_false_profile():
    # at small u almost no pair exceeds r, so an inflated p pushes the lower
    # side above the true stability
    fam = bit_sampling_family(12)
    rep = verify_sandwich(fam, 2, 4, 0.02, 0.9999, 0.6667)
    assert not rep.passed

