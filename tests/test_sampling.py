import math

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
    binomial_tail_above,
    binomial_tail_below,
    correlated_bits,
    correlated_pair,
    jaccard_of_correlated_sets,
    mc_stability,
    mc_stability_curve,
    tail_probabilities,
    verify_sandwich,
)
from lshlab.spectral import brute_force_stability, family_spectrum, stability


# ---------------------------------------------------------------------------
# correlated pairs


def test_rho_one_copies_x():
    pair = correlated_pair(64, 1.0, seed=0)
    assert pair.x == pair.y


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
    assert correlated_pair(50, 0.3, seed=7) == correlated_pair(50, 0.3, seed=7)


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
    assert curve.provenance == "monte-carlo"
    assert curve.values[0] == 1.0
    expected = (1 + math.exp(-0.5)) / 2
    assert abs(curve.values[1] - expected) <= 4 * curve.stderr[1]


# ---------------------------------------------------------------------------
# exact Binomial tails


def test_tails_match_scipy():
    for d, eta in ((100, 0.2), (1000, 0.01), (5000, 0.003)):
        for thr in (0, 1, 5, 15, d // 2):
            assert binomial_tail_above(d, eta, thr) == pytest.approx(
                float(sps.binom.sf(thr, d, eta)), rel=1e-10, abs=1e-300
            )
            assert binomial_tail_below(d, eta, thr) == pytest.approx(
                float(sps.binom.cdf(thr - 1, d, eta)), rel=1e-10, abs=1e-300
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


def test_tail_probabilities_mc_agrees():
    t = 0.05
    exact = tail_probabilities(2000, t, 60, 30)
    mc = tail_probabilities(2000, t, 60, 30, mode="mc", n_samples=40000, seed=12)
    assert abs(mc.above_r - exact.above_r) <= 4 * mc.above_stderr + 1e-9
    assert abs(mc.below_cr - exact.below_cr) <= 4 * mc.below_stderr + 1e-9


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
    for u in (0.1, 0.3, 1.0):
        rep = verify_sandwich(fam, 2, 4, u, prof.p, prof.q)
        assert rep.passed
        assert rep.lower <= rep.k_value <= rep.upper


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


def test_sandwich_mc_mode():
    fam = bit_sampling_family(12)
    prof = exact_sensitivity(fam, 2, 4)
    rep = verify_sandwich(fam, 2, 4, 0.3, prof.p, prof.q, mode="mc", n_samples=4000, seed=13)
    assert rep.passed
    assert rep.k_stderr > 0


def test_sandwich_detects_false_profile():
    # at small u almost no pair exceeds r, so an inflated p pushes the lower
    # side above the true stability
    fam = bit_sampling_family(12)
    rep = verify_sandwich(fam, 2, 4, 0.02, 0.9999, 0.6667)
    assert not rep.passed


# ---------------------------------------------------------------------------
# Jaccard view of correlated sets


def test_jaccard_zero_time():
    js = jaccard_of_correlated_sets(500, 0.0, 200, seed=14)
    assert js.mean == 0.0 and js.maximum == 0.0


def test_jaccard_small_time_prediction():
    js = jaccard_of_correlated_sets(10**5, 0.1, 300, seed=15)
    assert js.predicted == pytest.approx(0.1 / 1.05, abs=1e-12)
    assert abs(js.mean - js.predicted) <= 3 * js.stderr


def test_jaccard_moderate_time_prediction():
    js = jaccard_of_correlated_sets(10**5, 0.5, 300, seed=16)
    assert js.predicted == pytest.approx(0.4, abs=1e-12)
    assert abs(js.mean - js.predicted) <= 3 * js.stderr


def test_jaccard_validates():
    with pytest.raises(ValueError):
        jaccard_of_correlated_sets(100, 2.5, 10, seed=0)
