"""Acceptance gate: one test per shipping criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lshlab import rng as rngmod
from lshlab.annindex import planted_experiment
from lshlab.bounds import (
    chernoff_ledger,
    correction_scale,
    effective_exponents,
    im_rho,
    im_upper,
    mnp_lower,
    rho_lower_bound,
)
from lshlab.cli import main as cli_main
from lshlab.hashing import (
    ExplicitTable,
    bit_sampling_family,
    exact_sensitivity,
    finite_family,
    power,
    trivial_family,
)
from lshlab.sampling import (
    binomial_tail_above,
    binomial_tail_below,
    verify_sandwich,
)
from lshlab.spectral import (
    brute_force_stability,
    check_log_convexity,
    family_spectrum,
    fourier_spectrum,
    stability,
    stability_curve,
    stability_ratio,
)

RHOS = (0.0, 0.25, 0.5, 0.9, 1.0)


def _report(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({name}): FAIL")
                raise
            print(f"criterion {number:2d} ({name}): PASS")

        return wrapper

    return decorate


def _random_tables(count, seed, d_lo=4, d_hi=10, n_labels=8):
    g = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d = int(g.integers(d_lo, d_hi + 1))
        out.append(ExplicitTable(d, tuple(int(v) for v in g.integers(0, n_labels, 1 << d))))
    return out


@_report(1, "oracle equivalence")
def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    for h in _random_tables(50, seed=101):
        spec = fourier_spectrum(h)
        for rho in RHOS:
            assert abs(stability(spec, rho) - brute_force_stability(h, rho)) <= 1e-9
    assert time.monotonic() - start < 30


@_report(2, "parseval")
def test_criterion_2_parseval():
    for h in _random_tables(50, seed=101):
        assert abs(fourier_spectrum(h).total_mass() - 1.0) <= 1e-10


@_report(3, "log-convexity and stability ratio")
def test_criterion_3_log_convexity():
    g = np.random.default_rng(303)
    grid = np.linspace(0.0, 3.0, 21)
    for _ in range(100):
        d = int(g.integers(2, 9))
        m = int(g.integers(1, 5))
        fns = [
            ExplicitTable(d, tuple(int(v) for v in g.integers(0, int(g.integers(2, 9)), 1 << d)))
            for _ in range(m)
        ]
        raw = g.random(m) + 0.1
        weights = [float(w) for w in raw / raw.sum()]
        weights[-1] = float(1 - math.fsum(weights[:-1]))
        fam = finite_family(fns, weights)
        spec = family_spectrum(fam)
        cert = check_log_convexity(stability_curve(spec, grid))
        assert cert.passed, cert
        if stability(spec, math.exp(-0.1)) >= 1:
            continue  # constant family: ratio undefined
        for c in (1.1, 2.0, 5.0):
            for t in (0.1, 0.5, 1.0):
                assert stability_ratio(spec, t, c) >= 1 / c - 1e-9


@_report(4, "bit-sampling exactness")
def test_criterion_4_bit_sampling_exact():
    for d in range(3, 15):
        fam = bit_sampling_family(d)
        for r in range(1, d):
            for cr in range(r + 1, d):
                prof = exact_sensitivity(fam, r, cr)
                assert prof.p_exact == Fraction(d - r, d)
                assert prof.q_exact == Fraction(d - cr, d)
                assert prof.p == (d - r) / d
                assert prof.q == (d - cr) / d
    assert im_rho(10**5, 1, 2) == pytest.approx(0.5, abs=1e-4)


@_report(5, "powering exactness")
def test_criterion_5_powering_exact():
    for d in range(2, 11):
        base = exact_sensitivity(bit_sampling_family(d), 1, 2)
        for k in (1, 2, 3):
            powered = power(bit_sampling_family(d), k)
            prof = exact_sensitivity(powered, 1, 2)
            assert prof.p_exact == base.p_exact**k
            assert prof.q_exact == base.q_exact**k
    # a second threshold pair away from the boundary
    base = exact_sensitivity(bit_sampling_family(10), 2, 5)
    prof = exact_sensitivity(power(bit_sampling_family(10), 3), 2, 5)
    assert prof.p_exact == base.p_exact**3
    assert prof.q_exact == base.q_exact**3


@_report(6, "bound reproduction")
def test_criterion_6_bound_values():
    assert mnp_lower(1.0) == pytest.approx(0.462117, abs=1e-6)
    assert 1000.0 * mnp_lower(1000.0) == pytest.approx(0.5, abs=1e-3)
    ee = effective_exponents(0.15, 0.3)
    assert ee.k == 4
    assert ee.time_exp == 0.6
    assert ee.space_exp == 1.6


@_report(7, "chernoff domination")
def test_criterion_7_chernoff_domination():
    grid = [
        (c, d, q, delta)
        for c in (1.5, 2.0, 3.0, 5.0, 8.0)
        for d in (2000, 10000)
        for q in (0.25,)
        for delta in (0.0005, 0.001, 0.002, 0.003, 0.0045)
    ]
    assert len(grid) == 50
    for c, d, q, delta in grid:
        led = chernoff_ledger(c, d, q, delta)
        e1 = binomial_tail_above(d, led.eta1, (led.epsilon / c) * d)
        e2 = binomial_tail_below(d, led.eta2, led.epsilon * d)
        assert e1 <= led.e1_bound
        assert e2 <= led.e2_bound
        assert e1 <= led.e1_chernoff()
        assert e2 <= led.e2_chernoff()


@_report(8, "stability sandwich")
def test_criterion_8_sandwich():
    fam = bit_sampling_family(12)
    prof = exact_sensitivity(fam, 2, 4)
    for u in (0.1, 0.3, 1.0):
        rep = verify_sandwich(fam, 2, 4, u, prof.p, prof.q)
        assert rep.passed, rep
    triv = trivial_family(6, 1)
    tprof = exact_sensitivity(triv, 1, 2)
    assert tprof.q == 0
    for u in (0.1, 0.3, 1.0):
        rep = verify_sandwich(triv, 1, 2, u, tprof.p, tprof.q)
        assert rep.passed, rep


@_report(9, "near-neighbor experiment")
def test_criterion_9_planted_experiment():
    start = time.monotonic()
    rep = planted_experiment(
        n=2000, d=128, r=8, c=2.0, delta=0.1, n_queries=200, seed=rngmod.DEFAULT_SEED
    )
    elapsed = time.monotonic() - start
    # planted_experiment itself asserts every returned point is within cr
    assert rep.success_rate >= 0.90, rep
    assert rep.max_inspected <= 3 * rep.L + 1
    assert rep.total_entries == rep.n * rep.L
    assert elapsed < 60


@_report(10, "headline bound as formula with free constant")
def test_criterion_10_headline_formula():
    # The universal statement is not checkable at desk scale (it quantifies
    # over all families, with an unpinned constant); criteria 3, 7 and 8
    # exercise each proof ingredient. Here: the closed form itself, with K
    # free, against independent arithmetic.
    for c, d, q, big_k in ((1.5, 10**6, 0.5, 1.0), (2.0, 10**8, 0.25, 3.0)):
        lam = (math.log(2 / q) / d) * math.log(d / math.log(2 / q))
        assert correction_scale(d, q) == pytest.approx(lam, rel=1e-12)
        expected = max(0.0, 1 / c - big_k * lam ** (1 / 3))
        assert rho_lower_bound(c, d, q, big_k) == pytest.approx(expected, rel=1e-12)
        assert rho_lower_bound(c, d, q, big_k) <= im_upper(c)
    # the correction vanishes with growing d, recovering 1/c
    assert rho_lower_bound(2.0, 10**15, 0.5, 1.0) == pytest.approx(0.5, abs=1e-4)


@_report(11, "determinism of the verification suite")
def test_criterion_11_verify_determinism(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert cli_main(["verify", "--seed", "1729", "--out", str(a)]) == 0
    assert cli_main(["verify", "--seed", "1729", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
