"""Cross-module invariant suites, runnable from the command line.

Each suite re-derives a mathematical guarantee two independent ways and
compares: Parseval mass, transform-vs-enumeration stability, log-convexity
of stability curves, the two-sided stability sandwich, and domination of
exact Binomial tails by their Chernoff bounds. A corrupt hook perturbs one
intermediate quantity so the harness can prove a failure is reported by
name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as rngmod
from .bounds import chernoff_ledger
from .hashing import (
    ExplicitTable,
    bit_sampling_family,
    exact_sensitivity,
    finite_family,
    trivial_family,
)
from .sampling import binomial_tail_above, binomial_tail_below, verify_sandwich
from .spectral import (
    brute_force_stability,
    check_log_convexity,
    family_spectrum,
    fourier_spectrum,
    stability,
    stability_curve,
    stability_ratio,
)

@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _random_table_function(g: np.random.Generator, d: int, n_labels: int) -> ExplicitTable:
    return ExplicitTable(d, tuple(int(v) for v in g.integers(0, n_labels, size=1 << d)))


def _random_family(g: np.random.Generator, d: int):
    m = int(g.integers(1, 5))
    fns = [_random_table_function(g, d, int(g.integers(2, 9))) for _ in range(m)]
    raw = g.random(m) + 0.1
    return finite_family(fns, [float(w) for w in raw / raw.sum()])


def suite_parseval(seed: int, corrupt: bool = False) -> SuiteResult:
    g = rngmod.stream(seed, 11)
    worst = 0.0
    for _ in range(30):
        d = int(g.integers(2, 9))
        spec = fourier_spectrum(_random_table_function(g, d, 8))
        total = spec.total_mass()
        if corrupt:
            total += 1e-6
            corrupt = False
        worst = max(worst, abs(total - 1.0))
    return SuiteResult("parseval", worst <= 1e-10, f"max |total mass - 1| = {worst:.3e}")


def suite_oracle_equivalence(seed: int, corrupt: bool = False) -> SuiteResult:
    g = rngmod.stream(seed, 12)
    worst = 0.0
    for _ in range(15):
        d = int(g.integers(4, 9))
        h = _random_table_function(g, d, 8)
        spec = fourier_spectrum(h)
        for rho in (0.0, 0.25, 0.5, 0.9, 1.0):
            a = stability(spec, rho)
            b = brute_force_stability(h, rho)
            if corrupt:
                a += 1e-6
                corrupt = False
            worst = max(worst, abs(a - b))
    return SuiteResult(
        "oracle-equivalence", worst <= 1e-9, f"max |spectral - enumerated| = {worst:.3e}"
    )


def suite_log_convexity(seed: int, corrupt: bool = False) -> SuiteResult:
    g = rngmod.stream(seed, 13)
    grid = np.linspace(0.0, 3.0, 21)
    worst = -math.inf
    ratio_floor = math.inf
    for _ in range(25):
        d = int(g.integers(2, 9))
        spectrum = family_spectrum(_random_family(g, d))
        curve = stability_curve(spectrum, grid)
        if corrupt:
            values = list(curve.values)
            values[10] = min(1.0, values[10] * 1.01)
            curve = type(curve)(
                grid=curve.grid, values=tuple(values), provenance=curve.provenance
            )
            corrupt = False
        cert = check_log_convexity(curve)
        worst = max(worst, cert.worst_rel_slack)
        if curve.values[1] < 1:  # nonconstant family
            for c in (1.1, 2.0, 5.0):
                for t in (0.1, 0.5, 1.0):
                    ratio_floor = min(ratio_floor, stability_ratio(spectrum, t, c) * c)
    passed = worst <= 1e-9 and ratio_floor >= 1 - 1e-9
    return SuiteResult(
        "log-convexity",
        passed,
        f"worst midpoint slack = {worst:.3e}, min c*ratio = {ratio_floor:.12f}",
    )


def suite_sandwich(seed: int, corrupt: bool = False) -> SuiteResult:
    reports = []
    fam = bit_sampling_family(12)
    prof = exact_sensitivity(fam, 2, 4)
    for u in (0.1, 0.3, 1.0):
        # Corrupt: near pairs always collide (p = 1), which breaks the lower side at u = 0.1.
        p = 1.0 if corrupt else prof.p
        corrupt = False
        reports.append(verify_sandwich(fam, 2, 4, u, p, prof.q))
    triv = trivial_family(6, 1)
    tprof = exact_sensitivity(triv, 1, 2)
    for u in (0.1, 0.3, 1.0):
        reports.append(verify_sandwich(triv, 1, 2, u, tprof.p, tprof.q))
    passed = all(r.passed for r in reports)
    margin = min(min(r.k_value - r.lower, r.upper - r.k_value) for r in reports)
    return SuiteResult("sandwich", passed, f"min slack across {len(reports)} checks = {margin:.3e}")


def suite_chernoff_domination(seed: int, corrupt: bool = False) -> SuiteResult:
    worst = -math.inf
    n_checks = 0
    for c in (1.5, 2.0, 5.0):
        for d in (2000, 20000):
            for q in (0.05, 0.25):
                for delta in (0.002, 0.004):
                    led = chernoff_ledger(c, d, q, delta)
                    exact1 = binomial_tail_above(d, led.eta1, (led.epsilon / c) * d)
                    exact2 = binomial_tail_below(d, led.eta2, led.epsilon * d)
                    if corrupt:
                        exact1 = led.e1_bound + 1e-3
                        corrupt = False
                    worst = max(
                        worst,
                        exact1 - led.e1_chernoff(),
                        exact1 - led.e1_bound,
                        exact2 - led.e2_chernoff(),
                        exact2 - led.e2_bound,
                    )
                    n_checks += 1
    return SuiteResult(
        "chernoff-domination",
        worst <= 0.0,
        f"max (exact tail - bound) over {n_checks} grid points = {worst:.3e}",
    )


_SUITE_FNS = {
    "parseval": suite_parseval,
    "oracle-equivalence": suite_oracle_equivalence,
    "log-convexity": suite_log_convexity,
    "sandwich": suite_sandwich,
    "chernoff-domination": suite_chernoff_domination,
}
SUITES = tuple(_SUITE_FNS)


def run_suites(
    names=None, seed: int = rngmod.DEFAULT_SEED, corrupt: Optional[str] = None
) -> list[SuiteResult]:
    if names is None or names == ["all"]:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in _SUITE_FNS:
            raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
        results.append(_SUITE_FNS[name](seed, corrupt=(corrupt == name)))
    return results


def format_report(results: list[SuiteResult], seed: int) -> str:
    lines = [f"verification report (seed {seed})"]
    for r in results:
        lines.append(f"suite {r.name}: {'PASS' if r.passed else 'FAIL'} ({r.detail})")
    lines.append(f"overall: {'PASS' if all(r.passed for r in results) else 'FAIL'}")
    return "\n".join(lines) + "\n"
