"""Closed-form rho-parameter bounds and the Chernoff bookkeeping behind the
1/c lower bound.

Upper-bound reference curves: 1/c for coordinate sampling on the Hamming
cube (im), 1/c^2 for the Euclidean ball-carving families (ai), and
max(1/c^s, 1/c) for the p-stable constructions on l_s (diim). Lower bounds:
the (e^{1/c}-1)/(e^{1/c}+1) bound (mnp) and the sharp 1/c - K lambda^{1/3}
bound (main), where lambda(d, q) = (ln(2/q)/d) ln(d/ln(2/q)) and K is a free
universal constant. chernoff_ledger reproduces every intermediate quantity
of the concentration argument; delta_choice picks the slack that balances
the error terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence


def im_upper(c: float) -> float:
    """Limit rho of bit sampling: 1/c, approached as r/d -> 0."""
    if c < 1:
        raise ValueError("approximation factor c must be at least 1")
    return 1.0 / c


def im_rho(d: int, r: float, c: float) -> float:
    """Exact rho of bit sampling at finite r/d (always below 1/c)."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if r <= 0:
        raise ValueError("r must be positive")
    if c <= 1:
        raise ValueError("approximation factor c must exceed 1")
    if c * r >= d:
        raise ValueError(f"degenerate q: cr = {c * r} >= d = {d}")
    return math.log1p(-r / d) / math.log1p(-c * r / d)


def ai_upper(c: float) -> float:
    """Euclidean reference curve 1/c^2 (construction itself out of scope)."""
    if c < 1:
        raise ValueError("approximation factor c must be at least 1")
    return 1.0 / c**2


def diim_upper(c: float, s: float = 1.0) -> float:
    """l_s reference curve max(1/c^s, 1/c) (construction itself out of scope)."""
    if c < 1:
        raise ValueError("approximation factor c must be at least 1")
    if s <= 0:
        raise ValueError("exponent s must be positive")
    return max(1.0 / c**s, 1.0 / c)


def mnp_lower(c: float) -> float:
    """(e^{1/c} - 1)/(e^{1/c} + 1): at least .46/c, approaching 1/(2c)."""
    if c < 1:
        raise ValueError("approximation factor c must be at least 1")
    return math.expm1(1 / c) / (math.exp(1 / c) + 1)


def correction_scale(d: int, q: float) -> float:
    """lambda(d, q) = (ln(2/q)/d) ln(d/ln(2/q)); needs d/ln(2/q) >= 2."""
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    lg = math.log(2 / q)
    if d / lg < 2:
        raise ValueError(f"need d/ln(2/q) >= 2, got {d / lg:.4g}")
    return (lg / d) * math.log(d / lg)


def rho_lower_bound(c: float, d: int, q: float, big_k: float = 1.0) -> float:
    """max(0, 1/c - K lambda(d, q)^{1/3}): the sharp lower bound with the
    universal constant K left as a caller-supplied knob."""
    if c < 1:
        raise ValueError("approximation factor c must be at least 1")
    if big_k <= 0:
        raise ValueError("K must be positive")
    return max(0.0, 1 / c - big_k * correction_scale(d, q) ** (1 / 3))


def ls_transfer(bound_fn: Callable[[float], float], s: float) -> Callable[[float], float]:
    """Transfer a Hamming-cube bound to l_s by substituting c -> c^s
    (distances satisfy ||x-y||_s = ||x-y||_1^{1/s} on the cube)."""
    if s <= 0:
        raise ValueError("exponent s must be positive")

    def transferred(c: float) -> float:
        return bound_fn(c**s)

    return transferred


# ---------------------------------------------------------------------------
# The concentration ledger: with slack 0 < Delta < .005 set
#   epsilon = .005 Delta,  t = 2 epsilon (1 + Delta/2),  c' = c (1 + Delta),
# compare stabilities at times t/c' and t, and bound the two Binomial tail
# errors e_1 (distance exceeds (epsilon/c) d at time t/c') and e_2 (distance
# falls below epsilon d at time t).


@dataclass(frozen=True)
class ChernoffLedger:
    c: float
    d: int
    q: float
    q_folded: float
    fold_power: int
    delta: float
    epsilon: float
    t: float
    c_prime: float
    tau: float
    delta1: float
    eta1: float
    e1_bound: float
    delta2: float
    eta2: float
    e2_bound: float
    e_total: float
    lam: Optional[float]

    def e1_chernoff(self) -> float:
        """The multiplicative Chernoff form exp(-delta1^2/(2+delta1) eta1 d)."""
        return math.exp(-self.delta1**2 / (2 + self.delta1) * self.eta1 * self.d)

    def e2_chernoff(self) -> float:
        """The lower-tail Chernoff form exp(-delta2^2/2 eta2 d)."""
        return math.exp(-self.delta2**2 / 2 * self.eta2 * self.d)


def chernoff_ledger(c: float, d: int, q: float, delta: float) -> ChernoffLedger:
    if c <= 1:
        raise ValueError("approximation factor c must exceed 1")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if not 0 < delta < 0.005:
        raise ValueError(
            f"slack must satisfy 0 < Delta < .005, got {delta}; at .005 and above "
            "the bound trivializes (take K = (K1/.005)^3)"
        )
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")

    # The argument needs ln(1/q) >= 1. Concatenation sends (p, q) to
    # (p^j, q^j) without changing rho, so fold q below 1/e first.
    fold_power = max(1, math.ceil(1 / math.log(1 / q) - 1e-12))
    q_folded = q**fold_power

    epsilon = 0.005 * delta
    t = 2 * epsilon * (1 + delta / 2)
    c_prime = c * (1 + delta)
    tau = epsilon / c

    # Upper tail at time t/c': distance is Binomial(d, eta1).
    eta1 = -math.expm1(-t / c_prime) / 2
    delta1 = (2 * epsilon / c) / (-math.expm1(-t / c_prime)) - 1
    e1_bound = math.exp(-(delta**3) * d / (2000 * c))

    # Lower tail at time t: distance is Binomial(d, eta2).
    eta2 = -math.expm1(-t) / 2
    delta2 = 1 - 2 * epsilon / (-math.expm1(-t))
    e2_bound = math.exp(-(delta**3) * d / 2000)

    e_total = (
        delta / c
        + 1.01 * e1_bound / math.log(1 / q_folded)
        + e2_bound / (q_folded * math.log(1 / q_folded))
    )

    lg = math.log(2 / q)
    lam = correction_scale(d, q) if d / lg >= 2 else None

    return ChernoffLedger(
        c=c,
        d=d,
        q=q,
        q_folded=q_folded,
        fold_power=fold_power,
        delta=delta,
        epsilon=epsilon,
        t=t,
        c_prime=c_prime,
        tau=tau,
        delta1=delta1,
        eta1=eta1,
        e1_bound=e1_bound,
        delta2=delta2,
        eta2=eta2,
        e2_bound=e2_bound,
        e_total=e_total,
        lam=lam,
    )


@dataclass(frozen=True)
class DeltaChoice:
    value: float
    trivialized: bool


def delta_choice(c: float, d: int, q: float, k1: float = 1.0) -> DeltaChoice:
    """Delta = K1 c^{1/3} lambda(d, q)^{1/3}; flagged trivialized when it
    reaches .005, in which case the lower bound carries no information."""
    if c <= 1:
        raise ValueError("approximation factor c must exceed 1")
    if k1 <= 0:
        raise ValueError("K1 must be positive")
    value = k1 * c ** (1 / 3) * correction_scale(d, q) ** (1 / 3)
    return DeltaChoice(value=value, trivialized=value >= 0.005)


# ---------------------------------------------------------------------------
# Integer-rounding of the concatenation length in the near-neighbor
# reduction, with exponents read as exact decimals: p = n^{-p_exp},
# q = n^{-q_exp} gives k = ceil(1/q_exp) and a time exponent k p_exp that can
# exceed rho = p_exp/q_exp.


@dataclass(frozen=True)
class EffectiveExponents:
    k: int
    rho: float
    space_exp: float
    time_exp: float


def effective_exponents(p_exp: float, q_exp: float) -> EffectiveExponents:
    pe = Fraction(repr(float(p_exp)))
    qe = Fraction(repr(float(q_exp)))
    if not 0 < pe < qe:
        raise ValueError("need 0 < p_exp < q_exp")
    if qe > 1:
        rho = pe / qe
        raise ValueError(
            "q below 1/n: reduction degenerates; with no concatenation the direct "
            f"structure has space exponent {float(1 + pe)}, time exponent {float(pe)} "
            f"(rho = {float(rho)})"
        )
    k = math.ceil(1 / qe)
    return EffectiveExponents(
        k=k,
        rho=float(pe / qe),
        space_exp=float(1 + k * pe),
        time_exp=float(k * pe),
    )


# ---------------------------------------------------------------------------
# Comparison table


@dataclass(frozen=True)
class BoundRow:
    c: float
    im: float
    ai: float
    diim: float
    mnp: float
    main: float


BOUND_TABLE_HEADER = ("c", "im", "ai", "diim", "mnp", "main")


def bound_table(
    c_values: Sequence[float], d: int, q: float, big_k: float = 1.0, s: float = 1.0
) -> list[BoundRow]:
    rows = []
    for c in c_values:
        c = float(c)
        rows.append(
            BoundRow(
                c=c,
                im=im_upper(c),
                ai=ai_upper(c),
                diim=diim_upper(c, s),
                mnp=mnp_lower(c),
                main=rho_lower_bound(c, d, q, big_k),
            )
        )
    return rows
