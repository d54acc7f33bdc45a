import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lshlab.bounds import (
    BOUND_TABLE_HEADER,
    ai_upper,
    bound_table,
    chernoff_ledger,
    correction_scale,
    delta_choice,
    diim_upper,
    effective_exponents,
    im_rho,
    im_upper,
    mnp_lower,
    rho_lower_bound,
)

# Frozen with 40-digit arithmetic.
MNP_AT_1 = 0.4621171572600097
MNP_AT_2 = 0.2449186624037091
LAMBDA_1000_HALF = 0.009123370958492634


def test_im_upper():
    assert im_upper(2.0) == 0.5
    assert im_upper(1.0) == 1.0
    with pytest.raises(ValueError):
        im_upper(0.5)


def test_im_rho_close_to_limit():
    assert im_rho(10**6, 10, 1.1) == pytest.approx(1 / 1.1, abs=1e-4)


def test_im_rho_always_below_limit():
    for d, r, c in ((100, 10, 2.0), (10**4, 3, 1.5), (10**6, 1, 4.0)):
        assert im_rho(d, r, c) < im_upper(c)


def test_mnp_values():
    assert mnp_lower(1.0) == pytest.approx(MNP_AT_1, abs=1e-12)
    assert mnp_lower(2.0) == pytest.approx(MNP_AT_2, abs=1e-12)


def test_mnp_approaches_half_over_c():
    assert 1000 * mnp_lower(1000.0) == pytest.approx(0.5, abs=1e-3)


def test_mnp_scaled_increasing_toward_half():
    cs = np.linspace(1, 100, 200)
    scaled = [c * mnp_lower(c) for c in cs]
    assert all(a < b for a, b in zip(scaled, scaled[1:]))
    assert scaled[-1] < 0.5


def test_gap_between_lower_and_upper():
    for c in (1.01, 1.5, 2.0, 10.0, 100.0):
        assert mnp_lower(c) < im_upper(c)


def test_correction_scale_value():
    assert correction_scale(1000, 0.5) == pytest.approx(LAMBDA_1000_HALF, abs=1e-15)


def test_correction_scale_precondition():
    with pytest.raises(ValueError):
        correction_scale(2, 0.5)  # d/ln(2/q) < 2
    with pytest.raises(ValueError):
        correction_scale(100, 0.0)


def test_correction_scale_decreasing_in_d():
    # (L/d) ln(d/L) peaks at d = eL and is strictly decreasing beyond it
    q = 0.5
    lo = int(math.e * math.log(2 / q)) + 1
    ds = np.unique(np.geomspace(lo, 10**6, 60).astype(int))
    vals = [correction_scale(int(d), q) for d in ds]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_rho_lower_bound_limit():
    assert rho_lower_bound(2.0, 10**12, 0.5) == pytest.approx(0.5, abs=1e-3)
    assert rho_lower_bound(2.0, 100, 0.5) >= 0.0  # clamped when the correction swamps 1/c
    for c in (1.5, 2.0, 5.0):
        assert rho_lower_bound(c, 10**6, 0.5) <= im_upper(c)


# ---------------------------------------------------------------------------
# Chernoff ledger


def test_ledger_exact_fields():
    led = chernoff_ledger(2.0, 10**6, 0.5, 0.004)
    assert led.epsilon == 0.005 * 0.004
    assert led.t == 2 * led.epsilon * (1 + 0.004 / 2)
    assert led.c_prime == 2.0 * 1.004
    assert led.tau == led.epsilon / 2.0
    assert led.e1_bound == math.exp(-(0.004**3) * 10**6 / (2000 * 2.0))
    assert led.e2_bound == math.exp(-(0.004**3) * 10**6 / 2000)
    assert led.e1_bound == pytest.approx(math.exp(-1.6e-5), abs=1e-15)


def test_ledger_folds_q_below_inverse_e():
    led = chernoff_ledger(2.0, 1000, 0.5, 0.002)
    assert led.fold_power == 2 and led.q_folded == 0.25
    led2 = chernoff_ledger(2.0, 1000, 0.3, 0.002)
    assert led2.fold_power == 1 and led2.q_folded == 0.3


def test_ledger_total_formula():
    led = chernoff_ledger(3.0, 5000, 0.2, 0.003)
    expected = (
        0.003 / 3.0
        + 1.01 * led.e1_bound / math.log(1 / 0.2)
        + led.e2_bound / (0.2 * math.log(1 / 0.2))
    )
    assert led.e_total == pytest.approx(expected, rel=1e-12)


def test_ledger_rejects_out_of_range_slack():
    with pytest.raises(ValueError, match="trivializes"):
        chernoff_ledger(2.0, 1000, 0.3, 0.005)
    with pytest.raises(ValueError):
        chernoff_ledger(2.0, 1000, 0.3, 0.0)
    with pytest.raises(ValueError):
        chernoff_ledger(0.9, 1000, 0.3, 0.001)


def test_small_slack_limit():
    led = chernoff_ledger(2.0, 1000, 0.25, 1e-7)
    assert led.e1_bound == pytest.approx(1.0, abs=1e-9)
    assert led.e2_bound == pytest.approx(1.0, abs=1e-9)
    # exponential terms dominate the Delta/c term
    assert led.e_total > 100 * (led.delta / led.c)


@settings(deadline=None, max_examples=60)
@given(
    c=st.floats(1.0001, 10.0),
    delta=st.floats(1e-6, 0.00499),
)
def test_ledger_intermediate_inequalities(c, delta):
    led = chernoff_ledger(c, 10**4, 0.25, delta)
    assert led.delta1 >= 0.498 * delta
    assert led.delta2 >= 0.49 * delta
    assert led.eta1 >= 0.98 * led.epsilon / c
    assert led.eta2 >= 0.99 * led.epsilon
    assert led.e1_chernoff() <= led.e1_bound
    assert led.e2_chernoff() <= led.e2_bound


def test_delta_choice_formula():
    lam = correction_scale(10**4, 0.5)
    dc = delta_choice(2.0, 10**4, 0.5)
    assert dc.value == 2.0 ** (1 / 3) * lam ** (1 / 3)
    assert dc.trivialized  # desk-scale d with K1 = 1 lands above .005


def test_delta_choice_limits():
    far = delta_choice(2.0, 10**14, 0.5)
    assert not far.trivialized and far.value < 0.005
    # q shrinking exponentially with d keeps the scale order one
    tiny_q = delta_choice(2.0, 1000, 2.0 ** (-100))
    assert tiny_q.trivialized


# ---------------------------------------------------------------------------
# rounding of the concatenation length


def test_effective_exponents_worked_example():
    ee = effective_exponents(0.15, 0.3)
    assert ee.k == 4
    assert ee.rho == 0.5
    assert ee.space_exp == 1.6
    assert ee.time_exp == 0.6


def test_effective_exponents_degenerate_q():
    with pytest.raises(ValueError, match="degenerates") as exc:
        effective_exponents(0.5, 1.5)
    msg = str(exc.value)
    assert "1.5" in msg and "0.5" in msg  # direct space/time exponents reported


def test_effective_exponents_no_powering_needed():
    ee = effective_exponents(0.4, 1.0)
    assert ee.k == 1
    assert ee.space_exp == 1.4


def test_effective_exponents_validate():
    with pytest.raises(ValueError):
        effective_exponents(0.5, 0.3)
    with pytest.raises(ValueError):
        effective_exponents(0.0, 0.3)


@settings(deadline=None, max_examples=80)
@given(
    p_exp=st.decimals(min_value="0.01", max_value="0.99", places=2),
    q_exp=st.decimals(min_value="0.02", max_value="1.00", places=2),
)
def test_rounding_penalty_nonnegative(p_exp, q_exp):
    p_exp, q_exp = float(p_exp), float(q_exp)
    if p_exp >= q_exp:
        return
    ee = effective_exponents(p_exp, q_exp)
    # the ceiling can only cost: k q_exp >= 1
    assert ee.time_exp >= ee.rho - 1e-12
    assert ee.space_exp >= 1 + ee.rho - 1e-12
    exact_k = 1 / q_exp
    if abs(exact_k - round(exact_k)) < 1e-9:
        assert ee.time_exp == pytest.approx(ee.rho, abs=1e-12)


# ---------------------------------------------------------------------------
# bound table


def test_bound_table_shape_and_header():
    rows = bound_table(np.linspace(1, 10, 19), 10**6, 0.5)
    assert len(rows) == 19
    assert BOUND_TABLE_HEADER == ("c", "im", "ai", "diim", "mnp", "main")


def test_bound_table_c_equal_one_row():
    row = bound_table([1.0], 10**6, 0.5)[0]
    assert row.im == 1.0 and row.ai == 1.0 and row.diim == 1.0
    assert row.mnp == pytest.approx(MNP_AT_1, abs=1e-12)
    assert row.main <= 1.0


def test_bound_table_columns_nonincreasing():
    rows = bound_table(np.linspace(1, 10, 25), 10**6, 0.5, s=2.0)
    for col in ("im", "ai", "diim", "mnp", "main"):
        vals = [getattr(r, col) for r in rows]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_bound_table_main_below_im():
    rows = bound_table(np.linspace(1.1, 8, 12), 10**4, 0.3, big_k=1.0)
    for r in rows:
        assert r.main <= r.im


def test_diim_reference():
    # below s = 1 the 1/c^s branch dominates; above it the 1/c branch does
    assert diim_upper(2.0, 0.5) == pytest.approx(2**-0.5, abs=1e-12)
    assert diim_upper(3.0, 2.0) == pytest.approx(1 / 3, abs=1e-12)
    assert ai_upper(3.0) == pytest.approx(1 / 9, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_are_rejected(bad):
    # Every comparison is NaN-safe: a NaN or infinite argument raises
    # instead of flowing into a table of NaN rows.
    calls = [
        lambda: im_upper(bad),
        lambda: ai_upper(bad),
        lambda: diim_upper(bad),
        lambda: diim_upper(2.0, bad),
        lambda: mnp_lower(bad),
        lambda: im_rho(100, bad, 2.0),
        lambda: im_rho(100, 2.0, bad),
        lambda: rho_lower_bound(bad, 10**6, 0.5),
        lambda: rho_lower_bound(2.0, 10**6, 0.5, big_k=bad),
        lambda: rho_lower_bound(2.0, 10**6, bad),
        lambda: chernoff_ledger(bad, 10**6, 0.5, 0.001),
        lambda: chernoff_ledger(2.0, 10**6, 0.5, bad),
        lambda: delta_choice(bad, 10**6, 0.5),
        lambda: delta_choice(2.0, 10**6, 0.5, k1=bad),
        lambda: bound_table([2.0], 10**6, 0.5, big_k=bad),
        lambda: bound_table([2.0], 10**6, 0.5, s=bad),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
