import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lshlab import rng as rngmod
from lshlab.annindex import (
    IndexParams,
    build,
    load_index,
    plan,
    planted_experiment,
    query,
    query_traced,
    save_index,
    stats,
)
from lshlab.hashing import (
    SensitivityProfile,
    bit_sampling_family,
    bit_sampling_profile,
    minhash_family,
    power,
)
from lshlab.points import Point, hamming


def _profile(r, cr, p, q):
    rho = math.log(1 / p) / math.log(1 / q)
    return SensitivityProfile(r=r, cr=cr, p=p, q=q, rho=rho)


def _random_points(n, d, seed):
    g = rngmod.stream(seed, 0)
    return [Point.random(d, g) for _ in range(n)]


# ---------------------------------------------------------------------------
# planning


def test_plan_worked_example():
    params = plan(10**4, _profile(1, 2, 0.9, 0.8), 0.1)
    assert params.k == 42
    assert params.L == 193
    assert params.predicted_p_k == pytest.approx(0.9**42, rel=1e-12)


def test_plan_q_exactly_inverse_n():
    params = plan(1000, _profile(1, 2, 0.5, 1 / 1000), 0.1)
    assert params.k == 1


def test_plan_rejects_tiny_q():
    with pytest.raises(ValueError, match="k = 1"):
        plan(1000, _profile(1, 2, 0.5, 1 / 2000), 0.1)


def test_plan_validates_delta():
    prof = _profile(1, 2, 0.9, 0.8)
    with pytest.raises(ValueError):
        plan(100, prof, 0.0)
    with pytest.raises(ValueError):
        plan(100, prof, 1.0)


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(10, 10**6),
    p=st.floats(0.3, 0.99),
    gap=st.floats(0.05, 0.5),
)
def test_plan_powered_collision_rate_meets_target(n, p, gap):
    q = p * (1 - gap)
    if q < 1 / n:
        return
    prof = _profile(1, 2, p, q)
    params = plan(n, prof, 0.1)
    # k drives the far rate below 1/n, and p^k stays above (n/q)^{-rho}
    assert q**params.k <= 1 / n * (1 + 1e-9)
    assert params.predicted_p_k >= (n / q) ** (-prof.rho) * (1 - 1e-9)


# ---------------------------------------------------------------------------
# build


def test_build_single_point():
    params = IndexParams(r=1, cr=2, k=3, L=4, delta=0.1, seed=0)
    idx = build([Point.from01("0101")], bit_sampling_family(4), params)
    for table in idx.tables:
        assert sum(len(b) for b in table.values()) == 1


def test_build_is_deterministic():
    pts = _random_points(60, 24, seed=5)
    params = IndexParams(r=2, cr=6, k=8, L=6, delta=0.1, seed=3)
    a = build(pts, bit_sampling_family(24), params)
    b = build(pts, bit_sampling_family(24), params)
    assert a.tables == b.tables
    assert a.functions == b.functions


def test_build_entry_count_invariant():
    pts = _random_points(150, 32, seed=6)
    params = IndexParams(r=2, cr=6, k=10, L=7, delta=0.1, seed=4)
    idx = build(pts, bit_sampling_family(32), params)
    st_ = stats(idx)
    assert st_.total_entries == 150 * 7
    assert st_.n_tables == 7
    assert st_.max_bucket >= 1


def test_build_rejects_mixed_dimensions():
    params = IndexParams(r=1, cr=2, k=2, L=2, delta=0.1, seed=0)
    pts = [Point(0, 4), Point(0, 5)]
    with pytest.raises(ValueError):
        build(pts, bit_sampling_family(4), params)


def test_build_fast_path_matches_generic_labels():
    pts = _random_points(40, 16, seed=7)
    params = IndexParams(r=1, cr=4, k=5, L=3, delta=0.1, seed=9)
    idx = build(pts, bit_sampling_family(16), params)
    for fn, table in zip(idx.functions, idx.tables):
        rebuilt = {}
        for i, pt in enumerate(pts):
            rebuilt.setdefault(fn(pt), []).append(i)
        assert rebuilt == table


# ---------------------------------------------------------------------------
# queries


def test_query_returns_stored_point():
    pts = _random_points(30, 20, seed=8)
    params = IndexParams(r=1, cr=3, k=4, L=5, delta=0.1, seed=1)
    idx = build(pts, bit_sampling_family(20), params)
    result = query(idx, pts[7])
    assert result is not None
    pid, dist = result
    assert dist == 0 or hamming(pts[7], pts[pid]) <= 3


def test_query_respects_candidate_cap():
    # every point identical: buckets of size n in every table
    pts = [Point(0, 12)] * 50
    params = IndexParams(r=1, cr=2, k=3, L=4, delta=0.1, seed=2)
    idx = build(pts, bit_sampling_family(12), params)
    far = Point((1 << 12) - 1, 12)
    trace = query_traced(idx, far)
    assert trace.result is None
    assert trace.candidates_inspected <= idx.candidate_cap
    near = Point(0, 12)
    trace = query_traced(idx, near)
    assert trace.result == (0, 0)  # first stored copy, probe order
    assert trace.candidates_inspected == 1


def test_query_never_returns_far_point():
    pts = _random_points(80, 24, seed=9)
    params = IndexParams(r=2, cr=5, k=6, L=8, delta=0.1, seed=3)
    idx = build(pts, bit_sampling_family(24), params)
    g = rngmod.stream(77, 0)
    for _ in range(40):
        x = Point.random(24, g)
        res = query(idx, x)
        if res is not None:
            pid, dist = res
            assert hamming(x, pts[pid]) == dist <= 5


def test_query_dimension_check():
    pts = _random_points(5, 10, seed=10)
    params = IndexParams(r=1, cr=2, k=2, L=2, delta=0.1, seed=0)
    idx = build(pts, bit_sampling_family(10), params)
    with pytest.raises(ValueError):
        query(idx, Point(0, 11))


# ---------------------------------------------------------------------------
# serialization


def test_save_load_reproduces_queries(tmp_path):
    pts = _random_points(60, 28, seed=11)
    params = plan(60, bit_sampling_profile(28, 2, 2.5), 0.2, seed=5)
    idx = build(pts, bit_sampling_family(28), params)
    path = tmp_path / "index.json"
    save_index(idx, path)
    clone = load_index(path)
    assert clone.params == idx.params
    assert clone.tables == idx.tables
    g = rngmod.stream(78, 0)
    for _ in range(25):
        x = Point.random(28, g)
        assert query_traced(clone, x) == query_traced(idx, x)


def test_save_is_byte_stable(tmp_path):
    pts = _random_points(20, 16, seed=12)
    params = IndexParams(r=1, cr=4, k=4, L=3, delta=0.1, seed=6)
    idx = build(pts, bit_sampling_family(16), params)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_index(idx, p1)
    save_index(build(pts, bit_sampling_family(16), params), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        load_index(path)


@pytest.mark.parametrize("bad_id", [-1, 20])
def test_load_rejects_out_of_range_ids(tmp_path, bad_id):
    # The stored functions name coordinates; one outside [0, d) is refused
    # rather than rebuilt into tables that index past the point.
    pts = _random_points(20, 8, seed=12)
    idx = build(pts, bit_sampling_family(8), IndexParams(r=1, cr=3, k=2, L=3, delta=0.1, seed=6))
    path = tmp_path / "index.json"
    save_index(idx, path)
    doc = json.loads(path.read_text())
    doc["functions"][1]["parts"][0]["i"] = bad_id
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="out of range"):
        load_index(path)


def test_load_rejects_version_1(tmp_path):
    # Version 1 stored the tables; version 2 rebuilds them on load and has
    # the only reader.
    pts = _random_points(20, 8, seed=12)
    idx = build(pts, bit_sampling_family(8), IndexParams(r=1, cr=3, k=2, L=3, delta=0.1, seed=6))
    path = tmp_path / "index.json"
    save_index(idx, path)
    doc = json.loads(path.read_text())
    doc.update(version=1, dim=8, tables=[{str(lab): ids for lab, ids in t.items()} for t in idx.tables])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="rebuild the index with index-build"):
        load_index(path)


def test_index_works_with_minhash_family(tmp_path):
    # any samplable family plugs into the same reduction
    pts = _random_points(40, 12, seed=13)
    params = IndexParams(r=1, cr=4, k=3, L=6, delta=0.2, seed=7)
    idx = build(pts, minhash_family(12), params)
    assert stats(idx).total_entries == 40 * 6
    res = query(idx, pts[0])
    assert res is not None and res[1] == 0


# ---------------------------------------------------------------------------
# planted experiment


def test_planted_experiment_small():
    rep = planted_experiment(n=400, d=64, r=4, c=2.0, delta=0.1, n_queries=60, seed=21)
    assert rep.success_rate >= 0.85
    assert rep.max_inspected <= rep.candidate_cap + 1
    assert rep.total_entries == 400 * rep.L
    assert rep.cr == 8


def test_planted_experiment_deterministic():
    a = planted_experiment(n=120, d=32, r=2, c=2.0, delta=0.2, n_queries=20, seed=22)
    b = planted_experiment(n=120, d=32, r=2, c=2.0, delta=0.2, n_queries=20, seed=22)
    assert a == b
