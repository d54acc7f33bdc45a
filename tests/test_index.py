import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lshlab import rng as rngmod
from lshlab.annindex import (
    IndexParams,
    QueryTrace,
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
from lshlab.points import Point, hamming, points_to_bit_matrix


def _profile(r, cr, p, q):
    rho = math.log(1 / p) / math.log(1 / q)
    return SensitivityProfile(r=r, cr=cr, p=p, q=q, rho=rho)


def _random_points(n, d, seed):
    g = rngmod.stream(seed, 0)
    return [Point.random(d, g) for _ in range(n)]


# ---------------------------------------------------------------------------
# Reference: one dict-of-lists table per function, probed table by table.


def _ref_labels(fn, bits):
    """fn's labels, packed from its parts one part at a time in Python ints."""
    labels, scale = [0] * len(bits), 1
    for part in fn.parts:
        labels = [lab + int(v) * scale for lab, v in zip(labels, part.labels(bits))]
        scale *= part.label_bound
    return labels


def _ref_tables(functions, points):
    """Table t maps each label of g_t to the ids of the points carrying it, in id order."""
    bits = points_to_bit_matrix(points)
    tables = []
    for fn in functions:
        table = {}
        for i, lab in enumerate(_ref_labels(fn, bits)):
            table.setdefault(lab, []).append(i)
        tables.append(table)
    return tables


def _ref_query(idx, tables, points, x):
    """Probe x's bucket in each table in order and stop at the first point
    within cr, or when the next candidate would pass the cap."""
    k, cr, cap = idx.params.k, idx.params.cr, idx.candidate_cap
    inspected = 0
    for ti, (fn, table) in enumerate(zip(idx.functions, tables)):
        for i in table.get(_ref_labels(fn, points_to_bit_matrix([x]))[0], []):
            if inspected >= cap:
                return QueryTrace(None, inspected, ti + 1, k * (ti + 1))
            inspected += 1
            dist = hamming(x, points[i])
            if dist <= cr:
                return QueryTrace((i, dist), inspected, ti + 1, k * (ti + 1))
    return QueryTrace(None, inspected, len(tables), k * len(tables))


def _buckets(idx):
    """The index's sorted tables read back as dicts: key -> ids."""
    tables = []
    for t in range(idx.params.L):
        lo, hi = idx.table_starts[t], idx.table_starts[t + 1]
        assert all(idx.keys[u] < idx.keys[u + 1] for u in range(lo, hi - 1))
        tables.append({
            int(idx.keys[u]): idx.ids[idx.offsets[u] : idx.offsets[u + 1]].tolist()
            for u in range(lo, hi)
        })
    return tables


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


def test_plan_rounds_radii_down_past_float_droop():
    # (61 / 7) * 7 is 60.99999999999999, which int() would cut to 60.
    assert plan(20, bit_sampling_profile(128, 7, 61 / 7), 0.1).cr == 61
    assert plan(20, bit_sampling_profile(128, 3, 1.5), 0.1).cr == 4


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
    for table in _buckets(idx):
        assert sum(len(b) for b in table.values()) == 1


def test_build_is_deterministic():
    pts = _random_points(60, 24, seed=5)
    params = IndexParams(r=2, cr=6, k=8, L=6, delta=0.1, seed=3)
    a = build(pts, bit_sampling_family(24), params)
    b = build(pts, bit_sampling_family(24), params)
    assert _buckets(a) == _buckets(b)
    assert a.functions == b.functions


def test_build_takes_rows_or_points():
    pts = _random_points(60, 24, seed=5)
    params = IndexParams(r=2, cr=6, k=8, L=6, delta=0.1, seed=3)
    a = build(pts, bit_sampling_family(24), params)
    b = build(points_to_bit_matrix(pts), bit_sampling_family(24), params)
    assert _buckets(a) == _buckets(b)
    assert np.array_equal(a.rows, b.rows) and a.functions == b.functions
    for bad in (points_to_bit_matrix(pts) * 2, points_to_bit_matrix(pts).astype(bool), points_to_bit_matrix(pts)[0]):
        with pytest.raises(ValueError, match="0/1 uint8 rows"):
            build(bad, bit_sampling_family(24), params)
    with pytest.raises(ValueError, match="dimension 25, the points 24"):
        build(pts, bit_sampling_family(25), params)


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
    assert _buckets(idx) == _ref_tables(idx.functions, pts)


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
    # Far from every stored copy but in its bucket of table 0: the cap stops
    # the scan inside table 0, before the second table is probed.
    fn = idx.functions[0]
    coords = {p.coord for p in fn.parts}
    decoy = Point(sum(1 << i for i in range(12) if i not in coords), 12)
    assert hamming(decoy, near) > 2
    trace = query_traced(idx, decoy)
    assert trace == QueryTrace(None, idx.candidate_cap, 1, 3)
    assert trace == _ref_query(idx, _ref_tables(idx.functions, pts), pts, decoy)


def test_query_cap_at_a_table_boundary():
    # Six far copies in the decoy's bucket of both tables: table 0 fills the
    # cap exactly, and the first refused candidate is table 1's.
    pts = [Point(0, 40)] * 6
    idx = build(pts, bit_sampling_family(40), IndexParams(r=1, cr=2, k=3, L=2, delta=0.1, seed=2))
    used = {p.coord for fn in idx.functions for p in fn.parts}
    decoy = Point(sum(1 << i for i in range(40) if i not in used), 40)
    assert hamming(decoy, pts[0]) > 2
    trace = query_traced(idx, decoy)
    assert trace == QueryTrace(None, 6, 2, 6)
    assert trace == _ref_query(idx, _ref_tables(idx.functions, pts), pts, decoy)


def test_query_inspects_the_last_candidate_under_the_cap():
    # L = 1, cap 3: two far points fill the bucket ahead of the near one.
    params = IndexParams(r=1, cr=2, k=2, L=1, delta=0.1, seed=4)
    (fn,) = build([Point(0, 16)], bit_sampling_family(16), params).functions
    far = Point(sum(1 << i for i in range(16) if i not in {p.coord for p in fn.parts}), 16)
    idx = build([far, far, Point(0, 16)], bit_sampling_family(16), params)
    assert query_traced(idx, Point(0, 16)) == QueryTrace((2, 0), 3, 1, 2)


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


@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_array_index_matches_dict_reference(data):
    # Duplicate and all-identical points (buckets past the cap), a MinHash
    # base (label columns, not the projection product) and k > 63 (keys
    # past int64, held as Python ints).
    d = data.draw(st.integers(2, 20), label="d")
    family = data.draw(st.sampled_from([bit_sampling_family(d), minhash_family(d)]), label="family")
    k = data.draw(st.one_of(st.integers(1, 6), st.integers(64, 70)), label="k")
    L = data.draw(st.integers(1, 6), label="L")
    value = st.integers(0, (1 << d) - 1)
    n = data.draw(st.integers(1, 40), label="n")
    if data.draw(st.booleans(), label="identical"):
        values = [data.draw(value)] * n
    else:
        values = data.draw(st.lists(value, min_size=n, max_size=n), label="values")
    pts = [Point(v, d) for v in values]
    cr = data.draw(st.integers(1, d), label="cr")
    params = IndexParams(r=cr - 1, cr=cr, k=k, L=L, delta=0.1, seed=data.draw(st.integers(0, 99)))
    idx = build(pts, family, params)

    tables = _ref_tables(idx.functions, pts)
    assert _buckets(idx) == tables
    assert all(ids == sorted(ids) for table in tables for ids in table.values())
    st_ = stats(idx)
    assert st_.total_entries == n * L
    assert st_.max_bucket == max(len(ids) for table in tables for ids in table.values())

    stored = [pts[data.draw(st.integers(0, n - 1))] for _ in range(3)]
    planted = [
        p.flip(data.draw(st.sets(st.integers(0, d - 1), max_size=cr), label="flips")) for p in stored
    ]
    random_ = [Point(data.draw(value), d) for _ in range(3)]
    # Off every coordinate a table samples: in the stored point's bucket
    # there, yet possibly far from it, which is how a probe reaches the cap.
    used = [{part.coord for part in fn.parts} for fn in idx.functions] if family.law is None else []
    decoys = [p.flip(set(range(d)) - coords) for p, coords in zip(stored, used + [set().union(*used)])]
    for x in stored + planted + random_ + decoys:
        assert query_traced(idx, x) == _ref_query(idx, tables, pts, x)


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
    assert _buckets(clone) == _buckets(idx)
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
    doc.update(version=1, dim=8, tables=[{str(lab): ids for lab, ids in t.items()} for t in _buckets(idx)])
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
