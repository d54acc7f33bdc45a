import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lshlab import rng as rngmod
from lshlab.annindex import (
    BUILD_BLOCK_ENTRIES,
    IndexParams,
    NNIndex,
    QueryTrace,
    build,
    load_index,
    plan,
    planted_experiment,
    query,
    query_traced,
    save_index,
    scan_traced,
    stats,
)
from lshlab.hashing import (
    Concatenation,
    CoordinateProjection,
    MinHashPermutation,
    Parity,
    SensitivityProfile,
    bit_sampling_family,
    bit_sampling_profile,
    finite_family,
    function_descriptor,
    minhash_family,
    power,
)
from lshlab.points import Point, hamming, points_to_bit_matrix


def _built(idx):
    """The index, its tables built: the first read of keys builds keys, offsets and ids."""
    idx.keys
    return idx


def _row(x):
    """The point as a (d,) 0/1 uint8 row, as scan_traced takes a query."""
    return points_to_bit_matrix([x])[0]


def _profile(r, cr, p, q):
    rho = math.log(1 / p) / math.log(1 / q)
    return SensitivityProfile(r=r, cr=cr, p=p, q=q, rho=rho)


def _random_points(n, d, seed):
    g = rngmod.stream(seed, 0)
    return [Point.random(d, g) for _ in range(n)]


# ---------------------------------------------------------------------------
# Reference: one dict-of-lists table per function, probed table by table.


def _functions(idx):
    """The index's L functions as Concatenations of their parts."""
    return [Concatenation(tuple(idx.parts[j] for j in row)) for row in idx.table.tolist()]


def _ref_labels(functions, bits):
    """Each function's labels of the rows of bits, packed from its leaves
    (nested parts flattened) one at a time in Python ints; each distinct
    leaf is evaluated once."""
    parts, out = {}, []
    for fn in functions:
        labels, scale = [0] * len(bits), 1
        for part in fn._leaves:
            if part not in parts:
                parts[part] = part.labels(bits)[:, 0].tolist()
            labels = [lab + v * scale for lab, v in zip(labels, parts[part])]
            scale *= part.label_bound
        out.append(labels)
    return out


def _ref_tables(functions, points):
    """Table t maps each label of g_t to the ids of the points carrying it, in id order."""
    tables = []
    for labels in _ref_labels(functions, points_to_bit_matrix(points)):
        table = {}
        for i, lab in enumerate(labels):
            table.setdefault(lab, []).append(i)
        tables.append(table)
    return tables


def _ref_query(idx, tables, points, x, labels=None):
    """Probe x's bucket in each table in order and stop at the first point
    within cr, or when the next candidate would pass the cap. `labels`, if
    given, holds x's label under each function."""
    k, cr, cap = idx.params.k, idx.params.cr, idx.candidate_cap
    if labels is None:
        labels = [lab for (lab,) in _ref_labels(_functions(idx), points_to_bit_matrix([x]))]
    inspected = 0
    for ti, (label, table) in enumerate(zip(labels, tables)):
        for i in table.get(label, []):
            if inspected >= cap:
                return QueryTrace(None, inspected, ti + 1, k * (ti + 1))
            inspected += 1
            dist = hamming(x, points[i])
            if dist <= cr:
                return QueryTrace((i, dist), inspected, ti + 1, k * (ti + 1))
    return QueryTrace(None, inspected, len(tables), k * len(tables))


def _label_from_words(value, fn):
    """The label _ref_labels packs for fn, from fn's label words read as one
    integer: each part's label is a mixed-radix digit of its word, and a
    new word starts whenever the next part's bound would carry the word
    past 2^64."""
    label, radix, word, scale = 0, 1, value % (1 << 64), 1
    for part in fn._leaves:
        b = part.label_bound
        if scale * b > 1 << 64:
            value >>= 64
            word, scale = value % (1 << 64), 1
        label += word // scale % b * radix
        radix *= b
        scale *= b
    return label


def _buckets(idx):
    """The index's sorted tables read back as dicts: label -> ids. A key is
    its function's label words with the table number t as one more most
    significant digit, of radix L: t * M + label, M the largest label_bound,
    when the top word's bound times L fits a word, else t in a word of its
    own above the label's W words."""
    functions = _functions(idx)
    W = max(fn.width for fn in functions)
    M = max(fn.label_bound for fn in functions)
    shared = (M >> 64 * (W - 1)) * idx.params.L <= 1 << 64
    size = idx.keys.dtype.itemsize
    assert size == 8 * (W if shared else W + 1)
    raw = idx.keys.tobytes()
    values = [int.from_bytes(raw[u * size : (u + 1) * size], "big") for u in range(len(idx.keys))]
    assert all(idx.keys[u] < idx.keys[u + 1] for u in range(len(values) - 1))
    assert values == sorted(set(values))
    tables = [{} for _ in range(idx.params.L)]
    for u, value in enumerate(values):
        t, label = divmod(value, M if shared else 1 << 64 * W)
        tables[t][_label_from_words(label, functions[t])] = idx.ids[idx.offsets[u] : idx.offsets[u + 1]].tolist()
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
    assert _functions(a) == _functions(b)


def test_build_takes_rows_or_points():
    pts = _random_points(60, 24, seed=5)
    params = IndexParams(r=2, cr=6, k=8, L=6, delta=0.1, seed=3)
    a = build(pts, bit_sampling_family(24), params)
    b = build(points_to_bit_matrix(pts), bit_sampling_family(24), params)
    assert _buckets(a) == _buckets(b)
    assert np.array_equal(a.rows, b.rows) and _functions(a) == _functions(b)
    for bad in (points_to_bit_matrix(pts) * 2, points_to_bit_matrix(pts).astype(bool), points_to_bit_matrix(pts)[0]):
        with pytest.raises(ValueError, match="0/1 uint8 rows"):
            build(bad, bit_sampling_family(24), params)
    with pytest.raises(ValueError, match="dimension 25, the points 24"):
        build(pts, bit_sampling_family(25), params)


def test_changed_point_matrix_after_build_changes_nothing(tmp_path):
    # The index packs the caller's matrix once and never reads it again, so
    # changing the matrix after build changes no answer, count or file.
    pts = _random_points(200, 32, seed=8)
    bits = points_to_bit_matrix(pts)
    params = IndexParams(r=2, cr=6, k=8, L=10, delta=0.1, seed=2)
    idx = build(bits, bit_sampling_family(32), params)
    ref = build(bits.copy(), bit_sampling_family(32), params)
    bits[:] = 1 - bits
    assert stats(idx) == stats(ref)
    save_index(idx, tmp_path / "changed.json")
    save_index(ref, tmp_path / "untouched.json")
    assert (tmp_path / "changed.json").read_bytes() == (tmp_path / "untouched.json").read_bytes()
    assert scan_traced(idx, _row(pts[5])).result == (5, 0)
    assert query_traced(idx, pts[5]).result == (5, 0)
    assert stats(idx) == stats(_built(ref))


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
    assert _buckets(idx) == _ref_tables(_functions(idx), pts)


def _mixed_tables(pts):
    # Tables of one repeated part, two buckets each, alternate with tables of
    # all 16 coordinates, whose labels tell the points apart: a block of
    # distinct keys moves down over the duplicate keys of the block before it.
    parts = [CoordinateProjection(16, c) for c in range(16)]
    table = [[0] * 16 if t % 2 else list(range(16)) for t in range(6)]
    return NNIndex(IndexParams(r=1, cr=3, k=16, L=6, delta=0.1, seed=0), parts, table, points_to_bit_matrix(pts))


def _sampled(family, k, L):
    return lambda pts: build(pts, family, IndexParams(r=1, cr=3, k=k, L=L, delta=0.1, seed=5))


@pytest.mark.parametrize("pts, make, per_block, size", [
    (_random_points(50, 128, seed=40), _sampled(bit_sampling_family(128), 57, 92), 20, 8),
    (_random_points(50, 40, seed=41), _sampled(bit_sampling_family(40), 70, 9), 2, 16),
    (_random_points(20, 16, seed=42) * 2, _sampled(bit_sampling_family(16), 64, 2), 1, 16),
    (_random_points(30, 24, seed=43) * 10, _sampled(bit_sampling_family(24), 8, 7), 2, 8),
    (_random_points(60, 12, seed=44), _sampled(minhash_family(12), 3, 11), 9, 8),
    (_random_points(40, 16, seed=45), _mixed_tables, 1, 8),
], ids=["one-word", "two-word", "table-word", "repeated-10", "minhash", "mixed"])
def test_blocks_of_tables_build_the_one_block_index(monkeypatch, pts, make, per_block, size):
    # The default block holds every table here; blocks of per_block tables
    # (of per_block / k for MinHash, whose blocks count leaf labels) split
    # the build into 2 to 7 blocks, which must give the same bytes.
    blocks = []
    build_block = NNIndex._build_block
    monkeypatch.setattr(NNIndex, "_build_block", lambda self, *args: blocks.append(args[2]) or build_block(self, *args))
    whole = _built(make(pts))
    assert len(blocks) == 1
    monkeypatch.setattr("lshlab.annindex.BUILD_BLOCK_ENTRIES", per_block * len(pts))
    idx = _built(make(pts))
    assert 2 <= len(blocks) - 1 <= 7
    assert idx.keys.dtype.itemsize == size and idx.keys.tobytes() == whole.keys.tobytes()
    assert idx.offsets.tobytes() == whole.offsets.tobytes() and idx.ids.tobytes() == whole.ids.tobytes()
    # The bucket counts read the same blocks' sorted labels and build nothing.
    unbuilt, built_blocks = make(pts), len(blocks)
    assert stats(unbuilt) == stats(whole) and len(blocks) == built_blocks and "keys" not in vars(unbuilt)
    tables = _ref_tables(_functions(idx), pts)
    assert _buckets(idx) == tables
    queries = pts[:6] + _random_points(6, idx.dim, seed=46)
    traces = [query_traced(whole, x) for x in queries]
    assert [query_traced(idx, x) for x in queries] == traces
    # The scan reads the label matches in the same blocks.
    assert [scan_traced(idx, _row(x)) for x in queries] == traces


def test_blocks_label_each_leaf_once(monkeypatch):
    # A block labels only the leaves its own tables use.
    calls = []
    labels = MinHashPermutation._labels
    monkeypatch.setattr(MinHashPermutation, "_labels", lambda self, bits: calls.append(self) or labels(self, bits))
    monkeypatch.setattr("lshlab.annindex.BUILD_BLOCK_ENTRIES", 9 * 60)
    idx = _built(build(_random_points(60, 12, seed=44), minhash_family(12), IndexParams(r=1, cr=3, k=3, L=11, delta=0.1, seed=5)))
    assert len(calls) == len(idx.parts) == len(set(calls))


def _traced_build(bits, params):
    family = bit_sampling_family(bits.shape[1])
    tracemalloc.start()
    try:
        idx = _built(build(bits, family, params))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return idx, peak - sum(a.nbytes for a in (idx.keys, idx.offsets, idx.ids))


def test_build_memory_is_the_tables_and_one_block():
    # The benchmark's shape is one block: past the kept arrays, the build
    # holds the projection product's chunks and one table's argsort order at
    # a time, about 1.5 MiB traced, against 3.4 MiB when the labels, their
    # order, a gathered copy and the bucket starts were all held at once.
    bits = np.random.default_rng(3).integers(0, 2, size=(2000, 128), dtype=np.uint8)
    idx, extra = _traced_build(bits, IndexParams(r=8, cr=16, k=57, L=92, delta=0.1, seed=1))
    assert len(idx.ids) == 2000 * 92 <= BUILD_BLOCK_ENTRIES
    assert extra <= 16 * len(idx.ids)  # one block's words and order


def test_build_memory_stays_blocked(monkeypatch):
    # Blocks of 4 tables at n = 2^12: past the kept arrays, a block's words
    # and order and the projection product's two 512 KiB float64 blocks.
    monkeypatch.setattr("lshlab.annindex.BUILD_BLOCK_ENTRIES", 4 << 12)
    bits = np.random.default_rng(4).integers(0, 2, size=(1 << 12, 128), dtype=np.uint8)
    idx, extra = _traced_build(bits, IndexParams(r=8, cr=16, k=57, L=92, delta=0.1, seed=1))
    assert len(idx.keys) == 92 << 12
    assert extra <= 16 * (4 << 12) + (1 << 20)


def test_census_memory_is_below_the_build():
    # At n = 2^12 all 92 tables are one block. The count holds its label
    # words, sorted in place, a bool per entry and int32 bucket starts:
    # about 4.1 MiB traced, against 7.5 MiB for the table build.
    bits = np.random.default_rng(4).integers(0, 2, size=(1 << 12, 128), dtype=np.uint8)
    idx = build(bits, bit_sampling_family(128), IndexParams(r=8, cr=16, k=57, L=92, delta=0.1, seed=1))
    assert len(idx._blocks()) == 1
    peaks = []
    for step in (stats, _built):
        assert "keys" not in vars(idx)  # the count builds nothing
        tracemalloc.start()
        try:
            step(idx)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


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
    fn = _functions(idx)[0]
    coords = {p.coord for p in fn.parts}
    decoy = Point(sum(1 << i for i in range(12) if i not in coords), 12)
    assert hamming(decoy, near) > 2
    trace = query_traced(idx, decoy)
    assert trace == QueryTrace(None, idx.candidate_cap, 1, 3)
    assert trace == _ref_query(idx, _ref_tables(_functions(idx), pts), pts, decoy)


def test_query_cap_at_a_table_boundary():
    # Six far copies in the decoy's bucket of both tables: table 0 fills the
    # cap exactly, and the first refused candidate is table 1's.
    pts = [Point(0, 40)] * 6
    idx = build(pts, bit_sampling_family(40), IndexParams(r=1, cr=2, k=3, L=2, delta=0.1, seed=2))
    used = {p.coord for fn in _functions(idx) for p in fn.parts}
    decoy = Point(sum(1 << i for i in range(40) if i not in used), 40)
    assert hamming(decoy, pts[0]) > 2
    trace = query_traced(idx, decoy)
    assert trace == QueryTrace(None, 6, 2, 6)
    assert trace == _ref_query(idx, _ref_tables(_functions(idx), pts), pts, decoy)


def test_query_inspects_the_last_candidate_under_the_cap():
    # L = 1, cap 3: two far points fill the bucket ahead of the near one.
    params = IndexParams(r=1, cr=2, k=2, L=1, delta=0.1, seed=4)
    (fn,) = _functions(build([Point(0, 16)], bit_sampling_family(16), params))
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
    with pytest.raises(ValueError, match="query dimension 11 differs from index"):
        scan_traced(idx, np.zeros(11, dtype=np.uint8))
    # A query is a (d,) 0/1 uint8 row, as the index's points are: not 2x
    # one, not its floats, and not a (1, d) matrix.
    row = _row(pts[3])
    assert scan_traced(idx, row).result == (3, 0)
    for bad in (2 * row, row.astype(np.float64), row[None]):
        with pytest.raises(ValueError, match=r"need the query as a \(d,\) 0/1 uint8 row"):
            scan_traced(idx, bad)


@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_array_index_matches_dict_reference(data):
    # Duplicate and all-identical points (buckets past the cap), a MinHash
    # base (label columns, not the projection product), and keys of one to
    # ten words: k near 64 and 128, with L past 128 for projections, so
    # that the table number and the label straddle a word boundary.
    d = data.draw(st.integers(2, 20), label="d")
    # Bit sampling, MinHash, a power of bit sampling (parts that are
    # concatenations), and a weighted family, whose atom numbers
    # sample_power draws by their weights; only MinHash, a law, draws
    # function objects.
    weighted = finite_family([CoordinateProjection(d, 0), Parity(d, (0, d - 1)), CoordinateProjection(d, d - 1)],
                             [0.5, 0.25, 0.25])
    families = [bit_sampling_family(d), minhash_family(d), power(bit_sampling_family(d), 2), weighted]
    family = data.draw(st.sampled_from(families), label="family")
    k = data.draw(st.one_of(st.integers(1, 6), st.integers(56, 70), st.integers(120, 130)), label="k")
    # Other queries label all L*k parts, so only projections get L > 128.
    projections = family.atoms is not None and all(
        isinstance(p, CoordinateProjection) for _, h in family.atoms for p in h._leaves
    )
    wide = st.one_of(st.integers(1, 6), st.integers(129, 136)) if projections else st.integers(1, 6)
    L = data.draw(wide, label="L")
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

    tables = _ref_tables(_functions(idx), pts)
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
    used = [{part.coord for part in fn._leaves} for fn in _functions(idx)] if projections else []
    decoys = [p.flip(set(range(d)) - coords) for p, coords in zip(stored, used + [set().union(*used)])]
    queries = stored + planted + random_ + decoys
    labels = _ref_labels(_functions(idx), points_to_bit_matrix(queries))
    for i, x in enumerate(queries):
        trace = query_traced(idx, x)
        assert trace == _ref_query(idx, tables, pts, x, [lab[i] for lab in labels])
        assert scan_traced(idx, _row(x)) == trace


@pytest.mark.parametrize("k", [1, 2])
def test_buckets_hold_ascending_ids_when_keys_repeat(k):
    # With k = 1 each table has two keys, so every bucket is a long run of
    # equal keys whose ids the unstable key sort leaves in any order.
    pts = _random_points(700, 9, seed=5) * 2
    params = IndexParams(r=1, cr=3, k=k, L=12, delta=0.1, seed=2)
    idx = build(pts, bit_sampling_family(9), params)
    assert _buckets(idx) == _ref_tables(_functions(idx), pts)
    assert all(np.all(np.diff(idx.ids[lo:hi]) > 0) for lo, hi in zip(idx.offsets[:-1], idx.offsets[1:]))


@pytest.mark.parametrize("family, k, L", [
    (bit_sampling_family(12), 70, 5), (minhash_family(12), 70, 5), (minhash_family(12), 16, 130),
], ids=["bit-sampling", "minhash", "minhash-L130"])
def test_duplicate_points_in_two_word_keys(family, k, L):
    # Keys of two words or more: 70 parts, or 16 MinHash parts (60 bits)
    # under 8 bits of table number. Every point is stored three times, so
    # each bucket is a run of equal keys whose ids the sort over several
    # words must still leave ascending.
    pts = _random_points(50, 12, seed=14) * 3
    idx = build(pts, family, IndexParams(r=1, cr=3, k=k, L=L, delta=0.1, seed=3))
    assert idx.keys.dtype.itemsize >= 16
    tables = _ref_tables(_functions(idx), pts)
    assert _buckets(idx) == tables
    assert stats(idx).max_bucket >= 3
    queries = pts[:5] + _random_points(5, 12, seed=15)
    labels = _ref_labels(_functions(idx), points_to_bit_matrix(queries))
    for i, x in enumerate(queries):
        assert query_traced(idx, x) == _ref_query(idx, tables, pts, x, [lab[i] for lab in labels])


@pytest.mark.parametrize("k", [40, 70])
@pytest.mark.parametrize("low", [CoordinateProjection(8, 0), Parity(8, (0,))], ids=["projection", "parity"])
def test_keys_whose_low_bytes_are_zero(k, low):
    # The first 16 parts read coordinate 0, which no stored point sets, so
    # every label's low two bytes are zero, and the zero point's key in
    # table 0 is zero throughout. numpy drops trailing zero bytes from an S
    # value; keys must still sort, compare and match at their full width.
    # A Parity part sends the labels through the LabelStack path.
    parts = [low] + [CoordinateProjection(8, c) for c in range(1, 8)]
    table = [[0] * 16 + [1 + (t + j) % 7 for j in range(k - 16)] for t in range(3)]
    pts = [Point(v, 8) for v in (0, 2, 4, 6, 254, 128, 2, 0)]
    idx = NNIndex(IndexParams(r=1, cr=2, k=k, L=3, delta=0.1, seed=0), parts, table, points_to_bit_matrix(pts))
    assert idx.keys.dtype.itemsize == (8 if k == 40 else 16)
    tables = _ref_tables(_functions(idx), pts)
    assert _buckets(idx) == tables
    for x in pts + [Point(1, 8), Point(255, 8), Point(3, 8)]:
        assert query_traced(idx, x) == _ref_query(idx, tables, pts, x)


@pytest.mark.parametrize("k, L, size", [(64, 1, 8), (64, 2, 16), (57, 128, 8), (57, 129, 16)])
def test_table_digit_at_the_word_boundary(k, L, size):
    # The table number shares the top label word while (top bound) * L fits
    # 2^64: 2^64 * 1 and 2^57 * 128 do, 2^64 * 2 and 2^57 * 129 do not, and
    # then it takes a zero word of its own above the label.
    pts = _random_points(20, 16, seed=31) * 2
    idx = build(pts, bit_sampling_family(16), IndexParams(r=1, cr=3, k=k, L=L, delta=0.1, seed=6))
    assert idx.keys.dtype.itemsize == size
    tables = _ref_tables(_functions(idx), pts)
    assert _buckets(idx) == tables
    for x in pts[:20]:
        assert query_traced(idx, x) == _ref_query(idx, tables, pts, x)


# ---------------------------------------------------------------------------
# one-shot queries from label matches


@pytest.mark.parametrize("pts, make, cap_hit", [
    (_random_points(50, 128, seed=50), _sampled(bit_sampling_family(128), 57, 92), False),
    (_random_points(50, 40, seed=51), _sampled(bit_sampling_family(40), 70, 9), False),
    (_random_points(50, 40, seed=61), _sampled(bit_sampling_family(40), 260, 5), False),
    (_random_points(50, 100, seed=60), _sampled(bit_sampling_family(100), 59, 20), False),
    (_random_points(20, 16, seed=52) * 2, _sampled(bit_sampling_family(16), 64, 1), False),
    (_random_points(20, 16, seed=52) * 2, _sampled(bit_sampling_family(16), 64, 2), False),
    (_random_points(100, 24, seed=53), _sampled(bit_sampling_family(24), 1, 12), True),
    (_random_points(60, 64, seed=54), _sampled(minhash_family(64), 6, 40), False),
    (_random_points(40, 16, seed=55), _mixed_tables, True),
    (_random_points(30, 24, seed=56) * 10, _sampled(bit_sampling_family(24), 8, 7), True),
    (_random_points(50, 12, seed=57) * 3, _sampled(minhash_family(12), 3, 11), True),
    ([Point(5, 12)] * 50, _sampled(bit_sampling_family(12), 3, 4), True),
], ids=["k57", "k70-d40", "k260-d40", "k59-d100", "k64-L1", "k64-L2", "k1", "minhash", "mixed", "repeated-10",
        "minhash-repeated-3", "identical"])
def test_scan_of_a_loaded_index_is_the_table_query(tmp_path, pts, make, cap_hit):
    # A loaded index answers from label matches without building its tables,
    # and every trace is the table query's on the built index: stored
    # points, stored points with a few bits flipped, random points, and
    # decoys that share a stored point's bucket in table 0 but little else.
    # At d = 100 a point packs into two words with 28 padding bits, and
    # k = 59 labels in 32-bit limbs; k = 260 labels take five words. The
    # loaded index's bucket counts, read off its sorted labels, are the
    # built tables'.
    idx = _built(make(pts))
    # A built index holds its points packed only: no 0/1 matrix.
    assert not [v for v in vars(idx).values() if isinstance(v, np.ndarray) and v.dtype == np.uint8]
    save_index(idx, tmp_path / "index.json")
    clone = load_index(tmp_path / "index.json")
    built = stats(idx)
    assert stats(clone) == built
    assert built.approx_bytes == sum(a.nbytes for a in (idx.rows, idx.keys, idx.offsets, idx.ids))
    d = idx.dim
    g = rngmod.stream(58, 0)
    stored = pts[:6]
    planted = [p.flip(int(i) for i in g.choice(d, size=2, replace=False)) for p in stored]
    decoys = []
    if all(isinstance(p, CoordinateProjection) for p in _functions(idx)[0]._leaves):
        used = {p.coord for p in _functions(idx)[0]._leaves}
        decoys = [p.flip(set(range(d)) - used) for p in stored]
    queries = stored + planted + _random_points(6, d, seed=59) + decoys
    traces = [query_traced(idx, x) for x in queries]
    assert [scan_traced(clone, _row(x)) for x in queries] == traces
    assert "keys" not in vars(clone) and "ids" not in vars(clone)
    capped = [t for t in traces if t.result is None and t.candidates_inspected == idx.candidate_cap]
    assert bool(capped) == cap_hit


def test_scan_memory_stays_blocked(monkeypatch):
    # Blocks of 4 tables at n = 2^12, as test_build_memory_stays_blocked
    # builds them: a scan holds one block's match mask, the packed rows'
    # differences from the query in one word and those under the block's
    # coordinate bitmasks (uint64, 128 KiB), about 0.21 MB traced, against
    # 1.04 MB for one block of all 92 tables (and 0.73 MB when a float64
    # product of 0/1 mismatches counted them).
    monkeypatch.setattr("lshlab.annindex.BUILD_BLOCK_ENTRIES", 4 << 12)
    bits = np.random.default_rng(4).integers(0, 2, size=(1 << 12, 128), dtype=np.uint8)
    idx = build(bits, bit_sampling_family(128), IndexParams(r=8, cr=16, k=57, L=92, delta=0.1, seed=1))
    x = np.random.default_rng(5).integers(0, 2, size=128, dtype=np.uint8)
    assert len(idx._blocks()) == 23
    tracemalloc.start()
    try:
        trace = scan_traced(idx, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.tables_probed == 92 and "keys" not in vars(idx)
    assert peak <= 16 * (4 << 12) + (1 << 18)
    assert trace == query_traced(idx, Point.from01("".join(map(str, x))))


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


@pytest.mark.parametrize("family, k, L", [
    (bit_sampling_family(24), 57, 9), (bit_sampling_family(24), 70, 5), (minhash_family(24), 4, 6),
    (power(bit_sampling_family(6), 2), 3, 7),
    (finite_family([CoordinateProjection(24, 3), Parity(24, (0, 5))], [0.75, 0.25]), 5, 4),
], ids=["bit-sampling", "two-word-keys", "minhash", "nested-power", "weighted"])
def test_save_load_save_is_byte_identical(tmp_path, family, k, L):
    # The file numbers the parts in first-use order; the loaded index keeps
    # that numbering, so saving it again writes the same bytes, and its
    # tables and queries are the built index's.
    d = family.dim
    pts = _random_points(50, d, seed=16)
    idx = build(pts, family, IndexParams(r=1, cr=3, k=k, L=L, delta=0.1, seed=5))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_index(idx, first)
    clone = load_index(first)
    save_index(clone, second)
    assert first.read_bytes() == second.read_bytes()
    assert _functions(clone) == _functions(idx)
    assert np.array_equal(clone.table, json.loads(first.read_text())["functions"])
    assert clone.keys.tobytes() == idx.keys.tobytes()
    assert np.array_equal(clone.offsets, idx.offsets) and np.array_equal(clone.ids, idx.ids)
    for x in pts[:5] + _random_points(5, d, seed=17):
        assert query_traced(clone, x) == query_traced(idx, x)


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
    doc["parts"][0]["i"] = bad_id
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="out of range"):
        load_index(path)


def test_load_shares_equal_parts_and_checks_every_one(tmp_path):
    # 12 functions of 5 projections each on d = 6 name at most 6 distinct
    # parts; the file stores each once, and the loaded functions share one
    # object per stored part. A part equal in value but not an integer
    # ("i": 1.0) is still refused.
    pts = _random_points(30, 6, seed=13)
    idx = build(pts, bit_sampling_family(6), IndexParams(r=1, cr=3, k=5, L=12, delta=0.1, seed=8))
    path = tmp_path / "index.json"
    save_index(idx, path)
    doc = json.loads(path.read_text())
    assert len(doc["parts"]) <= 6
    clone = load_index(path)
    assert [fn.parts for fn in _functions(clone)] == [fn.parts for fn in _functions(idx)]
    by_number = {}
    for fn, row in zip(_functions(clone), doc["functions"]):
        for p, j in zip(fn.parts, row):
            assert by_number.setdefault(j, p) is p
    assert [function_descriptor(by_number[j]) for j in range(len(by_number))] == doc["parts"]
    assert len({id(p) for p in by_number.values()}) == len(doc["parts"])
    doc["parts"][-1]["i"] = float(doc["parts"][-1]["i"])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="must be an integer"):
        load_index(path)


def test_load_rejects_version_1(tmp_path):
    # Version 1 stored the tables and version 2 one descriptor per part of
    # every function; version 3 has the only reader.
    pts = _random_points(20, 8, seed=12)
    idx = build(pts, bit_sampling_family(8), IndexParams(r=1, cr=3, k=2, L=3, delta=0.1, seed=6))
    path = tmp_path / "index.json"
    save_index(idx, path)
    doc = json.loads(path.read_text())
    parts = doc.pop("parts")
    v2 = {**doc, "version": 2, "functions": [
        {"kind": "concat", "parts": [parts[j] for j in row]} for row in doc["functions"]
    ]}
    v1 = {**v2, "version": 1, "dim": 8, "tables": [{str(lab): ids for lab, ids in t.items()} for t in _buckets(idx)]}
    for old in (v1, v2):
        path.write_text(json.dumps(old))
        with pytest.raises(ValueError, match="rebuild the index with index-build"):
            load_index(path)


@pytest.mark.parametrize("case", ["negative", "past-the-end", "bool", "float", "short-row", "short-functions"])
def test_load_rejects_bad_part_numbers(tmp_path, case):
    # A part number is a JSON integer in [0, len(parts)): -1 must not read
    # the last part, and each row names exactly k parts, L rows in all.
    pts = _random_points(20, 8, seed=12)
    idx = build(pts, bit_sampling_family(8), IndexParams(r=1, cr=3, k=3, L=4, delta=0.1, seed=6))
    path = tmp_path / "index.json"
    save_index(idx, path)
    doc = json.loads(path.read_text())
    rows = doc["functions"]
    bad = {"negative": -1, "past-the-end": len(doc["parts"]), "bool": True, "float": 1.0}
    if case in bad:
        rows[0][0] = bad[case]
    elif case == "short-row":
        rows[0].pop()
    else:
        rows.pop()
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="index.json"):
        load_index(path)


@pytest.mark.parametrize("field, value", [
    ("delta", 5.0), ("delta", 0), ("delta", True), ("delta", "0.1"), ("delta", float("nan")),
    ("seed", -1), ("seed", 1.5), ("seed", 1 << 64), ("seed", True),
    ("n_planned", "abc"), ("n_planned", 0), ("n_planned", 20.0),
    ("predicted_p_k", True), ("predicted_p_k", "0.5"), ("predicted_p_k", float("inf")),
    ("planned_rho", "x"), ("planned_rho", False), ("planned_rho", float("nan")),
])
def test_load_rejects_bad_params(tmp_path, field, value):
    # delta is a real in (0, 1), seed an integer in [0, 2^64), n_planned None
    # or an integer >= 1, and predicted_p_k and planned_rho None or finite
    # reals, never bools.
    pts = _random_points(20, 8, seed=12)
    idx = build(pts, bit_sampling_family(8), IndexParams(r=1, cr=3, k=3, L=4, delta=0.1, seed=6))
    path = tmp_path / "index.json"
    save_index(idx, path)
    doc = json.loads(path.read_text())
    doc["params"][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"index.json: {field} must be"):
        load_index(path)


def test_params_accept_their_whole_ranges():
    for fields in (dict(delta=1e-300, seed=(1 << 64) - 1, n_planned=1, predicted_p_k=0.0, planned_rho=0),
                   dict(delta=0.5, seed=0, n_planned=None, predicted_p_k=None, planned_rho=None)):
        assert IndexParams(r=1, cr=3, k=3, L=4, **fields).seed == fields["seed"]


def test_index_refuses_functions_it_could_not_reload():
    # A table that is not L rows of k part numbers in [0, len(parts)) would
    # save a file that the loader refuses; the index refuses it when it is made.
    bits = points_to_bit_matrix(_random_points(10, 8, seed=12))
    params = IndexParams(r=1, cr=3, k=2, L=2, delta=0.1, seed=6)
    parts = [CoordinateProjection(8, 0), CoordinateProjection(8, 5)]
    NNIndex(params, parts, [[0, 1], [1, 1]], bits)
    for table, message in [
        ([[0, 1]], "need exactly L = 2 functions, got 1"),
        ([[0, 1], [1]], "function 1 is not a concatenation of k = 2 parts"),
        (np.zeros((2, 3), dtype=np.int64), "function 0 is not a concatenation of k = 2 parts"),
        ([[0, 1], [1, 2]], r"part numbers in \[0, 2\)"),
        ([[0, -1], [1, 1]], r"part numbers in \[0, 2\)"),
        (np.ones((2, 2), dtype=bool), r"part numbers in \[0, 2\)"),
        ([[0, 1.0], [1, 1]], r"part numbers in \[0, 2\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            NNIndex(params, parts, table, bits)


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
