"""(r, c)-near-neighbor index built from any sensitive hash family.

Concatenating k draws drives the far-collision rate below 1/n, and L
independent tables push the near-pair success rate up to 1 - delta:
k = ceil(log_{1/q} n) and L = ceil(ln(1/delta) / p^k). A query probes its
bucket in every table and inspects at most 3L candidates; whatever it
returns has been distance-checked against cr, so a wrong answer is
impossible and only a miss is a failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .hashing import (
    Concatenation,
    DimensionMismatch,
    HashFamily,
    HashFunction,
    LabelStack,
    ProjectionProduct,
    SensitivityProfile,
    _as_keys,
    _pack,
    _snap,
    bit_sampling_family,
    bit_sampling_profile,
    family_descriptor,
    function_descriptor,
    function_from_descriptor,
    sample_power,
)
from .points import Point, bits_from01, bits_to01, pack_rows, points_to_bit_matrix, unpack_rows
from . import rng as rngmod

INDEX_FORMAT = "lshlab-index"
INDEX_VERSION = 3

CANDIDATE_CAP_FACTOR = 3  # tunable probe budget: at most 3L candidate inspections

# An index's ids and offsets are int32, and build draws its (L, k) part table whole.
MAX_ENTRIES, MAX_TABLE_PARTS = (1 << 31) - 1, 1 << 22

# Entries of one block of whole tables that a build sorts at a time (label
# digits, for a LabelStack); a table of more points is a block of its own.
BUILD_BLOCK_ENTRIES = 1 << 22


def _real(v) -> bool:
    """Whether v is an int or a float (a bool is neither here)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass(frozen=True)
class IndexParams:
    r: int
    cr: int
    k: int
    L: int
    delta: float
    seed: int
    n_planned: Optional[int] = None
    predicted_p_k: Optional[float] = None
    planned_rho: Optional[float] = None

    def __post_init__(self):
        for name in ("r", "cr", "k", "L"):
            v = getattr(self, name)
            if type(v) is not int:
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.k < 1 or self.L < 1:
            raise ValueError("k and L must be at least 1")
        if not 0 <= self.r < self.cr:
            raise ValueError("need 0 <= r < cr")
        if not _real(self.delta) or not 0 < self.delta < 1:
            raise ValueError(f"delta must be a real in (0, 1), got {self.delta!r}")
        if type(self.seed) is not int or not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if self.n_planned is not None and (type(self.n_planned) is not int or self.n_planned < 1):
            raise ValueError(f"n_planned must be None or an integer >= 1, got {self.n_planned!r}")
        for name in ("predicted_p_k", "planned_rho"):
            v = getattr(self, name)
            if v is not None and not (_real(v) and math.isfinite(v)):
                raise ValueError(f"{name} must be None or a finite real, got {v!r}")

    @classmethod
    def from_profile(cls, profile: SensitivityProfile, **fields) -> "IndexParams":
        """Parameters at the profile's radii, rounded down to integers, and its rho."""
        r, cr = (math.floor(_snap(v)) for v in (profile.r, profile.cr))
        return cls(r=r, cr=cr, planned_rho=profile.rho, **fields)


def tables_needed(p_k: float, delta: float) -> int:
    """L = ceil(ln(1/delta) / p^k): with that many tables a near pair, which
    collides in each with probability p^k, misses all of them with
    probability at most delta."""
    return math.ceil(_snap(math.log(1 / delta) / p_k))


def plan(
    n: int, profile: SensitivityProfile, delta: float, seed: int = rngmod.DEFAULT_SEED
) -> IndexParams:
    """Table shape for an n-point dataset from the family's (p, q) profile.

    Requires q >= 1/n; below that concatenation cannot help and the direct
    structure (k = 1) should be built instead.
    """
    if n < 1:
        raise ValueError("need at least one point")
    if not 0 < delta < 1:
        raise ValueError("failure probability delta must lie in (0, 1)")
    p, q = profile.p, profile.q
    if not 0 < q < p < 1:
        raise ValueError(f"planning needs 0 < q < p < 1, got p={p}, q={q}")
    if q < 1 / n:
        raise ValueError(
            f"q = {q} is below 1/n = {1 / n}: the reduction degenerates; "
            "build with k = 1 and L = ceil(ln(1/delta)/p) directly"
        )
    k = max(1, math.ceil(_snap(math.log(n) / math.log(1 / q))))
    p_k = p**k
    return IndexParams.from_profile(
        profile, k=k, L=tables_needed(p_k, delta), delta=delta, seed=seed,
        n_planned=n, predicted_p_k=p_k,
    )


class _Tables:
    """An index's keys, offsets or ids. The first read builds all three
    (NNIndex._build_tables) into the instance's dict, where every later
    read finds them first, as plain attributes."""

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, index, owner=None):
        if index is None:
            return self
        index._build_tables()
        return index.__dict__[self.name]


class NNIndex:
    """L hash tables over a fixed point set; immutable once built.

    Function t concatenates parts[j] for j in row t of the (L, k) `table`.
    The index keeps its points packed: rows[i] holds point i's ceil(d/64)
    uint64 words, for distances and label matches. The 0/1 rows it was
    given are kept, privately, only until its tables are built, which label
    them. Each bucket has one key (_keys): its function's label words with
    the table number t as one more most significant digit, of radix L,
    packed as labels are (_pack), stored big-endian as one S{8w} byte
    string. Byte order is then numeric order, so the L tables, each sorted
    by label, form one sorted array `keys`. Bucket u holds the point ids
    ids[offsets[u]:offsets[u+1]], ascending. A query builds its L keys the
    same way, and one searchsorted finds all L buckets. The tables are a
    pure function of (parts, table, points), so they are derived in
    _build_tables and nowhere else, the first time keys, offsets or ids is
    read; a one-shot query (scan_traced) needs none of them.
    """

    def __init__(
        self,
        params: IndexParams,
        parts: Sequence[HashFunction],
        table: np.ndarray | Sequence[Sequence[int]],
        bits: np.ndarray,
        family_doc: Optional[dict] = None,
    ):
        """`table`: L rows of k indices into `parts`, of which the index keeps
        the used ones; `bits`: the points as (n, d) 0/1 uint8 rows, which the
        index keeps until its tables are built; the caller must not change them."""
        L, k = params.L, params.k
        if len(table) != L:
            raise ValueError(f"need exactly L = {L} functions, got {len(table)}")
        if bits.dtype != np.uint8 or bits.ndim != 2 or not len(bits) or (bits > 1).any():
            raise ValueError("need the points as (n, d) 0/1 uint8 rows, n >= 1")
        short = np.fromiter(map(len, table), np.intp, L) != k
        if short.any():
            raise ValueError(f"function {short.argmax()} is not a concatenation of k = {k} parts")
        table = np.asarray(table)
        if table.dtype.kind not in "iu" or table.min() < 0 or table.max() >= len(parts):
            raise ValueError(f"functions must be lists of part numbers in [0, {len(parts)})")
        used, table = np.unique(table, return_inverse=True)
        self.parts = tuple(parts[j] for j in used.tolist())
        self.table = table.reshape(L, k)
        self.dim = bits.shape[1]
        for j, part in enumerate(self.parts):
            if part.dim != self.dim:
                raise DimensionMismatch(f"part {j} has dimension {part.dim}, the points {self.dim}")
        self.params = params
        self.family_doc = family_doc
        self._bits = bits
        self.rows = pack_rows(bits)
        # Leaf parts are the stack's leaves as they are; nested ones are flattened.
        if Concatenation in map(type, self.parts):
            stack = LabelStack.of([Concatenation(tuple(self.parts[j] for j in row)) for row in self.table.tolist()])
        else:
            stack = LabelStack(list(self.parts), self.table)
        self._labeler = ProjectionProduct.of(stack) or stack  # one product for projections
        # Labels of narrower functions sit right-aligned, below the top
        # word's bound; the table digit shares that word, or takes one of
        # its own above it.
        top = -(-stack.layout[2] >> 64 * (self._labeler.width - 1))
        (_, self._above), (_, scale), _ = _pack((top, L))
        self._digits = np.arange(L, dtype=np.uint64) * np.uint64(scale)

    keys, offsets, ids = _Tables(), _Tables(), _Tables()

    def _blocks(self) -> list[slice]:
        """The tables in blocks of whole tables, of at most BUILD_BLOCK_ENTRIES
        entries each (leaf labels, for a LabelStack), or one table each."""
        L = self.params.L
        # A LabelStack holds each leaf label of an entry while it packs them;
        # the product's own chunks bound its working set.
        cells = len(self.rows) * (self._labeler.table.shape[1] if isinstance(self._labeler, LabelStack) else 1)
        step = max(1, BUILD_BLOCK_ENTRIES // cells)
        return [slice(t, min(L, t + step)) for t in range(0, L, step)]

    def _build_tables(self) -> None:
        """Build keys, offsets and ids a block of whole tables at a time,
        straight into the arrays at their full size; buckets move down over
        the duplicate keys of earlier blocks, and keys and offsets are cut to
        the bucket count at the end. The three are published together, and
        the 0/1 rows dropped, once all are built."""
        bits, L = self._bits, self.params.L
        n = len(bits)
        keys = np.empty((L * n, self._labeler.width + self._above), dtype=np.uint64)
        offsets = np.empty(L * n + 1, dtype=np.int32)
        ids = np.empty(L * n, dtype=np.int32)
        size = 0
        for tables in self._blocks():
            size = self._build_block((keys, offsets, ids), bits, tables, size)
        offsets[size] = L * n
        if size < L * n:
            # No view of either array is alive, so each shrinks in place.
            keys.resize((size, keys.shape[1]), refcheck=False)
            offsets.resize(size + 1, refcheck=False)
        self.keys, self.offsets, self.ids = _as_keys(keys), offsets, ids
        del self._bits  # from now on the packed rows alone hold the points

    def _build_block(self, arrays: tuple[np.ndarray, ...], bits: np.ndarray, tables: slice, size: int) -> int:
        """Build the tables numbered in `tables` into the arrays (keys,
        offsets, ids), after the `size` buckets of the tables before them;
        return the new bucket count."""
        keys, offsets, ids = arrays
        n = len(bits)
        lo, hi = tables.start * n, tables.stop * n
        # The table digit is constant within a table, so it goes on before
        # the sort; the label words below it order the table.
        block = self._keys(bits, tables, out=keys[lo:hi].reshape(-1, n, keys.shape[1]))
        labels = block[..., self._above :]
        # Each table sorts by its lowest label word, then stably by each higher
        # one; the order is the table's ids. The first sort goes a table at a
        # time, so no block-sized int64 order is held next to the arrays.
        ids = ids[lo:hi].reshape(-1, n)
        for t in range(len(ids)):
            ids[t] = np.argsort(labels[t, :, -1])
        for j in range(labels.shape[2] - 2, -1, -1):
            by_word = np.take_along_axis(labels[..., j], ids, axis=1).argsort(axis=1, kind="stable")
            ids[...] = np.take_along_axis(ids, by_word, axis=1)
            del by_word  # one block-sized temporary at a time
        # Sorted one-word labels are the gathered ones; wider ones gather a word at a time.
        if labels.shape[2] == 1:
            labels[..., 0].sort(axis=1)
        else:
            for j in range(labels.shape[2]):
                labels[..., j] = np.take_along_axis(labels[..., j], ids, axis=1)
        first = np.ones(ids.shape, dtype=bool)
        first[:, 1:] = (labels[:, 1:] != labels[:, :-1]).any(axis=2)
        if first.all():
            if size < lo:
                keys[size : size + hi - lo] = keys[lo:hi]
            offsets[size : size + hi - lo] = np.arange(lo, hi, dtype=np.int32)
            return size + hi - lo
        starts = np.flatnonzero(first)
        keys[size : size + len(starts)] = keys[lo:hi][starts]
        offsets[size : size + len(starts)] = starts + lo
        # The unstable sort leaves each bucket's ids in any order. In a table
        # with a bucket of two or more points, buckets are numbered in order
        # and one sort of (bucket + 1) * n + id puts each bucket's ids in
        # ascending order.
        for t in np.flatnonzero(~first.all(axis=1)):
            runs = np.cumsum(first[t]) * n + ids[t]
            runs.sort()
            ids[t] = runs % n
        return size + len(starts)

    @property
    def candidate_cap(self) -> int:
        return CANDIDATE_CAP_FACTOR * self.params.L

    def _keys(self, bits: np.ndarray, tables: slice = slice(None), out: Optional[np.ndarray] = None) -> np.ndarray:
        """(m, n, w) key words of the rows of bits in the tables numbered in
        `tables`, most significant first: the labeler's words under the table
        digit, which shares their top word or takes a word of its own above
        them; written to `out` if given."""
        digits = self._digits[tables, None]
        if out is None:
            out = np.empty((len(digits), len(bits), self._labeler.width + self._above), dtype=np.uint64)
        self._labeler.words(bits, tables, out=out[..., self._above :])
        if self._above:
            out[..., 0] = digits
        else:
            out[..., 0] += digits
        return out

    def _buckets(self, words: np.ndarray) -> np.ndarray:
        """For each table t, the bucket whose key is row t of the (L, w)
        words, or -1: one search over all L tables at once."""
        keys = _as_keys(words)
        u = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[u] == keys, u, -1)


def build(
    points: np.ndarray | Sequence[Point], family: HashFamily, params: IndexParams
) -> NNIndex:
    """Draw L functions from the family's k-th power and index the points (0/1 rows or Points)."""
    bits = points if isinstance(points, np.ndarray) else points_to_bit_matrix(points)
    if len(bits) * params.L > MAX_ENTRIES or params.k * params.L > MAX_TABLE_PARTS:
        raise ValueError(f"an index needs n*L <= {MAX_ENTRIES} and k*L <= {MAX_TABLE_PARTS}; "
                         f"n = {len(bits)}, k = {params.k}, L = {params.L}")
    parts, table = sample_power(family, params.k, params.L, params.seed)
    family_doc = None
    try:
        family_doc = family_descriptor(family)
    except ValueError:
        pass
    return NNIndex(params, parts, table, bits, family_doc)


@dataclass(frozen=True)
class QueryTrace:
    result: Optional[tuple[int, int]]
    candidates_inspected: int
    tables_probed: int
    base_evaluations: int


def _inspect(index: NNIndex, x_words: np.ndarray, ids: np.ndarray, table: np.ndarray, total: int) -> QueryTrace:
    """The trace of a query, packed as x_words, whose candidates in probe
    order begin with `ids`, from tables `table`, of `total` in all L buckets
    (any count past the cap, if the probe was cut short); ids holds at least
    the first min(total, 3L + 1). The first 3L are distance-checked in one
    pass, and the first within cr is the answer: whatever a query returns
    lies within cr. The trace reports what probing one table at a time, and
    stopping at the first hit or the cap, would."""
    k, L, cap = index.params.k, index.params.L, index.candidate_cap
    dist = np.bitwise_count(index.rows[ids[:cap]] ^ x_words).sum(axis=1)
    near = np.flatnonzero(dist <= index.params.cr)
    if len(near):
        i = near[0]
        probed = int(table[i]) + 1
        return QueryTrace((int(ids[i]), int(dist[i])), int(i) + 1, probed, k * probed)
    if total > cap:
        # The next candidate, in table `probed`, would exceed the cap.
        probed = int(table[cap]) + 1
        return QueryTrace(None, cap, probed, k * probed)
    return QueryTrace(None, total, L, k * L)


def query_traced(index: NNIndex, x: Point) -> QueryTrace:
    """Probe x's bucket in each table in order; inspect at most 3L candidates;
    return the first point found within cr (ties go to probe order).

    All L buckets are found at once, by one search of the index's tables.
    """
    if x.dim != index.dim:
        raise ValueError(f"query dimension {x.dim} differs from index ({index.dim})")
    raw = np.frombuffer(x.value.to_bytes(index.rows.shape[1] * 8, "little"), dtype=np.uint8)
    bucket = index._buckets(index._keys(np.unpackbits(raw, count=index.dim, bitorder="little")[None])[:, 0])
    hit = bucket >= 0
    lo = index.offsets[bucket]
    lens = np.where(hit, index.offsets[bucket + 1] - lo, 0)
    ends = np.cumsum(lens)  # candidates in tables 0..t
    seen = np.arange(min(int(ends[-1]), index.candidate_cap + 1))
    table = np.searchsorted(ends, seen, side="right")
    ids = index.ids[lo[table] + seen - (ends - lens)[table]]
    return _inspect(index, raw.view(np.uint64), ids, table, int(ends[-1]))


def scan_traced(index: NNIndex, x: np.ndarray) -> QueryTrace:
    """query_traced for the query given as a (d,) 0/1 uint8 row, without the
    index's tables: x's bucket in table t is {i : g_t(p_i) = g_t(x)}, ids
    ascending, read off a mask of label matches on the packed rows a block
    of whole tables at a time, as the tables are built. The scan stops
    after the block that passes the cap."""
    if not isinstance(x, np.ndarray) or x.dtype != np.uint8 or x.ndim != 1 or (x > 1).any():
        raise ValueError("need the query as a (d,) 0/1 uint8 row")
    if len(x) != index.dim:
        raise ValueError(f"query dimension {len(x)} differs from index ({index.dim})")
    cap, x_words = index.candidate_cap, pack_rows(x[None])[0]
    ids, table, total = [], [], 0
    for block in index._blocks():
        match = index._labeler.matches(index.rows, x_words, block)
        ends = np.cumsum(np.count_nonzero(match, axis=1))
        # Candidates past the first one over the cap are never read.
        need = cap + 1 - total
        t, i = np.nonzero(match[: np.searchsorted(ends, need) + 1])
        ids.append(i[:need])
        table.append(t[:need] + block.start)
        total += int(ends[-1])
        if total > cap:
            break
    return _inspect(index, x_words, np.concatenate(ids), np.concatenate(table), total)


def query(index: NNIndex, x: Point) -> Optional[tuple[int, int]]:
    return query_traced(index, x).result


@dataclass(frozen=True)
class IndexStats:
    n_points: int
    n_tables: int
    k: int
    total_entries: int
    mean_bucket: float
    max_bucket: int
    n_buckets: int
    approx_bytes: int
    measured_space_exp: float
    predicted_space_exp: Optional[float]


def stats(index: NNIndex) -> IndexStats:
    n = len(index.rows)
    total = len(index.ids)
    n_buckets = len(index.keys)
    rho = index.params.planned_rho
    arrays = (index.rows, index.keys, index.offsets, index.ids)
    return IndexStats(
        n_points=n,
        n_tables=index.params.L,
        k=index.params.k,
        total_entries=total,
        mean_bucket=total / n_buckets,
        max_bucket=int(np.diff(index.offsets).max()),
        n_buckets=n_buckets,
        approx_bytes=sum(a.nbytes for a in arrays),
        measured_space_exp=math.log(max(total, 1)) / math.log(n) if n > 1 else float("nan"),
        predicted_space_exp=(1 + rho) if rho is not None else None,
    )


# ---------------------------------------------------------------------------
# Serialization: a versioned JSON container carrying the parameters, the
# family descriptor, each distinct part once, the functions as rows of part
# numbers, and the dataset. Tables are not stored, so a file cannot hold
# tables that disagree with its functions: a loaded index builds them on
# first need, and a one-shot query (scan_traced) reads label matches
# instead, with the same answer.


def save_index(index: NNIndex, path) -> None:
    # The parts in first-use order, numbered by it.
    order = np.argsort(np.unique(index.table, return_index=True)[1])
    doc = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "params": asdict(index.params),
        "family": index.family_doc,
        "parts": [function_descriptor(index.parts[j]) for j in order.tolist()],
        "functions": np.argsort(order)[index.table].tolist(),
        "points": bits_to01(unpack_rows(index.rows, index.dim)),
    }
    # json.dumps runs the C encoder; json.dump would stream through the Python one.
    text = json.dumps(doc, sort_keys=True)
    with open(path, "w") as f:
        f.write(text + "\n")


def load_index(path) -> NNIndex:
    """Read an index file; its tables are built on first need. A malformed
    file raises a ValueError that names it."""
    try:
        with open(path) as f:
            doc = json.load(f)
        if not isinstance(doc, dict) or doc.get("format") != INDEX_FORMAT:
            raise ValueError("not an lshlab index file")
        if doc.get("version") != INDEX_VERSION:
            raise ValueError(
                f"index version {doc.get('version')} is not readable (this lshlab reads "
                f"version {INDEX_VERSION}); rebuild the index with index-build"
            )
        params = IndexParams(**doc["params"])
        parts = [function_from_descriptor(p) for p in doc["parts"]]
        rows = doc["functions"]
        # Lists of JSON integers (a bool or a float is not one), their types
        # collected in C; NNIndex checks the shape and the range.
        if type(rows) is not list or set(map(type, rows)) - {list} or set(map(type, chain(*rows))) - {int}:
            raise ValueError(f"functions must be lists of part numbers in [0, {len(parts)})")
        if not isinstance(doc["points"], list):
            raise ValueError("points must be a list of 0/1 strings")
        return NNIndex(params, parts, rows, bits_from01(doc["points"]), doc.get("family"))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Planted-pair experiment: random dataset, queries planted at distance
# exactly r from a random stored point, everything else concentrated near
# d/2 and therefore far beyond cr.


@dataclass(frozen=True)
class ExperimentReport:
    n: int
    d: int
    r: int
    cr: int
    delta: float
    k: int
    L: int
    queries: int
    successes: int
    success_rate: float
    max_inspected: int
    mean_inspected: float
    candidate_cap: int
    evals_per_query: int
    total_entries: int
    seed: int


def planted_experiment(
    n: int,
    d: int,
    r: int,
    c: float,
    delta: float,
    n_queries: int,
    seed: int = rngmod.DEFAULT_SEED,
) -> ExperimentReport:
    if n_queries < 1:
        raise ValueError("need at least one query")
    params = plan(n, bit_sampling_profile(d, r, c), delta, seed=seed)
    cr = params.cr

    g_data = rngmod.stream(seed, 1)
    points = [Point.random(d, g_data) for _ in range(n)]
    index = build(points, bit_sampling_family(d), params)

    successes = 0
    inspected = []
    for qi in range(n_queries):
        g = rngmod.stream(seed, 1000 + qi)
        target = points[int(g.integers(n))]
        coords = g.choice(d, size=r, replace=False)
        x = target.flip(int(i) for i in coords)
        trace = query_traced(index, x)
        inspected.append(trace.candidates_inspected)
        if trace.result is not None:
            found_id, dist = trace.result
            if dist > cr:
                raise AssertionError("index returned a point beyond cr")
            successes += 1

    return ExperimentReport(
        n=n,
        d=d,
        r=r,
        cr=cr,
        delta=delta,
        k=params.k,
        L=params.L,
        queries=n_queries,
        successes=successes,
        success_rate=successes / n_queries,
        max_inspected=max(inspected),
        mean_inspected=sum(inspected) / len(inspected),
        candidate_cap=index.candidate_cap,
        evals_per_query=params.L * params.k,
        total_entries=stats(index).total_entries,
        seed=seed,
    )
