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
from dataclasses import dataclass, asdict
from typing import Optional, Sequence

import numpy as np

from .hashing import (
    Concatenation,
    DimensionMismatch,
    HashFamily,
    HashFunction,
    ProjectionProduct,
    SensitivityProfile,
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
INDEX_VERSION = 2

CANDIDATE_CAP_FACTOR = 3  # tunable probe budget: at most 3L candidate inspections


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

    @classmethod
    def from_profile(cls, profile: SensitivityProfile, **fields) -> "IndexParams":
        """Parameters at the profile's radii, rounded down to integers, and its rho."""
        r, cr = (math.floor(_snap(v)) for v in (profile.r, profile.cr))
        return cls(r=r, cr=cr, planned_rho=profile.rho, **fields)


def _snap(v: float) -> float:
    """v, or the integer within 1e-9 of it: float droop must not carry a
    rounding past an integer ((61 / 7) * 7 is 60.99999999999999)."""
    nearest = round(v)
    return nearest if abs(v - nearest) < 1e-9 else v


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


class NNIndex:
    """L hash tables over a fixed point set; immutable once built.

    Point i is kept packed: rows[i] holds its ceil(d/64) uint64 words. Table
    t is sorted: its bucket keys are keys[table_starts[t]:table_starts[t+1]],
    ascending, and bucket u holds the point ids ids[offsets[u]:offsets[u+1]],
    ascending. The tables are a pure function of (functions, points), so
    they are derived here and nowhere else.
    """

    def __init__(
        self,
        params: IndexParams,
        functions: Sequence[HashFunction],
        bits: np.ndarray,
        family_doc: Optional[dict] = None,
    ):
        """`bits` holds the points as (n, d) 0/1 uint8 rows (see points_to_bit_matrix)."""
        if len(functions) != params.L:
            raise ValueError(f"need exactly L = {params.L} functions, got {len(functions)}")
        if bits.dtype != np.uint8 or bits.ndim != 2 or not len(bits) or (bits > 1).any():
            raise ValueError("need the points as (n, d) 0/1 uint8 rows, n >= 1")
        self.dim = bits.shape[1]
        for i, fn in enumerate(functions):
            if fn.dim != self.dim:
                raise DimensionMismatch(f"function {i} has dimension {fn.dim}, the points {self.dim}")
        self.params = params
        self.functions = tuple(functions)
        self.family_doc = family_doc
        self.rows = pack_rows(bits)
        self._product = ProjectionProduct.of(self.functions)
        # One stable argsort per table keeps each bucket's ids ascending.
        keys = self._keys(bits).T
        order = np.argsort(keys, axis=1, kind="stable")
        keys = np.take_along_axis(keys, order, axis=1)
        first = np.ones(keys.shape, dtype=bool)
        first[:, 1:] = keys[:, 1:] != keys[:, :-1]
        # Row t of the flattened tables starts at t*n, always with a new bucket.
        starts = np.flatnonzero(first)
        self.keys = keys.ravel()[starts]
        self.offsets = np.append(starts, keys.size).astype(np.int32)
        self.ids = order.ravel().astype(np.int32)
        self.table_starts = np.concatenate(([0], np.cumsum(first.sum(axis=1))))

    @property
    def candidate_cap(self) -> int:
        return CANDIDATE_CAP_FACTOR * self.params.L

    def _keys(self, bits: np.ndarray) -> np.ndarray:
        """(n, L) keys of the rows of bits: one product for projections,
        else the functions' label columns."""
        if self._product is not None:
            return self._product.labels(bits)
        return np.stack([fn.labels(bits) for fn in self.functions], axis=1)

    def _buckets(self, q: np.ndarray) -> np.ndarray:
        """The bucket of table t whose key is q[t], or -1: one bisection
        over all L tables at once."""
        base, size = self.table_starts[:-1].copy(), np.diff(self.table_starts)
        # Invariant: table t's last key <= q[t], if any, lies in [base, base + size).
        while size.max() > 1:
            half = size >> 1
            base += half * (self.keys[base + half] <= q)
            size -= half
        return np.where(self.keys[base] == q, base, -1)


def build(
    points: np.ndarray | Sequence[Point], family: HashFamily, params: IndexParams
) -> NNIndex:
    """Draw L functions from the family's k-th power and index the points (0/1 rows or Points)."""
    bits = points if isinstance(points, np.ndarray) else points_to_bit_matrix(points)
    functions = sample_power(family, params.k, params.L, params.seed)
    family_doc = None
    try:
        family_doc = family_descriptor(family)
    except ValueError:
        pass
    return NNIndex(params, functions, bits, family_doc)


@dataclass(frozen=True)
class QueryTrace:
    result: Optional[tuple[int, int]]
    candidates_inspected: int
    tables_probed: int
    base_evaluations: int


def query_traced(index: NNIndex, x: Point) -> QueryTrace:
    """Probe x's bucket in each table in order; inspect at most 3L candidates;
    return the first point found within cr (ties go to probe order).

    All L buckets are found at once and the first 3L candidates, in probe
    order, are distance-checked in one pass; the trace reports what probing
    one table at a time, and stopping at the first hit or the cap, would.
    """
    if x.dim != index.dim:
        raise ValueError(f"query dimension {x.dim} differs from index ({index.dim})")
    k, L, cap = index.params.k, index.params.L, index.candidate_cap
    raw = np.frombuffer(x.value.to_bytes(index.rows.shape[1] * 8, "little"), dtype=np.uint8)
    bucket = index._buckets(index._keys(np.unpackbits(raw, count=index.dim, bitorder="little")[None])[0])
    hit = bucket >= 0
    lo = index.offsets[bucket]
    lens = np.where(hit, index.offsets[bucket + 1] - lo, 0)
    ends = np.cumsum(lens)  # candidates in tables 0..t
    seen = np.arange(min(int(ends[-1]), cap))
    table = np.searchsorted(ends, seen, side="right")
    ids = index.ids[lo[table] + seen - (ends - lens)[table]]
    dist = np.bitwise_count(index.rows[ids] ^ raw.view(np.uint64)).sum(axis=1)
    near = np.flatnonzero(dist <= index.params.cr)
    if len(near):
        i = near[0]
        probed = int(table[i]) + 1
        return QueryTrace((int(ids[i]), int(dist[i])), int(i) + 1, probed, k * probed)
    if ends[-1] > cap:
        # The next candidate, in table `probed`, would exceed the cap.
        probed = int(np.searchsorted(ends, cap, side="right")) + 1
        return QueryTrace(None, cap, probed, k * probed)
    return QueryTrace(None, int(ends[-1]), L, k * L)


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
    arrays = (index.rows, index.keys, index.offsets, index.ids, index.table_starts)
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
# family descriptor, the drawn functions and the dataset. The tables are not
# stored: loading rebuilds them from the functions and points, so a file
# cannot hold tables that disagree with its functions.


def save_index(index: NNIndex, path) -> None:
    doc = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "params": asdict(index.params),
        "family": index.family_doc,
        "functions": [function_descriptor(fn) for fn in index.functions],
        "points": bits_to01(unpack_rows(index.rows, index.dim)),
    }
    # json.dumps runs the C encoder; json.dump would stream through the Python one.
    text = json.dumps(doc, sort_keys=True)
    with open(path, "w") as f:
        f.write(text + "\n")


def load_index(path) -> NNIndex:
    """Read an index file and rebuild its tables. A malformed file raises a
    ValueError that names it."""
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
        functions = [function_from_descriptor(d) for d in doc["functions"]]
        for i, fn in enumerate(functions):
            if not isinstance(fn, Concatenation) or len(fn.parts) != params.k:
                raise ValueError(f"function {i} is not a concatenation of k = {params.k} parts")
        if not isinstance(doc["points"], list):
            raise ValueError("points must be a list of 0/1 strings")
        return NNIndex(params, functions, bits_from01(doc["points"]), doc.get("family"))
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
    n_queries: int
    successes: int
    success_rate: float
    max_inspected: int
    mean_inspected: float
    candidate_cap: int
    base_evaluations_per_query: int
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
        n_queries=n_queries,
        successes=successes,
        success_rate=successes / n_queries,
        max_inspected=max(inspected),
        mean_inspected=sum(inspected) / len(inspected),
        candidate_cap=index.candidate_cap,
        base_evaluations_per_query=params.L * params.k,
        total_entries=stats(index).total_entries,
        seed=seed,
    )
