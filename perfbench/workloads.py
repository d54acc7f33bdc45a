"""The four benchmark workloads and their independent output checks.

Every workload is a closed loop with one caller in one process. A *pass* is
one round of the workload's operation kinds; pass i's inputs are a pure
function of (seed, i), so the first passes of any run (the count window) do
the same work and produce the same bytes at a fixed seed.

Why these four:

- ann-query: the read path. Library `query_traced` on the ROADMAP's planted
  configuration (n=2000, d=128, r=8, c=2, delta=0.1; k=57, L=92),
  alternating planted queries (distance r from a stored point) and uniform
  random queries that miss and probe all L tables. Hash evaluation and the
  probe/distance check do almost all the work.
- ann-cli: the write and persistence path a CLI user pays for. Alternates
  in-process `index-build` (text parse, the k <= 62 projection fast path,
  dict tables, a ~5.7 MB JSON save) and `index-query` (a full JSON load per
  call). A change that only touches hash evaluation should leave it flat.
- stability-exact: the paper's certification path. Exact stability curves
  (FWHT over whole-cube `collision_codes`), the non-symmetric enumeration in
  `_class_extremes`, and every `verify` suite. No sampling, no index.
- stability-mc: the only workload where `sampling` does the work, drawing a
  fresh hash function per sample from a finite family (144 atoms) and from a
  sampling law (MinHash on d=32).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import statistics
from fractions import Fraction

import numpy as np


class Sizes:
    """Problem sizes; `tiny=True` shrinks every workload for the self-test."""

    def __init__(self, tiny: bool = False):
        if tiny:
            self.n, self.d, self.r, self.c, self.delta = 200, 64, 4, 2, 0.1
            self.pool = 64
            self.query_window = 20
            self.exact = dict(bits_d=6, bits_k=2, minhash_d=4, trivial_d=4,
                              sens=(4, 1, 2), grid="0:3:7", suite="parseval")
            self.mc = dict(bits_d=6, bits_k=2, minhash_d=10, grid="0:3:6", samples=512)
        else:
            self.n, self.d, self.r, self.c, self.delta = 2000, 128, 8, 2, 0.1
            self.pool = 2048
            self.query_window = 200
            self.exact = dict(bits_d=14, bits_k=2, minhash_d=7, trivial_d=8,
                              sens=(7, 2, 4), grid="0:3:31", suite="all")
            self.mc = dict(bits_d=12, bits_k=2, minhash_d=32, grid="0:3:6", samples=8192)


# ---------------------------------------------------------------------------
# Independent references: numpy Hamming distances and closed-form curves.


def packed(bits: np.ndarray) -> np.ndarray:
    """0/1 rows -> uint64 words, for popcount distances."""
    by = np.packbits(bits, axis=-1, bitorder="little")
    pad = (-by.shape[-1]) % 8
    if pad:
        by = np.concatenate([by, np.zeros(by.shape[:-1] + (pad,), np.uint8)], axis=-1)
    return np.ascontiguousarray(by).view(np.uint64)


def distances(q_words: np.ndarray, data_words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(data_words ^ q_words).sum(axis=-1)


def bit_sampling_curve(t: float, d: int, k: int) -> float:
    """Pr[collision] of k concatenated coordinate draws on an e^{-t}-correlated
    pair in {0,1}^d: E[(1 - m/d)^k] with m ~ Binomial(d, (1 - e^{-t})/2).

    All k draws see the same pair, so this is ((1 + e^{-t})/2)^k only at
    k = 1; for k = 2 it is that plus f(1-f)/d.
    """
    f = -math.expm1(-t) / 2
    return math.fsum(
        math.comb(d, m) * f**m * (1 - f) ** (d - m) * (1 - m / d) ** k for m in range(d + 1)
    )


def minhash_curve(t: float, d: int) -> float:
    """Pr[minhash collision] on an e^{-t}-correlated pair in {0,1}^d.

    The union size is Binomial(d, (1+f)/2) with f = (1 - e^{-t})/2, and given
    a nonempty union the expected Jaccard similarity is (1-f)/(1+f); two
    empty sets collide.
    """
    f = -math.expm1(-t) / 2
    both_empty = ((1 - f) / 2) ** d
    return both_empty + (1 - both_empty) * (1 - f) / (1 + f)


def trivial_curve(t: float, d: int) -> float:
    """Pair-collapse family at r=1: equal points always collide, a pair at
    distance 1 collides iff it is the drawn edge (one of d 2^(d-1))."""
    f = -math.expm1(-t) / 2
    edges = d * (1 << (d - 1))
    return (1 - f) ** d + d * f * (1 - f) ** (d - 1) / edges


def minhash_extremes(d: int, r: int, cr: int) -> tuple[Fraction, Fraction]:
    """(min Jaccard over pairs within r, max over pairs at >= cr) by brute force."""
    ids = np.arange(1 << d)
    inter = np.bitwise_count(ids[:, None] & ids[None, :]).astype(np.int64)
    union = np.bitwise_count(ids[:, None] | ids[None, :]).astype(np.int64)
    dist = union - inter
    p = min(_jaccard(a, u) for a, u in set(zip(inter[dist <= r], union[dist <= r])))
    q = max(_jaccard(a, u) for a, u in set(zip(inter[dist >= cr], union[dist >= cr])))
    return p, q


def _jaccard(a, u) -> Fraction:
    return Fraction(1) if u == 0 else Fraction(int(a), int(u))


def plan_shape(n: int, d: int, r: int, c: float, delta: float) -> tuple[int, int]:
    """k and L of the bit-sampling plan, recomputed from the formulas."""
    p, q = 1 - r / d, 1 - c * r / d
    k = math.ceil(math.log(n) / math.log(1 / q))
    return k, math.ceil(math.log(1 / delta) / p**k)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def curve_problems(text: str, grid: np.ndarray, reference, mode: str, samples=None) -> list[str]:
    """Exact curves must match within 1e-12; MC rows within 5 stderr, with
    stderr equal to the binomial formula."""
    header, rows = parse_csv(text)
    want = ["t", "K"] if mode == "exact" else ["t", "K", "stderr"]
    if header != want or len(rows) != len(grid):
        return [f"curve has header {header} and {len(rows)} rows"]
    problems = []
    for (t_ref, row) in zip(grid, rows):
        t, k = float(row[0]), float(row[1])
        ref = reference(t)
        if abs(t - t_ref) > 1e-12:
            problems.append(f"grid point {t} differs from {t_ref}")
        elif mode == "exact":
            if abs(k - ref) > 1e-12:
                problems.append(f"K({t}) = {k!r} differs from {ref!r}")
        else:
            se = float(row[2])
            if abs(se - math.sqrt(k * (1 - k) / samples)) > 1e-12:
                problems.append(f"stderr at t={t} is {se!r}, not the binomial value")
            if abs(k - ref) > 5 * se:
                problems.append(f"K({t}) = {k!r} is more than 5 stderr from {ref!r}")
    return problems


# ---------------------------------------------------------------------------


class Workload:
    """Base: subclasses define kinds, setup, run and check."""

    name = ""
    kinds: tuple = ()
    window = 1
    # A CLI call is its own process in real use: collect one call's garbage
    # before the next, so leftovers do not inflate its memory or time.
    collect_between_ops = False

    def __init__(self, lshlab, seed: int, workdir: str, sizes: Sizes):
        self.lshlab = lshlab
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes
        self._first: dict = {}

    def same_bytes(self, key, data: bytes, what: str) -> list[str]:
        """Outputs at a fixed seed must be byte-identical across passes."""
        digest = hashlib.sha256(data).hexdigest()
        first = self._first.setdefault(key, digest)
        return [] if first == digest else [f"{what} differs from the first pass"]

    def env(self) -> dict:
        return {}

    def counts(self) -> dict:
        return {}


def _cli_call(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _dataset(seed: int, n: int, d: int, r: int, pool: int):
    """Stored points, planted queries (distance exactly r from a stored
    point) and uniform random queries, all as 0/1 rows."""
    g = np.random.default_rng([seed, 1])
    data = g.integers(0, 2, size=(n, d), dtype=np.uint8)
    targets = g.integers(0, n, size=pool)
    planted = data[targets].copy()
    for row in planted:
        row[g.choice(d, size=r, replace=False)] ^= 1
    random_q = g.integers(0, 2, size=(pool, d), dtype=np.uint8)
    return data, planted, random_q


def _to_points(Point, bits: np.ndarray) -> list:
    d = bits.shape[1]
    rows = np.packbits(bits, axis=1, bitorder="little")
    return [Point(int.from_bytes(row.tobytes(), "little"), d) for row in rows]


class AnnQuery(Workload):
    name = "ann-query"
    kinds = ("planted", "random")

    def setup(self) -> None:
        s = self.sizes
        L = self.lshlab
        data, planted, random_q = _dataset(self.seed, s.n, s.d, s.r, s.pool)
        self.data_words = packed(data)
        queries = {"planted": planted, "random": random_q}
        self.query_words = {k: packed(v) for k, v in queries.items()}
        self.query_points = {k: _to_points(L.Point, v) for k, v in queries.items()}
        points = _to_points(L.Point, data)
        profile = L.bit_sampling_profile(s.d, s.r, s.c)
        self.cr = int(profile.cr)
        self.params = L.plan(s.n, profile, s.delta, seed=self.seed)
        self.index = L.build(points, L.bit_sampling_family(s.d), self.params)
        self.window = s.query_window
        self.tally = {"planted": 0, "planted_found": 0}

    def run(self, kind, i):
        return self.lshlab.annindex.query_traced(self.index, self.query_points[kind][i % self.sizes.pool])

    def check(self, kind, i, trace) -> list[str]:
        if kind == "planted":  # recall's tally
            self.tally["planted"] += 1
            self.tally["planted_found"] += trace.result is not None
        if trace.result is None:
            return []
        q = self.query_words[kind][i % self.sizes.pool]
        pid, dist = trace.result
        if not 0 <= pid < len(self.data_words):
            return [f"returned id {pid} out of range"]
        own = int(distances(q, self.data_words[pid]))
        problems = []
        if own != dist:
            problems.append(f"reported distance {dist} but numpy distance is {own}")
        if own > self.cr:
            problems.append(f"returned point at distance {own} beyond cr={self.cr}")
        if kind == "random" and int(distances(q, self.data_words).min()) > self.cr:
            problems.append("random query answered although no point lies within cr")
        return problems

    def digest_line(self, kind, i, trace) -> bytes:
        return (f"{kind},{i},{trace.result},{trace.candidates_inspected},"
                f"{trace.tables_probed}\n").encode()

    def named_metrics(self, times) -> dict:
        q = np.array(times["planted"] + times["random"])
        return {
            "query_qps": (len(q) / float(q.sum()), "1/s"),
            "query_p50_ms": (1e3 * float(np.median(q)), "ms"),
            "query_p99_ms": (1e3 * float(np.percentile(q, 99)), "ms"),
            "queries": (len(q), "count"),
            "recall": (self.tally["planted_found"] / self.tally["planted"], "ratio"),
        }

    def env(self) -> dict:
        return {"k": self.params.k, "L": self.params.L, "n": self.sizes.n, "d": self.sizes.d}

    def counts(self) -> dict:
        st = self.lshlab.annindex.stats(self.index)
        return {"annindex.total_entries": st.total_entries, "annindex.max_bucket": st.max_bucket}


class AnnCli(Workload):
    name = "ann-cli"
    kinds = ("build", "query")
    collect_between_ops = True
    window = 2  # one planted and one random query

    def setup(self) -> None:
        s = self.sizes
        data, planted, random_q = _dataset(self.seed, s.n, s.d, s.r, s.pool)
        self.data_words = packed(data)
        self.data_path = os.path.join(self.workdir, "points.txt")
        with open(self.data_path, "wb") as f:
            f.write(b"".join((row + ord("0")).tobytes() + b"\n" for row in data))
        # Even passes query a planted point, odd passes a random one.
        self.cycle = 8
        qbits = [planted[j // 2] if j % 2 == 0 else random_q[j // 2] for j in range(self.cycle)]
        self.query_words = [packed(q) for q in qbits]
        self.query_strings = [(q + ord("0")).tobytes().decode() for q in qbits]
        self.cr = s.c * s.r
        self.k, self.L = plan_shape(s.n, s.d, s.r, s.c, s.delta)
        self.index_path = os.path.join(self.workdir, "index.json")
        self.query_path = os.path.join(self.workdir, "query.csv")
        self.build_line = ""

    def run(self, kind, i):
        cli = self.lshlab.cli
        if kind == "build":
            return _cli_call(cli, [
                "index-build", "--data", self.data_path, "--r", str(self.sizes.r),
                "--cr", str(self.cr), "--delta", str(self.sizes.delta),
                "--seed", str(self.seed), "--out", self.index_path,
            ])
        return _cli_call(cli, [
            "index-query", "--index", self.index_path,
            "--point", self.query_strings[i % self.cycle], "--out", self.query_path,
        ])

    def output(self, kind) -> bytes:
        return _read(self.index_path if kind == "build" else self.query_path)

    def check(self, kind, i, out, blob=None) -> list[str]:
        rc, stdout, stderr = out
        if rc != 0:
            return [f"{kind} exited {rc}: {stderr.strip()[:200]}"]
        blob = self.output(kind) if blob is None else blob
        if kind == "build":
            self.build_line = stdout.strip()
            want = f"k={self.k} L={self.L}"
            problems = [] if want in stdout else [f"build reported {stdout.strip()!r}, want {want}"]
            return problems + self.same_bytes("build", blob, "index file")
        problems = self.same_bytes(("query", i % self.cycle), blob, "query output")
        header, rows = parse_csv(blob.decode())
        if header != ["found", "id", "dist", "inspected"] or len(rows) != 1:
            return problems + [f"query output malformed: {blob[:80]!r}"]
        found, pid, dist, _ = (int(v) for v in rows[0])
        if found:
            q = self.query_words[i % self.cycle]
            if not 0 <= pid < len(self.data_words):
                return problems + [f"returned id {pid} out of range"]
            own = int(distances(q, self.data_words[pid]))
            if own != dist:
                problems.append(f"reported distance {dist} but numpy distance is {own}")
            if own > self.cr:
                problems.append(f"returned point at distance {own} beyond cr={self.cr}")
            if i % 2 == 1 and int(distances(q, self.data_words).min()) > self.cr:
                problems.append("random query answered although no point lies within cr")
        return problems

    def digest_line(self, kind, i, out) -> bytes:
        return self.output(kind)

    def named_metrics(self, times) -> dict:
        return {
            "index_build_s": (statistics.fmean(times["build"]), "s"),
            "index_query_s": (statistics.fmean(times["query"]), "s"),
            "index_bytes": (os.path.getsize(self.index_path), "bytes"),
        }

    def env(self) -> dict:
        return {"k": self.k, "L": self.L, "n": self.sizes.n, "d": self.sizes.d,
                "build_report": self.build_line}

    def counts(self) -> dict:
        # "built index: n=.. d=.. k=.. L=.. entries=.. max_bucket=.."
        fields = dict(kv.split("=") for kv in self.build_line.split()[2:])
        return {
            "annindex.total_entries": int(fields["entries"]),
            "annindex.max_bucket": int(fields["max_bucket"]),
            "annindex.index_bytes": os.path.getsize(self.index_path),
        }


class _CliStability(Workload):
    """Shared shape of the two stability workloads: one CLI call per kind,
    each writing its own output file."""

    collect_between_ops = True

    def setup(self) -> None:
        self.paths = {k: os.path.join(self.workdir, f"{k}.out") for k in self.kinds}

    def run(self, kind, i):
        return _cli_call(self.lshlab.cli, self.argv(kind) + ["--seed", str(self.seed), "--out", self.paths[kind]])

    def check(self, kind, i, out, blob=None) -> list[str]:
        rc, stdout, stderr = out
        if rc != 0:
            return [f"{kind} exited {rc}: {(stderr or stdout).strip()[:200]}"]
        blob = _read(self.paths[kind]) if blob is None else blob
        return self.same_bytes(kind, blob, f"{kind} output") + self.check_output(kind, stdout, blob)

    def digest_line(self, kind, i, out) -> bytes:
        return _read(self.paths[kind])


class StabilityExact(_CliStability):
    name = "stability-exact"
    kinds = ("bit-sampling", "minhash", "trivial", "sensitivity", "verify")

    def argv(self, kind) -> list[str]:
        e = self.sizes.exact
        grid = ["--t-grid", e["grid"]]
        if kind == "bit-sampling":
            return ["stability", "--family", "bit-sampling", "--d", str(e["bits_d"]),
                    "--k", str(e["bits_k"])] + grid
        if kind == "minhash":
            return ["stability", "--family", "minhash", "--d", str(e["minhash_d"])] + grid
        if kind == "trivial":
            return ["stability", "--family", "trivial", "--d", str(e["trivial_d"]), "--r", "1"] + grid
        if kind == "sensitivity":
            d, r, cr = e["sens"]
            return ["sensitivity", "--family", "minhash", "--d", str(d),
                    "--r", str(r), "--cr", str(cr)]
        return ["verify", "--suite", e["suite"]]

    def check_output(self, kind, stdout, blob) -> list[str]:
        e = self.sizes.exact
        text = blob.decode()
        if kind == "verify":
            lines = text.strip().splitlines()
            bad = [l for l in lines[1:] if "PASS" not in l]
            return [f"verify: {l}" for l in bad] or ([] if lines[-1] == "overall: PASS" else ["verify incomplete"])
        if kind == "sensitivity":
            d, r, cr = e["sens"]
            p, q = minhash_extremes(d, r, cr)
            _, rows = parse_csv(text)
            got = (float(rows[0][2]), float(rows[0][3]))
            return [] if got == (float(p), float(q)) else [f"sensitivity (p, q) = {got}, want {(float(p), float(q))}"]
        problems = [] if "log-convexity: PASS" in stdout else [f"{kind}: {stdout.strip()[:200]}"]
        start, stop, count = e["grid"].split(":")
        grid = np.linspace(float(start), float(stop), int(count))
        ref = {
            "bit-sampling": lambda t: bit_sampling_curve(t, e["bits_d"], e["bits_k"]),
            "minhash": lambda t: minhash_curve(t, e["minhash_d"]),
            "trivial": lambda t: trivial_curve(t, e["trivial_d"]),
        }[kind]
        return problems + curve_problems(text, grid, ref, "exact")

    def named_metrics(self, times) -> dict:
        return {"certify_s": (sum(statistics.fmean(times[k]) for k in self.kinds), "s")}

    def env(self) -> dict:
        e = self.sizes.exact
        L = self.lshlab
        return {"atoms": {
            "bit-sampling": len(L.power(L.bit_sampling_family(e["bits_d"]), e["bits_k"]).atoms),
            "minhash": math.factorial(e["minhash_d"]),
            "trivial": len(L.trivial_family(e["trivial_d"], 1).atoms),
        }}


class StabilityMc(_CliStability):
    name = "stability-mc"
    kinds = ("bit-sampling", "minhash")

    def argv(self, kind) -> list[str]:
        m = self.sizes.mc
        base = ["stability", "--mode", "mc", "--t-grid", m["grid"], "--samples", str(m["samples"])]
        if kind == "bit-sampling":
            return base + ["--family", "bit-sampling", "--d", str(m["bits_d"]), "--k", str(m["bits_k"])]
        return base + ["--family", "minhash", "--d", str(m["minhash_d"])]

    def check_output(self, kind, stdout, blob) -> list[str]:
        m = self.sizes.mc
        start, stop, count = m["grid"].split(":")
        grid = np.linspace(float(start), float(stop), int(count))
        if kind == "bit-sampling":
            ref = lambda t: bit_sampling_curve(t, m["bits_d"], m["bits_k"])
        else:
            ref = lambda t: minhash_curve(t, m["minhash_d"])
        return curve_problems(blob.decode(), grid, ref, "mc", samples=m["samples"])

    def samples_per_pass(self) -> int:
        m = self.sizes.mc
        return len(self.kinds) * int(m["grid"].split(":")[2]) * m["samples"]

    def named_metrics(self, times) -> dict:
        pass_s = sum(statistics.fmean(times[k]) for k in self.kinds)
        return {"mc_samples_per_s": (self.samples_per_pass() / pass_s, "1/s")}

    def env(self) -> dict:
        m = self.sizes.mc
        L = self.lshlab
        fam = L.power(L.bit_sampling_family(m["bits_d"]), m["bits_k"])
        return {"atoms": {"bit-sampling": len(fam.atoms), "minhash": "sampling law"},
                "samples_per_pass": self.samples_per_pass()}


WORKLOADS = {w.name: w for w in (AnnQuery, AnnCli, StabilityExact, StabilityMc)}
