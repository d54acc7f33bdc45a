"""Outputs pinned at fixed seeds: Monte Carlo estimates and CLI files.

The Monte Carlo values were recorded with one function draw and one pair
evaluation per sample; the batch paths must reproduce them exactly. The
index-query digests were recorded against version-1 index files, which
stored the tables; format version 3 stores each distinct part once, rebuilds
the tables on load and must answer the same.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from lshlab import rng as rngmod
from lshlab.cli import main
from lshlab.hashing import (
    CoordinateProjection,
    CoordinateSubset,
    MinHashPermutation,
    Parity,
    bit_sampling_family,
    family_descriptor,
    finite_family,
    minhash_family,
    power,
)
from lshlab.points import Point, bit_rows_to_points, load_points_text, points_to_bit_matrix, save_points_text
from lshlab.sampling import mc_stability


def _weighted_family():
    fns = [CoordinateProjection(10, 0), CoordinateProjection(10, 3), Parity(10, (1, 2, 5)),
           CoordinateSubset(10, (4, 7, 9)), MinHashPermutation(10, (3, 1, 4, 0, 5, 9, 2, 6, 8, 7))]
    return finite_family(fns, [Fraction(1, 2), Fraction(1, 8), Fraction(1, 8), Fraction(3, 16), Fraction(1, 16)])


@pytest.mark.parametrize("family, hits", [
    (bit_sampling_family(10), 3983),
    (_weighted_family(), 3545),
    (minhash_family(12), 3331),
    (power(minhash_family(6), 2), 2600),
], ids=["uniform", "weighted", "minhash-law", "minhash-law-power"])
def test_mc_stability_golden(family, hits):
    # 5000 samples: one full chunk and one partial chunk.
    est = mc_stability(family, 0.6, 5000, seed=21)
    assert est.estimate == hits / 5000


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def data_dir(tmp_path):
    g = rngmod.stream(55, 0)
    save_points_text(points_to_bit_matrix([Point.random(24, g) for _ in range(80)]), tmp_path / "p24.txt")
    g = rngmod.stream(56, 0)
    save_points_text(points_to_bit_matrix([Point.random(128, g) for _ in range(60)]), tmp_path / "p128.txt")
    (tmp_path / "weighted.json").write_text(json.dumps(family_descriptor(_weighted_family()), sort_keys=True))
    return tmp_path


GOLDEN_RUNS = {
    # Index files in format version 3: each distinct part once, and each
    # function as a row of part numbers.
    "index-24": (
        ["index-build", "--data", "{dir}/p24.txt", "--r", "2", "--cr", "6", "--seed", "9"],
        "8f55f6797adc062b408d1d6f941d466e0e598e831b3350cc9ee75c4750865af5",
    ),
    # k = 260: every label is a 260-bit integer.
    "index-128-wide-labels": (
        ["index-build", "--data", "{dir}/p128.txt", "--r", "1", "--cr", "2", "--seed", "4"],
        "40f42ace7d72a511aa6b9d7c8b58a479d9a5e7d4a295befec56e6a60f018f057",
    ),
    # Exact curves: every level weight is an exact rational rounded once, so
    # the bit-sampling and trivial curves read K(0) = 1.
    "exact-bit-sampling-k2": (
        ["stability", "--family", "bit-sampling", "--d", "10", "--k", "2", "--t-grid", "0:3:7"],
        "612ec63d3b31decaa704a4e2bfbbc95f4c494b4a4e714bef818cbedf27407e08",
    ),
    "exact-minhash": (
        ["stability", "--family", "minhash", "--d", "6", "--t-grid", "0:3:7"],
        "72076a013b81cb20bd8bdca5222eec4ae5e807fc629502e8dd19e8cbc0645df7",
    ),
    "exact-trivial": (
        ["stability", "--family", "trivial", "--d", "6", "--r", "1", "--t-grid", "0:3:7"],
        "2afc325bfd904e61134abf4dbe6633eeebf79a765168460241eace4d737f3141",
    ),
    # Large orbits, one transform each: all 40,320 MinHash atoms, the
    # 5,120 + 23,040 pair collapses at distances 1 and 2, and 2,744
    # projection triples of 5 repetition patterns.
    "exact-minhash-8": (
        ["stability", "--family", "minhash", "--d", "8", "--t-grid", "0:3:7"],
        "7aaddbd413865f9bc0d13100d26b01df3c220636e4d9594cd6b5cdb15c567869",
    ),
    "exact-trivial-10-r2": (
        ["stability", "--family", "trivial", "--d", "10", "--r", "2", "--t-grid", "0:3:7"],
        "e00e558d1f3891ee89a19ae617bf3a4809f7f42db97aca1ec37158afe4940b89",
    ),
    "exact-bit-sampling-14-k3": (
        ["stability", "--family", "bit-sampling", "--d", "14", "--k", "3", "--t-grid", "0:3:7"],
        "48e9619762fc3c44fa31a0a3cad1b792e84fa550374b18f0ffb9f6d7dd42abf5",
    ),
    "exact-weighted-family-file": (
        ["stability", "--family-file", "{dir}/weighted.json", "--t-grid", "0:3:7"],
        "f8326deb71895f8701d14bcf804585ebd8a70f4b5c0531a0cf09fbaf817e9fc6",
    ),
    # Monte Carlo curves: grid point i draws chunk j from substream
    # (i << 32) + j of the seed.
    "mc-bit-sampling-k2": (
        ["stability", "--mode", "mc", "--family", "bit-sampling", "--d", "12", "--k", "2",
         "--t-grid", "0:3:4", "--samples", "5000", "--seed", "3"],
        "477843f6e1c571197881bfe1bd3c70739b4868670c13dc5d6925d1293d03c728",
    ),
    "mc-minhash-law": (
        ["stability", "--mode", "mc", "--family", "minhash", "--d", "20",
         "--t-grid", "0:3:4", "--samples", "5000", "--seed", "3"],
        "44a19ff1e6ecbafeb4579f3e3f6c08d329d17318a09c41470aa8fae192beee05",
    ),
    # 720^2 atoms exceed the materialization limit, so this is a power law
    # over a finite base.
    "mc-exact-minhash-k2": (
        ["stability", "--mode", "mc", "--family", "minhash", "--d", "6", "--k", "2",
         "--t-grid", "0.5,1.5", "--samples", "3000", "--seed", "5"],
        "9fc91a7595039d50d3264fa72fb4795ce197389de3696fdb207ec248e6c9fa77",
    ),
    "mc-weighted-family-file": (
        ["stability", "--mode", "mc", "--family-file", "{dir}/weighted.json",
         "--t-grid", "0.25,1", "--samples", "3000", "--seed", "8"],
        "d2a544ebfc1d6056147cb8e7b37f8102163f1cb68eba3d73c527834373cb842a",
    ),
    # Every suite of the certification path: spectra, oracle, curves,
    # sandwich tails and Chernoff domination.
    "verify-1729": (
        ["verify", "--seed", "1729"],
        "151c591bb877dde931eb1edeb8610b833dae793afc914919ec1257e82d54c93b",
    ),
    # Tables whose columns are their records' fields.
    "bounds-csv": (
        ["bounds", "--steps", "5"],
        "222f054a62df9c2c8e2df33ab08587409a2da75dfd5dfabeb15102ad0cb1843a",
    ),
    "bounds-jsonl": (
        ["bounds", "--steps", "5", "--format", "jsonl"],
        "ed941b5ec86c8dce1c0aab362442a3e2e7e60e6e1fbbdea35bc27b106dee5269",
    ),
    "index-experiment-csv": (
        ["index-experiment", "--n", "300", "--d", "48", "--r", "3", "--queries", "40"],
        "6b16f03045d9fdab0f268dba1c540959f298c1a8b6c415cec5e9cedeafe2b0a0",
    ),
    "index-experiment-jsonl": (
        ["index-experiment", "--n", "300", "--d", "48", "--r", "3", "--queries", "40", "--format", "jsonl"],
        "a268a505ffaa44d87e2993330553fbabdcb55bf0da2c85ce3ace53ccebd55083",
    ),
    # Named families: exact MinHash up to d = 8, its sampling law one past
    # that, and the trivial family at its --r.
    "sensitivity-exact-minhash": (
        ["sensitivity", "--family", "minhash", "--d", "5", "--r", "1", "--cr", "3"],
        "82627251fb1d4177dbf99a2b5e08934f69485110537cdc7c2a35ea277d2595e6",
    ),
    "mc-minhash-law-d9": (
        ["stability", "--mode", "mc", "--family", "minhash", "--d", "9", "--t-grid", "0,1", "--samples", "2000"],
        "4b7cac957cd8fd68f9a43498ffe86ce44b38a6e506b0f7c616eccb2d1cb28330",
    ),
    "sensitivity-trivial": (
        ["sensitivity", "--family", "trivial", "--d", "6", "--r", "1", "--cr", "2"],
        "34d3fa78bd348f7a0742e94cbc1bf03dbb25700f57b25fac2586232f96f1bebb",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_cli_output_golden(data_dir, name):
    argv, digest = GOLDEN_RUNS[name]
    out = data_dir / f"{name}.out"
    assert main([a.format(dir=data_dir) for a in argv] + ["--out", str(out)]) == 0
    assert _sha256(out) == digest


@pytest.mark.parametrize("name, digest", [
    ("index-24", "9ce678017888aa7fb9ae9621998b617eefef244aac8a802a9454b21066eac1ae"),
    ("index-128-wide-labels", "b4caac8517187e31eb7d963e8fb146e267c4d3ed1119502179ad0a15a852711f"),
])
def test_index_query_golden(data_dir, name, digest):
    # Planted (distance r from a stored point) and uniform random queries
    # against a saved index; the digest covers every query's CSV output.
    argv = [a.format(dir=data_dir) for a in GOLDEN_RUNS[name][0]]
    index = data_dir / f"{name}.json"
    assert main(argv + ["--out", str(index)]) == 0
    points = bit_rows_to_points(load_points_text(argv[argv.index("--data") + 1]))
    d, r = points[0].dim, int(argv[argv.index("--r") + 1])
    g = rngmod.stream(57, 0)
    queries = [
        points[int(g.integers(len(points)))].flip(int(i) for i in g.choice(d, size=r, replace=False))
        for _ in range(5)
    ] + [Point.random(d, g) for _ in range(5)]
    out = data_dir / "query.csv"
    digest_of = hashlib.sha256()
    for x in queries:
        assert main(["index-query", "--index", str(index), "--point", x.to01(), "--out", str(out)]) == 0
        digest_of.update(out.read_bytes())
    assert digest_of.hexdigest() == digest
