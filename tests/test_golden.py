"""Outputs pinned at fixed seeds: Monte Carlo estimates and CLI files.

The Monte Carlo values were recorded with one function draw and one pair
evaluation per sample; the batch paths must reproduce them exactly. The
index-query digests were recorded against version-1 index files, which
stored the tables; version 2 rebuilds them on load and must answer the same.
"""

import hashlib
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
    family_to_json,
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
    (tmp_path / "weighted.json").write_text(family_to_json(_weighted_family()))
    return tmp_path


GOLDEN_RUNS = {
    # Index files in format version 2.
    "index-24": (
        ["index-build", "--data", "{dir}/p24.txt", "--r", "2", "--cr", "6", "--seed", "9"],
        "70f85db2be57d8d3c08fa4d6f1762200597deb5c5b17225fafbda65061343fbf",
    ),
    # k = 260: every label is a 260-bit integer.
    "index-128-wide-labels": (
        ["index-build", "--data", "{dir}/p128.txt", "--r", "1", "--cr", "2", "--seed", "4"],
        "e9f8cb00e1168d01080d5f01fa09665d085c7228fb1a2d1a994a15d5ad22437f",
    ),
    # Exact curves: every spectrum row is an exact integer over 4^d, and the
    # weighted family pins the float accumulation order over its atoms.
    "exact-bit-sampling-k2": (
        ["stability", "--family", "bit-sampling", "--d", "10", "--k", "2", "--t-grid", "0:3:7"],
        "d9fd39afa07c4914d7453881ce8fa7e9d74ece750453bf121f42ad8bd17d8416",
    ),
    "exact-minhash": (
        ["stability", "--family", "minhash", "--d", "6", "--t-grid", "0:3:7"],
        "2207c786e083484797992051e50c212cacc99a74ffc6dae0cb97f10f12220a5c",
    ),
    "exact-trivial": (
        ["stability", "--family", "trivial", "--d", "6", "--r", "1", "--t-grid", "0:3:7"],
        "5e589e2c60d0fc01d775d812b7ff38a3d45ca51eaa7a37f17753187eb116f249",
    ),
    "exact-weighted-family-file": (
        ["stability", "--family-file", "{dir}/weighted.json", "--t-grid", "0:3:7"],
        "f8326deb71895f8701d14bcf804585ebd8a70f4b5c0531a0cf09fbaf817e9fc6",
    ),
    "mc-bit-sampling-k2": (
        ["stability", "--mode", "mc", "--family", "bit-sampling", "--d", "12", "--k", "2",
         "--t-grid", "0:3:4", "--samples", "5000", "--seed", "3"],
        "e8b35ffb6f4e1c6bfd7c772ee960a09a53573302ee814efe7b0c220cfbe9514e",
    ),
    "mc-minhash-law": (
        ["stability", "--mode", "mc", "--family", "minhash", "--d", "20",
         "--t-grid", "0:3:4", "--samples", "5000", "--seed", "3"],
        "dab8b574ee328bf4640aa8458f0c36402ce36d75b0a3c49ba686e609102a57f6",
    ),
    # 720^2 atoms exceed the materialization limit, so this is a power law
    # over a finite base.
    "mc-exact-minhash-k2": (
        ["stability", "--mode", "mc", "--family", "minhash", "--d", "6", "--k", "2",
         "--t-grid", "0.5,1.5", "--samples", "3000", "--seed", "5"],
        "c3f768715f1e96214b9c6ee750a21be403c7ac35079334fb07d058f5cec2008a",
    ),
    "mc-weighted-family-file": (
        ["stability", "--mode", "mc", "--family-file", "{dir}/weighted.json",
         "--t-grid", "0.25,1", "--samples", "3000", "--seed", "8"],
        "3074a8489869ec47b69e925f00a31a607f97106bf4986916a55d7585f42b849e",
    ),
    # Every suite of the certification path: spectra, oracle, curves,
    # sandwich tails and Chernoff domination.
    "verify-1729": (
        ["verify", "--seed", "1729"],
        "151c591bb877dde931eb1edeb8610b833dae793afc914919ec1257e82d54c93b",
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
