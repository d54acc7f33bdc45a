import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lshlab
from lshlab import annindex, rng as rngmod
from lshlab.cli import main
from lshlab.points import Point, bits_to01, points_to_bit_matrix, save_points_binary, save_points_text
from lshlab.verify import SUITES


def run(args):
    return main(args)


# ---------------------------------------------------------------------------
# bounds


def test_bounds_table(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code = run([
        "bounds", "--c-min", "1", "--c-max", "10", "--steps", "19",
        "--d", "1000000", "--q", "0.5", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "c,im,ai,diim,mnp,main"
    assert len(lines) == 20
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[4]) == pytest.approx(0.4621171572600097, abs=1e-9)


def test_bounds_usage_error():
    assert run(["bounds", "--c-min", "5", "--c-max", "2"]) == 2


def test_bounds_jsonl_mirrors_csv(tmp_path):
    csv_out = tmp_path / "b.csv"
    jsonl_out = tmp_path / "b.jsonl"
    args = ["bounds", "--c-min", "1", "--c-max", "4", "--steps", "4", "--q", "0.5"]
    assert run(args + ["--out", str(csv_out)]) == 0
    assert run(args + ["--format", "jsonl", "--out", str(jsonl_out)]) == 0
    csv_lines = csv_out.read_text().strip().splitlines()
    header = csv_lines[0].split(",")
    for csv_line, json_line in zip(csv_lines[1:], jsonl_out.read_text().strip().splitlines()):
        obj = json.loads(json_line)
        for name, cell in zip(header, csv_line.split(",")):
            assert obj[name] == pytest.approx(float(cell), rel=1e-12)


# ---------------------------------------------------------------------------
# stability


def test_stability_dictator_curve(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = run([
        "stability", "--family", "bit-sampling", "--d", "6",
        "--t-grid", "0:2:9", "--out", str(out),
    ])
    assert code == 0
    assert "log-convexity: PASS" in capsys.readouterr().out
    rows = out.read_text().strip().splitlines()[1:]
    for row in rows:
        t, k = (float(v) for v in row.split(","))
        assert k == pytest.approx((1 + math.exp(-t)) / 2, abs=1e-12)


def test_stability_mc_mode(tmp_path):
    out = tmp_path / "mc.csv"
    code = run([
        "stability", "--family", "bit-sampling", "--d", "10", "--mode", "mc",
        "--samples", "500", "--t-grid", "0.5,1.0", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,K,stderr"


def test_stability_empty_grid_is_usage_error():
    assert run(["stability", "--family", "bit-sampling", "--d", "4", "--t-grid", ","]) == 2


def test_stability_powered_family(tmp_path):
    out = tmp_path / "p.csv"
    code = run([
        "stability", "--family", "bit-sampling", "--d", "5", "--k", "2",
        "--t-grid", "0:1:5", "--out", str(out),
    ])
    assert code == 0


# ---------------------------------------------------------------------------
# sensitivity


def test_sensitivity_bit_sampling(tmp_path):
    out = tmp_path / "sens.csv"
    code = run([
        "sensitivity", "--family", "bit-sampling", "--d", "8",
        "--r", "1", "--cr", "2", "--out", str(out),
    ])
    assert code == 0
    header, row = out.read_text().strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["p"]) == 0.875
    assert float(cells["q"]) == 0.75


def test_sensitivity_trivial_family_rho_undefined(tmp_path):
    out = tmp_path / "triv.csv"
    code = run([
        "sensitivity", "--family", "trivial", "--d", "4", "--r", "1",
        "--cr", "2", "--out", str(out),
    ])
    assert code == 0
    assert "undefined" in out.read_text()


def test_sensitivity_rejects_large_dimension():
    code = run([
        "sensitivity", "--family", "bit-sampling", "--d", "20", "--r", "1", "--cr", "2",
    ])
    assert code == 2


# ---------------------------------------------------------------------------
# index commands


@pytest.fixture
def point_file(tmp_path):
    g = rngmod.stream(55, 0)
    bits = points_to_bit_matrix([Point.random(24, g) for _ in range(80)])
    path = tmp_path / "pts.txt"
    save_points_text(bits, path)
    return path, bits


def test_index_build_and_query(tmp_path, point_file, capsys):
    path, bits = point_file
    idx_path = tmp_path / "idx.json"
    assert run([
        "index-build", "--data", str(path), "--r", "2", "--cr", "6",
        "--delta", "0.1", "--out", str(idx_path),
    ]) == 0
    out = tmp_path / "q.csv"
    assert run([
        "index-query", "--index", str(idx_path), "--point", bits_to01(bits)[3],
        "--out", str(out),
    ]) == 0
    header, row = out.read_text().strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["found"] == "1"
    assert cells["dist"] == "0"


def test_index_query_never_builds_the_tables(tmp_path, point_file, monkeypatch):
    # index-query answers from label matches: with the table build made to
    # fail, it still writes the row the table query of the loaded index gives,
    # for a stored point, a point near one, and a random point.
    path, bits = point_file
    idx_path = tmp_path / "idx.json"
    assert run(["index-build", "--data", str(path), "--r", "2", "--cr", "6", "--out", str(idx_path)]) == 0
    near = bits[5].copy()
    near[:2] ^= 1
    queries = bits_to01(np.stack([bits[3], near, points_to_bit_matrix([Point.random(24, rngmod.stream(57, 0))])[0]]))
    wanted = []
    for q in queries:
        trace = annindex.query_traced(annindex.load_index(idx_path), Point.from01(q))
        pid, dist = trace.result or (-1, -1)
        wanted.append(f"found,id,dist,inspected\n{int(trace.result is not None)},{pid},{dist},{trace.candidates_inspected}\n")

    def refuse(*args):
        raise AssertionError("index-query built the tables")

    monkeypatch.setattr(annindex.NNIndex, "_build_block", refuse)
    out = tmp_path / "q.csv"
    for q, want in zip(queries, wanted):
        assert run(["index-query", "--index", str(idx_path), "--point", q, "--out", str(out)]) == 0
        assert out.read_text() == want
    assert wanted[0].startswith("found,id,dist,inspected\n1,3,0,")


def test_index_query_missing_file(tmp_path):
    assert run([
        "index-query", "--index", str(tmp_path / "nope.json"), "--point", "0101",
    ]) == 2


def test_index_experiment(tmp_path):
    out = tmp_path / "exp.csv"
    code = run([
        "index-experiment", "--n", "200", "--d", "48", "--r", "3", "--c", "2",
        "--delta", "0.2", "--queries", "30", "--seed", "17", "--out", str(out),
    ])
    assert code == 0
    header, row = out.read_text().strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["success_rate"]) >= 0.7
    assert int(cells["total_entries"]) == 200 * int(cells["L"])


def test_index_build_same_seed_byte_identical(tmp_path, point_file):
    path, _ = point_file
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["index-build", "--data", str(path), "--r", "2", "--cr", "6", "--seed", "9"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_index_build_zero_radius_is_usage_error(tmp_path, point_file, capsys):
    path, _ = point_file
    code = run([
        "index-build", "--data", str(path), "--r", "0", "--cr", "6",
        "--out", str(tmp_path / "idx.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_index_build_honours_L_without_k(tmp_path, point_file):
    path, _ = point_file
    args = ["index-build", "--data", str(path), "--r", "2", "--cr", "6"]
    planned, capped = tmp_path / "planned.json", tmp_path / "capped.json"
    assert run(args + ["--out", str(planned)]) == 0
    assert run(args + ["--L", "3", "--out", str(capped)]) == 0
    want = json.loads(planned.read_text())["params"]
    got = json.loads(capped.read_text())["params"]
    assert want["L"] != 3
    assert got == {**want, "L": 3}
    assert got["predicted_p_k"] is not None and got["planned_rho"] is not None


def test_index_build_k_override_replans_L(tmp_path, point_file):
    path, _ = point_file
    args = ["index-build", "--data", str(path), "--r", "2", "--cr", "6", "--delta", "0.05"]
    planned, wider, both = (tmp_path / f"{name}.json" for name in ("planned", "wider", "both"))
    assert run(args + ["--out", str(planned)]) == 0
    want = json.loads(planned.read_text())["params"]
    k = want["k"] + 3
    assert run(args + ["--k", str(k), "--out", str(wider)]) == 0
    got = json.loads(wider.read_text())["params"]
    p_k = (1 - 2 / 24) ** k
    assert got == {**want, "k": k, "L": math.ceil(math.log(1 / 0.05) / p_k), "predicted_p_k": p_k}
    assert got["L"] > want["L"]
    # Both given: both honoured, and no success probability is claimed.
    assert run(args + ["--k", str(k), "--L", "2", "--out", str(both)]) == 0
    got = json.loads(both.read_text())["params"]
    assert got == {**want, "k": k, "L": 2, "predicted_p_k": None}


def test_index_build_keeps_integer_cr(tmp_path):
    # cr / r * r is 60.99999999999999 here; the stored radius must stay 61.
    g = rngmod.stream(58, 0)
    data = tmp_path / "p128.txt"
    save_points_text(points_to_bit_matrix([Point.random(128, g) for _ in range(20)]), data)
    out = tmp_path / "idx.json"
    for extra in ([], ["--k", "3"]):
        assert run(["index-build", "--data", str(data), "--r", "7", "--cr", "61", "--out", str(out)]
                   + extra) == 0
        params = json.loads(out.read_text())["params"]
        assert (params["r"], params["cr"]) == (7, 61)


def test_index_build_k_override_refuses_runaway_L(tmp_path, point_file, capsys):
    path, _ = point_file
    code = run(["index-build", "--data", str(path), "--r", "2", "--cr", "6", "--k", "400",
                "--out", str(tmp_path / "idx.json")])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "--L" in err[0]
    assert not (tmp_path / "idx.json").exists()


def test_index_build_from_text_and_binary_byte_identical(tmp_path, point_file):
    path, bits = point_file
    data = tmp_path / "pts.bin"
    save_points_binary(bits, data)
    args = ["index-build", "--r", "2", "--cr", "6", "--seed", "9"]
    assert run(args + ["--data", str(path), "--out", str(tmp_path / "a.json")]) == 0
    assert run(args + ["--data", str(data), "--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_index_build_k_override_skips_planning(tmp_path):
    # q = 1/4 < 1/n = 1/3: plan() refuses, but --k with --L needs no plan.
    data, out = tmp_path / "pts.txt", tmp_path / "idx.json"
    data.write_text("0000\n0111\n1011\n")
    assert run(["index-build", "--data", str(data), "--r", "1", "--cr", "3", "--out", str(out)]) == 2
    assert run(["index-build", "--data", str(data), "--r", "1", "--cr", "3", "--k", "1", "--L", "2",
                "--out", str(out)]) == 0
    params = json.loads(out.read_text())["params"]
    assert params == {"r": 1, "cr": 3, "k": 1, "L": 2, "delta": 0.1, "seed": rngmod.DEFAULT_SEED,
                      "n_planned": 3, "predicted_p_k": None, "planned_rho": params["planned_rho"]}
    assert params["planned_rho"] == pytest.approx(math.log(4 / 3) / math.log(4))
    # Without --L, L is re-planned from p^k = 3/4: ceil(ln 10 / 0.75) = 4.
    assert run(["index-build", "--data", str(data), "--r", "1", "--cr", "3", "--k", "1",
                "--out", str(out)]) == 0
    params = json.loads(out.read_text())["params"]
    assert (params["k"], params["L"], params["predicted_p_k"]) == (1, 4, 0.75)


def test_index_build_rejects_corrupt_binary_points(tmp_path, point_file):
    _, bits = point_file
    data = tmp_path / "pts.bin"
    save_points_binary(bits, data)
    data.write_bytes(data.read_bytes() + b"\xff")
    assert run([
        "index-build", "--data", str(data), "--r", "2", "--cr", "6",
        "--out", str(tmp_path / "idx.json"),
    ]) == 2


@pytest.mark.parametrize("case", ["true", "float", "negative", "past-the-end", "ragged", "wrong-k", "wrong-L"])
def test_index_query_refuses_bad_functions(tmp_path, point_file, capsys, case):
    # The loader's messages for each malformed row of part numbers, after
    # the file name, on one stderr line.
    path, _ = point_file
    good = tmp_path / "idx.json"
    assert run(["index-build", "--data", str(path), "--r", "2", "--cr", "6", "--k", "3", "--L", "4",
                "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    rows, n_parts = doc["functions"], len(doc["parts"])
    bad = {"true": True, "float": 1.0, "negative": -1, "past-the-end": n_parts}
    if case in bad:
        rows[1][2] = bad[case]
        message = f"functions must be lists of part numbers in [0, {n_parts})"
    elif case == "ragged":
        rows[2].pop()
        message = "function 2 is not a concatenation of k = 3 parts"
    elif case == "wrong-k":
        doc["functions"] = [row + [0] for row in rows]
        message = "function 0 is not a concatenation of k = 3 parts"
    else:
        rows.pop()
        message = "need exactly L = 4 functions, got 3"
    bad_path = tmp_path / f"{case}.json"
    bad_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["index-query", "--index", str(bad_path), "--point", "0" * 24]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {bad_path}: {message}"]


def test_index_query_refuses_bad_params(tmp_path, point_file, capsys):
    # A params field the loader checks (the rules are test_load_rejects_bad_params')
    # exits 2 at load, with the file's name, before any query.
    path, _ = point_file
    good = tmp_path / "idx.json"
    assert run(["index-build", "--data", str(path), "--r", "2", "--cr", "6", "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    doc["params"]["planned_rho"] = "x"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["index-query", "--index", str(bad_path), "--point", "0" * 24]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad_path}: planned_rho must be None or a finite real, got 'x'"]


@pytest.mark.parametrize("n, extra", [
    (50, ["--L", "100000000"]),
    (50, ["--k", "1000000000", "--L", "1"]),
    (600, ["--k", "1", "--L", str(1 << 22)]),
], ids=["huge-L", "huge-k", "n-times-L"])
def test_index_build_refuses_oversized_tables_before_drawing(tmp_path, monkeypatch, capsys, n, extra):
    # k*L parts past 2^22, or n*L entries past the int32 ids, exit 2 with one
    # line before a part table is drawn.
    def refuse(*args):
        raise AssertionError("a part table was drawn")

    monkeypatch.setattr("lshlab.annindex.sample_power", refuse)
    data = tmp_path / "pts.txt"
    save_points_text(np.zeros((n, 24), dtype=np.uint8), data)
    out = tmp_path / "idx.json"
    assert run(["index-build", "--data", str(data), "--r", "1", "--cr", "3", "--out", str(out)] + extra) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "k*L <= 4194304" in err[0] and "n*L <= 2147483647" in err[0]
    assert not out.exists()


@pytest.fixture
def bad_files(tmp_path, point_file):
    """Malformed index and family files, derived from one valid index."""
    path, _ = point_file
    good = tmp_path / "idx.json"
    assert run(["index-build", "--data", str(path), "--r", "2", "--cr", "6", "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    files = {
        "index-missing-key": {k: v for k, v in doc.items() if k != "params"},
        "index-unknown-param": {**doc, "params": {**doc["params"], "colour": 1}},
        "index-version-1": {**doc, "version": 1, "dim": 24, "tables": []},
        "index-k-mismatch": {**doc, "params": {**doc["params"], "k": doc["params"]["k"] + 5}},
        "index-float-L": {**doc, "params": {**doc["params"], "L": float(doc["params"]["L"])}},
        "index-L-mismatch": {**doc, "params": {**doc["params"], "L": doc["params"]["L"] + 1}},
        "index-float-cr": {**doc, "params": {**doc["params"], "cr": doc["params"]["cr"] + 0.5}},
        "index-bool-r": {**doc, "params": {**doc["params"], "r": True}},
        "index-short-point": {**doc, "points": [p[:-1] if i == 3 else p for i, p in enumerate(doc["points"])]},
        "index-function-dim": {**doc, "parts": [{**part, "d": 25} for part in doc["parts"]]},
        "index-bool-coordinate": {**doc, "parts": [{**doc["parts"][0], "i": True}] + doc["parts"][1:]},
        # Taken as a list index, -1 would silently name the last part.
        "index-negative-part": {**doc, "functions": [[-1] + doc["functions"][0][1:]] + doc["functions"][1:]},
        "family-missing-key": {"kind": "bit-sampling"},
        "family-not-object": [1, 2],
        # 1/2 + (1/2 + 10^-13): within 1e-12 of 1, but not exactly 1.
        "family-inexact-weights": {"kind": "finite", "d": 2, "atoms": [
            {"weight": "1/2", "fn": {"kind": "const", "d": 2}},
            {"weight": "5000000000001/10000000000000", "fn": {"kind": "proj", "d": 2, "i": 0}},
        ]},
        "family-zero-denominator": {"kind": "finite", "d": 2, "atoms": [
            {"weight": "1/0", "fn": {"kind": "const", "d": 2}},
        ]},
        "family-bool-coordinate": {"kind": "finite", "d": 2, "atoms": [
            {"weight": "1", "fn": {"kind": "proj", "d": 2, "i": True}},
        ]},
        # Read by truthiness, the string "false" would mark the family symmetric.
        "family-string-symmetric": {"kind": "finite", "d": 4, "distance_symmetric": "false", "atoms": [
            {"weight": "1/2", "fn": {"kind": "minperm", "d": 4, "perm": [0, 1, 2, 3]}},
            {"weight": "1/2", "fn": {"kind": "minperm", "d": 4, "perm": [3, 2, 1, 0]}},
        ]},
        "family-string-exact": {"kind": "minhash", "d": 4, "exact": "false"},
        # The dictator x -> x_0 is not distance-symmetric: taken at its word, q would read 0, not 1.
        "family-false-symmetric": {"kind": "finite", "d": 4, "distance_symmetric": True, "atoms": [
            {"weight": "1", "fn": {"kind": "proj", "d": 4, "i": 0}},
        ]},
        # A leaf's labels fit one 64-bit word.
        "family-wide-table": {"kind": "finite", "d": 1, "atoms": [
            {"weight": "1", "fn": {"kind": "table", "d": 1, "labels": [0, 1 << 64]}},
        ]},
        "family-wide-subset": {"kind": "finite", "d": 65, "atoms": [
            {"weight": "1", "fn": {"kind": "subset", "d": 65, "coords": list(range(65))}},
        ]},
        "family-wide-pair": {"kind": "finite", "d": 64, "atoms": [
            {"weight": "1", "fn": {"kind": "pair", "d": 64, "x": 0, "y": 1}},
        ]},
        "family-negative-d": {"kind": "finite", "d": -1, "atoms": [
            {"weight": "1", "fn": {"kind": "const", "d": -1}},
        ]},
        "family-zero-d": {"kind": "finite", "d": 0, "atoms": [
            {"weight": "1", "fn": {"kind": "const", "d": 0}},
        ]},
    }
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    (tmp_path / "bad-char.txt").write_text(path.read_text().replace("1", "2", 1))
    save_points_binary(np.zeros((3, 24), dtype=np.uint8), tmp_path / "truncated.bin")
    (tmp_path / "truncated.bin").write_bytes((tmp_path / "truncated.bin").read_bytes()[:-1])
    save_points_binary(np.zeros((0, 24), dtype=np.uint8), tmp_path / "zero-rows.bin")
    return tmp_path


# Non-finite floats are refused before any arithmetic, with no warning.
NON_FINITE = {
    "stability-grid-nan": (["stability", "--d", "4", "--t-grid", "nan,1"], "finite"),
    "stability-grid-inf": (["stability", "--d", "4", "--t-grid", "0,inf"], "finite"),
    "stability-grid-overflow": (["stability", "--d", "4", "--t-grid", "0,1e400"], "finite"),
    "stability-range-inf": (["stability", "--d", "4", "--t-grid", "0:inf:3"], "finite"),
    "stability-range-nan": (["stability", "--d", "4", "--t-grid", "nan:1:3"], "finite"),
    "stability-mc-grid-inf": (["stability", "--d", "4", "--mode", "mc", "--t-grid", "0,inf"], "finite"),
    "bounds-c-min-nan": (["bounds", "--c-min", "nan"], "--c-min"),
    "bounds-c-max-inf": (["bounds", "--c-max", "inf"], "--c-max"),
    "bounds-c-max-overflow": (["bounds", "--c-max", "1e400"], "--c-max"),
    "bounds-K-nan": (["bounds", "--K", "nan"], "K must be positive and finite"),
    "bounds-K-inf": (["bounds", "--K", "inf"], "K must be positive and finite"),
    "bounds-s-nan": (["bounds", "--s", "nan"], "exponent s"),
    "bounds-s-inf": (["bounds", "--s", "inf"], "exponent s"),
    "bounds-q-nan": (["bounds", "--q", "nan"], "q must lie in (0, 1)"),
}
QUERY = ["--point", "0" * 24]
BUILD = ["index-build", "--r", "2", "--cr", "6", "--out", "{dir}/never.json"]
# Seeds -5 and 2^64 once gave the streams of 2^64 - 5 and 0.
MC_SEED = ["stability", "--mode", "mc", "--d", "8", "--t-grid", "0,1", "--samples", "200", "--seed"]

USAGE_ERRORS = {
    # case: (argv, a fragment the one-line message must contain)
    "index-missing-key": (["index-query", "--index", "{dir}/index-missing-key.json"] + QUERY,
                          "index-missing-key.json"),
    "index-unknown-param": (["index-query", "--index", "{dir}/index-unknown-param.json"] + QUERY,
                            "index-unknown-param.json"),
    "index-version-1": (["index-query", "--index", "{dir}/index-version-1.json"] + QUERY,
                        "index-build"),
    "index-k-mismatch": (["index-query", "--index", "{dir}/index-k-mismatch.json"] + QUERY,
                         "index-k-mismatch.json"),
    "index-float-L": (["index-query", "--index", "{dir}/index-float-L.json"] + QUERY,
                      "index-float-L.json"),
    "index-L-mismatch": (["index-query", "--index", "{dir}/index-L-mismatch.json"] + QUERY,
                         "index-L-mismatch.json"),
    "index-float-cr": (["index-query", "--index", "{dir}/index-float-cr.json"] + QUERY,
                       "index-float-cr.json"),
    "index-bool-r": (["index-query", "--index", "{dir}/index-bool-r.json"] + QUERY,
                     "index-bool-r.json"),
    "index-short-point": (["index-query", "--index", "{dir}/index-short-point.json"] + QUERY,
                          "index-short-point.json"),
    "index-function-dim": (["index-query", "--index", "{dir}/index-function-dim.json"] + QUERY,
                           "index-function-dim.json"),
    "index-bool-coordinate": (["index-query", "--index", "{dir}/index-bool-coordinate.json"] + QUERY,
                              "index-bool-coordinate.json"),
    "index-negative-part": (["index-query", "--index", "{dir}/index-negative-part.json"] + QUERY,
                            "index-negative-part.json"),
    "query-point-length": (["index-query", "--index", "{dir}/idx.json", "--point", "0" * 23],
                           "dimension 23"),
    "build-bad-char": (BUILD + ["--data", "{dir}/bad-char.txt"], "bad-char.txt"),
    "build-truncated-bin": (BUILD + ["--data", "{dir}/truncated.bin"], "truncated.bin"),
    "build-zero-rows-bin": (BUILD + ["--data", "{dir}/zero-rows.bin"], "no points in"),
    "build-k-delta-0": (BUILD + ["--data", "{dir}/pts.txt", "--k", "3", "--delta", "0"], "--delta"),
    "family-missing-key": (["stability", "--family-file", "{dir}/family-missing-key.json",
                            "--t-grid", "0,1"], "family-missing-key.json"),
    "family-not-object": (["sensitivity", "--family-file", "{dir}/family-not-object.json",
                           "--r", "1", "--cr", "2"], "family-not-object.json"),
    "family-inexact-weights": (["sensitivity", "--family-file", "{dir}/family-inexact-weights.json",
                                "--r", "1", "--cr", "2"], "family-inexact-weights.json"),
    "stability-k-0": (["stability", "--family", "bit-sampling", "--d", "6", "--k", "0",
                       "--t-grid", "0,1"], "k"),
    "sensitivity-k-0": (["sensitivity", "--family", "bit-sampling", "--d", "6", "--k", "0",
                         "--r", "1", "--cr", "2"], "k"),
    "family-zero-denominator": (["stability", "--family-file", "{dir}/family-zero-denominator.json",
                                 "--t-grid", "0,1"], "family-zero-denominator.json"),
    "family-bool-coordinate": (["sensitivity", "--family-file", "{dir}/family-bool-coordinate.json",
                                "--r", "1", "--cr", "2"], "family-bool-coordinate.json"),
    "family-string-symmetric": (["sensitivity", "--family-file", "{dir}/family-string-symmetric.json",
                                 "--r", "1", "--cr", "3"], "family-string-symmetric.json"),
    "family-string-exact": (["stability", "--family-file", "{dir}/family-string-exact.json",
                             "--t-grid", "0,1"], "family-string-exact.json"),
    "family-false-symmetric": (["sensitivity", "--family-file", "{dir}/family-false-symmetric.json",
                                "--r", "1", "--cr", "2"], "distance_symmetric"),
    **{f"family-{name}": (["stability", "--family-file", f"{{dir}}/family-{name}.json", "--t-grid", "0,1"],
                          f"family-{name}.json")
       for name in ("wide-table", "wide-subset", "wide-pair", "negative-d", "zero-d")},
    "bounds-steps-0": (["bounds", "--steps", "0"], "--steps"),
    "bounds-K-0": (["bounds", "--K", "0"], "K must be positive"),
    "bounds-K-negative": (["bounds", "--K", "-1"], "K must be positive"),
    "stability-grid-negative": (["stability", "--d", "4", "--t-grid", "0:-1:3"], "nonnegative"),
    **NON_FINITE,
    "experiment-no-queries": (["index-experiment", "--n", "50", "--d", "16", "--r", "1",
                               "--queries", "0"], "query"),
    "verify-unknown-suite": (["verify", "--suite", "no-such-suite"], "no-such-suite"),
    "seed-negative": (MC_SEED + ["-5"], "seed must lie in [0, 2^64)"),
    "seed-2-64": (MC_SEED + [str(1 << 64)], "seed must lie in [0, 2^64)"),
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_errors_exit_2_with_one_line(bad_files, capsys, case):
    # main() runs in-process, so a crash fails the test by raising instead
    # of printing a traceback.
    argv, fragment = USAGE_ERRORS[case]
    assert run([a.format(dir=bad_files) for a in argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert fragment in err[0]


def _exits_under_warnings_as_errors(cases):
    """'<exit code> <stderr lines>' of each command line in `cases`, run
    with its output captured in a fresh interpreter that turns every
    RuntimeWarning into an error, as CI runs the CLI."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lshlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = (
        "import contextlib, io, sys\n"
        "from lshlab.cli import main\n"
        "for argv in sys.argv[1:]:\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "        code = main(argv.split())\n"
        "    print(code, len(err.getvalue().splitlines()))\n"
    )
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", child, *cases],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_huge_dimension_exits_2_before_building_the_family(monkeypatch, capsys):
    # Exact spectra stop at d = 20 and enumeration at d = 14; a million-atom
    # family is refused by its --d before it is built.
    def refuse(d):
        raise AssertionError(f"bit_sampling_family({d}) was built")

    monkeypatch.setattr("lshlab.cli.bit_sampling_family", refuse)
    assert run(["stability", "--d", "1000000", "--t-grid", "0,1,2"]) == 2
    assert "d <= 20" in capsys.readouterr().err
    assert run(["sensitivity", "--d", "1000000", "--r", "1", "--cr", "2"]) == 2
    assert "d <= 14" in capsys.readouterr().err


def test_non_finite_floats_exit_2_under_warnings_as_errors():
    # Each case still exits 2 with one stderr line.
    cases = [" ".join(argv) for argv, _ in NON_FINITE.values()]
    assert _exits_under_warnings_as_errors(cases) == ["2 1"] * len(cases)


def test_huge_finite_inputs_exit_0_under_warnings_as_errors():
    # Finite inputs near the float limit: 1/c^2 and 1/c^s underflow to 0
    # where c^2 and c^s would overflow, and log-convexity midpoints of times
    # past 9e307 are summed from halves.
    cases = [
        "bounds --c-max 1e308",
        "bounds --s 1e308",
        "stability --d 4 --t-grid 1e308,1.5e308,1.7e308",
    ]
    assert _exits_under_warnings_as_errors(cases) == ["0 0"] * len(cases)


# ---------------------------------------------------------------------------
# verify


def test_verify_single_suite(tmp_path):
    out = tmp_path / "rep.txt"
    assert run(["verify", "--suite", "parseval", "--out", str(out)]) == 0
    text = out.read_text()
    assert "suite parseval: PASS" in text
    assert text.endswith("overall: PASS\n")


@pytest.mark.parametrize("suite", SUITES)
def test_verify_corruption_hook_names_suite(tmp_path, suite):
    out = tmp_path / "rep.txt"
    code = run(["verify", "--suite", suite, "--corrupt", suite, "--out", str(out)])
    assert code == 1
    assert f"suite {suite}: FAIL" in out.read_text()


def test_verify_full_suite_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(["verify", "--seed", "1729", "--out", str(a)]) == 0
    assert run(["verify", "--seed", "1729", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_loads_no_scipy(tmp_path):
    # numpy is the one runtime dependency; the tests' scipy oracles are
    # already loaded in this process, so the check runs in a fresh one.
    out = tmp_path / "rep.txt"
    child = (
        "import sys, lshlab, lshlab.cli\n"
        f"code = lshlab.cli.main(['verify', '--suite', 'all', '--out', {str(out)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(lshlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 []\n"
    assert out.read_text().endswith("overall: PASS\n")
