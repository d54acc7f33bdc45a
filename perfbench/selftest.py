"""Self-test of the benchmark: `python3 perfbench/run.py --self-test`.

1. Runs every workload at a tiny size, untraced and traced, twice at one
   seed, and requires zero failures, and the same output digest and exact
   counts from both runs.
2. Feeds each checker deliberately wrong results and requires every one to
   be counted as a failure (and the unaltered result to pass).
3. Checks that BENCHMARK.json names exactly the workloads and metrics the
   benchmark emits.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import run
from layers import PER_LAYER
from workloads import WORKLOADS, Sizes, distances, minhash_curve

SEED = 7


class _Failures:
    def __init__(self):
        self.items: list[str] = []

    def expect(self, cond: bool, what: str) -> None:
        print(f"  {'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            self.items.append(what)


def tiny_runs(f: _Failures) -> None:
    for name in WORKLOADS:
        for trace in (False, True):
            results = []
            for _ in range(2):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    res, record = run.run_workload(name, SEED, 0.4, trace, Sizes(tiny=True))
                results.append((res, record, buf.getvalue()))
            (r1, rec1, out1), (r2, rec2, out2) = results
            label = f"{name} {'traced' if trace else 'untraced'}"
            f.expect(r1["correct"] and r2["correct"] and r1["failed"] == r2["failed"] == 0,
                     f"{label}: no failed operation")
            if r1["failed"] or r2["failed"]:
                print(out1 + out2)
            f.expect(rec1 == rec2, f"{label}: digests and counts repeat across two runs")
            if rec1 != rec2:
                print(f"    {rec1}\n    {rec2}")
            want = {n for n, *_ in PER_LAYER} if trace else {"setup_s", "peak_rss_mb", "pass_s"}
            f.expect(set(r1["metrics"]) == want, f"{label}: reports exactly its metric set")


def _says(problems, text) -> bool:
    return any(text in p for p in problems)


def _workload(name, workdir):
    wl = WORKLOADS[name](run.import_lshlab(), SEED, workdir, Sizes(tiny=True))
    wl.setup()
    return wl


def fault_injection(f: _Failures, workdir: str) -> None:
    L = run.import_lshlab()

    # ann-query: a point beyond cr, a wrong reported distance, and a random
    # query answered although nothing lies within cr.
    wl = _workload("ann-query", workdir)
    QueryTrace = L.annindex.QueryTrace
    q = wl.query_words["random"][0]
    dists = distances(q, wl.data_words)
    far = int(dists.argmax())
    f.expect(wl.check("random", 0, QueryTrace(None, 0, 1, 1)) == [], "ann-query: a miss is accepted")
    problems = wl.check("random", 0, QueryTrace((far, int(dists[far])), 1, 1, 1))
    f.expect(_says(problems, "beyond cr") and _says(problems, "no point lies within cr"),
             "ann-query: a random query answered beyond cr is a failure")
    planted = wl.run("planted", 0)
    f.expect(wl.check("planted", 0, planted) == [], "ann-query: a real planted answer passes")
    if planted.result is not None:
        pid, dist = planted.result
        f.expect(_says(wl.check("planted", 0, QueryTrace((pid, dist + 1), 1, 1, 1)), "numpy distance"),
                 "ann-query: a wrong reported distance is a failure")

    # ann-cli: non-zero exit, altered bytes, an answer beyond cr.
    wl = _workload("ann-cli", workdir)
    built = wl.run("build", 0)
    f.expect(wl.check("build", 0, built) == [], "ann-cli: a real build passes")
    f.expect(_says(wl.check("build", 0, (1, "", "boom")), "exited 1"), "ann-cli: a non-zero exit is a failure")
    index_bytes = wl.output("build")
    f.expect(_says(wl.check("build", 0, built, index_bytes + b" "), "differs from the first pass"),
             "ann-cli: an index file whose bytes changed is a failure")
    answered = wl.run("query", 1)
    real = wl.output("query")
    f.expect(wl.check("query", 1, answered, real) == [], "ann-cli: a real random query passes")
    dists = distances(wl.query_words[1], wl.data_words)
    far = int(dists.argmax())
    wrong = f"found,id,dist,inspected\n1,{far},{int(dists[far])},1\n".encode()
    f.expect(_says(wl.check("query", 9, answered, wrong), "beyond cr"),
             "ann-cli: a query answered beyond cr is a failure")

    # stability-exact: FAIL certificate, a curve off by 1e-9, a failed suite.
    wl = _workload("stability-exact", workdir)
    for kind in wl.kinds:
        out = wl.run(kind, 0)
        f.expect(wl.check(kind, 0, out) == [], f"stability-exact: real {kind} output passes")
    out = wl.run("bit-sampling", 0)
    rc, stdout, err = out
    blob = open(wl.paths["bit-sampling"], "rb").read()
    f.expect(_says(wl.check_output("bit-sampling", stdout.replace("PASS", "FAIL"), blob), "FAIL"),
             "stability-exact: a log-convexity FAIL is a failure")
    lines = blob.decode().splitlines()
    t, k = lines[3].split(",")
    lines[3] = f"{t},{float(k) + 1e-9!r}"
    f.expect(_says(wl.check_output("bit-sampling", stdout, ("\n".join(lines) + "\n").encode()), "differs from"),
             "stability-exact: a curve off by 1e-9 is a failure")
    report = open(wl.paths["verify"], "rb").read().replace(b": PASS", b": FAIL", 1)
    f.expect(_says(wl.check_output("verify", "", report), "FAIL"), "stability-exact: a failed suite is a failure")
    rows = open(wl.paths["sensitivity"]).read().splitlines()
    cells = rows[1].split(",")
    cells[3] = repr(float(cells[3]) + 1e-3)
    rows[1] = ",".join(cells)
    f.expect(_says(wl.check_output("sensitivity", "", ("\n".join(rows) + "\n").encode()), "want"),
             "stability-exact: a wrong exact q is a failure")

    # stability-mc: an MC row moved by 6 stderr.
    wl = _workload("stability-mc", workdir)
    out = wl.run("minhash", 0)
    f.expect(wl.check("minhash", 0, out) == [], "stability-mc: real minhash output passes")
    lines = open(wl.paths["minhash"]).read().splitlines()
    t, k, se = lines[3].split(",")
    n, d = wl.sizes.mc["samples"], wl.sizes.mc["minhash_d"]
    ref = minhash_curve(float(t), d)
    moved = ref + 6 * math.sqrt(ref * (1 - ref) / n)
    for row, why in ((f"{t},{moved!r},{math.sqrt(moved * (1 - moved) / n)!r}", "5 stderr"),
                     (f"{t},{float(k) + 1e-3!r},{se}", "binomial value")):
        altered = lines[:3] + [row] + lines[4:]
        f.expect(_says(wl.check_output("minhash", "", ("\n".join(altered) + "\n").encode()), why),
                 f"stability-mc: an altered MC row is a failure ({why})")

    # The loop counts an exception as a failed operation.
    class Crashing:
        kinds = ("boom",)
        window = 2
        collect_between_ops = False

        def run(self, kind, i):
            raise RuntimeError("injected")

    log = run.run_passes(Crashing(), 0.0, run.SpeedProbe())
    f.expect(log.attempted == 2 and log.failed == 2, "loop: an exception is a failed operation")


def manifest(f: _Failures) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    f.expect({w["name"] for w in bench["workloads"]} == set(WORKLOADS), "BENCHMARK.json workloads")
    f.expect([m["name"] for m in bench["end_to_end"]] == ["setup_s", "peak_rss_mb", "pass_s"],
             "BENCHMARK.json end-to-end metrics")
    f.expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
             == [(n, u, b) for n, u, b, *_ in PER_LAYER], "BENCHMARK.json per-layer metrics")


def main() -> int:
    f = _Failures()
    out_dir = run.OUT_DIR = os.path.join(run.ROOT, ".perfbench", "selftest")
    shutil.rmtree(out_dir, ignore_errors=True)
    workdir = os.path.join(out_dir, "faults")
    os.makedirs(workdir)
    try:
        print("tiny runs:")
        tiny_runs(f)
        print("fault injection:")
        fault_injection(f, workdir)
        print("manifest:")
        manifest(f)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(f"self-test: {'PASS' if not f.items else 'FAIL'} ({len(f.items)} failed)")
    return 1 if f.items else 0
