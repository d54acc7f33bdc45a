"""lshlab benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload ann-query --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16   # every workload, one process each
    python3 perfbench/run.py --self-test                              # tiny sizes plus checker faults

Run from the repository root; the program is imported from `src/`. The
seed drives the dataset, the queries and the `--seed` handed to the program.
Times are in reference seconds: raw time scaled by the host speed that a
fixed probe measured meanwhile (see probe.py).
With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` the run first measures untraced for half the time, then installs
span wrappers around every public lshlab function and measures again, and
the last line carries the per-layer metrics. Lines before it name every
metric with its unit, the error rate, the output digest, the exact counts
and the environment; a traced run also writes its raw spans under
`.perfbench/`.

Gated end-to-end metrics, on every workload:

- `setup_s`: median of SETUP_REPEATS set-ups. One set-up is the package's
  import time in a fresh interpreter plus the workload's own preparation.
- `peak_rss_mb`: peak resident memory of the workload's process.
- `pass_s`: time of one pass (see `pass_seconds`).

Each workload also prints its own named metrics (`named_metrics` in
workloads.py); per-layer metrics are listed in layers.py.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# One thread everywhere, and the program's own thread knob unset, before numpy loads.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
LSHLAB_THREADS_STATE = os.environ.pop("LSHLAB_THREADS", None)
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5

sys.path.insert(0, HERE)
from layers import PER_LAYER, layer_metrics  # noqa: E402
from probe import REFERENCE_S, SpeedProbe  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402


def import_lshlab():
    if not os.path.isfile(os.path.join(SRC, "lshlab", "__init__.py")):
        raise SystemExit(f"error: no lshlab package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import lshlab
    import lshlab.cli  # noqa: F401  (cli is not re-exported by the package)

    if os.path.dirname(os.path.dirname(os.path.abspath(lshlab.__file__))) != SRC:
        raise SystemExit(f"error: imported lshlab from {lshlab.__file__}, not from {SRC}")
    return lshlab


_IMPORT_CHILD = """
import time, probe
before = probe.mean_reading()
t0 = time.perf_counter()
import lshlab, lshlab.cli
dt = time.perf_counter() - t0
print(dt, (before + probe.mean_reading()) / 2)
"""


def fresh_import() -> tuple[float, float]:
    """Import time of the package in a new interpreter, which every CLI call
    pays: (raw seconds, reference seconds by the child's own probe). numpy
    is already loaded by the probe, so this is the package's own import cost."""
    env = {k: v for k, v in os.environ.items() if k != "LSHLAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    done = subprocess.run([sys.executable, "-c", _IMPORT_CHILD], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    raw, reading = (float(v) for v in done.stdout.split())
    return raw, raw * REFERENCE_S / reading


class PassLog:
    def __init__(self, kinds):
        self.times = {k: [] for k in kinds}  # reference seconds
        self.raw = {k: [] for k in kinds}  # wall seconds, probing taken out
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()

    def fail(self, where: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{where}: {why}")


def run_passes(wl, seconds: float, probe: SpeedProbe, tracer: Tracer | None = None) -> PassLog:
    """Closed loop: pass after pass until `seconds` have gone by, and never
    fewer than the workload's count window."""
    log = PassLog(wl.kinds)
    clock = time.perf_counter
    deadline = clock() + seconds
    i = 0
    while i < wl.window or clock() < deadline:
        if tracer is not None:
            tracer.current_pass = i
            tracer.counting = i < wl.window
        wall = 0.0
        for kind in wl.kinds:
            log.attempted += 1
            where = f"pass {i} {kind}"
            mark = probe.mark()
            t0 = clock()
            try:
                out = wl.run(kind, i)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                log.fail(where, f"{type(exc).__name__}: {exc}")
                continue
            raw, ref = probe.convert(mark, clock() - t0)
            log.raw[kind].append(raw)
            log.times[kind].append(ref)
            wall += ref
            try:
                problems = wl.check(kind, i, out)
                if i < wl.window:
                    log.digest.update(wl.digest_line(kind, i, out))
            except Exception as exc:
                problems = [f"checker raised {type(exc).__name__}: {exc}"]
            if problems:
                log.fail(where, "; ".join(problems))
            if wl.collect_between_ops:
                gc.collect()
        log.walls.append(wall)
        i += 1
    if tracer is not None:
        tracer.current_pass = -1
        tracer.counting = False
    return log


def pass_seconds(times: dict) -> float:
    """Time for one pass: the sum over operation kinds of each kind's mean.

    In a closed loop the mean is what sets throughput. It is also the steady
    statistic here: while the host flips between a fast and a slow mode, the
    median of many short operations jumps between the modes (39% run-to-run
    spread on ann-query, 7% after conversion to reference seconds), where the
    mean follows the mix (20%, and 3% after conversion)."""
    return sum(statistics.fmean(t) for t in times.values() if t)


def environment(wl, seed: int) -> dict:
    import scipy

    return {
        "workload": wl.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "LSHLAB_THREADS": "unset" if LSHLAB_THREADS_STATE is None else f"removed (was {LSHLAB_THREADS_STATE!r})",
        **wl.env(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, dict]:
    """Returns the result line and the run's record: the output digest of
    the count window and, for a traced run, its exact counts."""
    lshlab = import_lshlab()
    sizes = sizes or Sizes()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with SpeedProbe() as probe:
            wl, setups, raw_setups = None, [], []
            for _ in range(SETUP_REPEATS):
                # Free the previous set-up first, so memory holds one at a time.
                wl = None
                gc.collect()
                import_raw, import_ref = fresh_import()
                wl = WORKLOADS[name](lshlab, seed, workdir, sizes)
                mark = probe.mark()
                t0 = time.perf_counter()
                wl.setup()
                raw, ref = probe.convert(mark, time.perf_counter() - t0)
                raw_setups.append(import_raw + raw)
                setups.append(import_ref + ref)

            if not trace:
                log = run_passes(wl, seconds, probe)
                logs = [log]
                metrics = {
                    "setup_s": (float(np.median(setups)), "s"),
                    "peak_rss_mb": (peak_rss_mb(), "MB"),
                    "pass_s": (pass_seconds(log.times), "s"),
                }
                shown = {
                    **metrics,
                    **wl.named_metrics(log.times),
                    "raw_setup_s": (float(np.median(raw_setups)), "s"),
                    "raw_pass_s": (pass_seconds(log.raw), "s"),
                    "probe_ms": (1e3 * REFERENCE_S / probe.scale(), "ms"),
                }
                counts = None
            else:
                untraced = run_passes(wl, seconds / 2, probe)
                mark = probe.mark()
                tracer = Tracer()
                tracer.install(lshlab, HOOKS)
                try:
                    log = run_passes(wl, seconds / 2, probe, tracer)
                finally:
                    tracer.uninstall()
                logs = [untraced, log]
                log.attempted += 1
                if untraced.digest.digest() != log.digest.digest():
                    log.fail("traced window", "outputs differ from the untraced window")
                overhead = pass_seconds(log.times) - pass_seconds(untraced.times)
                spans = SpanTable(tracer, len(log.walls), wl.window)
                metrics = layer_metrics(spans, tracer, wl, probe.scale(mark), overhead)
                shown = {**metrics, "probe_ms": (1e3 * REFERENCE_S / probe.scale(mark), "ms")}
                counts = {k: v for k, (v, unit) in metrics.items() if unit != "s"}
                tracer.save(os.path.join(OUT_DIR, f"{name}.spans.npz"))

            attempted = sum(l.attempted for l in logs)
            failed = sum(l.failed for l in logs)
            problems = [p for l in logs for p in l.problems]
            env = environment(wl, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name}: seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{len(log.walls)} passes, {attempted} operations, {failed} failed")
    print(f"  error_rate = {failed / attempted!r} ratio")
    moves = {name: note for name, *_, note in PER_LAYER} if trace else {}
    for key, (value, unit) in shown.items():
        print(f"  {key} = {value!r} {unit}" + (f"  [moves {moves[key]}]" if key in moves else ""))
    print(f"  output_sha256 = {log.digest.hexdigest()}")
    print(f"  env = {json.dumps(env, sort_keys=True)}")
    for p in problems:
        print(f"  FAILED {p}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, {"digest": log.digest.hexdigest(), "counts": counts}


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _count_query(tr: Tracer, trace) -> None:
    found = trace.result is not None
    tr.count("queries")
    tr.count("tables_probed", trace.tables_probed)
    tr.count("candidates", trace.candidates_inspected)
    tr.count("hits", int(found))
    tr.count("far_candidates", trace.candidates_inspected - int(found))


HOOKS = {
    "annindex.query_traced": _count_query,
    "sampling.mc_stability": lambda tr, est: tr.count("mc_samples", est.n_samples),
}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process; prints every metric."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        results[name] = json.loads(lines[-1])
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
