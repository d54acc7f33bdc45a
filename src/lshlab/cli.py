"""Command-line surface.

Subcommands: bounds, stability, sensitivity, index-build, index-query,
index-experiment, verify. Every command is deterministic given its flags and
seed; outputs are CSV by default with a field-for-field JSON-lines mirror.
Exit codes: 0 success, 1 verification failure, 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from . import rng as rngmod
from .annindex import (
    IndexParams,
    build,
    load_index,
    plan,
    planted_experiment,
    query_traced,
    save_index,
    stats,
    tables_needed,
)
from .bounds import BOUND_TABLE_HEADER, bound_table
from .hashing import (
    bit_sampling_family,
    bit_sampling_profile,
    exact_sensitivity,
    family_from_json,
    minhash_family,
    power,
    trivial_family,
)
from .points import Point, load_points_binary, load_points_text
from .sampling import mc_stability_curve
from .spectral import EXACT, check_log_convexity, stability_curve
from .verify import SUITES, format_report, run_suites


# Most tables index-build plans for a --k override; more needs an explicit --L.
MAX_REPLANNED_TABLES = 10_000


class CliError(Exception):
    """Precondition or usage failure; maps to exit code 2."""


def write_rows(path: Optional[str], header: Sequence[str], rows, fmt: str, float_fmt=repr):
    """Rows to CSV or JSON-lines, with deterministic float text."""

    def cell(v):
        if isinstance(v, float):
            return float_fmt(v)
        return v

    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(str(cell(v)) for v in row))
    elif fmt == "jsonl":
        lines = []
        for row in rows:
            obj = {k: (json.loads(float_fmt(v)) if isinstance(v, float) else v)
                   for k, v in zip(header, row)}
            lines.append(json.dumps(obj, sort_keys=True))
    else:
        raise CliError(f"unknown format {fmt!r}")
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _parse_grid(text: str) -> list[float]:
    """Either 'start:stop:count' or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(f"grid must be start:stop:count or a comma list, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise CliError("grid count must be at least 1")
        return [float(t) for t in np.linspace(start, stop, count)]
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise CliError("empty grid")
    return values


def _resolve_family(args) -> object:
    if args.family_file:
        with open(args.family_file) as f:
            text = f.read()
        try:
            fam = family_from_json(text)
        except ValueError as exc:
            raise CliError(f"{args.family_file}: {exc}") from exc
    else:
        name = args.family
        d = args.d
        if d is None:
            raise CliError("--d is required with a named family")
        if name == "bit-sampling":
            fam = bit_sampling_family(d)
        elif name == "minhash":
            fam = minhash_family(d, exact=d <= 8)
        elif name == "trivial":
            if args.r is None:
                raise CliError("trivial family needs --r")
            fam = trivial_family(d, args.r)
        else:
            raise CliError(f"unknown family {name!r}")
    if args.k is not None:
        fam = power(fam, args.k)
    return fam


# ---------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    if args.c_min >= args.c_max:
        raise CliError("--c-min must be below --c-max")
    if args.steps < 1:
        raise CliError("--steps must be at least 1")
    c_values = [float(c) for c in np.linspace(args.c_min, args.c_max, args.steps)]
    rows = bound_table(c_values, args.d, args.q, big_k=args.K, s=args.s)
    write_rows(
        args.out,
        BOUND_TABLE_HEADER,
        [(r.c, r.im, r.ai, r.diim, r.mnp, r.main) for r in rows],
        args.format,
        float_fmt=lambda v: f"{v:.12g}",
    )
    return 0


def cmd_stability(args) -> int:
    fam = _resolve_family(args)
    grid = _parse_grid(args.t_grid)
    if args.mode == "exact":
        curve = stability_curve(fam, grid)
    elif args.mode == "mc":
        curve = mc_stability_curve(fam, grid, args.samples, args.seed)
    else:
        raise CliError(f"unknown mode {args.mode!r}")

    if curve.stderr is None:
        rows = list(zip(curve.grid, curve.values))
        header = ("t", "K")
    else:
        rows = list(zip(curve.grid, curve.values, curve.stderr))
        header = ("t", "K", "stderr")
    write_rows(args.out, header, rows, args.format)

    if curve.provenance == EXACT and len(curve.grid) >= 3:
        cert = check_log_convexity(curve)
        status = "PASS" if cert.passed else "FAIL"
        print(
            f"log-convexity: {status} "
            f"(worst relative slack {cert.worst_rel_slack:.3e} over {cert.n_checks} checks)"
        )
        if not cert.passed:
            return 1
    return 0


def cmd_sensitivity(args) -> int:
    fam = _resolve_family(args)
    if args.r is None or args.cr is None:
        raise CliError("sensitivity needs --r and --cr")
    prof = exact_sensitivity(fam, args.r, args.cr)
    rho = prof.rho if prof.rho is not None else "undefined"
    write_rows(
        args.out,
        ("r", "cr", "p", "q", "rho", "note"),
        [(prof.r, prof.cr, prof.p, prof.q, rho, prof.rho_note)],
        args.format,
    )
    return 0


def cmd_index_build(args) -> int:
    if args.r < 1:
        raise CliError("--r must be at least 1")
    if not 0 < args.delta < 1:
        raise CliError("--delta must lie in (0, 1)")
    if args.data.endswith(".bin"):
        bits = load_points_binary(args.data)
    else:
        bits = load_points_text(args.data)
    n, d = bits.shape
    profile = bit_sampling_profile(d, args.r, args.cr / args.r)
    if args.k is None:
        params = plan(n, profile, args.delta, seed=args.seed)
        if args.L is not None:
            params = replace(params, L=args.L)
    else:
        # Not planned (plan refuses q < 1/n). A given L voids the predicted p^k.
        p_k = profile.p**args.k
        if args.L is not None:
            L, p_k = args.L, None
        elif p_k < math.log(1 / args.delta) / MAX_REPLANNED_TABLES:
            raise CliError(
                f"--k {args.k} needs more than {MAX_REPLANNED_TABLES} tables for "
                f"delta = {args.delta}; give --L as well"
            )
        else:
            L = tables_needed(p_k, args.delta)
        params = IndexParams.from_profile(
            profile, k=args.k, L=L, delta=args.delta, seed=args.seed, n_planned=n, predicted_p_k=p_k
        )
    index = build(bits, bit_sampling_family(d), params)
    save_index(index, args.out)
    st = stats(index)
    print(
        f"built index: n={st.n_points} d={d} k={params.k} L={params.L} "
        f"entries={st.total_entries} max_bucket={st.max_bucket}"
    )
    return 0


def cmd_index_query(args) -> int:
    index = load_index(args.index)
    x = Point.from01(args.point)
    trace = query_traced(index, x)
    if trace.result is None:
        found, pid, dist = 0, -1, -1
    else:
        found, (pid, dist) = 1, trace.result
    write_rows(
        args.out,
        ("found", "id", "dist", "inspected"),
        [(found, pid, dist, trace.candidates_inspected)],
        args.format,
    )
    return 0


def cmd_index_experiment(args) -> int:
    rep = planted_experiment(
        n=args.n, d=args.d, r=args.r, c=args.c, delta=args.delta,
        n_queries=args.queries, seed=args.seed,
    )
    header = (
        "n", "d", "r", "cr", "delta", "k", "L", "queries", "successes",
        "success_rate", "max_inspected", "mean_inspected", "candidate_cap",
        "evals_per_query", "total_entries", "seed",
    )
    write_rows(
        args.out,
        header,
        [(
            rep.n, rep.d, rep.r, rep.cr, rep.delta, rep.k, rep.L, rep.n_queries,
            rep.successes, rep.success_rate, rep.max_inspected, rep.mean_inspected,
            rep.candidate_cap, rep.base_evaluations_per_query, rep.total_entries,
            rep.seed,
        )],
        args.format,
    )
    return 0


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite != "all" else None
    try:
        results = run_suites(names, seed=args.seed, corrupt=args.corrupt)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = format_report(results, args.seed)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
    else:
        sys.stdout.write(report)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lshlab",
        description="LSH families, noise-stability analysis, rho bounds, and a near-neighbor index",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family=False):
        p.add_argument("--seed", type=int, default=rngmod.DEFAULT_SEED)
        p.add_argument("--out", default=None, help="output file (stdout when omitted)")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        if family:
            p.add_argument("--family", default="bit-sampling",
                           choices=("bit-sampling", "minhash", "trivial"))
            p.add_argument("--family-file", default=None,
                           help="JSON family descriptor (overrides --family)")
            p.add_argument("--d", type=int, default=None)
            p.add_argument("--k", type=int, default=None,
                           help="concatenate k independent draws")
            p.add_argument("--r", type=int, default=None)

    p = sub.add_parser("bounds", help="rho-parameter bound table over a grid of c")
    common(p)
    p.add_argument("--c-min", type=float, default=1.0)
    p.add_argument("--c-max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=19)
    p.add_argument("--d", type=int, default=10**6)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--s", type=float, default=1.0, help="l_s exponent for the diim column")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("stability", help="stability curve K(t) with a log-convexity certificate")
    common(p, family=True)
    p.add_argument("--t-grid", required=True, help="start:stop:count or comma list")
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=20000)
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("sensitivity", help="exact (p, q, rho) at thresholds (r, cr)")
    common(p, family=True)
    p.add_argument("--cr", type=int, default=None)
    p.set_defaults(fn=cmd_sensitivity)

    p = sub.add_parser("index-build", help="build a near-neighbor index over a point file")
    common(p)
    p.add_argument("--data", required=True, help="points: 0/1 lines, or .bin packed")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--cr", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--k", type=int, default=None, help="override planned k")
    p.add_argument("--L", type=int, default=None, help="override planned L")
    p.set_defaults(fn=cmd_index_build)

    p = sub.add_parser("index-query", help="query a saved index with one point")
    common(p)
    p.add_argument("--index", required=True)
    p.add_argument("--point", required=True, help="0/1 string")
    p.set_defaults(fn=cmd_index_query)

    p = sub.add_parser("index-experiment", help="planted-pair success-rate experiment")
    common(p)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--d", type=int, default=128)
    p.add_argument("--r", type=int, default=8)
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--queries", type=int, default=200)
    p.set_defaults(fn=cmd_index_experiment)

    p = sub.add_parser("verify", help="run cross-module invariant suites")
    common(p)
    p.add_argument("--suite", default="all", help="one of: all, " + ", ".join(SUITES))
    p.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
