"""Command-line surface.

Subcommands: bounds, stability, sensitivity, index-build, index-query,
index-experiment, verify. Every command is deterministic given its flags and
seed; outputs are CSV by default with a field-for-field JSON-lines mirror.
Exit codes: 0 success, 1 verification failure, 2 usage or precondition error.

`main` builds the argument parser on its first call and reuses it for every
later call in the process; each call parses into a fresh namespace, so no
state carries over between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import astuple, fields, replace
from typing import Optional, Sequence

import numpy as np

from . import rng as rngmod
from .annindex import (
    IndexParams,
    build,
    load_index,
    plan,
    planted_experiment,
    save_index,
    scan_traced,
    stats,
    tables_needed,
)
from .bounds import BOUND_TABLE_HEADER, bound_table
from .hashing import (
    _ENUM_DIM_LIMIT,
    _EXACT_MINHASH_DIM_LIMIT,
    bit_sampling_family,
    bit_sampling_profile,
    exact_sensitivity,
    family_from_descriptor,
    family_from_json,
    power,
)
from .points import bits_from01, load_points_binary, load_points_text
from .sampling import mc_stability_curve
from .spectral import _TRANSFORM_DIM_LIMIT, check_log_convexity, stability_curve
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
    """Either 'start:stop:count' or a comma-separated list, of finite,
    nonnegative times."""
    parts = text.split(":")
    if len(parts) == 1:
        values = [float(v) for v in text.split(",") if v.strip()]
        if not values:
            raise CliError("empty grid")
    elif len(parts) == 3:
        values, count = [float(parts[0]), float(parts[1])], int(parts[2])
        if count < 1:
            raise CliError("grid count must be at least 1")
    else:
        raise CliError(f"grid must be start:stop:count or a comma list, got {text!r}")
    if not all(0 <= t < math.inf for t in values):
        raise CliError(f"grid times must be finite and nonnegative, got {text!r}")
    if len(parts) == 1:
        return values
    return [float(t) for t in np.linspace(*values, count)]


def _resolve_family(args, dim_limit: Optional[int] = None) -> object:
    """The family the flags name; a named family past `dim_limit` is refused unbuilt."""
    if args.family_file:
        with open(args.family_file) as f:
            text = f.read()
        try:
            fam = family_from_json(text)
        except ValueError as exc:
            raise CliError(f"{args.family_file}: {exc}") from exc
    else:
        d = args.d
        if d is None:
            raise CliError("--d is required with a named family")
        if dim_limit is not None and d > dim_limit:
            raise CliError(f"--d {d} is past this command's limit of d <= {dim_limit}")
        if args.family == "trivial" and args.r is None:
            raise CliError("trivial family needs --r")
        # A named family is the family file of its kind; MinHash is exact where it can be.
        fam = family_from_descriptor({"kind": args.family, "d": d, "r": args.r, "exact": d <= _EXACT_MINHASH_DIM_LIMIT})
    if args.k is not None:
        fam = power(fam, args.k)
    return fam


# ---------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    for flag, c in (("--c-min", args.c_min), ("--c-max", args.c_max)):
        if not 1 <= c < math.inf:
            raise CliError(f"{flag} must be finite and at least 1, got {c}")
    if args.c_min >= args.c_max:
        raise CliError("--c-min must be below --c-max")
    if args.steps < 1:
        raise CliError("--steps must be at least 1")
    c_values = [float(c) for c in np.linspace(args.c_min, args.c_max, args.steps)]
    rows = bound_table(c_values, args.d, args.q, big_k=args.K, s=args.s)
    write_rows(args.out, BOUND_TABLE_HEADER, map(astuple, rows), args.format, float_fmt=lambda v: f"{v:.12g}")
    return 0


def cmd_stability(args) -> int:
    grid = _parse_grid(args.t_grid)
    fam = _resolve_family(args, _TRANSFORM_DIM_LIMIT if args.mode == "exact" else None)
    if args.mode != "exact":
        curve = mc_stability_curve(fam, grid, args.samples, args.seed)
        write_rows(args.out, ("t", "K", "stderr"), zip(curve.grid, curve.values, curve.stderr), args.format)
        return 0
    curve = stability_curve(fam, grid)
    write_rows(args.out, ("t", "K"), zip(curve.grid, curve.values), args.format)
    if len(curve.grid) >= 3:
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
    if args.r is None or args.cr is None:
        raise CliError("sensitivity needs --r and --cr")
    fam = _resolve_family(args, _ENUM_DIM_LIMIT)
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
    if args.out is None:
        raise CliError("index-build needs --out, the index file to write")
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
    # Counted from sorted labels: index-build builds no tables.
    st = stats(index)
    report = {"n": st.n_points, "d": d, "k": params.k, "L": params.L,
              "entries": st.total_entries, "max_bucket": st.max_bucket}
    if args.format == "jsonl":
        write_rows(None, [*report, "n_buckets"], [(*report.values(), st.n_buckets)], "jsonl")
    else:
        print("built index: " + " ".join(f"{key}={v}" for key, v in report.items()))
    return 0


def cmd_index_query(args) -> int:
    index = load_index(args.index)
    # One query of a freshly loaded index: label matches answer it without the tables.
    trace = scan_traced(index, bits_from01([args.point.strip()])[0])
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
    write_rows(args.out, [f.name for f in fields(rep)], [astuple(rep)], args.format)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="lshlab",
        description="LSH families, noise-stability analysis, rho bounds, and a near-neighbor index",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family=False, out="output file (stdout when omitted)"):
        p.add_argument("--seed", type=int, default=rngmod.DEFAULT_SEED)
        p.add_argument("--out", default=None, help=out)
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

    p = sub.add_parser("stability", help="stability curve K(t) with a log-convexity certificate")
    common(p, family=True)
    p.add_argument("--t-grid", required=True, help="start:stop:count or comma list")
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=20000)

    p = sub.add_parser("sensitivity", help="exact (p, q, rho) at thresholds (r, cr)")
    common(p, family=True)
    p.add_argument("--cr", type=int, default=None)

    p = sub.add_parser("index-build", help="build a near-neighbor index over a point file")
    common(p, out="the index file to write (required)")
    p.add_argument("--data", required=True, help="points: 0/1 lines, or .bin packed")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--cr", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--k", type=int, default=None, help="override planned k")
    p.add_argument("--L", type=int, default=None, help="override planned L")

    p = sub.add_parser("index-query", help="query a saved index with one point")
    common(p)
    p.add_argument("--index", required=True)
    p.add_argument("--point", required=True, help="0/1 string")

    p = sub.add_parser("index-experiment", help="planted-pair success-rate experiment")
    common(p)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--d", type=int, default=128)
    p.add_argument("--r", type=int, default=8)
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--queries", type=int, default=200)

    p = sub.add_parser("verify", help="run cross-module invariant suites")
    common(p)
    p.add_argument("--suite", default="all", help="one of: all, " + ", ".join(SUITES))
    p.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # Looked up by name on each call, so the parser, built once, holds no command function.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
