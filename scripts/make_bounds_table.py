#!/usr/bin/env python3
"""Emit the rho-parameter comparison table, plus a fine grid near c = 1 where
the gap between the .46/c bound and 1/c is widest."""

import argparse
from dataclasses import astuple

import numpy as np

from lshlab.bounds import BOUND_TABLE_HEADER, bound_table
from lshlab.cli import write_rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=10**6)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--K", type=float, default=1.0)
    ap.add_argument("--out", default="bounds_table.csv")
    args = ap.parse_args()

    coarse = np.linspace(1.0, 10.0, 19)
    fine = np.linspace(1.01, 1.5, 8)
    cs = sorted(set(np.concatenate([coarse, fine]).tolist()))
    rows = bound_table(cs, args.d, args.q, big_k=args.K)

    write_rows(args.out, BOUND_TABLE_HEADER, map(astuple, rows), "csv", float_fmt=lambda v: f"{v:.12g}")
    print(f"wrote {len(rows)} rows to {args.out}")
    head = rows[0]
    print(f"at c=1: mnp={head.mnp:.6f}, gap to upper bound {head.im - head.mnp:.6f}")


if __name__ == "__main__":
    main()
