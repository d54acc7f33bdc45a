#!/usr/bin/env python3
"""Stability curves K(t) with log-convexity certificates for a spread of
families: bit sampling, its powers, and the q = 0 pair-collapse family."""

import argparse

import numpy as np

from lshlab.cli import write_rows
from lshlab.hashing import bit_sampling_family, power, trivial_family
from lshlab.spectral import check_log_convexity, stability_curve


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-max", type=float, default=3.0)
    ap.add_argument("--points", type=int, default=31)
    ap.add_argument("--prefix", default="curve")
    args = ap.parse_args()

    grid = np.linspace(0.0, args.t_max, args.points)
    families = {
        "bit_sampling_d12": bit_sampling_family(12),
        "bit_sampling_d12_pow2": power(bit_sampling_family(12), 2),
        "trivial_d6_r1": trivial_family(6, 1),
    }
    for name, fam in families.items():
        curve = stability_curve(fam, grid)
        cert = check_log_convexity(curve)
        path = f"{args.prefix}_{name}.csv"
        write_rows(path, ("t", "K"), zip(curve.grid, curve.values), "csv")
        status = "PASS" if cert.passed else "FAIL"
        print(
            f"{name}: wrote {path}; log-convexity {status} "
            f"(worst slack {cert.worst_rel_slack:.3e}, K({args.t_max}) = {curve.values[-1]:.6f})"
        )


if __name__ == "__main__":
    main()
