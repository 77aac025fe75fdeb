#!/usr/bin/env python3
"""Oversampling-ratio versus rank phase-transition grid.

For n points on the unit sphere in each dimension r, sweeps the
oversampling ratio and records the fraction of trials whose relative Gram
error beats the success threshold.  Output is a plot-ready CSV.
"""

import argparse

import numpy as np

from edmc.cli import output_meta, write_grid_csv
from edmc.experiments import ExperimentConfig, grid_rows, run_grid
from edmc.synthdata import DatasetSpec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--r-grid", nargs="+", type=int, default=list(range(2, 11)))
    parser.add_argument("--rho-grid", nargs="+", type=float,
                        default=list(np.arange(1.0, 5.01, 0.5)))
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--threshold", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="transition_grid.csv")
    args = parser.parse_args()

    config = ExperimentConfig(
        dataset=DatasetSpec("sphere_surface", n=args.n, r=max(args.r_grid), seed=args.seed),
        r_grid=tuple(args.r_grid),
        rho_grid=tuple(args.rho_grid),
        trials=args.trials,
        seed=args.seed,
        success_threshold=args.threshold,
        workers=args.workers,
    )
    rows = grid_rows(run_grid(config), args.threshold)
    write_grid_csv(args.out, rows, output_meta(vars(args), args.seed))
    for row in rows:
        print(f"r={row['r']} rho={row['rho']:.1f}: success {row['success_fraction']:.2f} "
              f"median err {row['median_rel_error']:.2e}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
