#!/usr/bin/env python3
"""Noise-robustness sweep: oversampling ratio versus point-noise level.

Perturbs the ground-truth cloud with i.i.d. uniform entry noise at bound
10^gamma before measuring distances, then scores recovery against the
clean Gram matrix.  Because the recovered matrix interpolates the noisy
distances, the reported error is floored by the truth perturbation itself
(about sqrt(2r/3) = 1.4x the bound for unit-sphere clouds in r=3); columns
include the median error so that floor is visible alongside the success
fractions.  The default gamma grid starts at -3, where the floor is well
under the default 1e-2 threshold, and ends at -1, far above it, so the
default table spans the transition.
"""

import argparse

import numpy as np

from edmc.cli import output_meta, write_grid_csv
from edmc.experiments import ExperimentConfig, grid_rows, run_grid
from edmc.synthdata import DatasetSpec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--r", type=int, default=3)
    parser.add_argument("--rho-grid", nargs="+", type=float,
                        default=list(np.arange(1.0, 5.01, 1.0)))
    parser.add_argument("--gamma-grid", nargs="+", type=float,
                        default=[-3.0, -2.5, -2.0, -1.5, -1.0])
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--threshold", type=float, default=1e-2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="noise_grid.csv")
    args = parser.parse_args()

    config = ExperimentConfig(
        dataset=DatasetSpec("sphere_surface", n=args.n, r=args.r, seed=args.seed),
        r_grid=(args.r,),
        rho_grid=tuple(args.rho_grid),
        gamma_grid=tuple(args.gamma_grid),
        trials=args.trials,
        seed=args.seed,
        success_threshold=args.threshold,
        workers=args.workers,
    )
    rows = grid_rows(run_grid(config), args.threshold)
    write_grid_csv(args.out, rows, output_meta(vars(args), args.seed))
    for row in rows:
        print(f"rho={row['rho']:.1f} gamma={row['gamma']}: "
              f"success {row['success_fraction']:.2f} "
              f"median err {row['median_rel_error']:.2e}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
