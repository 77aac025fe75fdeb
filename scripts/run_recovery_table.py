#!/usr/bin/env python3
"""Recovery-error table on synthetic datasets across sampling rates.

Solves each (dataset, p) cell from the one-step initialization and reports
the median relative Gram error over seeds, reproducing the reference
recovery table at full scale (sphere n=1002; swiss roll n=2048).
"""

import argparse
import csv
import time

import numpy as np

from edmc.geometry import factored_gram_from_points, gram_from_points
from edmc.sampling import bernoulli_sample, observe
from edmc.solver import Problem, SolverConfig, solve
from edmc.synthdata import DatasetSpec, generate

DATASETS = {
    "sphere": DatasetSpec("sphere_surface", n=1002, r=3, seed=0),
    "swiss_roll": DatasetSpec("swiss_roll", n=2048, r=3, seed=0),
}


def run_cell(spec, p, seeds, tol, tol_mode):
    errs, iters = [], []
    for seed in seeds:
        points = generate(DatasetSpec(spec.kind, n=spec.n, r=spec.r, seed=seed,
                                      swiss_turns=spec.swiss_turns,
                                      swiss_height=spec.swiss_height))
        pairs = bernoulli_sample(spec.n, p, seed=10_000 + seed)
        data = observe(gram_from_points(points), pairs, p=p, seed=10_000 + seed)
        truth = factored_gram_from_points(points)
        config = SolverConfig(truth=truth, change_tol=tol, change_tol_mode=tol_mode)
        result = solve(Problem(data, rank=3), config=config)
        errs.append(result.trace.records[-1].rel_truth_error)
        iters.append(len(result.trace.records))
    return float(np.median(errs)), float(np.median(iters))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--datasets", nargs="+", default=["sphere"],
                        choices=sorted(DATASETS))
    parser.add_argument("--p-grid", nargs="+", type=float,
                        default=[0.10, 0.07, 0.05, 0.03, 0.02, 0.01])
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--tol", type=float, default=1e-5)
    parser.add_argument("--tol-mode", default="absolute",
                        choices=["relative", "absolute"])
    parser.add_argument("--out", default="recovery_table.csv")
    args = parser.parse_args()

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "n", "p", "median_rel_error", "median_iters",
                         "seconds"])
        for name in args.datasets:
            spec = DATASETS[name]
            for p in args.p_grid:
                t0 = time.perf_counter()
                err, its = run_cell(spec, p, range(args.trials), args.tol,
                                    args.tol_mode)
                dt = time.perf_counter() - t0
                writer.writerow([name, spec.n, p, f"{err:.3e}", its, f"{dt:.1f}"])
                print(f"{name} p={p}: median rel error {err:.3e} "
                      f"({its:.0f} iters, {dt:.1f}s)")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
