"""Seeded experiment grids: recovery tables, oversampling-transition grids,
and noise sweeps, with embarrassingly parallel cells.

Every trial owns its RNG (base seed + trial index) and every cell is
independent, and cells are merged in deterministic order, so results are
bitwise reproducible with any worker count under the same BLAS thread
count.  Between thread counts the BLAS products round differently, and
from about n=1500 on the final errors differ in their last bits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import center_points, check_int_fields, factored_gram_from_points, is_int
from .sampling import (bernoulli_sample, observe_points, oversampling_ratio,
                       perturb_points, probability_for_ratio)
from .solver import Problem, SolveResult, SolverConfig, solve
from .synthdata import DatasetSpec, generate

DEFAULT_NOISELESS_THRESHOLD = 1e-3
DEFAULT_NOISE_THRESHOLD = 1e-2


@dataclass(frozen=True)
class GridCell:
    r: int
    p: float
    rho: float
    gamma: float | None = None   # noise exponent; bound = 10**gamma


@dataclass(frozen=True)
class ExperimentConfig:
    """A full grid: dataset x rank grid x sampling grid x noise grid.

    For a generator dataset, trial t of a cell draws its cloud with seed
    ``seed + t`` in the cell's rank, whatever ``dataset.seed`` and
    ``dataset.r`` hold.  A file dataset is the same fixed cloud in every
    trial; only the sample and the noise change with the seed.
    """

    dataset: DatasetSpec
    r_grid: tuple
    rho_grid: tuple = ()
    p_grid: tuple = ()
    gamma_grid: tuple = (None,)
    trials: int = 20
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)
    workers: int = 1

    def __post_init__(self):
        if not self.r_grid:
            raise ValueError("empty rank grid")
        check_int_fields(self, "trials", "seed", "workers")
        bad = [r for r in self.r_grid if not (is_int(r) and r >= 1)]
        if bad:
            raise ValueError(f"r_grid holds {bad[0]!r}: a rank must be an integer of at least 1")
        if bool(self.rho_grid) == bool(self.p_grid):
            raise ValueError("specify exactly one of rho_grid and p_grid")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        bad = ([("rho_grid", v) for v in self.rho_grid if not (math.isfinite(v) and v > 0)]
               + [("p_grid", v) for v in self.p_grid if not 0.0 < v <= 1.0]
               + [("gamma_grid", v) for v in self.gamma_grid if v is not None
                  and not (math.isfinite(v) and v < np.log10(np.finfo(float).max))])
        if bad:
            raise ValueError(f"{bad[0][0]} holds {bad[0][1]}: a ratio must be positive and "
                             f"finite, a probability in (0, 1], and 10**gamma a finite float")
        if self.dataset.kind == "file" and self.dataset.n < 1:
            raise ValueError("a file dataset in a grid needs n, the file's point count: "
                             "the cells derive p from it")
        if self.dataset.kind == "swiss_roll":
            bad = [r for r in self.r_grid if r != 3]
            if bad:
                raise ValueError(f"swiss_roll is three dimensional, but the rank grid "
                                 f"holds rank {bad[0]}; use r_grid=(3,)")

    def threshold(self):
        """The success threshold on the relative error: 1e-2 when any cell
        perturbs the points, 1e-3 otherwise."""
        noisy = any(g is not None for g in self.gamma_grid)
        return DEFAULT_NOISE_THRESHOLD if noisy else DEFAULT_NOISELESS_THRESHOLD

    def cells(self):
        out = []
        for r in self.r_grid:
            if self.rho_grid:
                sampling = [(probability_for_ratio(self.dataset.n, r, rho), rho)
                            for rho in self.rho_grid]
            else:
                sampling = [(p, oversampling_ratio(self.dataset.n, r, p))
                            for p in self.p_grid]
            for p, rho in sampling:
                for gamma in self.gamma_grid:
                    out.append(GridCell(r=r, p=p, rho=rho, gamma=gamma))
        return out


@dataclass
class TrialResult:
    rel_error: float
    iterations: int
    status: str
    seed: int
    error: str = ""   # "<Type>: <message>" of the exception a degenerate trial raised


@dataclass
class CellResult:
    cell: GridCell
    trials: list
    wall_time_s: float

    def success_fraction(self, threshold):
        ok = sum(1 for t in self.trials if t.rel_error <= threshold)
        return ok / len(self.trials)

    def median_rel_error(self):
        return float(np.median([t.rel_error for t in self.trials]))

    def median_iterations(self):
        return float(np.median([t.iterations for t in self.trials]))


def run_trial(dataset: DatasetSpec, cell: GridCell, seed: int,
              solver_config: SolverConfig) -> TrialResult:
    """One seeded instance: generate, (perturb,) sample, solve, score.

    Generator datasets are drawn with the trial's ``seed`` in the cell's
    rank; file datasets are fixed and must hold ``dataset.n`` points.  The
    error is measured against the clean cloud's exact factored Gram, so
    point noise floors it; tracking it costs O(n (r + d)^2) per iteration,
    and neither it nor the observation (:func:`~edmc.sampling.observe_points`)
    holds an n-by-n array.  A trial whose generation, sampling or solve
    raises a ``RuntimeError`` or ``ValueError`` (a swiss roll asked for a
    rank other than 3, say) is recorded as ``degenerate`` with the
    exception's type and message instead of aborting the grid.
    """
    if dataset.kind == "file":
        points = generate(dataset)
        if points.shape[0] != dataset.n:
            raise ValueError(f"{dataset.path} holds {points.shape[0]} points "
                             f"but the dataset gives n={dataset.n}")
    try:
        if dataset.kind != "file":
            points = generate(replace(dataset, seed=seed, r=cell.r))
        truth = factored_gram_from_points(points)
        observed_points = points
        if cell.gamma is not None:
            observed_points = center_points(
                perturb_points(points, 10.0 ** cell.gamma, seed + 1))
        pairs = bernoulli_sample(points.shape[0], cell.p, seed)
        data = observe_points(observed_points, pairs, p=cell.p, seed=seed)
        problem = Problem(data, rank=cell.r)
        result: SolveResult = solve(problem, config=solver_config, truth=truth)
        rec = result.trace.records[-1]
        rel = rec.rel_truth_error
        return TrialResult(float(rel), len(result.trace.records),
                           result.trace.status, seed)
    except (RuntimeError, ValueError) as exc:
        return TrialResult(float("inf"), 0, "degenerate", seed,
                           error=f"{type(exc).__name__}: {exc}")


def run_cell(dataset: DatasetSpec, cell: GridCell, base_seed: int, trials: int,
             solver_config: SolverConfig) -> CellResult:
    t0 = time.perf_counter()
    results = [run_trial(dataset, cell, base_seed + t, solver_config)
               for t in range(trials)]
    return CellResult(cell, results, time.perf_counter() - t0)


def run_grid(config: ExperimentConfig):
    """All cells, optionally in a process pool; deterministic cell order."""
    cells = config.cells()
    if config.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = [
                pool.submit(run_cell, config.dataset, cell, config.seed,
                            config.trials, config.solver)
                for cell in cells
            ]
            return [f.result() for f in futures]
    return [run_cell(config.dataset, cell, config.seed, config.trials, config.solver)
            for cell in cells]


#: the statuses a trial can end with, each counted in its own grid column
TRIAL_STATUSES = ("converged", "max_iters", "diverged", "degenerate")

GRID_CSV_COLUMNS = ("r", "rho", "p", "gamma", "trials", "successes",
                    "success_fraction", *TRIAL_STATUSES, "median_rel_error",
                    "median_iterations", "wall_time_s")


def grid_rows(results, threshold):
    """Plot-ready rows, one per cell, in the configured cell order."""
    rows = []
    for res in results:
        cell = res.cell
        successes = sum(1 for t in res.trials if t.rel_error <= threshold)
        rows.append({
            "r": cell.r,
            "rho": cell.rho,
            "p": cell.p,
            "gamma": "" if cell.gamma is None else cell.gamma,
            "trials": len(res.trials),
            "successes": successes,
            "success_fraction": successes / len(res.trials),
            **{status: sum(1 for t in res.trials if t.status == status)
               for status in TRIAL_STATUSES},
            "median_rel_error": res.median_rel_error(),
            "median_iterations": res.median_iterations(),
            "wall_time_s": res.wall_time_s,
        })
    return rows
