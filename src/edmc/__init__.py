"""Euclidean distance matrix completion: recover a low-rank centered Gram
matrix (and the point configuration up to rigid motion) from a sampled
subset of squared pairwise distances, by Riemannian gradient descent on
the fixed-rank manifold with dual-basis sampling operators."""

__version__ = "0.1.0"

from .geometry import (FactoredGram, center_points, procrustes_error,
                       read_points_csv, write_points_csv)
from .sampling import (PairSet, SampledDistances, bernoulli_sample,
                       observe_points, oversampling_ratio, perturb_points,
                       probability_for_ratio)
from .manifold import RankCollapseError, TangentVector, retract_structured
from .solver import (DegenerateInitError, DegenerateStepError, Problem,
                     SolveResult, SolverConfig, SolverTrace, init_one_step,
                     recover_points, solve, step_size)
from .diagnostics import CoherenceReport, RipEstimate, incoherence, rip_estimate
from .synthdata import DatasetSpec, generate
from .experiments import ExperimentConfig, run_grid, run_trial

__all__ = [
    "FactoredGram", "center_points", "procrustes_error", "read_points_csv",
    "write_points_csv",
    "PairSet", "SampledDistances", "bernoulli_sample", "observe_points",
    "oversampling_ratio", "perturb_points", "probability_for_ratio",
    "RankCollapseError", "TangentVector", "retract_structured",
    "DegenerateInitError", "DegenerateStepError", "Problem", "SolveResult",
    "SolverConfig", "SolverTrace", "init_one_step", "recover_points", "solve",
    "step_size",
    "CoherenceReport", "RipEstimate", "incoherence", "rip_estimate",
    "DatasetSpec", "generate", "ExperimentConfig", "run_grid", "run_trial",
]
