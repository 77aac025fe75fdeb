"""Euclidean distance matrix completion: recover a low-rank centered Gram
matrix (and the point configuration up to rigid motion) from a sampled
subset of squared pairwise distances, by Riemannian gradient descent on
the fixed-rank manifold with dual-basis sampling operators."""

__version__ = "0.1.0"

from .geometry import (FactoredGram, NotEmbeddableError, center_points,
                       classical_mds, distances_from_gram, gram_from_distances,
                       gram_from_points, procrustes_error, read_points_csv,
                       write_points_csv)
from .sampling import (NoiseSpec, PairSet, SampledDistances, bernoulli_sample,
                       observe, observe_points, oversampling_ratio,
                       perturb_points, probability_for_ratio)
from .manifold import (RankCollapseError, TangentVector, project_tangent,
                       retract_structured)
from .solver import (DegenerateInitError, DegenerateStepError, Problem,
                     SolveResult, SolverConfig, SolverTrace, init_one_step,
                     recover_points, solve, step_size)
from .diagnostics import (CoherenceReport, RipEstimate, cross_coherence,
                          incoherence, rip_estimate)
from .synthdata import DatasetSpec, generate
from .experiments import ExperimentConfig, run_grid, run_trial

__all__ = [
    "FactoredGram", "NotEmbeddableError", "center_points", "classical_mds",
    "distances_from_gram", "gram_from_distances", "gram_from_points",
    "procrustes_error", "read_points_csv", "write_points_csv",
    "NoiseSpec", "PairSet", "SampledDistances", "bernoulli_sample", "observe",
    "observe_points", "oversampling_ratio", "perturb_points", "probability_for_ratio",
    "RankCollapseError", "TangentVector", "project_tangent", "retract_structured",
    "DegenerateInitError", "DegenerateStepError", "Problem", "SolveResult",
    "SolverConfig", "SolverTrace", "init_one_step", "recover_points", "solve",
    "step_size",
    "CoherenceReport", "RipEstimate", "cross_coherence", "incoherence",
    "rip_estimate",
    "DatasetSpec", "generate", "ExperimentConfig", "run_grid", "run_trial",
]
