"""Riemannian gradient descent for Gram-matrix completion from sampled
squared distances, with the one-step hard-thresholding initialization.

Iteration, from a rank-r factored iterate ``X_l``:

1. residual coefficients ``c_a = d_a - <X_l, w_a>`` on the sampled pairs,
2. gradient image ``G_l = A(c)`` for the configured sampling operator
   (``"normal"``: the plain normal operator; ``"debiased"``: the
   p-rescaled variant whose Bernoulli expectation is ``p^2 I``),
3. project onto the tangent space, take the exact-quotient step
   ``alpha = ||P_T G||_F^2 / <P_T G, A(P_T G)>``,
4. retract back to rank r through the structured 2r-by-2r update.

Stopping follows the relative Frobenius difference between consecutive
iterates, computed exactly in the shared 2r-dimensional core.

The exact quotient is the exact line search for the quadratic objective
``<Y - X, A(Y - X)>`` along the projected direction.  With the de-biased
operator that quadratic form is indefinite at practical sampling rates, so
the quotient can blow up; the normal operator is positive semi-definite
and is the default.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.sparse.linalg import eigsh, ArpackNoConvergence

from . import dualbasis as db
from .geometry import (FactoredGram, gram_frobenius_error, magnitude_order,
                       truncated_gram)
from .manifold import (TangentVector, RankCollapseError, project_w_expansion,
                       retract_structured)
from .sampling import PairSet, SampledDistances


class DegenerateInitError(RuntimeError):
    """Initialization could not produce a rank-r starting point."""


class DegenerateStepError(RuntimeError):
    """The step-size quotient had a vanishing or non-finite term."""


GRADIENT_OPS = ("normal", "debiased")

#: a run with a truth stops as ``diverged`` once its error exceeds this
#: multiple of the starting error
DIVERGENCE_FACTOR = 1e3


@dataclass(frozen=True)
class Problem:
    """Completion instance: observed distances, target rank, fill probability."""

    data: SampledDistances
    rank: int
    p: float | None = None

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        p = self.p if self.p is not None else self.data.fill_probability()
        if not 0.0 < p <= 1.0:
            raise ValueError(f"fill probability {p} outside (0, 1]")
        object.__setattr__(self, "p", float(p))

    @property
    def n(self):
        return self.data.n


@dataclass(frozen=True)
class SolverConfig:
    """Iteration and stopping controls.

    ``change_tol`` applies to the Frobenius difference between consecutive
    iterates, divided by the iterate norm in ``"relative"`` mode and used
    raw in ``"absolute"`` mode.  The relative mode stops roughly when the
    recovery error reaches the tolerance itself; the absolute mode keeps
    iterating well past that and is what reproduces reference recovery
    errors of 1e-6 and below on unit-scale point clouds.
    """

    max_iters: int = 1000
    change_tol: float = 1e-5
    change_tol_mode: str = "relative"
    gradient_op: str = "normal"
    truth: object = None  # optional ground-truth Gram (dense or FactoredGram)

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.change_tol <= 0:
            raise ValueError("change_tol must be positive")
        if self.change_tol_mode not in ("relative", "absolute"):
            raise ValueError("change_tol_mode must be 'relative' or 'absolute'")
        if self.gradient_op not in GRADIENT_OPS:
            raise ValueError(f"gradient_op must be one of {GRADIENT_OPS}")


@dataclass
class IterRecord:
    """One iteration.  ``step_flagged`` is the step's excursion outside the
    de-biased interval (see :func:`step_size`); ``boundary_tie`` is the
    retracted iterate's tie at the rank boundary."""

    iteration: int
    step_size: float
    residual_norm: float
    rel_change: float
    rel_truth_error: float | None = None
    step_flagged: bool = False
    boundary_tie: bool = False


@dataclass
class SolverTrace:
    """Per-iteration records and how the run ended.

    ``data_norm`` is ``||d||`` of the observed distances and
    ``final_min_eig`` the smallest eigenvalue of the returned iterate; both
    are set by :func:`solve`.
    """

    records: list = field(default_factory=list)
    status: str = "running"
    data_norm: float | None = None
    final_min_eig: float | None = None

    def summary(self):
        """The terminal record.  Besides the status and the last record's
        change and truth error it carries two health signals that need no
        truth: ``final_rel_residual``, the last record's ``||c|| / ||d||``,
        and ``final_min_eig``.  A converged run at a wrong point shows a
        relative residual far above the change tolerance, or a negative
        eigenvalue."""
        summary = {"status": self.status, "iterations": len(self.records)}
        if self.records:
            last = self.records[-1]
            summary["final_rel_change"] = last.rel_change
            summary["final_rel_truth_error"] = last.rel_truth_error
            summary["final_rel_residual"] = (last.residual_norm / self.data_norm
                                             if self.data_norm else None)
        summary["final_min_eig"] = self.final_min_eig
        return summary

    def save_jsonl(self, path):
        """One JSON record per iteration plus the terminal :meth:`summary`."""
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(asdict(rec)) + "\n")
            fh.write(json.dumps(self.summary()) + "\n")


@dataclass
class SolveResult:
    gram: FactoredGram
    trace: SolverTrace


def _gradient_coeffs(c, pairs, p, mode):
    if mode == "debiased":
        return db.m_omega_coeffs(c, pairs, p)
    return db.rstar_r_coeffs(c, pairs)


def init_one_step(problem: Problem, dense_cutoff=400) -> FactoredGram:
    """One-step hard-thresholding initialization.

    Scales the rank-r truncation of the oblique sampler image by 1/p:
    ``X_0 = (1/p) H_r(-1/2 J P_O(D) J)``.  Uses a dense eigendecomposition
    below ``dense_cutoff`` points and a matrix-free Lanczos solve above,
    both with deterministic selection of the r largest-magnitude
    eigenvalues.
    """
    data, r, p = problem.data, problem.rank, problem.p
    n = data.n
    if data.m == 0:
        raise DegenerateInitError("no observed distances")
    if n <= dense_cutoff:
        dense = db.r_omega_apply(data.values, data.pairs)
        eigvals, eigvecs = np.linalg.eigh(dense)
        order = magnitude_order(eigvals)[:r]
        lam, vecs = eigvals[order], eigvecs[:, order]
    else:
        op = db.r_omega_operator(data.values, data.pairs)
        v0 = np.arange(n) - (n - 1) / 2.0
        v0 /= np.linalg.norm(v0)
        try:
            eigvals, eigvecs = eigsh(op, k=r, which="LM", v0=v0)
        except ArpackNoConvergence as exc:
            raise DegenerateInitError(f"sampled image eigensolve failed: {exc}") from exc
        order = magnitude_order(eigvals)
        lam, vecs = eigvals[order], eigvecs[:, order]
    scale = np.abs(lam).max() if lam.size else 0.0
    if scale == 0.0 or np.abs(lam[-1]) <= 1e-12 * scale:
        raise DegenerateInitError(
            f"sampled image has numerical rank below the target rank {r}"
        )
    return FactoredGram(vecs, lam / p)


def step_size(tangent_g: TangentVector, pairs: PairSet, p,
              gradient_op="normal", flag_eps=1.0 / 22.0, dU=None):
    """Exact step-size quotient ``<T, T> / <T, A(T)>`` for a projected
    gradient direction T, with A the ``gradient_op`` operator.

    Returns ``(alpha, flagged)``.  The quotient is scale invariant in the
    tangent vector.  For the de-biased operator the restricted-isometry
    analysis confines the step to ``[p^-2/(1+4*eps), p^-2/(1-4*eps)]``;
    ``flagged`` reports an excursion outside that interval (it stays False
    for the normal operator, whose natural scale differs).  A zero or
    non-finite quotient term raises :class:`DegenerateStepError`.
    ``dU`` is the base's ``pairs.incidence @ U`` when the caller has it.
    """
    num = tangent_g.norm_fro() ** 2
    if num == 0.0:
        raise DegenerateStepError("zero tangent direction")
    zc = tangent_g.w_coeffs(pairs, dU)
    g2 = _gradient_coeffs(zc, pairs, p, gradient_op)
    with np.errstate(over="ignore", invalid="ignore"):
        denom = float(g2 @ zc)
    if not (np.isfinite(num) and np.isfinite(denom)):
        raise DegenerateStepError(
            f"step-size quotient is not finite (numerator {num:.3g}, denominator {denom:.3g})")
    if denom == 0.0:
        raise DegenerateStepError("step-size quotient has zero denominator")
    alpha = num / denom
    flagged = False
    if gradient_op == "debiased":
        lo = p**-2 / (1.0 + 4.0 * flag_eps)
        hi = p**-2 / (1.0 - 4.0 * flag_eps) if 4.0 * flag_eps < 1.0 else np.inf
        flagged = not (lo <= alpha <= hi)
    return alpha, flagged


def _truth_error_fn(truth, rank):
    if truth is None:
        return None
    if not isinstance(truth, FactoredGram):
        # exactly rank-r truths get the precise factored comparison path
        dense = np.asarray(truth, dtype=float)
        candidate = truncated_gram(dense, rank)
        if gram_frobenius_error(candidate, dense) <= 1e-12 * np.linalg.norm(dense):
            truth = candidate
        else:
            norm = float(np.linalg.norm(dense))
            return lambda fg: gram_frobenius_error(fg, dense) / norm
    norm = truth.norm_fro()
    fixed = truth
    return lambda fg: gram_frobenius_error(fg, fixed) / norm


def solve(problem: Problem, x0: FactoredGram | None = None,
          config: SolverConfig | None = None) -> SolveResult:
    """Run the manifold descent from ``x0`` (one-step init when omitted)."""
    config = config or SolverConfig()
    if x0 is None:
        x0 = init_one_step(problem)
    if x0.r != problem.rank:
        raise ValueError(f"x0 has rank {x0.r}, problem wants {problem.rank}")
    pairs, d, p = problem.data.pairs, problem.data.values, problem.p
    mode = config.gradient_op
    trace = SolverTrace(data_norm=float(np.linalg.norm(d)))
    truth_err = _truth_error_fn(config.truth, problem.rank)
    err0 = truth_err(x0) if truth_err else None

    current = x0
    for it in range(config.max_iters):
        # BU serves both the residual and the step's tangent coefficients
        dU = pairs.incidence @ current.U
        c = d - db.w_coeffs_factored(current.U, current.eigs, pairs, dU)
        residual_norm = float(np.linalg.norm(c))
        tangent = project_w_expansion(current, _gradient_coeffs(c, pairs, p, mode), pairs)
        if tangent.norm_fro() == 0.0:
            # stationary: the sampled residual is invisible to the tangent space
            trace.records.append(IterRecord(it, 0.0, residual_norm, 0.0,
                                            truth_err(current) if truth_err else None))
            return _finish(trace, "converged", current)
        try:
            alpha, flagged = step_size(tangent, pairs, p, mode, dU=dU)
            new = retract_structured(current, tangent, alpha)
        except (DegenerateStepError, RankCollapseError):
            trace.status = "degenerate"
            raise
        change = gram_frobenius_error(new, current)
        rel_change = change / max(current.norm_fro(), 1e-300)
        rel_err = truth_err(new) if truth_err else None
        trace.records.append(IterRecord(it, float(alpha), residual_norm,
                                        float(rel_change), rel_err,
                                        bool(flagged), bool(new.boundary_tie)))
        current = new
        stop_value = rel_change if config.change_tol_mode == "relative" else change
        if stop_value < config.change_tol:
            return _finish(trace, "converged", current)
        if rel_err is not None and err0 is not None and err0 > 0:
            if rel_err > DIVERGENCE_FACTOR * err0:
                return _finish(trace, "diverged", current)
    return _finish(trace, "max_iters", current)


def _finish(trace: SolverTrace, status, gram: FactoredGram) -> SolveResult:
    trace.status = status
    trace.final_min_eig = float(gram.eigs.min())
    return SolveResult(gram, trace)


def recover_points(gram: FactoredGram, neg_tol=1e-8):
    """Embed a factored Gram matrix: ``U sqrt(eigs)`` with clamping.

    Eigenvalues below ``-neg_tol * max|eig|`` trigger a (non-fatal)
    warning; negatives are clamped to zero either way.
    """
    lam = gram.eigs
    scale = np.abs(lam).max() if lam.size else 0.0
    if np.any(lam < -neg_tol * max(scale, 1e-300)):
        warnings.warn(
            f"Gram factor has a strongly negative eigenvalue (min {lam.min():.3g}); "
            "clamping to zero for the embedding",
            RuntimeWarning,
            stacklevel=2,
        )
    return gram.U * np.sqrt(np.clip(lam, 0.0, None))
