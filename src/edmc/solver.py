"""Riemannian gradient descent for Gram-matrix completion from sampled
squared distances, with the one-step hard-thresholding initialization.

Iteration, from a rank-r factored iterate ``X_l``:

1. residual coefficients ``c_a = d_a - <X_l, w_a>`` on the sampled pairs,
2. gradient image ``G_l = A(c)`` of the normal operator ``A = R*R``,
3. project onto the tangent space, take the exact-quotient step
   ``alpha = ||P_T G||_F^2 / <P_T G, A(P_T G)>``,
4. retract back to rank r through the structured 2r-by-2r update.

Stopping follows the Frobenius difference between consecutive iterates
(relative to the iterate's norm by default), which
:func:`~edmc.geometry.gram_frobenius_error` takes from the R factor of a
QR of ``[U_new | U]`` and a 2r-by-2r core.

The exact quotient is the exact line search for the quadratic objective
``<Y - X, A(Y - X)>`` along the projected direction.  The normal operator
is positive semi-definite; the de-biased operator of the RIP analysis
(:func:`~edmc.dualbasis.m_omega_coeffs`) is not used here, because its
quadratic form is indefinite at practical sampling rates and the quotient
blows up.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from . import dualbasis as db
from .geometry import (NEG_TOL, FactoredGram, check_fields, gram_frobenius_error, is_int,
                       is_number, magnitude_order, truncated_gram)
from .manifold import TangentVector, project_w_expansion, retract_structured
from .sampling import PairSet, SampledDistances


class DegenerateInitError(RuntimeError):
    """Initialization could not produce a rank-r starting point."""


class DegenerateStepError(RuntimeError):
    """The step-size quotient had a vanishing or non-finite term."""


CHANGE_TOL_MODES = ("relative", "absolute")

#: :func:`init_one_step` runs a dense ``eigh`` up to this n and Lanczos above
DENSE_INIT_MAX_N = 400
#: the Lanczos init stops once every kept Ritz residual is at most this
#: multiple of the largest Ritz value's magnitude
LANCZOS_TOL = 1e-14
#: and raises :class:`DegenerateInitError` after min(n, this) steps
LANCZOS_MAX_STEPS = 300

#: a run with a truth stops as ``diverged`` once its error exceeds this
#: multiple of the starting error
DIVERGENCE_FACTOR = 1e3


@dataclass(frozen=True)
class Problem:
    """Completion instance: observed distances and target rank.  The fill
    probability ``p`` is the sample's own (drawn with, or else empirical)."""

    data: SampledDistances
    rank: int

    def __post_init__(self):
        check_fields(self, lambda v: isinstance(v, SampledDistances), "a SampledDistances",
                     "data")
        check_fields(self, is_int, "an integer", "rank")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"fill probability {self.p} outside (0, 1]")

    @property
    def n(self):
        return self.data.n

    @property
    def p(self):
        return self.data.fill_probability()


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

    def __post_init__(self):
        check_fields(self, is_int, "an integer", "max_iters")
        check_fields(self, is_number, "a number", "change_tol")
        check_fields(self, lambda v: isinstance(v, str), "a string", "change_tol_mode")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (np.isfinite(self.change_tol) and self.change_tol > 0):
            raise ValueError(f"change_tol must be positive and finite, got {self.change_tol}")
        if self.change_tol_mode not in CHANGE_TOL_MODES:
            raise ValueError(f"change_tol_mode must be one of {CHANGE_TOL_MODES}")


@dataclass
class IterRecord:
    """One iteration.  ``boundary_tie`` is the retracted iterate's tie at
    the rank boundary."""

    iteration: int
    step_size: float
    residual_norm: float
    rel_change: float
    rel_truth_error: float | None = None
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


def _lanczos_top(matvec, n, r):
    """The r eigenpairs of largest magnitude, in :func:`magnitude_order`, of
    the symmetric n x n operator ``matvec``: Lanczos from the centred ramp,
    with full reorthogonalisation applied twice per step.  The Ritz values
    are checked every 5 steps.  A breakdown (an invariant Krylov space)
    stops with its exact Ritz pairs, which may number fewer than r."""
    steps = min(n, LANCZOS_MAX_STEPS)
    q = np.empty((min(steps + 1, 64), n))   # grown in place as the steps need
    q[0] = np.arange(n) - (n - 1) / 2.0
    q[0] /= np.linalg.norm(q[0])
    alpha, beta = np.empty(steps), np.empty(steps)
    for k in range(steps):
        w = matvec(q[k])
        scale = np.linalg.norm(w)
        alpha[k] = q[k] @ w
        for _ in range(2):
            w -= q[:k + 1].T @ (q[:k + 1] @ w)
        beta[k] = np.linalg.norm(w)
        breakdown = beta[k] <= np.finfo(float).eps * scale or k + 1 == n
        if breakdown or (k + 1) % 5 == 0 or k + 1 == steps:
            t = np.diag(alpha[:k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
            theta, s = np.linalg.eigh(t)
            keep = magnitude_order(theta)[:r]
            residual = np.abs(beta[k] * s[-1, keep]).max()
            if breakdown or (keep.size == r
                             and residual <= LANCZOS_TOL * np.abs(theta).max()):
                return theta[keep], q[:k + 1].T @ s[:, keep]
        if k + 1 == len(q):
            q.resize((min(2 * len(q), steps + 1), n))
        q[k + 1] = w / beta[k]
    raise DegenerateInitError(f"Lanczos did not converge in {steps} steps "
                              f"(largest Ritz residual {residual:.3g})")


def init_one_step(problem: Problem) -> FactoredGram:
    """One-step hard-thresholding initialization.

    Scales the rank-r truncation of the oblique sampler image by 1/p:
    ``X_0 = (1/p) H_r(-1/2 J P_O(D) J)``, by ``truncated_gram`` of the dense
    image up to :data:`DENSE_INIT_MAX_N` points and by Lanczos
    (:func:`_lanczos_top`) above.  Its rank test (1e-12 of the largest kept
    magnitude) is looser than ``select_rank``'s: an n x n ``eigh`` rounds at
    about n eps, a 2r x 2r core at about eps.
    """
    data, r, p = problem.data, problem.rank, problem.p
    n = data.n
    if data.m == 0:
        raise DegenerateInitError("no observed distances")
    if n <= DENSE_INIT_MAX_N:
        kept = truncated_gram(db.r_omega_apply(data.values, data.pairs), r)
        lam, vecs = kept.eigs, kept.U
    else:
        lam, vecs = _lanczos_top(db.r_omega_operator(data.values, data.pairs), n, r)
    scale = np.abs(lam).max() if lam.size else 0.0
    if lam.size < r or scale == 0.0 or np.abs(lam[-1]) <= 1e-12 * scale:
        raise DegenerateInitError(
            f"sampled image has numerical rank below the target rank {r}"
        )
    return FactoredGram(vecs, lam / p)


def step_size(tangent_g: TangentVector, pairs: PairSet, dU):
    """Exact step-size quotient ``<T, T> / <T, A(T)>`` for a projected
    gradient direction T, with A the normal operator ``R*R``.

    The quotient is scale invariant in the tangent vector.  A zero or
    non-finite quotient term raises :class:`DegenerateStepError`.
    ``dU`` is the base's ``pairs.incidence @ U``.
    """
    num = tangent_g.norm_fro() ** 2
    if num == 0.0:
        raise DegenerateStepError("zero tangent direction")
    zc = tangent_g.w_coeffs(pairs, dU)
    g2 = db.rstar_r_coeffs(zc, pairs)
    with np.errstate(over="ignore", invalid="ignore"):
        denom = float(g2 @ zc)
    if not (np.isfinite(num) and np.isfinite(denom)):
        raise DegenerateStepError(
            f"step-size quotient is not finite (numerator {num:.3g}, denominator {denom:.3g})")
    if denom == 0.0:
        raise DegenerateStepError("step-size quotient has zero denominator")
    return num / denom


def _truth_error_fn(truth, n):
    if truth is None:
        return lambda fg: None
    if truth.n != n:
        raise ValueError(f"the truth has n={truth.n} points but the sample has n={n}")
    norm = truth.norm_fro()
    return lambda fg: gram_frobenius_error(fg, truth) / norm


def solve(problem: Problem, x0: FactoredGram | None = None,
          config: SolverConfig | None = None,
          truth: FactoredGram | None = None) -> SolveResult:
    """Run the manifold descent from ``x0`` (one-step init when omitted).
    ``truth``, a :class:`FactoredGram`, fills ``rel_truth_error`` and arms the
    ``diverged`` stop.  An ``x0``, ``config`` or ``truth`` of another type is a
    ``TypeError`` before the init; a truth of another point count fails there
    too, and an ``x0`` of another rank or point count before the loop."""
    for name, value, cls in (("x0", x0, FactoredGram), ("config", config, SolverConfig),
                             ("the truth", truth, FactoredGram)):
        if value is not None and not isinstance(value, cls):
            raise TypeError(f"{name} must be a {cls.__name__}, not {type(value).__name__}")
    config = SolverConfig() if config is None else config
    truth_err = _truth_error_fn(truth, problem.data.n)
    if x0 is None:
        x0 = init_one_step(problem)
    if x0.r != problem.rank:
        raise ValueError(f"x0 has rank {x0.r}, problem wants {problem.rank}")
    if x0.n != problem.n:
        raise ValueError(f"x0 has n={x0.n} points but the sample has n={problem.n}")
    pairs, d = problem.data.pairs, problem.data.values
    trace = SolverTrace(data_norm=float(np.linalg.norm(d)))
    err0 = truth_err(x0)

    current = x0
    for it in range(config.max_iters):
        # BU serves both the residual and the step's tangent coefficients
        dU = pairs.incidence @ current.U
        c = d - db.w_coeffs_factored(dU, current.eigs)
        residual_norm = float(np.linalg.norm(c))
        tangent = project_w_expansion(current, db.rstar_r_coeffs(c, pairs), pairs)
        if tangent.norm_fro() == 0.0:
            # stationary: the sampled residual is invisible to the tangent space
            trace.records.append(IterRecord(it, 0.0, residual_norm, 0.0, truth_err(current)))
            return _finish(trace, "converged", current)
        alpha = step_size(tangent, pairs, dU)
        new = retract_structured(tangent, alpha)
        change = gram_frobenius_error(new, current)
        rel_change = change / max(current.norm_fro(), 1e-300)
        rel_err = truth_err(new)
        trace.records.append(IterRecord(it, float(alpha), residual_norm,
                                        float(rel_change), rel_err,
                                        bool(new.boundary_tie)))
        current = new
        stop_value = rel_change if config.change_tol_mode == "relative" else change
        if stop_value < config.change_tol:
            return _finish(trace, "converged", current)
        # err0 is None without a truth, and 0 when x0 is the truth
        if err0 and rel_err > DIVERGENCE_FACTOR * err0:
            return _finish(trace, "diverged", current)
    return _finish(trace, "max_iters", current)


def _finish(trace: SolverTrace, status, gram: FactoredGram) -> SolveResult:
    trace.status = status
    trace.final_min_eig = float(gram.eigs.min())
    return SolveResult(gram, trace)


def recover_points(gram: FactoredGram):
    """Embed a factored Gram matrix: ``U sqrt(eigs)`` with clamping.

    Eigenvalues below ``-NEG_TOL * max|eig|`` trigger a (non-fatal)
    warning; negatives are clamped to zero either way.
    """
    lam = gram.eigs
    scale = np.abs(lam).max() if lam.size else 0.0
    if np.any(lam < -NEG_TOL * max(scale, 1e-300)):
        warnings.warn(
            f"Gram factor has a strongly negative eigenvalue (min {lam.min():.3g}); "
            "clamping to zero for the embedding",
            RuntimeWarning,
            stacklevel=2,
        )
    return gram.U * np.sqrt(np.clip(lam, 0.0, None))
