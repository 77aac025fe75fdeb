"""Geometry-aware incoherence diagnostics and empirical restricted-isometry
estimation for the sampled operator.

The incoherence parameter reported here follows the geometric convention

    nu = (n / 2r) * max_{i<j} ||u_i - u_j||^2,

where u_i are the rows of the orthonormal factor: the maximal squared
pairwise distance of the whitened point cloud.  The concentration analysis
uses a stricter normalization of the same quantity; the report carries the
exact conversion factor between the two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from . import dualbasis as db
from .geometry import FactoredGram
from .manifold import TangentVector, project_tangent, project_w_expansion
from .sampling import PairSet, rng_from_seed

#: multiply the reported nu by this to get the normalization used by the
#: concentration bounds (max ||P_U w_a||_F^2 <= nu_a * r / (2n))
ANALYSIS_NU_SCALE = 8.0


@dataclass(frozen=True)
class CoherenceReport:
    n: int
    r: int
    nu: float
    whitened_nu: float            # same quantity from the Lambda-whitened points
    argmax_pair: tuple
    lower_bound_stated: float     # 1 + 2/(n-1)
    lower_bound_derived: float    # n/(n-1), from sum_{i<j} ||u_i-u_j||^2 = n r
    upper_bound: float            # 2n/r
    cross_term_max: float | None  # max over overlapping distinct pairs
    analysis_nu_scale: float = ANALYSIS_NU_SCALE

    @property
    def analysis_nu(self):
        return self.nu * self.analysis_nu_scale

    def to_json(self):
        payload = asdict(self)
        payload["argmax_pair"] = list(self.argmax_pair)
        return json.dumps(payload, sort_keys=True)


def _pairwise_sq_dists(U):
    sq = np.sum(U * U, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (U @ U.T)
    np.fill_diagonal(d, 0.0)
    return d


def incoherence(x: FactoredGram, cross_terms=True) -> CoherenceReport:
    """Geometric incoherence of a factored Gram matrix.

    Also evaluates the whitened-point form ``(p_i - p_j)^T Lambda^{-1}
    (p_i - p_j)`` independently; the two agree to roundoff, which the
    report exposes for verification.
    """
    n, r = x.n, x.r
    if r == 0:
        raise ValueError("rank-0 input has no incoherence parameter")
    if np.any(x.eigs == 0.0):
        raise ValueError("factored Gram carries a zero eigenvalue")
    U = x.U
    d = _pairwise_sq_dists(U)
    iu = np.triu_indices(n, k=1)
    flat = d[iu]
    k = int(np.argmax(flat))
    pair = (int(iu[0][k]), int(iu[1][k]))
    nu = n / (2.0 * r) * float(flat[k])

    points = U * np.sqrt(np.abs(x.eigs))
    signs = np.sign(x.eigs)
    dw = _pairwise_sq_dists_whitened(points, signs / np.abs(x.eigs))
    whitened_nu = n / (2.0 * r) * float(dw[iu].max())

    cross = cross_term_max(x) if cross_terms else None
    return CoherenceReport(
        n=n,
        r=r,
        nu=nu,
        whitened_nu=whitened_nu,
        argmax_pair=pair,
        lower_bound_stated=1.0 + 2.0 / (n - 1),
        lower_bound_derived=n / (n - 1.0),
        upper_bound=2.0 * n / r,
        cross_term_max=cross,
    )


def _pairwise_sq_dists_whitened(points, inv_lam):
    w = points * inv_lam
    cross = points @ w.T
    sq = np.diag(cross).copy()
    d = sq[:, None] + sq[None, :] - cross - cross.T
    np.fill_diagonal(d, 0.0)
    return d


def cross_coherence(x: FactoredGram, alpha, beta):
    """``<P_U w_alpha, P_U w_beta>`` via the row-difference identity.

    Vanishes exactly for disjoint pairs; for pairs sharing an index it is
    (up to sign) the whitened inner product of the two displacement
    vectors.
    """
    i, j = alpha
    k, l = beta
    n = x.n
    for idx in (i, j, k, l):
        if not 0 <= idx < n:
            raise IndexError(f"index {idx} out of range for n={n}")
    overlap = (
        float(i == k) - float(i == l) - float(j == k) + float(j == l)
    )
    if overlap == 0.0:
        return 0.0
    U = x.U
    return overlap * float((U[i] - U[j]) @ (U[k] - U[l]))


def cross_term_max(x: FactoredGram):
    """Max ``|<P_U w_a, P_U w_b>|`` over distinct overlapping pairs."""
    U = x.U
    n = x.n
    best = 0.0
    for i in range(n):
        diff = U[i][None, :] - U          # rows: u_i - u_j for all j
        gram = np.abs(diff @ diff.T)
        gram[i, :] = 0.0
        gram[:, i] = 0.0
        np.fill_diagonal(gram, 0.0)       # j == k would be the same pair
        best = max(best, float(gram.max()))
    return best


def sum_pairwise_row_distances(x: FactoredGram):
    """``sum_{i<j} ||u_i - u_j||^2``; equals ``n * r`` for centered factors."""
    d = _pairwise_sq_dists(x.U)
    return float(d[np.triu_indices(x.n, k=1)].sum())


def coherence_gram_lambda_max(x: FactoredGram, dense_cutoff=64,
                              power_iters=2000, tol=1e-10, seed=0):
    """Largest eigenvalue of ``[<P_U w_a, P_U w_b>]`` over all pair pairs.

    Dense construction below the cutoff; above it, power iteration on the
    implicit matrix ``(Y Y^T) .* (B B^T)`` with B the incidence matrix of all
    pairs and ``Y = BU`` the row differences of U, at O(L r) per product.
    """
    n = x.n
    B = PairSet.full(n).incidence
    Y = B @ x.U
    if n <= dense_cutoff:
        inner = Y @ Y.T
        sign = _pair_overlap_matrix(B)
        return float(np.linalg.eigvalsh(inner * sign).max())
    rng = rng_from_seed(seed)
    v = rng.standard_normal(B.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(power_iters):
        hv = _coherence_gram_matvec(v, Y, B)
        norm = np.linalg.norm(hv)
        if norm == 0.0:
            return 0.0
        new_lam = float(v @ hv)
        v = hv / norm
        if abs(new_lam - lam) <= tol * max(abs(new_lam), 1.0):
            return new_lam
        lam = new_lam
    return lam


def _pair_overlap_matrix(B):
    # (e_i - e_j) . (e_k - e_l) for all pair combinations: B B^T
    return (B @ B.T).toarray().astype(float)


def _coherence_gram_matvec(vcoef, Y, B):
    # (H v)_a = y_a^T Z^T b_a with Z^T = sum_b v_b b_b y_b^T = B^T (v * Y)
    return np.einsum("ij,ij->i", Y, B @ (B.T @ (vcoef[:, None] * Y)))


@dataclass(frozen=True)
class RipEstimate:
    epsilon: float
    residual: float
    iterations: int
    converged: bool


def rip_estimate(x: FactoredGram, pairs: PairSet, p, seed=0,
                 max_iters=500, tol=1e-8) -> RipEstimate:
    """Estimate ``p^-2 ||P_T M_O P_T - p^2 P_T||`` by power iteration.

    Iterates the self-adjoint de-biased operator restricted to the tangent
    space at ``x`` (applications composed from the coefficient fast path
    and the tangent projection).  Non-convergence within the cap returns
    the current Rayleigh estimate flagged as approximate.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    rng = rng_from_seed(seed)
    n = x.n
    start = rng.standard_normal((n, n))
    start = start + start.T
    start -= start.mean(axis=0, keepdims=True)
    start -= start.mean(axis=1, keepdims=True)  # zero row/col sums

    def canonical(tv: TangentVector) -> TangentVector:
        # enforce the unique representation: fold any U-component of Zu into
        # the symmetric block (normalization makes roundoff there relevant),
        # and keep Zu's columns centered so the iterate stays in the
        # zero-row-sum space the theorem's operator norm is taken over (the
        # tangent space also has a slice with nonzero row sums, on which
        # every sampling operator vanishes trivially)
        overlap = x.U.T @ tv.Zu
        m = tv.M + overlap + overlap.T
        m = 0.5 * (m + m.T)  # antisymmetric noise is invisible to the
        # coefficient map and would otherwise be amplified as a -p^2 mode
        zu = tv.Zu - x.U @ overlap
        return TangentVector(x, m, zu - zu.mean(axis=0, keepdims=True))

    t = canonical(project_tangent(x, start))

    def apply_op(tv: TangentVector) -> TangentVector:
        image = project_w_expansion(x, db.m_omega_coeffs(tv.w_coeffs(pairs), pairs, p), pairs)
        return canonical(image.add(tv.scale(-p**2)))

    norm = t.norm_fro()
    if norm == 0.0:
        return RipEstimate(0.0, 0.0, 0, True)
    t = t.scale(1.0 / norm)
    rho = 0.0
    for it in range(1, max_iters + 1):
        image = apply_op(t)
        rho = t.inner(image)
        resid_vec = image.add(t.scale(-rho))
        residual = resid_vec.norm_fro()
        norm = image.norm_fro()
        if norm == 0.0:
            return RipEstimate(0.0, 0.0, it, True)
        t = image.scale(1.0 / norm)
        if residual <= tol * max(abs(rho), 1e-300):
            return RipEstimate(abs(rho) / p**2, float(residual), it, True)
    return RipEstimate(abs(rho) / p**2, float(residual), max_iters, False)
