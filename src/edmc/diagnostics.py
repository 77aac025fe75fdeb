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

from . import dualbasis as db, sampling
from .geometry import FactoredGram
from .sampling import PairSet, csr, rng_from_seed, row_blocks

#: multiply the reported nu by this to get the normalization used by the
#: concentration bounds (max ||P_U w_a||_F^2 <= nu_a * r / (2n))
ANALYSIS_NU_SCALE = 8.0


@dataclass(frozen=True)
class CoherenceReport:
    n: int
    r: int
    nu: float
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


def _sq_dist_blocks(U):
    """Blocks of rows of ``||u_i - u_j||^2 = sq_i + sq_j - 2 u_i.u_j``.

    Each entry is formed as in the full n-by-n expression; the diagonal,
    which no maximum may pick, is ``-inf``.
    """
    n = U.shape[0]
    sq = np.sum(U * U, axis=1)
    for s, e in row_blocks(n):
        d = sq[s:e, None] + sq[None, :] - 2.0 * (U[s:e] @ U.T)
        d[np.arange(e - s), np.arange(s, e)] = -np.inf
        yield s, e, d


def _scan(U):
    """One blocked pass over the squared row distances.

    Returns ``max_{i<j}``, its first pair in row-major order, and each row's
    two largest entries off the diagonal as (second, first).
    """
    n = U.shape[0]
    best, pair = -np.inf, None
    top = np.empty((n, 2))
    cols = np.arange(n)
    for s, e, d in _sq_dist_blocks(U):
        top[s:e] = np.partition(d, n - 2, axis=1)[:, n - 2:]
        d[cols[None, :] <= np.arange(s, e)[:, None]] = -np.inf
        k = int(np.argmax(d))
        if d.flat[k] > best:
            best, pair = float(d.flat[k]), (s + k // n, k % n)
    return best, pair, top


def incoherence(x: FactoredGram, cross_terms=True) -> CoherenceReport:
    """Geometric incoherence of a factored Gram matrix.

    One blocked pass over the distance rows, O(n^2 r) time in O(n) memory
    per block, gives nu and its pair; the same pass bounds the rows of the
    cross-term search.
    """
    n, r = x.n, x.r
    if n < 2:
        raise ValueError(f"incoherence needs at least two points, got n={n}")
    if r == 0:
        raise ValueError("rank-0 input has no incoherence parameter")
    if np.any(x.eigs == 0.0):
        raise ValueError("factored Gram carries a zero eigenvalue")
    dmax, pair, top = _scan(x.U)
    return CoherenceReport(
        n=n,
        r=r,
        nu=n / (2.0 * r) * dmax,
        argmax_pair=pair,
        lower_bound_stated=1.0 + 2.0 / (n - 1),
        lower_bound_derived=n / (n - 1.0),
        upper_bound=2.0 * n / r,
        cross_term_max=_cross_search(x.U, top) if cross_terms else None,
    )


def cross_term_max(x: FactoredGram):
    """Max ``|<P_U w_a, P_U w_b>|`` over distinct overlapping pairs.

    That is the max over rows i and distinct j, k (both unlike i) of
    ``|<u_i - u_j, u_i - u_k>|``, found exactly by branch and bound.  A
    blocked pass gives each row's two largest squared distances d1 >= d2,
    whose Cauchy-Schwarz product ``sqrt(d1 d2)`` bounds the row; rows are
    searched in decreasing order of that bound until it falls to the best
    value found.  Every bound is padded for roundoff, so no pair that could
    win is skipped: the result is ``oracles.cross_term_max_dense``'s, up to how
    the BLAS rounds one dot product in blocks of different shapes.
    """
    return _cross_search(x.U, _scan(x.U)[2])


def _cross_search(U, top):
    """The branch and bound of :func:`cross_term_max` from the rows' two
    largest squared distances ``top`` of :func:`_scan`."""
    n, r = U.shape
    if n < 3:
        return 0.0
    eps = np.finfo(float).eps
    # the blocked form sq_i + sq_j - 2 u_i.u_j is within about (4r + 24) eps
    # max_i sq_i of the squared norm of the row difference the search forms
    pad = 8.0 * (r + 4) * eps * float(np.max(np.sum(U * U, axis=1)))
    # a computed dot product of r-vectors is within (r + 2) eps of the exact
    # one, relative to the product of the norms
    slack = 1.0 + 4.0 * (r + 2) * eps
    top = np.maximum(top, 0.0) + pad
    bound = slack * slack * np.sqrt(top[:, 0] * top[:, 1])
    best = 0.0
    for i in np.argsort(-bound, kind="stable"):
        if bound[i] <= best:
            break
        best = _row_cross_max(U, i, best, slack)
    return best


def _row_cross_max(U, i, best, slack):
    """``max(best, max_{j != k} |<u_i - u_j, u_i - u_k>|)`` for one row i.

    Only pairs whose padded norm product exceeds ``best`` are formed: with
    the differences sorted by decreasing norm a, the rows from position s
    on need only the columns whose a times a_s exceeds ``best``.
    """
    diff = U[i] - U                       # rows u_i - u_j, as the dense loop forms them
    a = slack * np.sqrt(np.einsum("ij,ij->i", diff, diff))
    order = np.argsort(-a, kind="stable")
    a = a[order]
    live = int(np.count_nonzero(a * a[0] > best))
    diff = diff[order[:live]]             # row i itself has a = 0 and never enters
    s = 0
    while live - s >= 2:
        k = int(np.count_nonzero(a[:live] * a[s] > best))
        if k - s < 2:
            break
        e = min(k, s + max(1, sampling.BLOCK_ELEMS // (k - s)))
        g = np.abs(diff[s:e] @ diff[s:k].T)
        g[np.arange(e - s), np.arange(e - s)] = 0.0   # j == k is the same pair
        best = max(best, float(g.max()))
        s = e
    return best


def tangent_phi(x: FactoredGram, pairs: PairSet):
    """The tangent-coefficient map at ``x`` as one m-row CSR matrix ``Phi``.

    A tangent vector ``U M U^T + Zu U^T + U Zu^T`` has the Euclidean
    coordinates ``y = [M_kk, sqrt2 M_kl (k < l), sqrt2 vec Zu]``, in which
    ``y . y'`` is the Frobenius inner product of the two tangent matrices;
    ``Phi y`` is then ``<T, w_a> = du M du^T + 2 (dz . du)`` with du and dz
    the rows of ``BU`` and ``BZu``.  Row a holds ``du_k du_l`` (times sqrt2 off the diagonal) on
    the M coordinates, ``+sqrt2 du`` on row i of Zu and ``-sqrt2 du`` on
    row j: 2r + r(r+1)/2 entries, filled column by column into preallocated
    arrays.  ``Phi.T`` is a view, so ``Phi.T @ g`` gives the coordinates of
    ``sum_a g_a w_a`` projected onto the tangent space up to the Zu
    components along ``[U, 1]`` (see :func:`_project_coords`).
    """
    U, B = x.U, pairs.incidence
    n, r = U.shape
    m = pairs.m
    kk, ll = np.triu_indices(r)
    nm = kk.size
    width = nm + 2 * r
    index = np.int32 if max(m * width, nm + n * r) < 2**31 else np.int64
    data = np.empty((m, width))
    indices = np.empty((m, width), dtype=index)
    # the row i columns hold du itself until the M columns are formed
    du = data[:, nm:nm + r]
    for k in range(r):
        du[:, k] = B @ U[:, k]
    root2 = np.sqrt(2.0)
    for c, (k, l) in enumerate(zip(kk, ll)):
        np.multiply(du[:, k], du[:, l], out=data[:, c])
        if k != l:
            data[:, c] *= root2
        indices[:, c] = c
    for k in range(r):
        np.multiply(du[:, k], -root2, out=data[:, nm + r + k])
        du[:, k] *= root2
        for col, ends in ((nm + k, pairs.ii), (nm + r + k, pairs.jj)):
            np.multiply(ends, r, out=indices[:, col], casting="unsafe")
            indices[:, col] += nm + k
    indptr = np.arange(0, m * width + 1, width, dtype=index)
    return csr(data.ravel(), indices.ravel(), indptr, (m, nm + n * r))


def _centring_basis(U):
    """``[U, 1/sqrt(n)]``, the directions Zu must avoid; orthonormal for a
    centred factor (``U^T 1 = 0``)."""
    n = U.shape[0]
    return np.column_stack([U, np.full(n, 1.0 / np.sqrt(n))])


def _project_coords(y, q):
    """Remove, in place, the Zu components of coordinates y along ``q``.

    What is left has Zu orthogonal to U with centred columns: the
    zero-row-sum part of the tangent space, on which the theorem's operator
    norm is taken.  The removal runs twice, so that at p=1, where the
    de-biased operator vanishes, no eps-sized residue along ``q`` survives
    to be amplified by the normalisation.
    """
    n, r1 = q.shape
    zu = y[y.size - n * (r1 - 1):].reshape(n, r1 - 1)
    for _ in range(2):
        zu -= q @ (q.T @ zu)
    return y


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
    space at ``x`` in the coordinates of :func:`tangent_phi`: one step is
    ``P(Phi^T m_omega(Phi y) - p^2 y)``, with P the removal of
    :func:`_project_coords`.  The point is fixed, so ``Phi`` is built once
    and each step costs two sparse products over its m (2r + r(r+1)/2)
    entries plus O(n r) work.  The start is a seeded Gaussian in these
    coordinates.  It stops once the residual is at most ``tol`` times the
    Rayleigh quotient's magnitude; ``tol`` must be finite and nonnegative,
    and 0 runs all ``max_iters`` steps.  Non-convergence within the cap
    returns the current Rayleigh estimate flagged as approximate.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    if x.n != pairs.n:
        raise ValueError(f"the factored Gram has n={x.n} points but the pair set "
                         f"has n={pairs.n}")
    # the pair set's cached pattern, which every step uses, is built before
    # Phi: built after it, the long-lived cache can sit above Phi's freed
    # memory on the heap and keep it resident (7 MB more peak RSS, seen on
    # the n=1002, p=0.2 diagnose benchmark)
    pairs.upper_pattern
    phi = tangent_phi(x, pairs)
    q = _centring_basis(x.U)

    def apply_op(y):
        g = db.m_omega_coeffs(phi @ y, pairs, p)
        return _project_coords(phi.T @ g - p**2 * y, q)

    t = _project_coords(rng_from_seed(seed).standard_normal(phi.shape[1]), q)
    norm = np.linalg.norm(t)
    if norm == 0.0:
        return RipEstimate(0.0, 0.0, 0, True)
    t /= norm
    rho = 0.0
    for it in range(1, max_iters + 1):
        image = apply_op(t)
        rho = float(t @ image)
        residual = np.linalg.norm(image - rho * t)
        norm = np.linalg.norm(image)
        if norm == 0.0:
            return RipEstimate(0.0, 0.0, it, True)
        t = image / norm
        if residual <= tol * max(abs(rho), 1e-300):
            return RipEstimate(abs(rho) / p**2, float(residual), it, True)
    return RipEstimate(abs(rho) / p**2, float(residual), max_iters, False)
