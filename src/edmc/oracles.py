"""Dense reference forms of the package's O(m r) paths, which the tests
hold those paths to: distance matrices and classical MDS, the explicit
basis ``{w_a}``, its dual ``{v_a}`` and literal operator sums over them,
dense tangent projection and brute-force coherence terms.  No program path
imports this module, so none of its n-by-n arrays appears between sampling
and the result."""

from __future__ import annotations

import numpy as np

from .dualbasis import v_norm_sq
from .geometry import (NEG_TOL, FactoredGram, _check_finite, _check_symmetric,
                       truncated_gram)
from .manifold import TangentVector, _split
from .sampling import PairSet, pair_count


class NotEmbeddableError(ValueError):
    """Raised when a distance matrix has no rank-r Euclidean embedding."""


def distances_from_gram(x):
    """Squared distance matrix of a Gram matrix.

    ``D[i, j] = X[i, i] + X[j, j] - 2 X[i, j]``; the result is hollow and
    symmetric, and entrywise nonnegative whenever ``x`` is PSD.
    """
    x = _check_symmetric(x, "gram matrix")
    _check_finite(x, "gram matrix")
    d = np.diag(x)
    out = d[:, None] + d[None, :] - 2.0 * x
    np.fill_diagonal(out, 0.0)
    return out


def gram_from_distances(d):
    """Centered Gram matrix ``-0.5 * J D J`` of a squared distance matrix.

    ``J = I - (1/n) 11^T`` is the centering projector, so the output always
    has zero row sums up to roundoff.
    """
    d = _check_symmetric(d, "distance matrix")
    _check_finite(d, "distance matrix")
    row = d.mean(axis=1)
    total = row.mean()
    return -0.5 * (d - row[:, None] - row[None, :] + total)


def classical_mds(d, r):
    """Embed a squared distance matrix into r dimensions.

    Eigendecomposes ``-0.5 J D J`` and returns ``U @ sqrt(diag(lam))`` on the
    r leading (largest-magnitude) eigenvalues.  Small negative eigenvalues up
    to ``NEG_TOL * lam_max`` are clamped to zero; anything beyond raises
    :class:`NotEmbeddableError`.
    """
    b = gram_from_distances(d)
    # made exactly symmetric: d passed a symmetry tolerance that b may not
    kept = truncated_gram(0.5 * (b + b.T), r)
    lam = kept.eigs
    scale = np.abs(lam).max() if lam.size else 0.0   # the largest is kept
    if np.any(lam < -NEG_TOL * max(scale, 1e-300)):
        raise NotEmbeddableError(
            f"leading eigenvalues {lam} include a negative value beyond "
            f"tolerance {NEG_TOL * scale:g}; no rank-{r} embedding exists"
        )
    lam = np.clip(lam, 0.0, None)
    return kept.U * np.sqrt(lam)


def h_inv_entry(n, alpha, beta):
    """Closed-form entry ``<v_alpha, v_beta>`` of the inverse Gram matrix."""
    shared = len(set(alpha) & set(beta))
    if shared == 2:
        return v_norm_sq(n)
    if shared == 1:
        return -1.0 / (2 * n) + 1.0 / n**2
    return 1.0 / n**2


def w_alpha_dense(n, i, j):
    if not 0 <= i < j < n:
        raise IndexError(f"pair ({i}, {j}) out of range for n={n}")
    w = np.zeros((n, n))
    w[i, i] = w[j, j] = 1.0
    w[i, j] = w[j, i] = -1.0
    return w


def v_alpha_dense(n, i, j):
    """Explicit dual element ``-1/2 (a b^T + b a^T)``; rows sum to zero."""
    if not 0 <= i < j < n:
        raise IndexError(f"pair ({i}, {j}) out of range for n={n}")
    a = np.full(n, -1.0 / n)
    a[i] += 1.0
    b = np.full(n, -1.0 / n)
    b[j] += 1.0
    return -0.5 * (np.outer(a, b) + np.outer(b, a))


def w_inner(x, i, j):
    """``<X, w_(i,j)> = X_ii + X_jj - 2 X_ij`` of a dense X;
    ``dualbasis.w_coeffs_factored`` takes the row differences ``BU`` of
    a factored X."""
    x = np.asarray(x, dtype=float)
    if not (0 <= i < x.shape[0] and 0 <= j < x.shape[0]):
        raise IndexError(f"pair ({i}, {j}) out of range")
    return float(x[i, i] + x[j, j] - x[i, j] - x[j, i])


def w_coeffs(x, pairs: PairSet):
    """Vectorized ``<X, w_a>`` over a pair set for a dense symmetric X."""
    x = np.asarray(x, dtype=float)
    ii, jj = pairs.ii, pairs.jj
    return x[ii, ii] + x[jj, jj] - 2.0 * x[ii, jj]


def sum_v_squared(n):
    """Closed form ``sum_a v_a^2 = ((n^2 - 2n + 2) / 4n) J``."""
    if n < 2:
        raise ValueError("need at least two points")
    j = np.eye(n) - 1.0 / n
    return (n**2 - 2 * n + 2) / (4 * n) * j


def f_omega_dense(y, pairs: PairSet):
    n = pairs.n
    out = np.zeros((n, n))
    for i, j in pairs:
        out += w_inner(y, i, j) * w_alpha_dense(n, i, j)
    return out


def r_omega_dense(y, pairs: PairSet):
    n = pairs.n
    out = np.zeros((n, n))
    for i, j in pairs:
        out += w_inner(y, i, j) * v_alpha_dense(n, i, j)
    return out


def m_omega_dense(y, pairs: PairSet, p):
    """The de-biased operator; at p = 1 it is the normal operator R*R."""
    n = pairs.n
    vs = [v_alpha_dense(n, i, j) for i, j in pairs]
    cs = [w_inner(y, i, j) for i, j in pairs]
    out = np.zeros((n, n))
    for b, (i, j) in enumerate(pairs):
        g = 0.0
        for a in range(len(vs)):
            scale = p if a == b else 1.0
            g += scale * cs[a] * np.sum(vs[a] * vs[b])
        out += g * w_alpha_dense(n, i, j)
    return out


def s_basis(n):
    """Orthonormal basis of the zero-row-sum symmetric matrices.

    Conjugates the canonical symmetric basis of (n-1)-space by an
    orthonormal basis of the complement of the all-ones vector, giving
    L = n(n-1)/2 mutually orthonormal matrices.
    """
    j = np.eye(n) - 1.0 / n
    v = np.linalg.svd(j)[0][:, : n - 1]
    basis = []
    for a in range(n - 1):
        for b in range(a, n - 1):
            e = np.zeros((n - 1, n - 1))
            if a == b:
                e[a, a] = 1.0
            else:
                e[a, b] = e[b, a] = 1.0 / np.sqrt(2.0)
            basis.append(v @ e @ v.T)
    return np.array(basis)


def dense_operator_matrix(op, n, basis=None):
    """Materialize an operator on the orthonormal basis of the ambient space.

    ``op`` maps a dense ``(n, n)`` matrix to its dense image, for example
    ``lambda y: m_omega_dense(y, pairs, p)``.  Entry (k, l) is
    ``<B_k, op(B_l)>`` for the basis from :func:`s_basis`; self-adjoint
    operators give symmetric matrices whose eigenvalues are the operator
    spectrum.  Guarded to small n, this is the exact oracle the fast paths
    are tested against.
    """
    if n > 20:
        raise ValueError("dense operator materialization is limited to n <= 20")
    if basis is None:
        basis = s_basis(n)
    L = pair_count(n)
    out = np.zeros((L, L))
    for l in range(L):
        out[:, l] = np.einsum("kij,ij->k", basis, op(basis[l]))
    return out


def project_tangent(base: FactoredGram, y) -> TangentVector:
    """Orthogonal projection of a symmetric matrix onto the tangent space.

    ``y`` may be dense or scipy-sparse; the cost is one product ``y @ U``
    plus O(n r^2) dense work.
    """
    return _split(base, np.asarray(y @ base.U))


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
    overlap = float(i == k) - float(i == l) - float(j == k) + float(j == l)
    if overlap == 0.0:
        return 0.0
    U = x.U
    return overlap * float((U[i] - U[j]) @ (U[k] - U[l]))


def cross_term_max_dense(x: FactoredGram):
    """Dense oracle for ``diagnostics.cross_term_max``: one n-by-n Gram per row."""
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
    """``sum_{i<j} ||u_i - u_j||^2``; equals ``n * r`` for centered factors.

    Closed form ``n sum_i ||u_i||^2 - ||sum_i u_i||^2``, O(n r).
    """
    U = x.U
    total = U.sum(axis=0)
    return float(x.n * np.sum(U * U) - total @ total)
