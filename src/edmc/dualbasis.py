"""The non-orthogonal basis ``{w_a}`` of the zero-row-sum symmetric
matrices, its explicit dual ``{v_a}``, and the sampling operators built
from them.

For a pair ``a = (i, j)`` with ``i < j``:

* ``w_a = e_ii + e_jj - e_ij - e_ji`` so that ``<X, w_a> = D_ij``,
* ``v_a = -1/2 (a b^T + b a^T)`` with ``a = e_i - 1/n``, ``b = e_j - 1/n``,

and ``<v_a, w_b> = delta_ab``.  Every operator here consumes a coefficient
vector ``c[k] = <Y, w_a_k>`` on the sampled pairs, which is the only data
the completion problem exposes, and runs in O(m); the dense twins that
the tests hold them to are in :mod:`edmc.oracles`.

The fast paths share one structure: with B the signed pair-incidence
matrix of the sample (``PairSet.incidence``, row a equal to ``e_i - e_j``),
``w_a = b_a b_a^T``, so ``<U diag(l) U^T, w_a>`` is ``((BU) * (BU)) l`` and
``sum_a g_a w_a = B^T diag(g) B``, whose diagonal is :func:`pair_row_sums`.

Operators (Omega the sampled pair set, m = |Omega|):

* ``f_omega``:   restricted frame operator ``sum_a <.,w_a> w_a``
* ``r_omega``:   oblique sampler ``sum_a <.,w_a> v_a = -1/2 J P_O(D) J``
* ``rstar_r``:   normal operator ``sum_{a,b} <.,w_a><v_a,v_b> w_b``
* ``m_omega``:   de-biased variant with the diagonal rescaled by p, so
  that the Bernoulli(p) expectation is ``p^2 I``.
"""

from __future__ import annotations

import numpy as np

from .sampling import PairSet, csr


def v_norm_sq(n):
    """``||v_a||_F^2 = <v_a, v_a>``, the same for every pair."""
    return 0.5 * (1.0 - 2.0 / n + 2.0 / n**2)


def w_coeffs_factored(dU, eigs):
    """``<U diag(eigs) U^T, w_a> = ((BU) * (BU)) eigs`` in O(m r), from the
    row differences ``dU = pairs.incidence @ U``."""
    return (dU * dU) @ eigs


def pair_matrix(g, pairs: PairSet):
    """``A_g``: the n x n upper-triangular CSR matrix with ``g_a`` at
    ``(i_a, j_a)``, on the cached pattern ``pairs.upper_pattern``.

    ``A_g @ V`` and ``A_g.T @ V`` add ``g_a V[j_a]`` into row ``i_a`` and
    ``g_a V[i_a]`` into row ``j_a`` in pair order, so they round exactly like
    ``np.bincount`` over the pairs, for every column at once.
    """
    indptr, indices = pairs.upper_pattern
    return csr(np.asarray(g, dtype=float), indices, indptr, (pairs.n, pairs.n))


def _row_sums(a):
    ones = np.ones(a.shape[0])
    return a @ ones + a.T @ ones


def pair_row_sums(c, pairs: PairSet):
    """Per-point sums ``s_i = sum of c_a over the pairs a containing i``."""
    return _row_sums(pair_matrix(c, pairs))


# ---------------------------------------------------------------------------
# O(m) fast paths.  All operator images lie in the span of {w_b : b in
# Omega} and are returned as expansion coefficients g (the matrix is
# sum_b g_b w_b), which w_expand_matvec applies to a factor.


def w_expand_matvec(g, pairs: PairSet, V):
    """``(sum_b g_b w_b) @ V = B^T (g * BV)``, summed as the diagonal times V
    minus the upper and lower off-diagonal patterns ``A_g`` and ``A_g^T``:
    trials near the boundary between the truth and a spurious point change
    outcome with the summation order.  The result takes V's memory layout,
    which later BLAS products round by."""
    a = pair_matrix(g, pairs)
    V = np.asarray(V, dtype=float)
    out = _row_sums(a)[:, None] * V
    out -= a @ V
    out -= a.T @ V
    return out


def rstar_r_coeffs(coeffs, pairs: PairSet):
    """w-expansion coefficients of the normal operator image, in O(m + n).

    ``sum_{a,b in O} c_a <v_a, v_b> w_b`` equals ``sum_b g_b w_b`` with
    ``g_b`` half the (i, j) entry of ``J P_O(T(Y)) J``.  With S the sparse
    symmetric matrix carrying the coefficients, the J-conjugation is S plus
    rank-one corrections, so its entry at (i, j) is
    ``S_ij - (s_i + s_j)/n + t/n^2`` with s the row sums and t their total.
    """
    n = pairs.n
    c = np.asarray(coeffs, dtype=float)
    s = pair_row_sums(c, pairs)
    return 0.5 * (c - (s[pairs.ii] + s[pairs.jj]) / n + s.sum() / n**2)


def m_omega_coeffs(coeffs, pairs: PairSet, p):
    """w-expansion coefficients of the de-biased operator image.

    The de-biasing subtracts ``||v||_F^2 (1-p)`` times the frame image so
    the diagonal (a = b) terms carry weight p: the Bernoulli expectation of
    the assembled operator is then exactly ``p^2 I`` on zero-row-sum
    symmetric matrices.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    c = np.asarray(coeffs, dtype=float)
    return rstar_r_coeffs(c, pairs) - v_norm_sq(pairs.n) * (1.0 - p) * c


def r_omega_apply(coeffs, pairs: PairSet):
    """Dense ``-1/2 J P_O(D) J`` built from observed coefficients.

    Materializes the n-by-n image; use :func:`r_omega_operator` when only
    matrix-vector products are needed.
    """
    n = pairs.n
    ii, jj = pairs.ii, pairs.jj
    c = np.asarray(coeffs, dtype=float)
    s = pair_row_sums(c, pairs)
    out = np.full((n, n), c.sum() * 2.0 / n**2)
    out -= np.add.outer(s, s) / n
    out[ii, jj] += c
    out[jj, ii] += c
    return -0.5 * out


def r_omega_operator(coeffs, pairs: PairSet):
    """Matrix-free ``-1/2 J P_O(D) J``: a function of a vector x that applies
    it in O(m + n), with the pair pattern as ``A_c x + A_c^T x`` on
    :func:`pair_matrix` like every other O(m) operator."""
    n = pairs.n
    c = np.asarray(coeffs, dtype=float)
    a = pair_matrix(c, pairs)
    s = _row_sums(a)
    t = c.sum() * 2.0

    def matvec(x):
        xsum = x.sum()
        return -0.5 * (a @ x + a.T @ x - s * (xsum / n) - s @ x / n + t * xsum / n**2)

    return matvec
