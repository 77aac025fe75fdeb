"""Conversions among point clouds, centered Gram matrices, and squared
distance matrices, plus classical multidimensional scaling.

Conventions used throughout the package:

* a point cloud is an ``(n, r)`` float array with one point per row;
* a Gram matrix ``X = P @ P.T`` of a centered cloud is symmetric PSD with
  ``X @ 1 = 0``;
* a squared distance matrix ``D`` is hollow and symmetric with
  ``D[i, j] = ||p_i - p_j||^2``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np


class NotEmbeddableError(ValueError):
    """Raised when a distance matrix has no rank-r Euclidean embedding."""


def _check_finite(a, name):
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")


def _check_symmetric(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.array_equal(a, a.T):
        if np.abs(a - a.T).max() > 1e-12 * max(1.0, np.abs(a).max()):
            raise ValueError(f"{name} must be symmetric")
    return a


def magnitude_order(eigvals):
    """Indices sorting eigenvalues by descending magnitude.

    Ties in magnitude are broken by descending signed value, then by the
    lowest original index, so the selection is fully deterministic.
    """
    eigvals = np.asarray(eigvals)
    idx = np.arange(eigvals.size)
    # np.lexsort sorts by the last key first
    return np.lexsort((idx, -eigvals, -np.abs(eigvals)))


@dataclass(frozen=True)
class FactoredGram:
    """Rank-r centered Gram matrix stored as ``U @ diag(eigs) @ U.T``.

    ``U`` has orthonormal columns and ``eigs`` is sorted by descending
    magnitude.  Mid-iteration factors may carry negative eigenvalues; the
    flags record degeneracies met when the factorization was produced.
    """

    U: np.ndarray
    eigs: np.ndarray
    boundary_tie: bool = field(default=False, compare=False)
    rank_deficient: bool = field(default=False, compare=False)

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        eigs = np.asarray(self.eigs, dtype=float)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "eigs", eigs)
        if U.ndim != 2 or eigs.ndim != 1 or U.shape[1] != eigs.size:
            raise ValueError("U must be (n, r) with one eigenvalue per column")
        _check_finite(U, "U")
        _check_finite(eigs, "eigs")

    @property
    def n(self):
        return self.U.shape[0]

    @property
    def r(self):
        return self.U.shape[1]

    def matrix(self):
        """Dense ``(n, n)`` reconstruction."""
        return (self.U * self.eigs) @ self.U.T

    def norm_fro(self):
        return float(np.linalg.norm(self.eigs))

    def validate(self, orth_tol=1e-10, centered_tol=1e-8):
        UtU = self.U.T @ self.U
        if np.abs(UtU - np.eye(self.r)).max() > orth_tol:
            raise ValueError("factor columns are not orthonormal")
        if np.abs(self.U.sum(axis=0)).max() > centered_tol * np.sqrt(self.n):
            raise ValueError("factor columns are not centered (U^T 1 != 0)")
        return self


def gram_frobenius_error(a: FactoredGram, b: FactoredGram) -> float:
    """``||A - B||_F`` for two factored Gram matrices.

    The difference is formed in the joint column space (the R of a QR of
    ``[Ua | Ub]`` and a small core), which avoids the catastrophic
    cancellation of the inner-product expansion and stays accurate down to
    machine precision; no n-by-n array is formed.
    """
    ra = a.r
    rr = np.linalg.qr(np.hstack([a.U, b.U]), mode="r")
    ka = rr[:, :ra] * a.eigs
    kb = rr[:, ra:] * b.eigs
    core = ka @ rr[:, :ra].T - kb @ rr[:, ra:].T
    return float(np.linalg.norm(core))


def center_points(points):
    """Translate a point cloud so every column sums to zero."""
    points = np.asarray(points, dtype=float)
    _check_finite(points, "points")
    return points - points.mean(axis=0)


def is_centered(points, tol=1e-10):
    points = np.asarray(points, dtype=float)
    scale = max(1.0, np.abs(points).max()) if points.size else 1.0
    return bool(np.abs(points.sum(axis=0)).max() <= tol * points.shape[0] * scale)


def _centered_points(points):
    points = np.asarray(points, dtype=float)
    _check_finite(points, "points")
    if not is_centered(points, tol=1e-8):
        raise ValueError("points are not centered; call center_points first")
    return points


def gram_from_points(points):
    """Gram matrix ``P @ P.T`` of a centered point cloud.

    Parameters
    ----------
    points : (n, r) array
        Centered coordinates, one point per row.  Center with
        :func:`center_points` first if needed.
    """
    points = _centered_points(points)
    return points @ points.T


def factored_gram_from_points(points):
    """Exact factored Gram ``U diag(s^2) U^T`` of a centered ``(n, d)`` cloud.

    Built from the thin SVD ``P = U diag(s) V^T`` in O(n d^2) work, with no
    n-by-n array; the factor keeps all d columns, so it is exact whatever the
    cloud's dimension.
    """
    points = _centered_points(points)
    U, s, _ = np.linalg.svd(points, full_matrices=False)
    return FactoredGram(U, s * s)


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


def select_rank(eigvals, eigvecs, r):
    """Keep the r largest-magnitude eigenpairs, flagging degeneracies.

    A tie in magnitude at the rank boundary and a numerically vanishing
    kept eigenvalue are both recorded on the result rather than raised.
    """
    order = magnitude_order(eigvals)[:r]
    lam = eigvals[order]
    vecs = eigvecs[:, order]
    scale = np.abs(eigvals).max() if eigvals.size else 0.0
    tie = False
    if eigvals.size > r and scale > 0:
        rest = np.delete(np.abs(eigvals), order)
        if rest.size and np.abs(np.abs(lam[-1]) - rest.max()) <= 1e-12 * scale:
            tie = True
    deficient = bool(r > 0 and (scale == 0.0 or np.abs(lam[-1]) <= 1e-13 * scale))
    return FactoredGram(vecs, lam, boundary_tie=tie, rank_deficient=deficient)


def truncated_gram(x, r):
    """Rank-r factorization of a symmetric matrix by eigenvalue magnitude."""
    x = _check_symmetric(x, "matrix")
    eigvals, eigvecs = np.linalg.eigh(x)
    return select_rank(eigvals, eigvecs, r)


def classical_mds(d, r, neg_tol=1e-8):
    """Embed a squared distance matrix into r dimensions.

    Eigendecomposes ``-0.5 J D J`` and returns ``U @ sqrt(diag(lam))`` on the
    r leading (largest-magnitude) eigenvalues.  Small negative eigenvalues up
    to ``neg_tol * lam_max`` are clamped to zero; anything beyond raises
    :class:`NotEmbeddableError`.
    """
    b = gram_from_distances(d)
    # made exactly symmetric: d passed a symmetry tolerance that b may not
    kept = truncated_gram(0.5 * (b + b.T), r)
    lam = kept.eigs
    scale = np.abs(lam).max() if lam.size else 0.0   # the largest is kept
    if np.any(lam < -neg_tol * max(scale, 1e-300)):
        raise NotEmbeddableError(
            f"leading eigenvalues {lam} include a negative value beyond "
            f"tolerance {neg_tol * scale:g}; no rank-{r} embedding exists"
        )
    lam = np.clip(lam, 0.0, None)
    return kept.U * np.sqrt(lam)


def procrustes_error(a, b):
    """Residual ``min_Q ||A - B Q||_F`` over orthogonal Q, after centering.

    Evaluation up to rigid motion: both clouds are centered, then the
    orthogonal Procrustes problem is solved in closed form: Q = U V^T from
    the SVD of ``(A^T B)^T``, the product ``scipy.linalg.orthogonal_procrustes``
    decomposes with the same LAPACK driver (gesdd).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    _check_finite(a, "a")
    _check_finite(b, "b")
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    u, _, vt = np.linalg.svd((a.T @ b).T)
    q = u @ vt
    return float(np.linalg.norm(a - b @ q))


# ---------------------------------------------------------------------------
# point-cloud files: CSV, one row per point, optional header, '#' comments


def write_points_csv(path, points, meta=None):
    points = np.asarray(points, dtype=float)
    with open(path, "w", newline="") as fh:
        if meta is not None:
            fh.write("# meta: " + json.dumps(meta, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        for row in points:
            writer.writerow([repr(float(v)) for v in row])


def read_points_csv(path):
    """Read a point cloud CSV; rejects ragged rows, skips comments/header."""
    rows = []
    width = None
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(csv.reader(fh), start=1):
            if not raw or (raw[0].lstrip().startswith("#")):
                continue
            try:
                row = [float(v) for v in raw]
            except ValueError:
                if rows:
                    raise ValueError(f"{path}:{lineno}: non-numeric row after data")
                continue  # header line
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(
                    f"{path}:{lineno}: ragged row of width {len(row)}, expected {width}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)
