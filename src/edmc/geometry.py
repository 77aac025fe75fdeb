"""Point clouds and their centered Gram matrices, dense and factored:
centring, rank-r truncation, Procrustes alignment and the package's file
readers.  The dense conversions to and from squared distance matrices and
classical multidimensional scaling are in :mod:`edmc.oracles`.

Conventions used throughout the package:

* a point cloud is an ``(n, r)`` float array with one point per row, and
  :func:`center_points` is the one place that centres it;
* a Gram matrix ``X = P @ P.T`` of a centered cloud is symmetric PSD with
  ``X @ 1 = 0``;
* a squared distance matrix ``D`` is hollow and symmetric with
  ``D[i, j] = ||p_i - p_j||^2``.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


#: eigenvalues below ``-NEG_TOL`` times the largest magnitude are not
#: roundoff: ``oracles.classical_mds`` raises and ``solver.recover_points`` warns
NEG_TOL = 1e-8
#: a kept eigenvalue at most ``RANK_TOL`` times the largest magnitude makes
#: :func:`select_rank`'s result rank deficient
RANK_TOL = 1e-13
#: :meth:`FactoredGram.validate`'s bounds on ``|U^T U - I|`` and ``|U^T 1| / sqrt(n)``
ORTH_TOL, CENTERED_TOL = 1e-10, 1e-8


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


def is_int(v):
    """A Python or numpy integer, not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_number(v):
    """A real number, integers included, not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def check_fields(obj, test, expected, *names):
    """Raise a ``ValueError`` naming the first field of ``obj`` among
    ``names`` whose value fails ``test``; ``expected`` says what passes."""
    for name in names:
        value = getattr(obj, name)
        if not test(value):
            raise ValueError(f"{name} must be {expected}, not {value!r}")


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

    def validate(self):
        UtU = self.U.T @ self.U
        if np.abs(UtU - np.eye(self.r)).max() > ORTH_TOL:
            raise ValueError("factor columns are not orthonormal")
        if np.abs(self.U.sum(axis=0)).max() > CENTERED_TOL * np.sqrt(self.n):
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
    """Translate a point cloud so every column sums to zero: the package's
    one centring, of every cloud read, generated or perturbed."""
    points = np.asarray(points, dtype=float)
    _check_finite(points, "points")
    return points - points.mean(axis=0)


def _centered_points(points):
    # column sums up to 1e-8 * n * max|entry| count as centred
    points = np.asarray(points, dtype=float)
    _check_finite(points, "points")
    scale = max(1.0, np.abs(points).max()) if points.size else 1.0
    if np.abs(points.sum(axis=0)).max() > 1e-8 * points.shape[0] * scale:
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
    deficient = bool(r > 0 and (scale == 0.0 or np.abs(lam[-1]) <= RANK_TOL * scale))
    return FactoredGram(vecs, lam, boundary_tie=tie, rank_deficient=deficient)


def truncated_gram(x, r):
    """Rank-r factorization of a symmetric matrix by eigenvalue magnitude."""
    x = _check_symmetric(x, "matrix")
    eigvals, eigvecs = np.linalg.eigh(x)
    return select_rank(eigvals, eigvecs, r)


def procrustes_error(a, b):
    """Residual ``min_Q ||A - B Q||_F`` over orthogonal Q, after centering.

    Evaluation up to rigid motion: both clouds are centered, then the
    orthogonal Procrustes problem is solved in closed form: Q = U V^T from
    the SVD of ``(A^T B)^T``, the product ``scipy.linalg.orthogonal_procrustes``
    decomposes with the same LAPACK driver (gesdd).
    """
    if np.shape(a) != np.shape(b):
        raise ValueError(f"shape mismatch: {np.shape(a)} vs {np.shape(b)}")
    a, b = center_points(a), center_points(b)
    u, _, vt = np.linalg.svd((a.T @ b).T)
    q = u @ vt
    return float(np.linalg.norm(a - b @ q))


# ---------------------------------------------------------------------------
# files: CSV (an optional `# meta:` first line and header, then rows) and JSON


def read_json(path):
    """The JSON value in a file; a parse error names the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write_csv(path, rows, meta=None, header=None):
    """The one CSV writer: ``# meta: <json>`` and ``header`` if given, then ``rows``."""
    with open(path, "w", newline="") as fh:
        if meta is not None:
            fh.write("# meta: " + json.dumps(meta, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def write_points_csv(path, points, meta=None):
    _write_csv(path, np.asarray(points, dtype=float).tolist(), meta)


def read_points_csv(path):
    """Read a point cloud CSV; rejects ragged rows and non-finite values,
    skips comments/header."""
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
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{lineno}: non-finite value in {','.join(raw)!r}")
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
