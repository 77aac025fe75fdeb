"""Fixed-rank manifold primitives: tangent-space projection at a factored
iterate and the structured rank-r retraction.

The tangent space at ``X = U diag(eigs) U^T`` is
``{U Z^T + Z U^T : Z in R^{n x r}}``; the orthogonal projection of a
symmetric Y onto it is ``P_U Y + Y P_U - P_U Y P_U`` and is stored in the
factored form ``U M U^T + Zu U^T + U Zu^T`` with ``Zu^T U = 0``, computed
from the product ``Y @ U`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dualbasis as db
from .geometry import FactoredGram, select_rank
from .sampling import PairSet


class RankCollapseError(RuntimeError):
    """Retraction produced fewer than r usable eigenvalues."""


@dataclass(frozen=True)
class TangentVector:
    """Tangent element ``U M U^T + Zu U^T + U Zu^T`` at a factored base."""

    base: FactoredGram
    M: np.ndarray
    Zu: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        Zu = np.asarray(self.Zu, dtype=float)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "Zu", Zu)
        r = self.base.r
        if M.shape != (r, r) or Zu.shape != (self.base.n, r):
            raise ValueError("component shapes do not match the base factorization")

    def norm_fro(self):
        # Zu is orthogonal to U, so the cross blocks are mutually orthogonal
        return float(np.sqrt(np.sum(self.M**2) + 2.0 * np.sum(self.Zu**2)))

    def inner(self, other: "TangentVector"):
        return float(np.sum(self.M * other.M) + 2.0 * np.sum(self.Zu * other.Zu))

    def scale(self, c):
        return TangentVector(self.base, c * self.M, c * self.Zu)

    def matrix(self):
        U = self.base.U
        return U @ self.M @ U.T + self.Zu @ U.T + U @ self.Zu.T

    def w_coeffs(self, pairs: PairSet, dU=None):
        """``<T, w_a> = du M du^T + 2 dz . du`` in O(m r), du and dz the rows
        of ``BU`` and ``BZu``.

        ``dU``, when given, is ``pairs.incidence @ base.U`` formed by the
        caller; the incidence product rounds each column on its own, so
        supplying it changes no bit of the result.
        """
        B, U = pairs.incidence, self.base.U
        if dU is None:
            dU = B @ U
        return (np.einsum("ij,ij->i", B @ (U @ self.M), dU)
                + 2.0 * np.einsum("ij,ij->i", B @ self.Zu, dU))


def _split(base: FactoredGram, yu) -> TangentVector:
    # tangent components of a symmetric Y from yu = Y @ U alone
    U = base.U
    M = U.T @ yu
    M = 0.5 * (M + M.T)
    return TangentVector(base, M, yu - U @ M)


def project_tangent(base: FactoredGram, y) -> TangentVector:
    """Orthogonal projection of a symmetric matrix onto the tangent space.

    ``y`` may be dense or scipy-sparse; the cost is one product ``y @ U``
    plus O(n r^2) dense work.
    """
    return _split(base, np.asarray(y @ base.U))


def project_w_expansion(base: FactoredGram, g, pairs: PairSet) -> TangentVector:
    """Tangent projection of ``sum_b g_b w_b`` in O(m r), never assembled."""
    return _split(base, db.w_expand_matvec(g, pairs, base.U))


def retract_structured(base: FactoredGram, t: TangentVector, step) -> FactoredGram:
    """``truncated_gram(base + step * t, r)`` via a thin QR and a 2r core.

    The sum lives in span([U | Zu]); a QR of Zu reduces the retraction to
    the eigendecomposition of a 2r-by-2r symmetric core, keeping the update
    at O(n r^2) instead of a dense n-by-n eigendecomposition.
    """
    if t.base is not base and t.base.U is not base.U:
        if not (np.array_equal(t.base.U, base.U) and np.array_equal(t.base.eigs, base.eigs)):
            raise ValueError("tangent vector is not based at the given point")
    r = base.r
    if step == 0.0 or (not np.any(t.M) and not np.any(t.Zu)):
        return base
    U = base.U
    q2, r2 = np.linalg.qr(t.Zu)
    core = np.zeros((2 * r, 2 * r))
    core[:r, :r] = np.diag(base.eigs) + step * t.M
    core[:r, r:] = step * r2.T
    core[r:, :r] = step * r2
    eigvals, eigvecs = np.linalg.eigh(core)
    kept = select_rank(eigvals, eigvecs, r)
    lam = kept.eigs
    scale = np.abs(eigvals).max()
    if scale == 0.0 or np.abs(lam[-1]) <= 1e-14 * scale:
        raise RankCollapseError(
            f"retraction core kept only {int(np.sum(np.abs(lam) > 1e-14 * scale))} "
            f"of {r} eigenvalues; the iterate degenerated"
        )
    vecs = np.hstack([U, q2]) @ kept.U
    return FactoredGram(vecs, lam, boundary_tie=kept.boundary_tie)
