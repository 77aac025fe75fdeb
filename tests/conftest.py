import numpy as np
import pytest

from edmc.dualbasis import w_expand_matvec
from edmc.geometry import FactoredGram, gram_from_points
from edmc.sampling import NoiseSpec, perturb_points


def centered_orthonormal(n, r, seed):
    """Random U with orthonormal columns and U^T 1 = 0."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, r))
    a -= a.mean(axis=0)
    q, _ = np.linalg.qr(a)
    return q[:, :r]


def random_centered_gram(n, r, seed, psd=True):
    """Random rank-r centered Gram matrix, dense."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n, r))
    p -= p.mean(axis=0)
    x = p @ p.T
    if not psd:
        u = centered_orthonormal(n, r, seed + 1)
        lam = rng.standard_normal(r) * 3.0
        x = (u * lam) @ u.T
    return x


def random_factored_gram(n, r, seed, psd=True):
    rng = np.random.default_rng(seed)
    u = centered_orthonormal(n, r, seed)
    lam = rng.uniform(0.5, 3.0, size=r)
    if not psd:
        lam *= rng.choice([-1.0, 1.0], size=r)
    order = np.argsort(-np.abs(lam), kind="stable")
    return FactoredGram(u[:, order], lam[order])


def noise_floor(points, bound, seed):
    """``||Xpert - X||_F / ||X||_F`` for uniform point noise at ``bound``.

    Point noise keeps the cloud's rank, so the perturbed points' distances
    are exact distances of a valid configuration: an estimator that fits
    them returns the perturbed Gram matrix, not the clean one.  This is the
    floor of any recovery error measured against the clean truth.
    """
    noisy = perturb_points(points, NoiseSpec(bound, seed=seed))
    noisy -= noisy.mean(axis=0)
    truth = gram_from_points(points)
    return np.linalg.norm(gram_from_points(noisy) - truth) / np.linalg.norm(truth)


def expand(g, pairs):
    """``sum_b g_b w_b`` as a dense n x n array, formed by the solver's
    product ``w_expand_matvec`` against the identity."""
    return w_expand_matvec(g, pairs, np.eye(pairs.n))


def random_centered_symmetric(n, seed):
    """Random element of the zero-row-sum symmetric matrices."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a + a.T
    j = np.eye(n) - 1.0 / n
    return j @ a @ j


@pytest.fixture
def rng():
    return np.random.default_rng(0)
