"""Index-set generation and observation models.

Observed data is a subset of the strictly upper-triangular squared
distances, indexed by pairs ``(i, j)`` with ``i < j`` (0-based in memory,
1-based in serialized files).  Sampling is Bernoulli(p) over all
``L = n(n-1)/2`` pairs, reproducible from a single integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import _centered_points, _read_csv, _write_csv, check_fields, is_int, is_number


def rng_from_seed(seed):
    """Seeded PCG64 generator; SeedSequence makes per-stream spawning cheap."""
    return np.random.default_rng(np.random.SeedSequence(seed))


def pair_count(n):
    return n * (n - 1) // 2


def csr(data, indices, indptr, shape):
    """``scipy.sparse.csr_array((data, indices, indptr), shape=shape)``.

    The package's one sparse constructor: scipy.sparse loads on the first
    call of a process, so generating, sampling, observing and the
    incoherence scan never pay its import.
    """
    from scipy.sparse import csr_array
    return csr_array((data, indices, indptr), shape=shape)


@dataclass(frozen=True)
class PairSet:
    """Strictly upper-triangular index pairs, sorted lexicographically.

    ``ii`` and ``jj`` are read-only copies, so the cached incidence matrix
    always describes them.
    """

    n: int
    ii: np.ndarray
    jj: np.ndarray

    def __post_init__(self):
        ii = np.array(self.ii, dtype=np.int64)
        jj = np.array(self.jj, dtype=np.int64)
        ii.flags.writeable = jj.flags.writeable = False
        object.__setattr__(self, "ii", ii)
        object.__setattr__(self, "jj", jj)
        if ii.shape != jj.shape or ii.ndim != 1:
            raise ValueError("ii and jj must be equal-length 1-d arrays")
        if ii.size:
            if ii.min() < 0 or jj.max() >= self.n:
                raise ValueError("pair indices out of range")
            if np.any(ii >= jj):
                raise ValueError("pairs must satisfy i < j")
            if np.any(ii[1:] < ii[:-1]) or np.any((ii[1:] == ii[:-1]) & (jj[1:] <= jj[:-1])):
                raise ValueError("pairs must be sorted and unique")

    def __len__(self):
        return int(self.ii.size)

    @property
    def m(self):
        return len(self)

    def __iter__(self):
        return zip(self.ii.tolist(), self.jj.tolist())

    @cached_property
    def incidence(self):
        """Signed pair-incidence matrix B (m x n, int8): row a is ``e_i - e_j``,
        so ``w_a = b_a b_a^T``; ``B.T`` is a view, not a stored transpose."""
        m = self.m
        indices = np.empty(2 * m, dtype=np.int32)
        indices[0::2], indices[1::2] = self.ii, self.jj
        data = np.tile(np.array([1, -1], dtype=np.int8), m)
        indptr = np.arange(0, 2 * m + 1, 2, dtype=np.int32)
        return csr(data, indices, indptr, (m, self.n))

    @cached_property
    def upper_pattern(self):
        """Read-only CSR ``(indptr, indices)`` of the n x n strictly upper
        triangle that holds the pairs: row i lists the j of its pairs in pair
        order, so a product with this pattern adds the pairs' terms in the
        order an index scatter over the pairs would."""
        counts = np.bincount(self.ii, minlength=self.n)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        indices = self.jj.astype(np.int32)
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices

    @classmethod
    def full(cls, n):
        ii, jj = np.triu_indices(n, k=1)
        return cls(n, ii, jj)

    @classmethod
    def from_pairs(cls, n, pairs):
        pairs = sorted({(min(i, j), max(i, j)) for i, j in pairs})
        ii = np.array([p[0] for p in pairs], dtype=np.int64)
        jj = np.array([p[1] for p in pairs], dtype=np.int64)
        return cls(n, ii, jj)


#: uniforms drawn per block by :func:`bernoulli_sample`
SAMPLE_BLOCK = 1 << 16


def bernoulli_sample(n, p, seed):
    """Include each of the L upper-triangle pairs independently with prob p.

    Pair ``t`` in the row-major order of ``np.triu_indices(n, 1)`` is kept
    when the t-th uniform of the seeded stream is below p.  The uniforms are
    drawn in blocks of ``SAMPLE_BLOCK`` and only the kept indices are held,
    so memory is O(m + block) rather than O(L); the kept indices map back to
    ``(i, j)`` through the row offsets.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"sampling probability {p} outside [0, 1]")
    total = pair_count(n)
    rng = rng_from_seed(seed)
    hits = [np.flatnonzero(rng.random(min(SAMPLE_BLOCK, total - start)) < p) + start
            for start in range(0, total, SAMPLE_BLOCK)]
    t = np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)
    # row i holds the pairs offsets[i] .. offsets[i] + n - i - 2
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * (n - 1) - rows * (rows - 1) // 2
    ii = np.searchsorted(offsets, t, side="right") - 1
    jj = t - offsets[ii] + ii + 1
    return PairSet(n, ii, jj)


@dataclass(frozen=True)
class SampledDistances:
    """Observed squared distances ``d[k] = D[ii[k], jj[k]]`` on a pair set.

    ``p`` records the Bernoulli parameter when known; otherwise the
    empirical fill ``m / L`` stands in.
    """

    pairs: PairSet
    values: np.ndarray
    p: float | None = None
    seed: int | None = None

    def __post_init__(self):
        check_fields(self, lambda v: v is None or (is_number(v) and 0.0 <= v <= 1.0),
                     "None or a number in [0, 1]", "p")
        check_fields(self, lambda v: v is None or is_int(v), "None or an integer", "seed")
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.pairs.ii.shape:
            raise ValueError("one value per pair required")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"non-finite distances at {np.sum(~np.isfinite(values))} pairs")
        if values.size and values.min() < -1e-12:
            raise ValueError("squared distances must be nonnegative")

    @property
    def n(self):
        return self.pairs.n

    @property
    def m(self):
        return len(self.pairs)

    def fill_probability(self):
        if self.p is not None:
            return float(self.p)
        return self.m / pair_count(self.n)

    def save(self, path, meta=None):
        """Write ``# meta: {n, p, seed, _meta}``, header ``i,j,d`` and 1-based rows."""
        head = {"n": int(self.n), "p": self.p, "seed": self.seed}
        if meta is not None:
            head["_meta"] = meta
        rows = zip(self.pairs.ii + 1, self.pairs.jj + 1, map(repr, map(float, self.values)))
        _write_csv(path, rows, head, header=["i", "j", "d"])

    @classmethod
    def load(cls, path):
        """Read a file of :meth:`save`; a fault is a ``ValueError`` naming ``path``."""
        head, rows = _read_csv(path, _pair_row)
        n = head.get("n")
        if not is_int(n):
            raise ValueError(f"{path}: '# meta:' line 1 needs an integer n, not {n!r}")
        table = np.fromiter((row for _, row in rows),
                            dtype=[("i", np.int64), ("j", np.int64), ("d", float)])
        try:
            pairs = PairSet(n, table["i"], table["j"])
            return cls(pairs, table["d"].copy(), p=head.get("p"), seed=head.get("seed"))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _pair_row(fields):
    try:
        return int(fields[0]) - 1, int(fields[1]) - 1, float(fields[2])
    except (IndexError, ValueError):
        raise ValueError(f"expected integer indices i, j and a distance d, "
                         f"got {','.join(fields)!r}") from None


def observe(x_true, pairs: PairSet, p=None, seed=None):
    """Extract ``<X, w_(i,j)> = X_ii + X_jj - 2 X_ij`` on the sampled pairs."""
    x = np.asarray(x_true, dtype=float)
    if x.shape[0] != pairs.n:
        raise ValueError("gram matrix size does not match pair set")
    ii, jj = pairs.ii, pairs.jj
    values = x[ii, ii] + x[jj, jj] - 2.0 * x[ii, jj]
    return SampledDistances(pairs, values, p=p, seed=seed)


#: float64 elements in one row block of an n x n array (2 MB): the blocked
#: passes over Gram and distance rows hold a few such blocks, never all n x n
BLOCK_ELEMS = 1 << 18


def row_blocks(n):
    """Row ranges ``[s, e)`` of an ``(n, n)`` array, about BLOCK_ELEMS each."""
    step = max(1, BLOCK_ELEMS // max(n, 1))
    return ((s, min(s + step, n)) for s in range(0, n, step))


def observe_points(points, pairs: PairSet, p=None, seed=None):
    """``observe(gram_from_points(points), pairs, p, seed)`` holding one row
    block of the Gram at a time instead of all n x n entries.

    Each block ``P[s:e] @ P.T`` is the same BLAS product against all
    columns, so the Gram entries, and with them the values, are those of the
    full product: bitwise when one block holds every row, otherwise up to
    the kernel's last-bit differences between block shapes.  The pairs with
    ``i`` in ``[s, e)`` are contiguous because the pairs are sorted.  Unlike
    :func:`observe`, which takes any Gram matrix, the values are clamped at
    0: a cloud's squared distances cannot be negative, but the Gram form
    rounds those of near-coincident points to about -1e-10 at scale 1e4.
    """
    points = _centered_points(points)
    n = points.shape[0]
    if n != pairs.n:
        raise ValueError(f"the cloud holds {n} points but the pair set has n={pairs.n}")
    ii, jj = pairs.ii, pairs.jj
    indptr = pairs.upper_pattern[0]
    g_diag = np.empty(n)
    g_pair = np.empty(pairs.m)
    for s, e in row_blocks(n):
        g = points[s:e] @ points.T
        g_diag[s:e] = g[np.arange(e - s), np.arange(s, e)]
        a, b = indptr[s], indptr[e]
        g_pair[a:b] = g[ii[a:b] - s, jj[a:b]]
    values = g_diag[ii] + g_diag[jj] - 2.0 * g_pair
    np.maximum(values, 0.0, out=values)
    return SampledDistances(pairs, values, p=p, seed=seed)


def perturb_points(points, bound, seed):
    """``P + N`` with N i.i.d. uniform on ``[-bound, bound]``, seeded by ``seed``."""
    if not (np.isfinite(bound) and bound >= 0):
        raise ValueError(f"noise bound must be nonnegative and finite, got {bound}")
    points = np.asarray(points, dtype=float)
    if bound == 0.0:
        return points.copy()
    return points + rng_from_seed(seed).uniform(-bound, bound, size=points.shape)


def degrees_of_freedom(n, r):
    dof = n * r - r * (r - 1) // 2
    if dof <= 0:
        raise ValueError(f"degenerate degree-of-freedom count {dof}")
    return dof


def oversampling_ratio(n, r, p):
    """Samples per degree of freedom: ``p L / (n r - r(r-1)/2)``."""
    return p * pair_count(n) / degrees_of_freedom(n, r)


def probability_for_ratio(n, r, rho):
    """Bernoulli parameter giving oversampling ratio rho (capped at 1)."""
    if not (np.isfinite(rho) and rho >= 0):
        raise ValueError(f"oversampling ratio {rho} must be nonnegative and finite")
    return min(1.0, rho * degrees_of_freedom(n, r) / pair_count(n))
