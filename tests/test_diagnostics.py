import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edmc import diagnostics, sampling
from edmc.diagnostics import ANALYSIS_NU_SCALE, cross_term_max, incoherence, rip_estimate
from edmc.geometry import FactoredGram
from edmc.manifold import TangentVector, project_w_expansion
from edmc.oracles import (cross_coherence, cross_term_max_dense, m_omega_dense,
                          project_tangent, s_basis, sum_pairwise_row_distances,
                          w_alpha_dense)
from edmc.sampling import PairSet, bernoulli_sample

from conftest import random_centered_symmetric, random_factored_gram

TRIANGLE_U = np.sqrt(2.0 / 3.0) * np.array(
    [[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]]
)
TRIANGLE = FactoredGram(TRIANGLE_U, np.array([1.0, 1.0]))


def dense_projected_inner(u, alpha, beta):
    """Oracle: <P_U w_a, P_U w_b> with explicit projector and basis matrices."""
    n = u.shape[0]
    pu = u @ u.T
    wa = pu @ w_alpha_dense(n, *alpha)
    wb = pu @ w_alpha_dense(n, *beta)
    return float(np.sum(wa * wb))


CLOUD_KINDS = ("gaussian", "duplicated", "equal", "collinear", "clusters", "lattice")


@st.composite
def adversarial_factors(draw):
    """Factors whose rows defeat loose pruning: repeats, ties, tight clusters.

    Also draws the block size of the blocked passes, so small clouds still
    run through several blocks and several chunks of the pruned search.
    """
    n = draw(st.integers(2, 40))
    r = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(CLOUD_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        u = rng.standard_normal((n, r))
    elif kind == "duplicated":
        base = rng.standard_normal((int(rng.integers(1, n + 1)), r))
        u = base[rng.integers(0, base.shape[0], size=n)]
    elif kind == "equal":
        u = np.tile(rng.standard_normal(r), (n, 1))
    elif kind == "collinear":
        u = np.outer(rng.standard_normal(n), rng.standard_normal(r))
    elif kind == "clusters":
        centre = rng.standard_normal(r)
        side = rng.choice([-1.0, 1.0], size=n)
        u = side[:, None] * centre + 1e-9 * rng.standard_normal((n, r))
    else:   # small binary fractions: every product and sum is exact, ties abound
        u = 0.25 * rng.integers(-2, 3, size=(n, r)).astype(float)
    eigs = rng.uniform(0.5, 3.0, size=r) * rng.choice([-1.0, 1.0], size=r)
    block = draw(st.sampled_from([1, 7, 64, sampling.BLOCK_ELEMS]))
    return FactoredGram(u, eigs), kind, block


def dense_incoherence(x):
    """The n-by-n reference: nu, its first (i<j) pair, and nu from the
    whitened points ``(p_i - p_j)^T Lambda^{-1} (p_i - p_j)``, which is nu
    for a PSD factor and a signed form otherwise."""
    U = x.U
    n, r = U.shape
    sq = np.sum(U * U, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (U @ U.T)
    iu = np.triu_indices(n, k=1)
    k = int(np.argmax(d[iu]))
    points = U * np.sqrt(np.abs(x.eigs))
    cross = points @ (points * (np.sign(x.eigs) / np.abs(x.eigs))).T
    sqw = np.diag(cross)
    dw = sqw[:, None] + sqw[None, :] - cross - cross.T
    scale = n / (2.0 * r)
    return scale * d[iu][k], (int(iu[0][k]), int(iu[1][k])), scale * dw[iu].max()


class TestCrossTermSearch:
    @given(adversarial_factors())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_oracle(self, case):
        x, kind, block = case
        with mock.patch.object(sampling, "BLOCK_ELEMS", block):
            fast = cross_term_max(x)
        dense = cross_term_max_dense(x)
        assert fast == pytest.approx(dense, rel=1e-12, abs=0.0)
        if kind == "equal":
            assert fast == 0.0

    @given(adversarial_factors())
    @settings(max_examples=200, deadline=None)
    def test_report_matches_dense_reference(self, case):
        x, kind, block = case
        with mock.patch.object(sampling, "BLOCK_ELEMS", block):
            rep = incoherence(x, cross_terms=False)
        nu, pair, _ = dense_incoherence(x)
        # a one-row block is a matrix-vector product, which may round its
        # last bit differently: allow that much against the entries' scale
        U = x.U
        floor = 1e-12 * x.n / (2.0 * x.r) * 4.0 * np.max(np.sum(U * U, axis=1))
        assert rep.nu == pytest.approx(nu, rel=1e-12, abs=floor)
        i, j = rep.argmax_pair
        assert i < j
        du = U[i] - U[j]
        assert x.n / (2.0 * x.r) * (du @ du) == pytest.approx(nu, rel=1e-12, abs=floor)
        if kind == "lattice":   # exact arithmetic: the tie-break is the reference's
            assert rep.argmax_pair == pair

    def test_search_continues_past_the_first_row(self):
        # row 3 has the largest bound (106.3) but reaches only 104; row 4,
        # bounded by 105.2, holds the answer 105: the search may stop only
        # once a bound falls to the best value, not near it
        u = np.array([[4.0, -2.0], [-4.0, 3.0], [2.0, -2.0], [-4.0, 4.0], [3.0, -4.0]])
        x = FactoredGram(u, np.ones(2))
        assert cross_term_max(x) == cross_term_max_dense(x) == 105.0

    def test_first_pair_wins_ties(self):
        # a square: both diagonals are maximal; the first in (i<j) order is (0, 2)
        u = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]) / np.sqrt(2.0)
        for block in (1, 3, sampling.BLOCK_ELEMS):
            with mock.patch.object(sampling, "BLOCK_ELEMS", block):
                rep = incoherence(FactoredGram(u, np.ones(2)), cross_terms=False)
            assert rep.argmax_pair == (0, 2)

    def test_peak_memory_has_no_square_array(self):
        # one 4000 x 4000 float64 array is 128 MB
        x = random_factored_gram(4000, 3, seed=16)
        tracemalloc.start()
        try:
            rep = incoherence(x, cross_terms=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert 0.0 < rep.cross_term_max <= 2.0 * x.r * rep.nu / x.n

    def test_one_pass_over_the_distance_blocks(self):
        # nu, its pair and the row bounds of the cross-term search share one
        # sweep of the row blocks; several blocks make a second sweep visible
        x = random_factored_gram(50, 3, seed=17)
        calls = []

        def counted(n):
            calls.append(n)
            return sampling.row_blocks(n)

        with mock.patch.object(sampling, "BLOCK_ELEMS", 64), \
                mock.patch.object(diagnostics, "row_blocks", counted):
            rep = incoherence(x, cross_terms=True)
            assert calls == [50]
            assert rep.cross_term_max == cross_term_max(x)


class TestIncoherence:
    def test_triangle_example(self):
        rep = incoherence(TRIANGLE)
        assert rep.nu == pytest.approx(1.5, abs=1e-12)
        # each of the three pairs attains the max
        du = TRIANGLE_U[rep.argmax_pair[0]] - TRIANGLE_U[rep.argmax_pair[1]]
        assert du @ du == pytest.approx(2.0, abs=1e-12)
        assert rep.lower_bound_stated == pytest.approx(2.0)
        assert rep.lower_bound_derived == pytest.approx(1.5)
        assert rep.upper_bound == pytest.approx(3.0)

    def test_high_coherence_example(self):
        # two isolated axis points plus mass on a third axis: near-maximal nu
        n, r = 10, 3
        u = np.zeros((n, r))
        u[0, 0] = 1.0
        u[1, 1] = 1.0
        u[2:, 2] = 1.0 / np.sqrt(n - 2)
        fg = FactoredGram(u, np.array([3.0, 2.0, 1.0]))
        rep = incoherence(fg)
        max_sq = max(
            np.sum((u[i] - u[j]) ** 2) for i, j in itertools.combinations(range(n), 2)
        )
        assert rep.nu >= 0.9 * (2 * n / r) * (max_sq / 4.0)
        assert rep.nu == pytest.approx((n / (2 * r)) * max_sq, rel=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_upper_bound_always_holds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 16))
        r = int(rng.integers(1, min(4, n - 1)))
        fg = random_factored_gram(n, r, seed)
        rep = incoherence(fg, cross_terms=False)
        assert rep.nu <= rep.upper_bound + 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_whitened_form_agrees(self, seed):
        # for a PSD factor nu is n/2r times the largest squared distance of
        # the whitened points
        fg = random_factored_gram(9, 3, seed)
        rep = incoherence(fg, cross_terms=False)
        _, _, whitened_nu = dense_incoherence(fg)
        assert abs(whitened_nu - rep.nu) <= 1e-10 * max(1.0, rep.nu)

    def test_report_serializes(self):
        rep = incoherence(TRIANGLE)
        payload = json.loads(rep.to_json())
        assert payload["n"] == 3
        assert payload["analysis_nu_scale"] == ANALYSIS_NU_SCALE
        assert rep.analysis_nu == pytest.approx(8.0 * rep.nu)

    def test_rank_zero_rejected(self):
        fg = FactoredGram(np.zeros((4, 0)), np.zeros(0))
        with pytest.raises(ValueError):
            incoherence(fg)

    def test_one_point_rejected(self):
        fg = FactoredGram(np.ones((1, 1)), np.ones(1))
        with pytest.raises(ValueError, match="n=1"):
            incoherence(fg)


class TestCrossCoherence:
    def test_disjoint_pairs_vanish_exhaustively(self):
        for n in (6, 8):
            fg = random_factored_gram(n, 2, seed=n)
            pairs = list(itertools.combinations(range(n), 2))
            for a in pairs:
                for b in pairs:
                    if set(a) & set(b):
                        continue
                    assert cross_coherence(fg, a, b) == 0.0

    def test_equal_pair_is_twice_row_distance(self):
        fg = random_factored_gram(8, 3, seed=3)
        for (i, j) in [(0, 1), (2, 7)]:
            du = fg.U[i] - fg.U[j]
            assert cross_coherence(fg, (i, j), (i, j)) == pytest.approx(
                2.0 * du @ du, rel=1e-12
            )

    def test_matches_dense_projector_oracle(self):
        for fg in (TRIANGLE, random_factored_gram(7, 2, seed=5)):
            n = fg.n
            pairs = list(itertools.combinations(range(n), 2))
            for a in pairs:
                for b in pairs:
                    expect = dense_projected_inner(fg.U, a, b)
                    assert cross_coherence(fg, a, b) == pytest.approx(expect, abs=1e-11)

    def test_index_guard(self):
        with pytest.raises(IndexError):
            cross_coherence(TRIANGLE, (0, 1), (0, 5))

    def test_cross_term_max_matches_bruteforce(self):
        fg = random_factored_gram(8, 2, seed=6)
        pairs = list(itertools.combinations(range(8), 2))
        brute = max(
            abs(dense_projected_inner(fg.U, a, b))
            for a in pairs
            for b in pairs
            if a != b and set(a) & set(b)
        )
        assert cross_term_max(fg) == pytest.approx(brute, rel=1e-10)


class TestPairwiseRowDistances:
    def test_triangle(self):
        assert sum_pairwise_row_distances(TRIANGLE) == pytest.approx(6.0, abs=1e-12)

    def test_two_points(self):
        u = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
        fg = FactoredGram(u, np.array([1.0]))
        assert sum_pairwise_row_distances(fg) == pytest.approx(2.0, abs=1e-14)

    def test_equals_n_times_r(self):
        fg = random_factored_gram(12, 3, seed=9)
        assert sum_pairwise_row_distances(fg) == pytest.approx(12 * 3, abs=1e-9)

    def test_bruteforce_oracle(self):
        fg = random_factored_gram(12, 3, seed=10)
        brute = 0.0
        for i in range(12):
            for j in range(i + 1, 12):
                brute += np.sum((fg.U[i] - fg.U[j]) ** 2)
        assert sum_pairwise_row_distances(fg) == pytest.approx(brute, rel=1e-12)


class TestRipEstimate:
    def test_zero_at_full_sampling(self):
        fg = random_factored_gram(8, 2, seed=11)
        est = rip_estimate(fg, PairSet.full(8), p=1.0)
        assert est.epsilon <= 1e-8

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_max_iters_below_one_rejected(self, max_iters):
        fg = random_factored_gram(8, 2, seed=11)
        with mock.patch.object(diagnostics, "tangent_phi",
                               side_effect=AssertionError("Phi built")):
            with pytest.raises(ValueError, match="max_iters"):
                rip_estimate(fg, PairSet.full(8), p=1.0, max_iters=max_iters)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_tol_not_finite_and_nonnegative_rejected(self, tol):
        fg = random_factored_gram(8, 2, seed=11)
        with mock.patch.object(diagnostics, "tangent_phi",
                               side_effect=AssertionError("Phi built")):
            with pytest.raises(ValueError, match="tol"):
                rip_estimate(fg, PairSet.full(8), p=1.0, tol=tol)

    @staticmethod
    def _dense_epsilon(fg, pairs, p):
        basis = s_basis(fg.n)
        pu = fg.U @ fg.U.T

        def proj_t(y):
            return pu @ y + y @ pu - pu @ y @ pu

        L = len(basis)
        theta = np.zeros((L, L))
        for l in range(L):
            image = proj_t(m_omega_dense(proj_t(basis[l]), pairs, p))
            image -= p**2 * proj_t(basis[l])
            theta[:, l] = np.einsum("kij,ij->k", basis, image)
        return np.abs(np.linalg.eigvalsh(theta)).max() / p**2

    def test_matches_dense_materialization(self):
        n, p = 8, 0.7
        fg = random_factored_gram(n, 2, seed=12)
        pairs = bernoulli_sample(n, p, seed=21)
        est = rip_estimate(fg, pairs, p=p, seed=1)
        assert est.converged
        assert est.epsilon == pytest.approx(self._dense_epsilon(fg, pairs, p), abs=1e-6)

    def test_degenerate_spectrum_flagged_approximate(self):
        # two leading magnitudes within 2e-3 of each other: the cap triggers
        # and the estimate comes back flagged but still close
        n, p = 8, 0.6
        fg = random_factored_gram(n, 2, seed=12)
        pairs = bernoulli_sample(n, p, seed=13)
        est = rip_estimate(fg, pairs, p=p, seed=1)
        assert not est.converged
        assert est.iterations == 500
        assert est.epsilon == pytest.approx(self._dense_epsilon(fg, pairs, p), abs=1e-3)

    def test_median_decreases_with_p(self):
        fg = random_factored_gram(8, 2, seed=14)
        medians = []
        for p in (0.2, 0.4, 0.8):
            vals = [
                rip_estimate(fg, bernoulli_sample(8, p, seed=100 + s), p=p).epsilon
                for s in range(30)
            ]
            medians.append(np.median(vals))
        assert medians[0] > medians[1] > medians[2]

    def test_bad_p_rejected(self):
        fg = random_factored_gram(6, 2, seed=15)
        with pytest.raises(ValueError):
            rip_estimate(fg, PairSet.full(6), p=0.0)

    def test_size_mismatch_named(self):
        fg = random_factored_gram(8, 2, seed=16)
        with pytest.raises(ValueError, match=r"n=8.*n=9"):
            rip_estimate(fg, PairSet.full(9), p=0.5)

    def test_peak_memory_has_no_square_array(self):
        # one 2000 x 2000 float64 array is 32 MB
        n = 2000
        fg = random_factored_gram(n, 3, seed=17)
        pairs = bernoulli_sample(n, 0.01, seed=18)
        tracemalloc.start()
        try:
            est = rip_estimate(fg, pairs, p=0.01, max_iters=20, tol=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4
        assert est.iterations == 20 and est.epsilon > 0.0


def tangent_coords(tv: TangentVector):
    """``[M_kk, sqrt2 M_kl (k < l), sqrt2 vec Zu]``, the coordinates of
    :func:`edmc.diagnostics.tangent_phi`."""
    kk, ll = np.triu_indices(tv.base.r)
    scale = np.where(kk == ll, 1.0, np.sqrt(2.0))
    return np.concatenate([tv.M[kk, ll] * scale, np.sqrt(2.0) * tv.Zu.ravel()])


class TestTangentPhi:
    @pytest.mark.parametrize("n,r,seed", [(30, 1, 0), (40, 3, 1), (25, 4, 2)])
    def test_coordinates_keep_the_inner_product(self, n, r, seed):
        fg = random_factored_gram(n, r, seed=seed)
        a = project_tangent(fg, random_centered_symmetric(n, seed))
        b = project_tangent(fg, random_centered_symmetric(n, seed + 100))
        assert tangent_coords(a) @ tangent_coords(b) == pytest.approx(
            np.sum(a.matrix() * b.matrix()), rel=1e-10)

    @pytest.mark.parametrize("n,r,p,seed", [(30, 1, 0.5, 0), (40, 3, 0.3, 1), (25, 4, 0.8, 2)])
    def test_phi_gives_the_tangent_coefficients(self, n, r, p, seed):
        fg = random_factored_gram(n, r, seed=seed)
        pairs = bernoulli_sample(n, p, seed=seed + 10)
        phi = diagnostics.tangent_phi(fg, pairs)
        assert phi.shape == (pairs.m, r * (r + 1) // 2 + n * r)
        assert phi.nnz == pairs.m * (2 * r + r * (r + 1) // 2)
        tv = project_tangent(fg, random_centered_symmetric(n, seed))
        ref = tv.w_coeffs(pairs, pairs.incidence @ fg.U)
        assert np.linalg.norm(phi @ tangent_coords(tv) - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n,r,p,seed", [(30, 1, 0.5, 0), (40, 3, 0.3, 1), (25, 4, 0.8, 2)])
    def test_adjoint_is_the_projected_expansion(self, n, r, p, seed):
        fg = random_factored_gram(n, r, seed=seed)
        pairs = bernoulli_sample(n, p, seed=seed + 10)
        g = np.random.default_rng(seed).standard_normal(pairs.m)
        phi = diagnostics.tangent_phi(fg, pairs)
        got = diagnostics._project_coords(phi.T @ g, diagnostics._centring_basis(fg.U))
        tv = project_w_expansion(fg, g, pairs)
        ref = tangent_coords(TangentVector(fg, tv.M, tv.Zu - tv.Zu.mean(axis=0)))
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
