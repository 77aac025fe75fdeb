import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import edmc.dualbasis as db
from edmc.sampling import PairSet, bernoulli_sample, pair_count

from conftest import expand, random_centered_symmetric, random_factored_gram

TWO_POINT_GRAM = np.array([[1.0, -1.0], [-1.0, 1.0]])


def dense_h(n):
    pairs = list(itertools.combinations(range(n), 2))
    mats = [db.w_alpha_dense(n, i, j) for i, j in pairs]
    return np.array([[np.sum(a * b) for b in mats] for a in mats]), pairs


class TestClosedForms:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_h_inverse_entries_match_dense_inversion(self, n):
        h, pairs = dense_h(n)
        hinv = np.linalg.inv(h)
        closed = np.array(
            [[db.h_inv_entry(n, a, b) for b in pairs] for a in pairs]
        )
        assert np.abs(closed - hinv).max() <= 1e-10

    @pytest.mark.parametrize("n", range(3, 9))
    def test_h_extreme_eigenvalues(self, n):
        h, _ = dense_h(n)
        assert np.linalg.eigvalsh(h).max() == pytest.approx(2 * n, abs=1e-9)
        # H has spectrum {2n, n, 2}, the 2-eigenspace of dimension n(n-3)/2:
        # lambda_max(H^-1) is 1/2 once disjoint pairs exist, 1/3 at n=3
        hinv_max = 0.5 if n >= 4 else 1.0 / 3.0
        assert np.linalg.eigvalsh(np.linalg.inv(h)).max() == pytest.approx(
            hinv_max, abs=1e-9
        )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_basis_spectral_norms(self, n):
        for i, j in itertools.combinations(range(n), 2):
            assert np.linalg.norm(db.w_alpha_dense(n, i, j), 2) == pytest.approx(2.0, abs=1e-10)
            assert np.linalg.norm(db.v_alpha_dense(n, i, j), 2) == pytest.approx(0.5, abs=1e-10)

    def test_constants_match_dense(self):
        for n in (4, 7):
            v = db.v_alpha_dense(n, 0, 1)
            v2 = db.v_alpha_dense(n, 0, 2)
            v3 = db.v_alpha_dense(n, 2, 3)
            assert db.v_norm_sq(n) == pytest.approx(np.sum(v * v), abs=1e-14)
            assert db.h_inv_entry(n, (0, 1), (0, 1)) == db.v_norm_sq(n)
            assert db.h_inv_entry(n, (0, 1), (0, 2)) == pytest.approx(np.sum(v * v2), abs=1e-14)
            assert db.h_inv_entry(n, (0, 1), (2, 3)) == pytest.approx(np.sum(v * v3), abs=1e-14)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_biorthogonality_exhaustive(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        for a in pairs:
            va = db.v_alpha_dense(n, *a)
            for b in pairs:
                expect = 1.0 if a == b else 0.0
                got = np.sum(va * db.w_alpha_dense(n, *b))
                assert abs(got - expect) <= 1e-12


class TestVAlphaDense:
    def test_n2_explicit(self):
        v = db.v_alpha_dense(2, 0, 1)
        assert np.allclose(v, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)
        assert np.sum(v * db.w_alpha_dense(2, 0, 1)) == pytest.approx(1.0, abs=1e-15)

    def test_zero_row_sums(self):
        for n in (3, 5, 8):
            for i, j in [(0, 1), (1, n - 1)]:
                assert np.abs(db.v_alpha_dense(n, i, j).sum(axis=1)).max() <= 1e-15

    def test_index_guard(self):
        with pytest.raises(IndexError):
            db.v_alpha_dense(4, 2, 2)


class TestWInner:
    def test_two_point(self):
        assert db.w_inner(TWO_POINT_GRAM, 0, 1) == 4.0

    def test_identity_input(self):
        assert db.w_inner(np.eye(3), 0, 1) == 2.0

    def test_vectorized_coeffs(self):
        fg = random_factored_gram(9, 2, seed=8)
        pairs = bernoulli_sample(9, 0.7, seed=1)
        dense = db.w_coeffs(fg.matrix(), pairs)
        fact = db.w_coeffs_factored(fg.U, fg.eigs, pairs)
        assert np.abs(dense - fact).max() <= 1e-12


def random_instance(n, seed, p=0.5):
    rng = np.random.default_rng(seed)
    y = random_centered_symmetric(n, seed)
    pairs = bernoulli_sample(n, p, seed=seed + 1)
    if len(pairs) == 0:
        pairs = PairSet.from_pairs(n, [(0, 1)])
    coeffs = db.w_coeffs(y, pairs)
    return y, pairs, coeffs


class TestFOmega:
    def test_single_basis_element(self):
        pairs = PairSet.from_pairs(3, [(0, 1)])
        out = expand(np.array([1.0]), pairs)
        assert np.allclose(out, [[1, -1, 0], [-1, 1, 0], [0, 0, 0]], atol=0)

    def test_zero_coefficients(self):
        pairs = PairSet.from_pairs(4, [(0, 1), (2, 3)])
        assert np.all(expand(np.zeros(2), pairs) == 0)

    def test_matches_dense_oracle(self):
        y, pairs, coeffs = random_instance(9, seed=2)
        fast = expand(coeffs, pairs)
        assert np.abs(fast - db.f_omega_dense(y, pairs)).max() <= 1e-12


class TestROmega:
    def test_full_sampling_is_identity(self):
        y = random_centered_symmetric(7, seed=3)
        pairs = PairSet.full(7)
        out = db.r_omega_apply(db.w_coeffs(y, pairs), pairs)
        assert np.abs(out - y).max() <= 1e-11 * max(1, np.abs(y).max())

    def test_empty_is_zero(self):
        pairs = PairSet(5, np.array([], int), np.array([], int))
        assert np.all(db.r_omega_apply(np.array([]), pairs) == 0)

    def test_matches_dense_oracle(self):
        y, pairs, coeffs = random_instance(8, seed=5)
        fast = db.r_omega_apply(coeffs, pairs)
        assert np.abs(fast - db.r_omega_dense(y, pairs)).max() <= 1e-11

    def test_operator_matches_materialization(self):
        y, pairs, coeffs = random_instance(10, seed=6)
        dense = db.r_omega_apply(coeffs, pairs)
        op = db.r_omega_operator(coeffs, pairs)
        for k in range(4):
            x = np.random.default_rng(k).standard_normal(10)
            assert np.abs(op(x) - dense @ x).max() <= 1e-12 * max(1, np.abs(dense).max())

    def test_idempotent_on_observed_coefficients(self):
        # no repeated indices, so applying the sampler twice changes nothing
        y, pairs, coeffs = random_instance(8, seed=7)
        once = db.r_omega_apply(coeffs, pairs)
        twice = db.r_omega_apply(db.w_coeffs(once, pairs), pairs)
        assert np.abs(once - twice).max() <= 1e-11

    def test_image_in_zero_row_sum_space(self):
        y, pairs, coeffs = random_instance(9, seed=8)
        out = db.r_omega_apply(coeffs, pairs)
        scale = np.abs(out).max() * 9
        assert np.abs(out.sum(axis=1)).max() <= 1e-9 * max(scale, 1e-300)


class TestRstarR:
    def test_full_sampling_is_identity(self):
        y = random_centered_symmetric(6, seed=9)
        pairs = PairSet.full(6)
        out = expand(db.rstar_r_coeffs(db.w_coeffs(y, pairs), pairs), pairs)
        assert np.abs(out - y).max() <= 1e-11 * max(1, np.abs(y).max())

    def test_single_pair_closed_form(self):
        n = 6
        pairs = PairSet.from_pairs(n, [(1, 4)])
        c = 2.5
        out = expand(db.rstar_r_coeffs(np.array([c]), pairs), pairs)
        expect = c * 0.5 * (1 - 2 / n + 2 / n**2) * db.w_alpha_dense(n, 1, 4)
        assert np.abs(out - expect).max() <= 1e-13

    def test_matches_dense_oracle(self):
        y, pairs, coeffs = random_instance(8, seed=10)
        fast = expand(db.rstar_r_coeffs(coeffs, pairs), pairs)
        assert np.abs(fast - db.rstar_r_dense(y, pairs)).max() <= 1e-11

    def test_positive_semidefinite_quadratic_form(self):
        # <Y, R*R Y> = ||R_omega Y||_F^2 >= 0 for any input
        for seed in range(5):
            y, pairs, coeffs = random_instance(7, seed=20 + seed)
            g = db.rstar_r_coeffs(coeffs, pairs)
            assert g @ coeffs >= -1e-12


class TestMOmega:
    def test_full_sampling_p_one_identity(self):
        y = random_centered_symmetric(6, seed=11)
        pairs = PairSet.full(6)
        out = expand(db.m_omega_coeffs(db.w_coeffs(y, pairs), pairs, p=1.0), pairs)
        assert np.abs(out - y).max() <= 1e-11 * max(1, np.abs(y).max())

    def test_single_pair_any_p(self):
        n, p = 7, 0.3
        pairs = PairSet.from_pairs(n, [(2, 5)])
        c = -1.7
        out = expand(db.m_omega_coeffs(np.array([c]), pairs, p), pairs)
        expect = p * c * 0.5 * (1 - 2 / n + 2 / n**2) * db.w_alpha_dense(n, 2, 5)
        assert np.abs(out - expect).max() <= 1e-13

    def test_matches_dense_oracle(self):
        y, pairs, coeffs = random_instance(10, seed=12)
        fast = expand(db.m_omega_coeffs(coeffs, pairs, p=0.5), pairs)
        dense = db.m_omega_dense(y, pairs, p=0.5)
        assert np.abs(fast - dense).max() <= 1e-11

    def test_p_zero_rejected(self):
        pairs = PairSet.from_pairs(3, [(0, 1)])
        with pytest.raises(ValueError):
            db.m_omega_coeffs(np.array([1.0]), pairs, p=0.0)

    def test_image_in_zero_row_sum_space(self):
        y, pairs, coeffs = random_instance(11, seed=13)
        out = expand(db.m_omega_coeffs(coeffs, pairs, p=0.4), pairs)
        scale = max(np.abs(out).max() * 11, 1e-300)
        assert np.abs(out.sum(axis=1)).max() <= 1e-9 * scale


class TestWCoeffsFactored:
    def test_keeps_index_arithmetic(self):
        fg = random_factored_gram(25, 3, seed=11, psd=False)
        pairs = bernoulli_sample(25, 0.4, seed=12)
        du = fg.U[pairs.ii] - fg.U[pairs.jj]
        assert np.array_equal(db.w_coeffs_factored(fg.U, fg.eigs, pairs), (du * du) @ fg.eigs)


class TestPairOrderedScatters:
    """The CSR products on ``PairSet.upper_pattern`` against the per-column
    ``np.bincount`` scatters that solver traces were recorded with."""

    @staticmethod
    def _scatter_reference(g, pairs, V):
        n, ii, jj = pairs.n, pairs.ii, pairs.jj
        s = np.bincount(ii, weights=g, minlength=n) + np.bincount(jj, weights=g, minlength=n)
        out = s[:, None] * V
        for k in range(V.shape[1]):
            out[:, k] -= np.bincount(ii, weights=g * V[jj, k], minlength=n)
            out[:, k] -= np.bincount(jj, weights=g * V[ii, k], minlength=n)
        return s, out

    @pytest.mark.parametrize("n,p,r", [(30, 0.4, 3), (200, 0.1, 5), (500, 0.05, 3),
                                       (12, 1.0, 1), (6, 0.0, 2)])
    def test_bitwise_equal_to_bincount_scatters(self, n, p, r):
        pairs = bernoulli_sample(n, p, seed=n + r)
        rng = np.random.default_rng(n)
        g = rng.standard_normal(len(pairs)) * np.exp(rng.uniform(-20, 20, len(pairs)))
        V = rng.standard_normal((n, r))
        assert np.array_equal(db.pair_row_sums(g, pairs), self._scatter_reference(g, pairs, V)[0])
        # the layout too: a factor from eigh is Fortran-ordered, and the
        # tangent projection's BLAS product U^T (W U) rounds by layout
        for layout in (V, np.asfortranarray(V)):
            out = db.w_expand_matvec(g, pairs, layout)
            ref = self._scatter_reference(g, pairs, layout)[1]
            assert np.array_equal(out, ref) and out.strides == ref.strides

    def test_pair_matrix_holds_the_pairs(self):
        pairs = bernoulli_sample(15, 0.5, seed=4)
        g = np.arange(1.0, len(pairs) + 1)
        dense = np.zeros((15, 15))
        dense[pairs.ii, pairs.jj] = g
        assert np.array_equal(db.pair_matrix(g, pairs).toarray(), dense)


class TestWExpand:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matvec_matches_materialization(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        pairs = bernoulli_sample(n, 0.6, seed=seed)
        if len(pairs) == 0:
            return
        g = rng.standard_normal(len(pairs))
        v = rng.standard_normal((n, 3))
        dense = sum(ga * db.w_alpha_dense(n, i, j) for ga, (i, j) in zip(g, pairs))
        direct = dense @ v
        assert np.abs(db.w_expand_matvec(g, pairs, v) - direct).max() <= 1e-12 * max(
            1, np.abs(direct).max()
        )


class TestDenseOperatorMatrix:
    def test_identity_at_full_sampling(self):
        pairs = PairSet.full(5)
        theta = db.dense_operator_matrix("m_omega", pairs, p=1.0)
        assert np.abs(theta - np.eye(pair_count(5))).max() <= 1e-11

    def test_frame_spectrum_matches_h(self):
        n = 6
        theta = db.dense_operator_matrix("f_omega", PairSet.full(n))
        h, _ = dense_h(n)
        got = np.sort(np.linalg.eigvalsh(theta))
        expect = np.sort(np.linalg.eigvalsh(h))
        assert np.abs(got - expect).max() <= 1e-9
        assert got.max() == pytest.approx(2 * n, abs=1e-9)

    def test_m_omega_matrix_symmetric(self):
        pairs = bernoulli_sample(7, 0.5, seed=3)
        theta = db.dense_operator_matrix("m_omega", pairs, p=0.5)
        assert np.abs(theta - theta.T).max() <= 1e-12

    def test_guards(self):
        with pytest.raises(ValueError):
            db.dense_operator_matrix("f_omega", PairSet.full(21))
        with pytest.raises(ValueError):
            db.dense_operator_matrix("nope", PairSet.full(5))
        with pytest.raises(ValueError):
            db.dense_operator_matrix("m_omega", PairSet.full(5))  # p missing


class TestSumVSquared:
    def test_n3_closed_form(self):
        j = np.eye(3) - 1.0 / 3
        assert np.abs(db.sum_v_squared(3) - (5.0 / 12) * j).max() <= 1e-15

    def test_n2_closed_form(self):
        j = np.eye(2) - 1.0 / 2
        assert np.abs(db.sum_v_squared(2) - 0.25 * j).max() <= 1e-15

    @pytest.mark.parametrize("n", range(2, 8))
    def test_brute_force(self, n):
        brute = np.zeros((n, n))
        for i, j in itertools.combinations(range(n), 2):
            v = db.v_alpha_dense(n, i, j)
            brute += v @ v
        assert np.abs(brute - db.sum_v_squared(n)).max() <= 1e-12


class TestSBasis:
    def test_orthonormal_and_in_s(self):
        for n in (4, 7):
            basis = db.s_basis(n)
            assert basis.shape[0] == pair_count(n)
            gram = np.einsum("aij,bij->ab", basis, basis)
            assert np.abs(gram - np.eye(len(basis))).max() <= 1e-12
            for b in basis:
                assert np.abs(b - b.T).max() <= 1e-14
                assert np.abs(b.sum(axis=1)).max() <= 1e-12

    def test_fast_paths_match_operator_matrices(self):
        # encode/decode through the orthonormal basis and compare images
        n, p = 6, 0.6
        basis = db.s_basis(n)
        for seed in range(3):
            y, pairs, coeffs = random_instance(n, seed=40 + seed, p=p)
            ycoord = np.einsum("kij,ij->k", basis, y)
            for op, fast in [
                ("f_omega", expand(coeffs, pairs)),
                ("r_omega", db.r_omega_apply(coeffs, pairs)),
                ("rstar_r", expand(db.rstar_r_coeffs(coeffs, pairs), pairs)),
                ("m_omega", expand(db.m_omega_coeffs(coeffs, pairs, p), pairs)),
            ]:
                theta = db.dense_operator_matrix(op, pairs, p=p, basis=basis)
                image = np.einsum("k,kij->ij", theta @ ycoord, basis)
                scale = max(np.abs(image).max(), 1e-300)
                assert np.abs(image - fast).max() <= 1e-10 * scale, op
