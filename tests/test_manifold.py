import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edmc.geometry import FactoredGram, truncated_gram
from edmc.manifold import (RankCollapseError, TangentVector, project_w_expansion,
                           retract_structured)
from edmc.oracles import project_tangent, w_coeffs
from edmc.sampling import bernoulli_sample

from conftest import (centered_orthonormal, expand, random_centered_symmetric,
                      random_factored_gram)


def dense_projection(u, y):
    pu = u @ u.T
    return pu @ y + y @ pu - pu @ y @ pu


class TestProjectTangent:
    def test_base_matrix_is_fixed(self):
        fg = random_factored_gram(8, 2, seed=1)
        t = project_tangent(fg, fg.matrix())
        assert np.abs(t.matrix() - fg.matrix()).max() <= 1e-11

    def test_normal_space_maps_to_zero(self):
        fg = random_factored_gram(10, 2, seed=2)
        rng = np.random.default_rng(3)
        # z w^T + w z^T with both factors orthogonal to the column space
        proj = np.eye(10) - fg.U @ fg.U.T
        z = proj @ rng.standard_normal(10)
        w = proj @ rng.standard_normal(10)
        y = np.outer(z, w) + np.outer(w, z)
        t = project_tangent(fg, y)
        assert t.norm_fro() <= 1e-11 * np.linalg.norm(y)

    def test_matches_dense_formula(self):
        fg = random_factored_gram(10, 2, seed=4)
        y = random_centered_symmetric(10, seed=5)
        t = project_tangent(fg, y)
        dense = dense_projection(fg.U, y)
        assert np.abs(t.matrix() - dense).max() <= 1e-11

    def test_w_expansion_matches_assembled_matrix(self):
        fg = random_factored_gram(12, 3, seed=6)
        pairs = bernoulli_sample(12, 0.5, seed=7)
        g = np.random.default_rng(8).standard_normal(len(pairs))
        t = project_w_expansion(fg, g, pairs)
        dense = dense_projection(fg.U, expand(g, pairs))
        assert np.abs(t.matrix() - dense).max() <= 1e-11

    def test_accepts_sparse_input(self):
        from scipy.sparse import csr_array

        fg = random_factored_gram(7, 2, seed=6)
        y = random_centered_symmetric(7, seed=7)
        t_dense = project_tangent(fg, y)
        t_sparse = project_tangent(fg, csr_array(y))
        assert np.abs(t_dense.matrix() - t_sparse.matrix()).max() <= 1e-12

    def test_idempotent(self):
        fg = random_factored_gram(9, 3, seed=8)
        y = random_centered_symmetric(9, seed=9)
        t1 = project_tangent(fg, y)
        t2 = project_tangent(fg, t1.matrix())
        assert np.abs(t1.matrix() - t2.matrix()).max() <= 1e-10

    def test_self_adjoint(self):
        fg = random_factored_gram(8, 2, seed=10)
        a = random_centered_symmetric(8, seed=11)
        b = random_centered_symmetric(8, seed=12)
        lhs = np.sum(project_tangent(fg, a).matrix() * b)
        rhs = np.sum(a * project_tangent(fg, b).matrix())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_w_coeffs_match_dense(self, seed):
        fg = random_factored_gram(9, 2, seed=seed)
        y = random_centered_symmetric(9, seed=seed + 1)
        t = project_tangent(fg, y)
        pairs = bernoulli_sample(9, 0.5, seed=seed)
        if len(pairs) == 0:
            return
        got = t.w_coeffs(pairs, pairs.incidence @ fg.U)
        expect = w_coeffs(t.matrix(), pairs)
        assert np.abs(got - expect).max() <= 1e-11 * max(1, np.abs(expect).max())


class TestRetractStructured:
    def _tangent(self, fg, seed):
        y = random_centered_symmetric(fg.n, seed=seed)
        return project_tangent(fg, y)

    def test_zero_step_returns_base(self):
        fg = random_factored_gram(8, 2, seed=1)
        t = self._tangent(fg, 2)
        assert retract_structured(t, 0.0) is fg

    def test_zero_tangent_returns_base(self):
        fg = random_factored_gram(8, 2, seed=3)
        t = TangentVector(fg, np.zeros((2, 2)), np.zeros((8, 2)))
        assert retract_structured(t, 1.3) is fg

    @pytest.mark.parametrize("n,r,seed", [(30, 3, 1), (12, 2, 2), (60, 4, 3)])
    def test_matches_dense_hard_threshold(self, n, r, seed):
        fg = random_factored_gram(n, r, seed=seed)
        t = self._tangent(fg, seed + 50)
        step = 0.7
        out = retract_structured(t, step)
        dense = truncated_gram(fg.matrix() + step * t.matrix(), r)
        scale = np.abs(dense.matrix()).max()
        assert np.abs(out.matrix() - dense.matrix()).max() <= 1e-9 * scale

    def test_invariants_of_output(self):
        fg = random_factored_gram(20, 3, seed=9)
        t = self._tangent(fg, 10)
        out = retract_structured(t, 1.1)
        assert np.abs(out.U.T @ out.U - np.eye(3)).max() <= 1e-10
        assert np.abs(out.U.sum(axis=0)).max() <= 1e-8

    def test_rank_collapse_raises(self):
        fg = random_factored_gram(6, 2, seed=11)
        # step along -X exactly cancels the factor
        t = TangentVector(fg, -np.diag(fg.eigs), np.zeros((6, 2)))
        with pytest.raises(RankCollapseError):
            retract_structured(t, 1.0)

    def test_rank_deficient_core_raises(self):
        # the third eigenvalue, 5e-14 of the largest, is under geometry.RANK_TOL
        q = centered_orthonormal(8, 4, seed=12)
        fg = FactoredGram(q[:, :3], np.array([1.0, 1.0, 5e-14]))
        zu = np.zeros((8, 3))
        zu[:, 0] = 1e-20 * q[:, 3]
        with pytest.raises(RankCollapseError, match="kept only 2 of 3"):
            retract_structured(TangentVector(fg, np.zeros((3, 3)), zu), 1.0)


class TestTangentVector:
    def test_norm_matches_dense(self):
        fg = random_factored_gram(9, 3, seed=15)
        t = self._random_tangent(fg, 16)
        assert t.norm_fro() == pytest.approx(np.linalg.norm(t.matrix()), rel=1e-12)

    def test_w_coeffs_keep_index_arithmetic(self):
        # the incidence products round exactly like the index gathers that
        # solver traces were recorded with
        fg = random_factored_gram(30, 3, seed=21)
        t = self._random_tangent(fg, 22)
        pairs = bernoulli_sample(30, 0.4, seed=23)
        ii, jj = pairs.ii, pairs.jj
        U, um = fg.U, fg.U @ t.M
        du = U[ii] - U[jj]
        ref = np.einsum("ij,ij->i", um[ii] - um[jj], du)
        ref += 2.0 * np.einsum("ij,ij->i", t.Zu[ii] - t.Zu[jj], du)
        assert np.array_equal(t.w_coeffs(pairs, pairs.incidence @ U), ref)

    def test_shape_validation(self):
        fg = random_factored_gram(5, 2, seed=20)
        with pytest.raises(ValueError):
            TangentVector(fg, np.zeros((3, 3)), np.zeros((5, 2)))

    @staticmethod
    def _random_tangent(fg, seed):
        return project_tangent(fg, random_centered_symmetric(fg.n, seed=seed))
