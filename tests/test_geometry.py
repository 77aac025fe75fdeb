import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edmc.geometry import (FactoredGram, NotEmbeddableError, center_points,
                           classical_mds, distances_from_gram,
                           factored_gram_from_points, gram_from_distances,
                           gram_from_points,
                           gram_frobenius_error, magnitude_order,
                           procrustes_error, read_points_csv, truncated_gram,
                           write_points_csv)
from edmc.synthdata import DatasetSpec, generate

from conftest import (centered_orthonormal, random_centered_gram,
                      random_centered_symmetric, random_factored_gram)

TRIANGLE_U = np.sqrt(2.0 / 3.0) * np.array(
    [[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]]
)


class TestGramFromPoints:
    def test_two_antipodal_points(self):
        x = gram_from_points(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert np.allclose(x, [[1, -1], [-1, 1]], atol=0)

    def test_zero_cloud(self):
        assert np.all(gram_from_points(np.zeros((4, 2))) == 0)

    def test_equilateral_triangle_rows(self):
        x = gram_from_points(TRIANGLE_U)
        eig = np.sort(np.linalg.eigvalsh(x))
        assert np.allclose(eig, [0.0, 1.0, 1.0], atol=1e-12)
        assert np.abs(x.sum(axis=1)).max() < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            gram_from_points(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_rejects_uncentered(self):
        with pytest.raises(ValueError, match="centered"):
            gram_from_points(np.array([[1.0, 1.0], [3.0, 1.0]]))


class TestFactoredGramFromPoints:
    @pytest.mark.parametrize("spec", [
        DatasetSpec("sphere_surface", n=80, r=3, seed=1),
        DatasetSpec("swiss_roll", n=120, r=3, seed=2),
        DatasetSpec("unit_ball_uniform", n=70, r=4, seed=3),
    ], ids=["sphere", "swiss_roll", "ball_d4"])
    def test_matches_dense_truncation(self, spec):
        points = generate(spec)
        d = points.shape[1]
        dense = truncated_gram(gram_from_points(points), d)
        fg = factored_gram_from_points(points)
        assert fg.r == d
        fg.validate()
        assert gram_frobenius_error(fg, dense) <= 1e-12 * dense.norm_fro()
        assert np.all(np.diff(fg.eigs) <= 0)

    def test_rejects_uncentered(self):
        with pytest.raises(ValueError, match="centered"):
            factored_gram_from_points(np.array([[1.0, 1.0], [3.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            factored_gram_from_points(np.array([[bad, 0.0], [0.0, 0.0]]))


class TestDistancesFromGram:
    def test_two_point_configuration(self):
        d = distances_from_gram(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(d, [[0, 4], [4, 0]], atol=0)

    def test_zero(self):
        assert np.all(distances_from_gram(np.zeros((3, 3))) == 0)

    def test_matches_bruteforce_pairwise_distances(self):
        x = random_centered_gram(6, 2, seed=3)
        points = classical_mds(distances_from_gram(x), 2)
        d = distances_from_gram(x)
        for i in range(6):
            for j in range(6):
                assert d[i, j] == pytest.approx(
                    np.sum((points[i] - points[j]) ** 2), abs=1e-10
                )

    def test_hollow_symmetric_nonnegative_for_psd(self):
        for seed in range(5):
            d = distances_from_gram(random_centered_gram(7, 3, seed))
            assert np.all(np.diag(d) == 0)
            assert np.array_equal(d, d.T)
            assert d.min() >= -1e-12


class TestGramFromDistances:
    def test_inverts_two_point_example(self):
        x = gram_from_distances(np.array([[0.0, 4.0], [4.0, 0.0]]))
        assert np.allclose(x, [[1, -1], [-1, 1]], atol=1e-14)

    def test_zero(self):
        assert np.all(gram_from_distances(np.zeros((5, 5))) == 0)

    def test_round_trip_identity(self):
        x = random_centered_gram(8, 3, seed=11)
        back = gram_from_distances(distances_from_gram(x))
        assert np.abs(back - x).max() <= 1e-10 * np.linalg.norm(x)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed):
        x = random_centered_gram(6 + seed % 5, 2, seed)
        back = gram_from_distances(distances_from_gram(x))
        assert np.abs(back - x).max() <= 1e-10 * max(np.linalg.norm(x), 1e-12)

    def test_output_has_zero_row_sums(self):
        d = distances_from_gram(random_centered_gram(9, 2, seed=5))
        x = gram_from_distances(d)
        assert np.abs(x.sum(axis=1)).max() < 1e-10 * np.abs(x).max() * 9


class TestClassicalMds:
    def test_two_points_distance_two(self):
        d = np.array([[0.0, 4.0], [4.0, 0.0]])
        p = classical_mds(d, 1).ravel()
        assert np.allclose(np.sort(p), [-1.0, 1.0], atol=1e-12)

    def test_asymmetric_within_tolerance(self):
        # d's asymmetry 9e-11 is within 1e-12 of its scale 100; its centred
        # Gram's 4.5e-11 is not within 1e-12 of that Gram's scale 25
        d = np.array([[0.0, 100.0], [100.0 + 9e-11, 0.0]])
        p = classical_mds(d, 1).ravel()
        assert np.allclose(np.sort(p), [-5.0, 5.0], atol=1e-12)

    def test_unit_square(self):
        corners = center_points(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
        d = distances_from_gram(gram_from_points(corners))
        rec = classical_mds(d, 2)
        assert procrustes_error(corners, rec) < 1e-8

    def test_not_embeddable(self):
        # build distances whose centered double-centering has a dominant
        # negative eigenvalue
        q = centered_orthonormal(5, 1, seed=2)
        b = -0.5 * (q @ q.T)
        d = distances_from_gram(b)
        with pytest.raises(NotEmbeddableError):
            classical_mds(d, 1)

    def test_mds_then_gram_reproduces_truncation(self):
        x = random_centered_gram(9, 3, seed=7)
        d = distances_from_gram(x)
        rec = classical_mds(d, 3)
        b = gram_from_distances(d)
        truncated = truncated_gram(b, 3).matrix()
        assert np.abs(gram_from_points(rec) - truncated).max() < 1e-9

    def test_output_centered(self):
        x = random_centered_gram(7, 2, seed=9)
        p = classical_mds(distances_from_gram(x), 2)
        assert np.abs(p.sum(axis=0)).max() < 1e-10


class TestCenterPoints:
    def test_example(self):
        out = center_points(np.array([[1.0, 1.0], [3.0, 1.0]]))
        assert np.allclose(out, [[-1, 0], [1, 0]], atol=0)

    def test_idempotent(self):
        p = center_points(np.random.default_rng(1).standard_normal((6, 3)))
        assert np.allclose(center_points(p), p, atol=1e-15)

    def test_single_point(self):
        assert np.all(center_points(np.array([[3.0, -2.0]])) == 0)


class TestProcrustes:
    def test_identical(self):
        a = np.random.default_rng(0).standard_normal((8, 3))
        assert procrustes_error(a, a) <= 1e-12 * np.linalg.norm(a)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        a = center_points(rng.standard_normal((10, 2)))
        theta = 0.5 * np.pi
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert procrustes_error(a, a @ q) <= 1e-10

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_orthogonal_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        a = center_points(rng.standard_normal((7, 3)))
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert procrustes_error(a, a @ q) <= 1e-10 * max(1.0, np.linalg.norm(a))

    def test_perturbation_bound(self):
        rng = np.random.default_rng(6)
        a = center_points(rng.standard_normal((9, 3)))
        u = rng.standard_normal((9, 1))
        u -= u.mean()
        v = rng.standard_normal((1, 3))
        eps = 1e-3
        e = u @ v
        e *= eps / np.linalg.norm(e)
        assert procrustes_error(a, a + e) <= eps + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            procrustes_error(np.zeros((3, 2)), np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_is_named(self, bad):
        a = np.ones((4, 2))
        a[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            procrustes_error(np.ones((4, 2)), a)

    @pytest.mark.parametrize("seed,n,r", [(0, 5, 1), (1, 12, 2), (2, 40, 3), (3, 100, 6)])
    def test_matches_scipy_orthogonal_procrustes(self, seed, n, r):
        from scipy.linalg import orthogonal_procrustes

        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, r)) + 3.0
        q = np.linalg.qr(rng.standard_normal((r, r)))[0]
        b = a @ q + 0.1 * rng.standard_normal((n, r))
        a0, b0 = center_points(a), center_points(b)
        rotation, _ = orthogonal_procrustes(b0, a0)
        reference = np.linalg.norm(a0 - b0 @ rotation)
        assert procrustes_error(a, b) == pytest.approx(reference, rel=1e-12)


class TestFactoredGram:
    def test_magnitude_order_with_ties(self):
        vals = np.array([1.0, -2.0, 2.0, 0.5])
        order = magnitude_order(vals)
        # magnitude desc, tie broken by signed value desc, then index
        assert list(vals[order]) == [2.0, -2.0, 1.0, 0.5]

    def test_validate_catches_bad_factor(self):
        u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            FactoredGram(u, np.array([1.0, 1.0])).validate()

    def test_frobenius_error(self):
        a = truncated_gram(random_centered_gram(8, 2, seed=1), 2)
        b = truncated_gram(random_centered_gram(8, 2, seed=2), 2)
        dense_err = np.linalg.norm(a.matrix() - b.matrix())
        assert gram_frobenius_error(a, b) == pytest.approx(dense_err, rel=1e-10)


class TestTruncatedGram:
    def test_fixed_point_on_rank_r(self):
        fg = random_factored_gram(8, 3, seed=1)
        out = truncated_gram(fg.matrix(), 3)
        assert np.abs(out.matrix() - fg.matrix()).max() <= 1e-12

    def test_diagonal_example(self):
        out = truncated_gram(np.diag([3.0, 1.0, 0.0]), 1)
        assert np.allclose(out.matrix(), np.diag([3.0, 0.0, 0.0]), atol=1e-14)

    def test_magnitude_keeps_negative(self):
        y = np.diag([3.0, -2.0, 1.0])
        out = truncated_gram(y, 2)
        assert np.allclose(out.matrix(), np.diag([3.0, -2.0, 0.0]), atol=1e-14)
        # enumerate every rank-2 eigenvalue truncation: the magnitude rule wins
        vals = [3.0, -2.0, 1.0]
        errors = []
        for drop in range(3):
            kept = [0.0 if k == drop else v for k, v in enumerate(vals)]
            errors.append(np.linalg.norm(y - np.diag(kept)))
        assert np.linalg.norm(y - out.matrix()) == pytest.approx(min(errors), abs=1e-14)

    def test_eckart_young_against_random_competitors(self):
        rng = np.random.default_rng(5)
        y = random_centered_symmetric(8, seed=6)
        best = truncated_gram(y, 3)
        err = np.linalg.norm(y - best.matrix())
        for k in range(100):
            z = random_factored_gram(8, 3, seed=100 + k, psd=False)
            assert err <= np.linalg.norm(y - z.matrix()) + 1e-12

    def test_boundary_tie_flagged(self):
        out = truncated_gram(np.diag([2.0, -2.0, 0.5]), 1)
        assert out.boundary_tie
        # deterministic resolution: signed descending wins the tie
        assert out.eigs[0] == pytest.approx(2.0)

    def test_rank_deficient_flagged(self):
        out = truncated_gram(np.diag([1.0, 0.0, 0.0]), 2)
        assert out.rank_deficient


class TestPointsCsv:
    def test_round_trip(self, tmp_path):
        pts = np.random.default_rng(3).standard_normal((5, 3))
        path = tmp_path / "points.csv"
        write_points_csv(path, pts, meta={"seed": 3})
        assert np.array_equal(read_points_csv(path), pts)

    def test_header_and_comments_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# a comment\nx,y\n1.0,2.0\n3.0,4.0\n")
        assert np.array_equal(read_points_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="ragged"):
            read_points_csv(path)
