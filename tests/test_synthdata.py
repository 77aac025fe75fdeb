import os

import numpy as np
import pytest

from edmc.geometry import write_points_csv
from edmc.synthdata import DatasetSpec, generate


def recover_precentering_shift(points):
    """Solve for the shift c with ||p_i + c|| = 1 for all i (least squares)."""
    n, r = points.shape
    a = np.hstack([2.0 * points, np.ones((n, 1))])
    b = 1.0 - np.sum(points**2, axis=1)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    c, t = sol[:r], sol[r]
    return c, t, a @ sol - b


class TestSphere:
    def test_unit_norm_before_centering(self):
        points = generate(DatasetSpec("sphere_surface", n=200, r=3, seed=4))
        c, t, resid = recover_precentering_shift(points)
        assert np.abs(resid).max() <= 1e-10
        assert t == pytest.approx(c @ c, abs=1e-10)
        assert np.abs(np.linalg.norm(points + c, axis=1) - 1.0).max() <= 1e-9

    def test_gram_rank_equals_dimension(self):
        points = generate(DatasetSpec("sphere_surface", n=1000, r=3, seed=0))
        eig = np.linalg.eigvalsh(points @ points.T)
        assert np.sum(eig > 1e-8 * eig.max()) == 3

    def test_degenerate_small_draw(self):
        points = generate(DatasetSpec("sphere_surface", n=4, r=3, seed=1))
        assert np.linalg.matrix_rank(points @ points.T) <= 3

    def test_eigenvalue_band(self):
        # isotropy puts every spectrum value near n/r; wide sanity band
        for seed in range(50):
            points = generate(DatasetSpec("sphere_surface", n=100, r=4, seed=seed))
            eig = np.linalg.eigvalsh(points.T @ points)
            assert np.all(eig / 100.0 >= 0.1) and np.all(eig / 100.0 <= 0.5)


class TestInvariants:
    @pytest.mark.parametrize("kind", ["sphere_surface", "swiss_roll", "unit_ball_uniform"])
    def test_centered(self, kind):
        points = generate(DatasetSpec(kind, n=64, r=3, seed=7))
        scale = np.abs(points).max()
        assert np.abs(points.sum(axis=0)).max() <= 1e-9 * 64 * scale

    @pytest.mark.parametrize("kind", ["sphere_surface", "swiss_roll", "unit_ball_uniform"])
    def test_deterministic(self, kind):
        a = generate(DatasetSpec(kind, n=32, r=3, seed=9))
        b = generate(DatasetSpec(kind, n=32, r=3, seed=9))
        assert np.array_equal(a, b)
        c = generate(DatasetSpec(kind, n=32, r=3, seed=10))
        assert not np.array_equal(a, c)


class TestSwissRoll:
    def test_needs_three_dimensions(self):
        with pytest.raises(ValueError, match="three dimensional"):
            generate(DatasetSpec("swiss_roll", n=20, r=2, seed=0))

    def test_radial_profile(self):
        spec = DatasetSpec("swiss_roll", n=500, r=3, seed=3)
        points = generate(spec)
        # height spread matches the slab parameter after centering
        heights = points[:, 1]
        assert heights.max() - heights.min() <= 21.0
        assert heights.max() - heights.min() >= 0.8 * 21.0


class TestUnitBall:
    def test_radii_at_most_one_before_centering(self):
        points = generate(DatasetSpec("unit_ball_uniform", n=300, r=3, seed=5))
        # centering moves points by at most the mean norm; generous check
        assert np.linalg.norm(points, axis=1).max() <= 1.2


class TestFileKind:
    def test_round_trip(self, tmp_path):
        original = generate(DatasetSpec("sphere_surface", n=20, r=2, seed=11))
        path = tmp_path / "cloud.csv"
        write_points_csv(path, original)
        loaded = generate(DatasetSpec("file", path=str(path)))
        assert np.abs(loaded - original).max() <= 1e-15

    def test_path_required(self):
        with pytest.raises(ValueError, match="path"):
            DatasetSpec("file")

    def test_integer_path_rejected_and_descriptor_kept(self, tmp_path):
        path = tmp_path / "cloud.csv"
        write_points_csv(path, generate(DatasetSpec("sphere_surface", n=4, r=3, seed=0)))
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(ValueError, match="path must be a string or None"):
                DatasetSpec(kind="file", n=4, path=fd)
            os.fstat(fd)
        finally:
            os.close(fd)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DatasetSpec("torus", n=10, r=3)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            DatasetSpec("sphere_surface", n=3, r=3)
