import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from edmc import solver as solver_module
from edmc.geometry import (FactoredGram, factored_gram_from_points, gram_from_points,
                           gram_frobenius_error, magnitude_order, truncated_gram)
from edmc.dualbasis import m_omega_coeffs
from edmc.manifold import TangentVector
from edmc.oracles import m_omega_dense, project_tangent
from edmc.sampling import (PairSet, bernoulli_sample, observe, observe_points,
                           probability_for_ratio)
from edmc.solver import (DegenerateInitError, DegenerateStepError, IterRecord, Problem,
                         SolverConfig, init_one_step, recover_points, solve,
                         step_size)
from edmc.synthdata import DatasetSpec, generate

from conftest import random_centered_symmetric, random_factored_gram


def make_problem(n, r, p, seed, p_known=True):
    """The problem, the truth's rank-r factored Gram, and the points."""
    points = generate(DatasetSpec("sphere_surface", n=n, r=r, seed=seed))
    gram = gram_from_points(points)
    pairs = bernoulli_sample(n, p, seed=seed + 1)
    data = observe(gram, pairs, p=p if p_known else None, seed=seed + 1)
    return Problem(data, rank=r), truncated_gram(gram, r), points


class TestProblem:
    def test_p_defaults_to_empirical_fill(self):
        prob, _, _ = make_problem(30, 2, 0.5, seed=0, p_known=False)
        m = prob.data.m
        assert prob.p == pytest.approx(m / (30 * 29 / 2))

    def test_validation(self):
        prob, _, _ = make_problem(10, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            Problem(prob.data, rank=0)

    @pytest.mark.parametrize("rank", [2.5, True, "3", None])
    def test_non_integer_rank_names_rank(self, rank):
        prob, _, _ = make_problem(10, 2, 1.0, seed=0)
        with pytest.raises(ValueError, match=f"rank must be an integer, not {rank!r}"):
            Problem(prob.data, rank=rank)

    def test_numpy_integer_rank_accepted(self):
        prob, _, _ = make_problem(10, 2, 1.0, seed=0)
        assert Problem(prob.data, rank=np.int64(2)).rank == 2

    def test_data_that_is_not_a_sample_names_data(self):
        with pytest.raises(ValueError, match=r"data must be a SampledDistances, not \[1, 2\]"):
            Problem([1, 2], rank=3)


class TestSolverConfig:
    @pytest.mark.parametrize("tol", [0.0, -1e-5, float("nan"), float("inf")])
    def test_change_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="change_tol"):
            SolverConfig(change_tol=tol)


class TestInitOneStep:
    def test_exact_at_full_sampling(self):
        prob, truth, _ = make_problem(40, 3, 1.0, seed=1)
        x0 = init_one_step(prob)
        rel = np.linalg.norm(x0.matrix() - truth.matrix()) / truth.norm_fro()
        assert rel <= 1e-12

    def test_empty_observation_degenerate(self):
        prob, _, _ = make_problem(20, 2, 1.0, seed=2)
        empty = observe(np.zeros((20, 20)), PairSet(20, np.array([], int), np.array([], int)), p=0.5)
        with pytest.raises(DegenerateInitError):
            init_one_step(Problem(empty, rank=2))

    def test_dense_and_lanczos_paths_agree(self, monkeypatch):
        prob, truth, _ = make_problem(80, 3, 0.4, seed=3)
        monkeypatch.setattr(solver_module, "DENSE_INIT_MAX_N", 100)
        dense = init_one_step(prob)
        monkeypatch.setattr(solver_module, "DENSE_INIT_MAX_N", 10)
        lanczos = init_one_step(prob)
        assert (np.abs(dense.matrix() - lanczos.matrix()).max()
                <= 1e-7 * np.abs(truth.matrix()).max())

    def test_scales_by_inverse_probability(self):
        prob, truth, _ = make_problem(60, 3, 0.5, seed=4)
        x0 = init_one_step(prob)
        # eigenvalue scale should land near the truth's, not p times it
        assert x0.eigs[0] == pytest.approx(truth.eigs.max(), rel=0.5)


class TestLanczosTop:
    """The Lanczos helper of the n > DENSE_INIT_MAX_N init against ``eigh``."""

    @staticmethod
    def symmetric(n, seed, shift=0.0):
        a = np.random.default_rng(seed).standard_normal((n, n))
        a = (a + a.T) / 2.0
        a[0, 0] += shift
        return a

    @pytest.mark.parametrize("seed", range(4))
    def test_negative_top_eigenvalue_matches_eigh(self, seed):
        a = self.symmetric(60, seed, shift=-30.0)
        w, v = np.linalg.eigh(a)
        order = magnitude_order(w)[:4]
        lam, vecs = solver_module._lanczos_top(lambda x: a @ x, 60, 4)
        assert lam[0] < 0 and abs(lam[0]) > np.abs(lam[1:]).max()
        assert np.abs(lam - w[order]).max() <= 1e-12 * np.abs(w).max()
        # the eigenvectors up to sign
        assert np.abs(np.abs(vecs.T @ v[:, order]) - np.eye(4)).max() <= 1e-8

    def test_exactly_triple_top_eigenvalue(self):
        # an isotropic centred cloud: its Gram's nonzero eigenvalue 150 is
        # exactly triple
        points = np.tile(np.vstack([np.eye(3), -np.eye(3)]), (75, 1))
        assert np.array_equal(points.T @ points, 150.0 * np.eye(3))
        data = observe_points(points, PairSet.full(450), p=1.0)
        truth = factored_gram_from_points(points)
        x0 = init_one_step(Problem(data, rank=3))
        assert gram_frobenius_error(x0, truth) <= 1e-13 * truth.norm_fro()

    def test_whole_space_krylov_gives_every_eigenpair(self):
        # at step n the Krylov space is all of R^n, an exact breakdown
        a = self.symmetric(12, seed=5)
        w = np.linalg.eigvalsh(a)
        lam, vecs = solver_module._lanczos_top(lambda x: a @ x, 12, 12)
        assert np.abs(lam - w[magnitude_order(w)]).max() <= 1e-12 * np.abs(w).max()
        assert np.abs(a @ vecs - vecs * lam).max() <= 1e-12 * np.abs(w).max()

    def test_breakdown_stops_with_fewer_pairs(self):
        # the zero operator: the start vector spans an invariant Krylov space
        lam, vecs = solver_module._lanczos_top(np.zeros_like, 50, 3)
        assert lam.tolist() == [0.0] and vecs.shape == (50, 1)

    def test_basis_grown_past_its_first_block_matches_eigh(self):
        a = self.symmetric(150, seed=7)
        calls = []
        lam, vecs = solver_module._lanczos_top(lambda x: calls.append(0) or a @ x, 150, 3)
        assert len(calls) > 64   # the basis starts with 64 rows
        w = np.linalg.eigvalsh(a)
        assert np.abs(lam - w[magnitude_order(w)[:3]]).max() <= 1e-12 * np.abs(w).max()
        assert np.abs(a @ vecs - vecs * lam).max() <= 1e-12 * np.abs(w).max()

    def test_init_memory_follows_the_steps_taken(self):
        # 65 steps here; a basis for all LANCZOS_MAX_STEPS alone would
        # exceed the bound
        n, p = 1002, 0.05
        points = generate(DatasetSpec("sphere_surface", n=n, r=3, seed=1))
        prob = Problem(observe_points(points, bernoulli_sample(n, p, 10_001), p=p), rank=3)
        tracemalloc.start()
        try:
            init_one_step(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    def test_step_cap_raises(self, monkeypatch):
        a = self.symmetric(60, seed=6)
        monkeypatch.setattr(solver_module, "LANCZOS_MAX_STEPS", 4)
        with pytest.raises(DegenerateInitError, match="in 4 steps .*residual"):
            solver_module._lanczos_top(lambda x: a @ x, 60, 3)

    def test_no_signal_above_the_dense_cutoff(self):
        # all-zero distances: the same cause as the dense branch gives
        data = observe_points(np.zeros((450, 3)), bernoulli_sample(450, 0.1, 1))
        with pytest.raises(DegenerateInitError, match="numerical rank below the target rank"):
            init_one_step(Problem(data, rank=3))


class TestSolve:
    def test_fixed_point_at_truth(self):
        # iterate matching the observed coefficients exactly: zero gradient,
        # immediate convergence
        prob, x0, _ = make_problem(25, 2, 1.0, seed=5)
        from edmc.dualbasis import w_coeffs_factored
        from edmc.sampling import SampledDistances

        exact = SampledDistances(
            prob.data.pairs,
            w_coeffs_factored(prob.data.pairs.incidence @ x0.U, x0.eigs),
            p=1.0,
        )
        result = solve(Problem(exact, rank=2), x0=x0, truth=x0)
        assert result.trace.status == "converged"
        assert len(result.trace.records) == 1
        rec = result.trace.records[0]
        assert rec.rel_change == 0.0
        assert rec.step_size == 0.0
        assert rec.rel_truth_error <= 1e-12
        assert rec.residual_norm == 0.0

    def test_recovers_midscale_instance(self):
        prob, truth, points = make_problem(120, 2, 0.4, seed=6)
        result = solve(prob, config=SolverConfig(change_tol_mode="absolute"), truth=truth)
        assert result.trace.status == "converged"
        assert result.trace.records[-1].rel_truth_error <= 1e-6
        rec_points = recover_points(result.gram)
        from edmc.geometry import procrustes_error

        assert procrustes_error(points, rec_points) <= 1e-5 * np.linalg.norm(points)

    def test_stopping_mode_controls_final_accuracy(self):
        prob, truth, _ = make_problem(120, 2, 0.4, seed=6)
        rel = solve(prob, truth=truth)
        absolute = solve(prob, config=SolverConfig(change_tol_mode="absolute"), truth=truth)
        assert rel.trace.records[-1].rel_truth_error <= 1e-4
        assert (absolute.trace.records[-1].rel_truth_error
                < rel.trace.records[-1].rel_truth_error)

    def test_deterministic_trace(self):
        prob, truth, _ = make_problem(50, 3, 0.6, seed=7)
        a = solve(prob, truth=truth)
        b = solve(prob, truth=truth)
        assert len(a.trace.records) == len(b.trace.records)
        for ra, rb in zip(a.trace.records, b.trace.records):
            assert ra == rb
        assert np.array_equal(a.gram.U, b.gram.U)
        assert np.array_equal(a.gram.eigs, b.gram.eigs)

    def test_rank_mismatch_rejected(self):
        prob, truth, _ = make_problem(20, 2, 0.8, seed=8)
        with pytest.raises(ValueError):
            solve(prob, x0=truncated_gram(truth.matrix(), 3))

    def test_x0_of_another_size_rejected(self):
        prob, _, _ = make_problem(80, 3, 0.5, seed=8)
        small, _, _ = make_problem(60, 3, 0.5, seed=8)
        with pytest.raises(ValueError, match="n=60 .* n=80"):
            solve(prob, x0=init_one_step(small))

    @staticmethod
    def _no_init(monkeypatch):
        def no_init(problem):
            raise AssertionError("the init ran before the inputs were checked")

        monkeypatch.setattr(solver_module, "init_one_step", no_init)

    def test_truth_of_another_size_rejected_before_init(self, monkeypatch):
        prob, _, _ = make_problem(30, 3, 0.5, seed=13)
        _, truth, _ = make_problem(31, 3, 0.5, seed=13)
        self._no_init(monkeypatch)
        with pytest.raises(ValueError, match="n=31 .* n=30"):
            solve(prob, truth=truth)

    def test_dense_truth_rejected_before_init(self, monkeypatch):
        prob, truth, _ = make_problem(30, 3, 0.5, seed=13)
        self._no_init(monkeypatch)
        with pytest.raises(TypeError, match="FactoredGram, not ndarray"):
            solve(prob, truth=truth.matrix())

    @pytest.mark.parametrize("make_kwargs,message", [
        (lambda truth: {"x0": truth.matrix()}, "x0 must be a FactoredGram, not ndarray"),
        (lambda truth: {"config": {"max_iters": 3}}, "config must be a SolverConfig, not dict"),
        (lambda truth: {"config": {}}, "config must be a SolverConfig, not dict"),
    ], ids=["dense-x0", "dict-config", "empty-dict-config"])
    def test_wrong_input_type_rejected_before_init(self, monkeypatch, make_kwargs, message):
        prob, truth, _ = make_problem(30, 3, 0.5, seed=13)
        self._no_init(monkeypatch)
        with pytest.raises(TypeError, match=message):
            solve(prob, **make_kwargs(truth))

    def test_iterates_stay_centered(self):
        prob, truth, _ = make_problem(60, 3, 0.5, seed=9)
        result = solve(prob, truth=truth)
        assert np.abs(result.gram.U.sum(axis=0)).max() <= 1e-6

    def test_max_iters_status(self):
        prob, truth, _ = make_problem(60, 3, 0.35, seed=11)
        result = solve(prob, config=SolverConfig(max_iters=2), truth=truth)
        assert result.trace.status == "max_iters"
        assert len(result.trace.records) == 2

    def test_trace_jsonl_round_trip(self, tmp_path):
        prob, truth, _ = make_problem(30, 2, 0.7, seed=12)
        result = solve(prob, truth=truth)
        path = tmp_path / "trace.jsonl"
        result.trace.save_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(result.trace.records) + 1
        assert lines[-1]["status"] == "converged"
        assert lines[0]["iteration"] == 0
        assert list(lines[0]) == ["iteration", "step_size", "residual_norm", "rel_change",
                                  "rel_truth_error", "boundary_tie"]
        assert [line["boundary_tie"] for line in lines[:-1]] == [False] * (len(lines) - 1)


class TestTracedFlags:
    def test_boundary_tie_taken_from_retracted_iterate(self, monkeypatch):
        real = solver_module.retract_structured
        calls = []

        def tie_on_second(t, step):
            calls.append(None)
            out = real(t, step)
            return replace(out, boundary_tie=True) if len(calls) == 2 else out

        monkeypatch.setattr(solver_module, "retract_structured", tie_on_second)
        prob, truth, _ = make_problem(60, 3, 0.35, seed=11)
        result = solve(prob, config=SolverConfig(max_iters=4), truth=truth)
        assert [rec.boundary_tie for rec in result.trace.records] == [False, True, False, False]


class TestOneIterationOracle:
    """One ``solve`` iteration against a step built from the dense oracles."""

    def test_matches_dense_iteration(self):
        n, r, p = 12, 2, 0.7
        prob, _, points = make_problem(n, r, p, seed=21)
        truth = gram_from_points(points)
        pairs = prob.data.pairs
        x0 = random_factored_gram(n, r, seed=22)
        result = solve(prob, x0=x0, config=SolverConfig(max_iters=1))

        x = x0.matrix()
        t = project_tangent(x0, m_omega_dense(truth - x, pairs, 1.0)).matrix()
        alpha = np.sum(t * t) / np.sum(t * m_omega_dense(t, pairs, 1.0))
        expected = truncated_gram(x + alpha * t, r).matrix()
        (rec,) = result.trace.records
        assert rec.step_size == pytest.approx(alpha, rel=1e-10)
        assert np.abs(result.gram.matrix() - expected).max() <= 1e-10 * np.abs(expected).max()


class TestStepSize:
    def _tangent_instance(self, n, r, p, seed):
        prob, truth, _ = make_problem(n, r, p, seed=seed)
        x0 = init_one_step(prob)
        y = random_centered_symmetric(n, seed=seed + 2)
        return project_tangent(x0, y), prob

    @staticmethod
    def _debiased_quotient(t, pairs, p):
        # <T, T> / <T, M_O(T)>: the quotient of the de-biased operator
        zc = t.w_coeffs(pairs, pairs.incidence @ t.base.U)
        return t.norm_fro() ** 2 / float(m_omega_coeffs(zc, pairs, p) @ zc)

    def test_alpha_one_at_full_sampling(self):
        t, prob = self._tangent_instance(20, 2, 1.0, seed=13)
        pairs = prob.data.pairs
        alpha = step_size(t, pairs, pairs.incidence @ t.base.U)
        assert alpha == pytest.approx(1.0, abs=1e-12)
        alpha_d = self._debiased_quotient(t, pairs, 1.0)
        assert alpha_d == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        t, prob = self._tangent_instance(25, 2, 0.6, seed=14)
        pairs = prob.data.pairs
        dU = pairs.incidence @ t.base.U
        a1 = step_size(t, pairs, dU)
        a2 = step_size(TangentVector(t.base, -3.7 * t.M, -3.7 * t.Zu), pairs, dU)
        assert a2 == pytest.approx(a1, rel=1e-12)

    def test_debiased_quotient_concentrates(self):
        # well-sampled regime: the quotient stays in the step interval at
        # eps = 1/8, [p^-2/(1+4/8), p^-2/(1-4/8)]
        p = 0.5
        for seed in range(50):
            t, prob = self._tangent_instance(100, 2, p, seed=100 + seed)
            alpha = self._debiased_quotient(t, prob.data.pairs, p)
            assert p**-2 / (1.0 + 4.0 / 8.0) <= alpha <= p**-2 / (1.0 - 4.0 / 8.0)

    def test_zero_tangent_rejected(self):
        prob, truth, _ = make_problem(15, 2, 0.9, seed=15)
        x0 = init_one_step(prob)
        from edmc.manifold import TangentVector

        zero = TangentVector(x0, np.zeros((2, 2)), np.zeros((15, 2)))
        with pytest.raises(DegenerateStepError):
            step_size(zero, prob.data.pairs, prob.data.pairs.incidence @ x0.U)

    def test_overflowing_denominator_raises(self):
        # both quotient terms overflow to inf at this scale, and inf / inf
        # would be a NaN step
        t, prob = self._tangent_instance(40, 3, 0.5, seed=17)
        big = TangentVector(t.base, 1e200 * t.M, 1e200 * t.Zu)
        with np.errstate(over="ignore"):
            assert not np.isfinite(big.norm_fro() ** 2)
            with pytest.raises(DegenerateStepError, match="not finite"):
                step_size(big, prob.data.pairs, prob.data.pairs.incidence @ t.base.U)


class TestRecoverPoints:
    def test_two_point_gram(self):
        fg = truncated_gram(np.array([[1.0, -1.0], [-1.0, 1.0]]), 1)
        pts = recover_points(fg).ravel()
        assert np.allclose(np.sort(pts), [-1.0, 1.0], atol=1e-12)

    def test_tiny_negative_clamped_quietly(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]) / np.sqrt([2.0, 2.0])
        u, _ = np.linalg.qr(u - u.mean(axis=0))
        fg = FactoredGram(u[:, :2], np.array([1.0, -1e-12]))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = recover_points(fg)
        assert pts[:, 1].max() == 0.0

    def test_strong_negative_warns(self):
        fg = random_factored_gram(6, 2, seed=16)
        bad = FactoredGram(fg.U, np.array([1.0, -0.5]))
        with pytest.warns(RuntimeWarning):
            pts = recover_points(bad)
        assert np.all(pts[:, 1] == 0.0)


class TestHealthSignals:
    @staticmethod
    def _trial(seed, n=100, r=3, rho=5.0):
        # built as experiments.run_trial builds a noiseless sphere trial
        p = probability_for_ratio(n, r, rho)
        points = generate(DatasetSpec("sphere_surface", n=n, r=r, seed=seed))
        data = observe(gram_from_points(points), bernoulli_sample(n, p, seed), p=p, seed=seed)
        return solve(Problem(data, rank=r))

    def test_wrong_point_shows_without_truth(self, tmp_path):
        # seed 274 ends "converged" at relative Gram error 0.50
        result = self._trial(274)
        summary = result.trace.summary()
        assert summary["status"] == "converged"
        assert summary["final_rel_residual"] > 0.1
        assert summary["final_min_eig"] < 0.0
        assert summary["final_min_eig"] == result.gram.eigs.min()
        path = tmp_path / "trace.jsonl"
        result.trace.save_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[-1] == summary
        assert all(set(line) == set(IterRecord.__dataclass_fields__) for line in lines[:-1])

    def test_recovered_point_is_healthy(self):
        result = self._trial(275)
        summary = result.trace.summary()
        last = result.trace.records[-1]
        d = result.trace.data_norm
        assert summary["status"] == "converged"
        assert summary["final_rel_residual"] == last.residual_norm / d < 1e-3
        assert summary["final_min_eig"] > 0.0 and np.all(result.gram.eigs > 0.0)


@pytest.mark.slow
class TestPaperScaleExamples:
    def test_swiss_roll_low_sampling(self):
        points = generate(DatasetSpec("swiss_roll", n=2048, r=3, seed=0))
        truth = gram_from_points(points)
        pairs = bernoulli_sample(2048, 0.02, seed=1)
        data = observe(truth, pairs, p=0.02, seed=1)
        result = solve(Problem(data, rank=3), config=SolverConfig(change_tol=1e-7),
                       truth=truncated_gram(truth, 3))
        assert result.trace.records[-1].rel_truth_error <= 1e-4
