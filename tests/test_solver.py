import json
from dataclasses import replace

import numpy as np
import pytest

from edmc import solver as solver_module
from edmc.geometry import FactoredGram, gram_from_points, truncated_gram
from edmc.dualbasis import m_omega_dense, rstar_r_dense
from edmc.manifold import project_tangent
from edmc.sampling import PairSet, bernoulli_sample, observe, probability_for_ratio
from edmc.solver import (DegenerateInitError, DegenerateStepError, IterRecord, Problem,
                         SolverConfig, init_one_step, recover_points, solve,
                         step_size)
from edmc.synthdata import DatasetSpec, generate

from conftest import random_centered_symmetric, random_factored_gram


def make_problem(n, r, p, seed, p_known=True):
    points = generate(DatasetSpec("sphere_surface", n=n, r=r, seed=seed))
    truth = gram_from_points(points)
    pairs = bernoulli_sample(n, p, seed=seed + 1)
    data = observe(truth, pairs, p=p if p_known else None, seed=seed + 1)
    return Problem(data, rank=r), truth, points


class TestProblem:
    def test_p_defaults_to_empirical_fill(self):
        prob, _, _ = make_problem(30, 2, 0.5, seed=0, p_known=False)
        m = prob.data.m
        assert prob.p == pytest.approx(m / (30 * 29 / 2))

    def test_validation(self):
        prob, _, _ = make_problem(10, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            Problem(prob.data, rank=0)


class TestInitOneStep:
    def test_exact_at_full_sampling(self):
        prob, truth, _ = make_problem(40, 3, 1.0, seed=1)
        x0 = init_one_step(prob)
        rel = np.linalg.norm(x0.matrix() - truth) / np.linalg.norm(truth)
        assert rel <= 1e-12

    def test_empty_observation_degenerate(self):
        prob, _, _ = make_problem(20, 2, 1.0, seed=2)
        empty = observe(np.zeros((20, 20)), PairSet(20, np.array([], int), np.array([], int)), p=0.5)
        with pytest.raises(DegenerateInitError):
            init_one_step(Problem(empty, rank=2))

    def test_dense_and_lanczos_paths_agree(self):
        prob, truth, _ = make_problem(80, 3, 0.4, seed=3)
        dense = init_one_step(prob, dense_cutoff=100)
        lanczos = init_one_step(prob, dense_cutoff=10)
        assert np.abs(dense.matrix() - lanczos.matrix()).max() <= 1e-7 * np.abs(truth).max()

    def test_scales_by_inverse_probability(self):
        prob, truth, _ = make_problem(60, 3, 0.5, seed=4)
        x0 = init_one_step(prob)
        # eigenvalue scale should land near the truth's, not p times it
        assert x0.eigs[0] == pytest.approx(np.linalg.eigvalsh(truth)[-1], rel=0.5)


class TestSolve:
    def test_fixed_point_at_truth(self):
        # iterate matching the observed coefficients exactly: zero gradient,
        # immediate convergence
        prob, truth, _ = make_problem(25, 2, 1.0, seed=5)
        x0 = truncated_gram(truth, 2)
        from edmc.dualbasis import w_coeffs_factored
        from edmc.sampling import SampledDistances

        exact = SampledDistances(
            prob.data.pairs,
            w_coeffs_factored(x0.U, x0.eigs, prob.data.pairs),
            p=1.0,
        )
        result = solve(Problem(exact, rank=2), x0=x0,
                       config=SolverConfig(truth=x0.matrix()))
        assert result.trace.status == "converged"
        assert len(result.trace.records) == 1
        rec = result.trace.records[0]
        assert rec.rel_change == 0.0
        assert rec.step_size == 0.0
        assert rec.rel_truth_error <= 1e-12
        assert rec.residual_norm == 0.0

    def test_recovers_midscale_instance(self):
        prob, truth, points = make_problem(120, 2, 0.4, seed=6)
        config = SolverConfig(truth=truth, change_tol_mode="absolute")
        result = solve(prob, config=config)
        assert result.trace.status == "converged"
        assert result.trace.records[-1].rel_truth_error <= 1e-6
        rec_points = recover_points(result.gram)
        from edmc.geometry import procrustes_error

        assert procrustes_error(points, rec_points) <= 1e-5 * np.linalg.norm(points)

    def test_stopping_mode_controls_final_accuracy(self):
        prob, truth, _ = make_problem(120, 2, 0.4, seed=6)
        rel = solve(prob, config=SolverConfig(truth=truth))
        absolute = solve(prob, config=SolverConfig(truth=truth,
                                                   change_tol_mode="absolute"))
        assert rel.trace.records[-1].rel_truth_error <= 1e-4
        assert (absolute.trace.records[-1].rel_truth_error
                < rel.trace.records[-1].rel_truth_error)

    def test_deterministic_trace(self):
        prob, truth, _ = make_problem(50, 3, 0.6, seed=7)
        a = solve(prob, config=SolverConfig(truth=truth))
        b = solve(prob, config=SolverConfig(truth=truth))
        assert len(a.trace.records) == len(b.trace.records)
        for ra, rb in zip(a.trace.records, b.trace.records):
            assert ra == rb
        assert np.array_equal(a.gram.U, b.gram.U)
        assert np.array_equal(a.gram.eigs, b.gram.eigs)

    def test_rank_mismatch_rejected(self):
        prob, truth, _ = make_problem(20, 2, 0.8, seed=8)
        with pytest.raises(ValueError):
            solve(prob, x0=truncated_gram(truth, 3))

    def test_iterates_stay_centered(self):
        prob, truth, _ = make_problem(60, 3, 0.5, seed=9)
        result = solve(prob, config=SolverConfig(truth=truth))
        assert np.abs(result.gram.U.sum(axis=0)).max() <= 1e-6

    def test_debiased_mode_runs_when_well_sampled(self):
        prob, truth, _ = make_problem(40, 2, 0.9, seed=10)
        result = solve(prob, config=SolverConfig(truth=truth, gradient_op="debiased",
                                                 max_iters=200))
        assert result.trace.status in ("converged", "max_iters")

    def test_max_iters_status(self):
        prob, truth, _ = make_problem(60, 3, 0.35, seed=11)
        result = solve(prob, config=SolverConfig(truth=truth, max_iters=2))
        assert result.trace.status == "max_iters"
        assert len(result.trace.records) == 2

    def test_trace_jsonl_round_trip(self, tmp_path):
        prob, truth, _ = make_problem(30, 2, 0.7, seed=12)
        result = solve(prob, config=SolverConfig(truth=truth))
        path = tmp_path / "trace.jsonl"
        result.trace.save_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(result.trace.records) + 1
        assert lines[-1]["status"] == "converged"
        assert lines[0]["iteration"] == 0


class TestTracedFlags:
    def test_debiased_step_outside_interval_is_flagged(self, tmp_path):
        # the third step of this converging de-biased solve is 1.39 p^-2,
        # above the interval's upper end p^-2 / (1 - 4/22) = 1.22 p^-2
        p = 0.5
        prob, truth, _ = make_problem(80, 2, p, seed=3)
        result = solve(prob, config=SolverConfig(truth=truth, gradient_op="debiased",
                                                 max_iters=200))
        assert result.trace.status == "converged"
        lo, hi = p**-2 / (1.0 + 4.0 / 22.0), p**-2 / (1.0 - 4.0 / 22.0)
        flags = [rec.step_flagged for rec in result.trace.records]
        assert flags == [not lo <= rec.step_size <= hi for rec in result.trace.records]
        assert flags[2] and sum(flags) == 1
        path = tmp_path / "trace.jsonl"
        result.trace.save_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()[:-1]]
        assert [line["step_flagged"] for line in lines] == flags
        assert [line["boundary_tie"] for line in lines] == [False] * len(flags)

    def test_normal_mode_never_flags(self):
        prob, truth, _ = make_problem(60, 3, 0.35, seed=11)
        result = solve(prob, config=SolverConfig(truth=truth, max_iters=20))
        assert not any(rec.step_flagged for rec in result.trace.records)

    def test_boundary_tie_taken_from_retracted_iterate(self, monkeypatch):
        real = solver_module.retract_structured
        calls = []

        def tie_on_second(base, t, step):
            calls.append(None)
            out = real(base, t, step)
            return replace(out, boundary_tie=True) if len(calls) == 2 else out

        monkeypatch.setattr(solver_module, "retract_structured", tie_on_second)
        prob, truth, _ = make_problem(60, 3, 0.35, seed=11)
        result = solve(prob, config=SolverConfig(truth=truth, max_iters=4))
        assert [rec.boundary_tie for rec in result.trace.records] == [False, True, False, False]


class TestOneIterationOracle:
    """One ``solve`` iteration against a step built from the dense oracles."""

    @pytest.mark.parametrize("mode", ["normal", "debiased"])
    def test_matches_dense_iteration(self, mode):
        n, r, p = 12, 2, 0.7
        prob, truth, _ = make_problem(n, r, p, seed=21)
        pairs = prob.data.pairs
        x0 = random_factored_gram(n, r, seed=22)
        result = solve(prob, x0=x0, config=SolverConfig(max_iters=1, gradient_op=mode))

        def dense_op(y):
            return rstar_r_dense(y, pairs) if mode == "normal" else m_omega_dense(y, pairs, p)

        x = x0.matrix()
        t = project_tangent(x0, dense_op(truth - x)).matrix()
        alpha = np.sum(t * t) / np.sum(t * dense_op(t))
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

    def test_alpha_one_at_full_sampling(self):
        t, prob = self._tangent_instance(20, 2, 1.0, seed=13)
        alpha, flagged = step_size(t, prob.data.pairs, 1.0)
        assert alpha == pytest.approx(1.0, abs=1e-12)
        alpha_d, _ = step_size(t, prob.data.pairs, 1.0, gradient_op="debiased")
        assert alpha_d == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        t, prob = self._tangent_instance(25, 2, 0.6, seed=14)
        a1, _ = step_size(t, prob.data.pairs, prob.p)
        a2, _ = step_size(t.scale(-3.7), prob.data.pairs, prob.p)
        assert a2 == pytest.approx(a1, rel=1e-12)

    def test_debiased_quotient_concentrates(self):
        # well-sampled regime: the quotient stays in [p^-2/2, 2 p^-2]
        for seed in range(50):
            t, prob = self._tangent_instance(100, 2, 0.5, seed=100 + seed)
            alpha, flagged = step_size(t, prob.data.pairs, 0.5, gradient_op="debiased",
                                       flag_eps=1.0 / 8.0)
            assert 0.5 * 0.5**-2 <= alpha <= 2.0 * 0.5**-2
            assert not flagged

    def test_supplied_dU_changes_no_bit(self):
        t, prob = self._tangent_instance(60, 3, 0.4, seed=16)
        pairs = prob.data.pairs
        dU = pairs.incidence @ t.base.U
        for mode in ("normal", "debiased"):
            assert (step_size(t, pairs, prob.p, mode, dU=dU)
                    == step_size(t, pairs, prob.p, mode))

    def test_zero_tangent_rejected(self):
        prob, truth, _ = make_problem(15, 2, 0.9, seed=15)
        x0 = init_one_step(prob)
        from edmc.manifold import TangentVector

        zero = TangentVector(x0, np.zeros((2, 2)), np.zeros((15, 2)))
        with pytest.raises(DegenerateStepError):
            step_size(zero, prob.data.pairs, prob.p)

    def test_overflowing_denominator_raises(self):
        # the de-biased quotient's denominator overflows to -inf on this
        # instance; a step of -0.0 would freeze the iterate and stop the
        # loop as "converged" at a residual near 1e152
        points = generate(DatasetSpec("sphere_surface", n=100, r=3, seed=5))
        pairs = bernoulli_sample(100, 0.3, seed=77)
        data = observe(gram_from_points(points), pairs, p=0.3, seed=77)
        with pytest.raises(DegenerateStepError, match="not finite"):
            solve(Problem(data, rank=3), config=SolverConfig(gradient_op="debiased"))


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
        result = solve(Problem(data, rank=3),
                       config=SolverConfig(truth=truth, change_tol=1e-7))
        assert result.trace.records[-1].rel_truth_error <= 1e-4
