"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured quantities (run with ``pytest -s`` to see them inline).

Heavy experiment reproductions are marked ``slow``; run the full gate with
plain ``pytest`` (slow included) and use ``-m "not slow"`` for quick edits.
"""

import itertools
import os
from dataclasses import replace

import numpy as np
import pytest

import edmc.dualbasis as db
from edmc.diagnostics import cross_coherence, incoherence
from edmc.experiments import ExperimentConfig, GridCell, grid_rows, run_cell, run_grid
from edmc.geometry import (gram_from_points, gram_frobenius_error,
                           truncated_gram)
from edmc.manifold import project_tangent
from edmc.sampling import (PairSet, bernoulli_sample, observe,
                           probability_for_ratio)
from edmc.solver import Problem, SolverConfig, init_one_step, solve, step_size
from edmc.synthdata import DatasetSpec, generate

from conftest import (centered_orthonormal, expand, noise_floor,
                      random_centered_symmetric, random_factored_gram)

TRIANGLE_U = np.sqrt(2.0 / 3.0) * np.array(
    [[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]]
)


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def sphere_instance(n, r, p, seed, sample_seed_base=10_000):
    points = generate(DatasetSpec("sphere_surface", n=n, r=r, seed=seed))
    truth = gram_from_points(points)
    pairs = bernoulli_sample(n, p, seed=sample_seed_base + seed)
    data = observe(truth, pairs, p=p, seed=sample_seed_base + seed)
    return Problem(data, rank=r), truth


def noise_floors(dataset, gamma, base_seed, trials):
    """Per-trial noise floor along ``run_trial``'s data path (same seeds)."""
    return np.array([
        noise_floor(generate(replace(dataset, seed=seed)), 10.0 ** gamma, seed + 1)
        for seed in range(base_seed, base_seed + trials)
    ])


def test_criterion_01_operator_oracle_equivalence():
    """Fast paths of all four sampling operators match the dense sums; the
    w-expanded images are formed by the solver's ``w_expand_matvec``."""
    rng = np.random.default_rng(1)
    worst = 0.0
    checked = 0
    for n in (6, 8, 10, 12):
        for trial in range(200):
            y = random_centered_symmetric(n, seed=int(rng.integers(2**31)))
            p = float(rng.uniform(0.2, 0.9))
            pairs = bernoulli_sample(n, p, seed=int(rng.integers(2**31)))
            if len(pairs) == 0:
                pairs = PairSet.from_pairs(n, [(0, 1)])
            coeffs = db.w_coeffs(y, pairs)
            images = [
                (expand(coeffs, pairs), db.f_omega_dense(y, pairs)),
                (db.r_omega_apply(coeffs, pairs), db.r_omega_dense(y, pairs)),
                (expand(db.rstar_r_coeffs(coeffs, pairs), pairs), db.rstar_r_dense(y, pairs)),
                (expand(db.m_omega_coeffs(coeffs, pairs, p), pairs),
                 db.m_omega_dense(y, pairs, p)),
            ]
            for fast, dense in images:
                scale = max(np.linalg.norm(dense), 1e-300)
                worst = max(worst, np.linalg.norm(fast - dense) / scale)
                checked += 1
    ok = worst <= 1e-10
    assert report("C1", ok, f"{checked} operator images, worst rel err {worst:.2e} (tol 1e-10)")


def test_criterion_02_closed_form_identities():
    """Inverse-Gram entries, extreme eigenvalues, basis norms, dual square sum."""
    details = []
    ok = True

    for n in range(3, 9):
        pairs_all = list(itertools.combinations(range(n), 2))
        mats = [db.w_alpha_dense(n, i, j) for i, j in pairs_all]
        h = np.array([[np.sum(a * b) for b in mats] for a in mats])
        hinv = np.linalg.inv(h)
        closed = np.array([[db.h_inv_entry(n, a, b) for b in pairs_all] for a in pairs_all])
        ok &= np.abs(closed - hinv).max() <= 1e-10
        ok &= abs(np.linalg.eigvalsh(h).max() - 2 * n) <= 1e-9
        if n >= 4:
            # at n=3 no disjoint pairs exist and the extreme value is 1/3
            ok &= abs(np.linalg.eigvalsh(hinv).max() - 0.5) <= 1e-9
        for i, j in pairs_all:
            ok &= abs(np.linalg.norm(db.w_alpha_dense(n, i, j), 2) - 2.0) <= 1e-10
            ok &= abs(np.linalg.norm(db.v_alpha_dense(n, i, j), 2) - 0.5) <= 1e-10
    details.append("H^-1 entries, lam_max(H)=2n, lam_max(H^-1)=1/2 (n>=4), |w|=2, |v|=1/2")

    for n in range(2, 8):
        brute = np.zeros((n, n))
        for i, j in itertools.combinations(range(n), 2):
            v = db.v_alpha_dense(n, i, j)
            brute += v @ v
        ok &= np.abs(brute - db.sum_v_squared(n)).max() <= 1e-12
    details.append("sum v^2 closed form at n=2..7")
    assert report("C2", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_03_debiasing_expectation():
    """Monte Carlo mean of the de-biased operator is p^2 I entrywise."""
    n, p, draws = 8, 0.5, 20000
    basis = db.s_basis(n)
    pairs_all = list(itertools.combinations(range(n), 2))
    L = len(pairs_all)
    wt = np.zeros((L, L))
    for a, (i, j) in enumerate(pairs_all):
        wt[:, a] = basis[:, i, i] + basis[:, j, j] - 2 * basis[:, i, j]
    g = np.array([[db.h_inv_entry(n, a, b) for b in pairs_all] for a in pairs_all])

    def draw_matrix(mask):
        k = np.where(np.outer(mask, mask), g, 0.0)
        np.fill_diagonal(k, np.where(mask, p * np.diag(g), 0.0))
        return wt @ k @ wt.T

    # certify the vectorized materialization against the literal dense sums
    check_pairs = bernoulli_sample(n, p, seed=99)
    mask_check = np.zeros(L, dtype=bool)
    codes = {pair: idx for idx, pair in enumerate(pairs_all)}
    for pair in check_pairs:
        mask_check[codes[pair]] = True
    direct = db.dense_operator_matrix("m_omega", check_pairs, p=p, basis=basis)
    agreement = np.abs(draw_matrix(mask_check) - direct).max()
    assert agreement <= 1e-12

    rng = np.random.default_rng(2024)
    acc = np.zeros((L, L))
    acc_sq = np.zeros((L, L))
    for _ in range(draws):
        theta = draw_matrix(rng.random(L) < p)
        acc += theta
        acc_sq += theta * theta
    mean = acc / draws
    se = np.sqrt(np.maximum(acc_sq / draws - mean**2, 0.0) / draws)
    dev = np.abs(mean - p**2 * np.eye(L))
    zscores = np.where(se > 0, dev / np.where(se > 0, se, 1.0), np.where(dev > 0, np.inf, 0.0))
    ok = zscores.max() <= 4.0
    assert report(
        "C3", ok,
        f"{draws} draws at n={n}, p={p}: max |mean - p^2 I| = {dev.max():.2e}, "
        f"max deviation {zscores.max():.2f} standard errors (limit 4)",
    )


@pytest.mark.slow
def test_criterion_04_recovery_table_at_paper_scale():
    """Sphere n=1002, r=3: recovery across sampling rates, failure at p=0.01."""
    config_proto = dict(change_tol=1e-5, change_tol_mode="absolute", max_iters=1000)
    targets = {0.10: 1e-5, 0.05: 1e-5, 0.03: 1e-4}
    ok = True
    lines = []
    for p, target in targets.items():
        errs = []
        for seed in range(5):
            problem, truth = sphere_instance(1002, 3, p, seed)
            result = solve(problem, config=SolverConfig(**config_proto),
                           truth=truncated_gram(truth, 3))
            errs.append(result.trace.records[-1].rel_truth_error)
        med = float(np.median(errs))
        ok &= med <= target
        lines.append(f"p={p}: median {med:.2e} (target {target:g})")

    failures = 0
    for seed in range(5):
        problem, truth = sphere_instance(1002, 3, 0.01, seed)
        result = solve(problem, config=SolverConfig(**config_proto),
                       truth=truncated_gram(truth, 3))
        failures += result.trace.records[-1].rel_truth_error > 0.1
    ok &= failures >= 3
    lines.append(f"p=0.01: {failures}/5 failures (need >= 3)")
    assert report("C4", ok, "; ".join(lines))


@pytest.mark.slow
def test_criterion_05_linear_local_convergence():
    """Tail error ratios stay below 0.9 on almost every seeded run."""
    good = 0
    worst = 0.0
    for seed in range(20):
        problem, truth = sphere_instance(500, 3, 0.15, seed)
        result = solve(problem, config=SolverConfig(change_tol=1e-5, change_tol_mode="absolute"),
                       truth=truncated_gram(truth, 3))
        errs = [rec.rel_truth_error for rec in result.trace.records]
        ratios = [errs[k + 1] / errs[k] for k in range(len(errs) - 1)]
        tail = ratios[-20:]
        worst = max(worst, max(tail))
        good += all(t <= 0.9 for t in tail)
    ok = good >= 18
    assert report("C5", ok, f"{good}/20 runs with all tail ratios <= 0.9 "
                            f"(worst ratio {worst:.3f})")


@pytest.mark.slow
def test_criterion_06_phase_transition_monotonicity():
    """Success is monotone in oversampling, and the 90% threshold in rank."""
    # integer steps over the figure's rho range; at half steps the rho axis
    # saturates for r >= 8 (rho = 4.5 is already 83-87% of all pairs) and
    # the 90% threshold curve bends back down near full sampling
    config = ExperimentConfig(
        dataset=DatasetSpec("sphere_surface", n=100, r=3, seed=0),
        r_grid=tuple(range(2, 11)),
        rho_grid=(1.0, 2.0, 3.0, 4.0, 5.0),
        trials=20,
        seed=0,
        workers=min(4, os.cpu_count() or 1),
    )
    rows = grid_rows(run_grid(config), threshold=1e-3)
    by_r = {}
    for row in rows:
        by_r.setdefault(row["r"], []).append((row["rho"], row["success_fraction"]))

    ok = True
    rho_star = {}
    lines = []
    for r, cells in sorted(by_r.items()):
        cells.sort()
        fr = [f for _, f in cells]
        inversions = sum(1 for k in range(len(fr) - 1) if fr[k + 1] < fr[k])
        ok &= inversions <= 1
        rho_star[r] = next((rho for rho, f in cells if f >= 0.9), float("inf"))
        lines.append(f"r={r}: fractions {['%.2f' % f for f in fr]} "
                     f"inversions={inversions} rho*={rho_star[r]}")
    ranks = sorted(rho_star)
    monotone = all(rho_star[a] <= rho_star[b] for a, b in zip(ranks, ranks[1:]))
    ok &= monotone
    assert report("C6", ok, f"rho* by rank {rho_star} monotone={monotone}; "
                            + " | ".join(lines))


@pytest.mark.slow
def test_criterion_07_noise_trend():
    """Success under small point noise must exceed success under large noise.

    Unit-sphere cloud (n=100, r=3), i.i.d. uniform entry noise at bound
    10^gamma, success = relative error to the clean Gram matrix at most
    1e-2 at oversampling 5.  The error is floored by the perturbation
    itself: for uniform noise on a unit-sphere cloud the floor is about
    sqrt(2r/3) * 10^gamma = sqrt(2) * 10^gamma, i.e. 1.3e-2 to 1.5e-2 at
    gamma = -2, already past the threshold.  The small level is therefore
    gamma = -3, whose floor sits about 7x under the threshold; gamma = -1
    sits about 14x above it.  A precondition checks every small-level floor
    against the threshold so an unreachable level fails with its cause.
    """
    dataset = DatasetSpec("sphere_surface", n=100, r=3, seed=0)
    p = probability_for_ratio(100, 3, 5.0)
    threshold, trials, small, large = 1e-2, 100, -3.0, -1.0
    floors = {gamma: noise_floors(dataset, gamma, base_seed=0, trials=trials)
              for gamma in (small, large)}
    assert floors[small].max() < threshold, (
        f"C7 precondition: noise floor at gamma={small:g} reaches "
        f"{floors[small].max():.3e} >= threshold {threshold:.0e}; an estimator "
        f"that fits the observed distances cannot succeed there"
    )
    fractions = {}
    ratios = {}
    for gamma in (small, large):
        cell = GridCell(r=3, p=p, rho=5.0, gamma=gamma)
        res = run_cell(dataset, cell, base_seed=0, trials=trials,
                       solver_config=SolverConfig())
        fractions[gamma] = res.success_fraction(threshold)
        ratios[gamma] = float(np.median(
            [t.rel_error / f for t, f in zip(res.trials, floors[gamma])]))
    gap = fractions[small] - fractions[large]
    ok = gap >= 0.3
    assert report(
        "C7", ok,
        f"success(gamma={small:g})={fractions[small]:.2f} "
        f"success(gamma={large:g})={fractions[large]:.2f} gap={gap:.2f} (need >= 0.3); "
        f"median error/floor {ratios[small]:.3f} / {ratios[large]:.3f} "
        f"vs threshold {threshold:.0e}",
    )


@pytest.mark.slow
def test_criterion_08_initialization_quality():
    """One-step init lands under the concentration bound; exact at p=1."""
    n, r, p, beta = 200, 3, 0.3, 2.0
    errs, bounds = [], []
    for seed in range(20):
        problem, truth = sphere_instance(n, r, p, seed, sample_seed_base=7000)
        fg = truncated_gram(truth, r)
        x0 = init_one_step(problem)
        errs.append(gram_frobenius_error(x0, fg))
        nu_analysis = incoherence(fg, cross_terms=False).analysis_nu
        spectral = float(np.abs(fg.eigs).max())
        bounds.append(
            np.sqrt(beta * nu_analysis**2 * r**3 * np.log(n) / (24 * p * n)) * spectral
        )
    med_err, med_bound = float(np.median(errs)), float(np.median(bounds))
    ok = med_err <= med_bound

    problem, truth = sphere_instance(n, r, 1.0, 0)
    x0 = init_one_step(problem)
    exact_rel = gram_frobenius_error(x0, truncated_gram(truth, r)) / np.linalg.norm(truth)
    ok &= exact_rel <= 1e-12
    assert report("C8", ok, f"median ||X0 - X||_F = {med_err:.1f} <= bound {med_bound:.1f}; "
                            f"p=1 exactness {exact_rel:.2e} (tol 1e-12)")


def test_criterion_09_geometry_identities():
    """Row-spread sum, disjoint cross terms, and the triangle's parameter."""
    from edmc.diagnostics import sum_pairwise_row_distances
    from edmc.geometry import FactoredGram

    ok = True
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 24))
        r = int(rng.integers(1, min(5, n - 1)))
        u = centered_orthonormal(n, r, seed=int(rng.integers(2**31)))
        fg = FactoredGram(u, np.ones(r))
        worst = max(worst, abs(sum_pairwise_row_distances(fg) - n * r))
    ok &= worst <= 1e-9

    for n in (4, 6, 8):
        fg = random_factored_gram(n, 2, seed=n)
        for a in itertools.combinations(range(n), 2):
            for b in itertools.combinations(range(n), 2):
                if not set(a) & set(b):
                    ok &= cross_coherence(fg, a, b) == 0.0

    triangle = incoherence(FactoredGram(TRIANGLE_U, np.array([1.0, 1.0])))
    ok &= abs(triangle.nu - 1.5) <= 1e-12
    # measured floor sits below the stated one: the row-spread sum is n*r,
    # so the attainable minimum is n/(n-1), not 1 + 2/(n-1)
    ok &= triangle.nu < triangle.lower_bound_stated
    ok &= triangle.nu >= triangle.lower_bound_derived - 1e-12
    assert report(
        "C9", ok,
        f"sum identity worst dev {worst:.1e} (tol 1e-9); disjoint cross terms exact zero; "
        f"triangle nu = {triangle.nu} (stated floor {triangle.lower_bound_stated:.3f} "
        f"not attained, derived floor {triangle.lower_bound_derived:.3f} attained)",
    )


def test_criterion_10_step_size_sanity():
    """Exact unit step at full sampling; scale invariance of the quotient."""
    problem, truth = sphere_instance(30, 2, 1.0, 3)
    x0 = init_one_step(problem)
    tangent = project_tangent(x0, random_centered_symmetric(30, seed=8))
    pairs = problem.data.pairs
    zc = tangent.w_coeffs(pairs)
    # the normal operator's quotient, and the de-biased operator's formed directly
    alphas = (step_size(tangent, pairs),
              tangent.norm_fro() ** 2 / float(db.m_omega_coeffs(zc, pairs, 1.0) @ zc))
    deviations = [abs(alpha - 1.0) for alpha in alphas]
    ok = max(deviations) <= 1e-12

    alpha_base = step_size(tangent, pairs)
    drift = 0.0
    for c in (1e-3, -2.0, 512.0):
        alpha_scaled = step_size(tangent.scale(c), pairs)
        drift = max(drift, abs(alpha_scaled - alpha_base) / abs(alpha_base))
    ok &= drift <= 1e-12
    assert report("C10", ok, f"|alpha - 1| at p=1: {max(deviations):.2e}; "
                             f"scale drift {drift:.2e} (tol 1e-12)")
