"""The benchmark's workloads: what each builds in set-up, what one pass of
timed operations runs, and how a pass's outputs are checked.

Every input comes from the workload seed.  Program functions are called
through their modules (``solver.solve``, not a bound name) so the tracer's
wrappers see the calls.  An operation raises :class:`OpFailed` when the
program reports a failure status, which the runner counts as failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import checks
from edmc import diagnostics, experiments, geometry, sampling, solver, synthdata

R = 3


class OpFailed(RuntimeError):
    """The program returned a failure status for an operation."""


@dataclass
class Plan:
    """Inputs built in set-up, the operations of one pass, and their check."""

    ops: list                      # [(label, thunk)], run in order
    check: object                  # outputs of one pass -> list of problems


def _sphere(n, seed):
    return synthdata.generate(synthdata.DatasetSpec("sphere_surface", n=n, r=R, seed=seed))


# -- paper-table -------------------------------------------------------------

PAPER_P = 0.05
PAPER_CONFIG = solver.SolverConfig(change_tol=1e-5, change_tol_mode="absolute")
#: the recovery table's instances: (kind, n, cloud seed); the sample's seed
#: is 10 000 + cloud seed, as in scripts/run_recovery_table.py
PAPER_INSTANCES = [("sphere_surface", 1002, k) for k in range(4)] + [("swiss_roll", 2048, 0)]
QUICK_INSTANCES = [("sphere_surface", 150, 0), ("sphere_surface", 150, 1), ("swiss_roll", 200, 0)]
HELDOUT = 2000


def relabel(points, pairs, perm):
    """The same instance with point i renamed perm[i]."""
    moved = np.empty_like(points)
    moved[perm] = points
    a, b = perm[pairs.ii], perm[pairs.jj]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.argsort(lo * pairs.n + hi)
    return moved, sampling.PairSet(pairs.n, lo[order], hi[order])


def paper_table(seed, quick=False):
    """The recovery table's solves, each instance relabelled by the seed.

    Iteration counts differ by about 20% between random clouds, so drawing
    new clouds per seed would measure the draw, not the program: the seed
    draws a permutation of each instance's point labels instead.
    """
    reference, p = (PAPER_INSTANCES, PAPER_P) if not quick else (QUICK_INSTANCES, 0.3)
    rng = np.random.default_rng(seed)
    instances = []
    for kind, n, k in reference:
        points = synthdata.generate(synthdata.DatasetSpec(kind, n=n, r=R, seed=k))
        pairs = sampling.bernoulli_sample(n, p, 10_000 + k)
        points, pairs = relabel(points, pairs, rng.permutation(n))
        data = sampling.observe(geometry.gram_from_points(points), pairs, p=p)
        instances.append((f"{kind}{k}", points, solver.Problem(data, rank=R)))

    def op(problem):
        def run():
            x0 = solver.init_one_step(problem)
            result = solver.solve(problem, x0=x0, config=PAPER_CONFIG)
            if result.trace.status != "converged":
                raise OpFailed(f"solve ended with status {result.trace.status}")
            return result.gram
        return run

    heldout = {}

    def check(outputs):
        problems = []
        for (label, points, problem), gram in zip(instances, outputs):
            if gram is None:
                continue
            if label not in heldout:
                pairs = problem.data.pairs
                rng = np.random.default_rng([seed, len(heldout)])
                heldout[label] = checks.heldout_pairs(pairs.n, pairs.ii, pairs.jj,
                                                      HELDOUT, rng)
            problems += [f"{label}: {msg}" for msg in
                         checks.check_recovery(gram.U, gram.eigs, points, *heldout[label])]
        return problems

    return Plan([(label, op(problem)) for label, _, problem in instances], check)


# -- large-n -------------------------------------------------------------------

LARGE_RHO = 5.0


def large_n(seed, quick=False):
    """One noiseless ``run_trial`` on a sphere of a few thousand points."""
    n = 4000 if not quick else 300
    dataset = synthdata.DatasetSpec("sphere_surface", n=n, r=R)
    cell = experiments.GridCell(r=R, p=sampling.probability_for_ratio(n, R, LARGE_RHO),
                                rho=LARGE_RHO, gamma=None)
    trial_seed = seed * 1000
    config = solver.SolverConfig()

    def run():
        trial = experiments.run_trial(dataset, cell, trial_seed, config)
        if trial.status != "converged":
            raise OpFailed(f"trial ended with status {trial.status}")
        return trial

    def check(outputs):
        (trial,) = outputs
        return [] if trial is None else checks.check_trial(trial.rel_error)

    return Plan([(f"trial{trial_seed}", run)], check)


# -- diagnose ------------------------------------------------------------------

DIAG_P = 0.2
RIP_ITERS = 150           # a fixed budget: tol=0 runs every iteration
CHECK_N = 60              # size of the instance the RIP estimate is checked on
CHECK_RIP_ITERS = 100_000


def diagnose(seed, quick=False):
    """Incoherence with cross terms and a RIP estimate on a sphere cloud."""
    n, rip_iters = (1002, RIP_ITERS) if not quick else (120, 20)
    base = seed * 1000
    points = _sphere(n, base)
    gram = geometry.truncated_gram(geometry.gram_from_points(points), R)
    pairs = sampling.bernoulli_sample(n, DIAG_P, base + 1)

    def coherence():
        return diagnostics.incoherence(gram, cross_terms=True)

    def rip():
        return diagnostics.rip_estimate(gram, pairs, DIAG_P, seed=base + 2,
                                        max_iters=rip_iters, tol=0.0)

    refs = {}

    def check(outputs):
        report, estimate = outputs
        problems = []
        if not refs:
            refs["cross"] = checks.cross_term_reference(checks.whitened_rows(points))
            small = _sphere(CHECK_N, base + 3)
            small_gram = geometry.truncated_gram(geometry.gram_from_points(small), R)
            small_pairs = sampling.bernoulli_sample(CHECK_N, DIAG_P, base + 4)
            small_est = diagnostics.rip_estimate(small_gram, small_pairs, DIAG_P,
                                                 seed=base + 5, max_iters=CHECK_RIP_ITERS)
            ref = checks.rip_reference(checks.whitened_rows(small), small_pairs.ii,
                                       small_pairs.jj, DIAG_P)
            problems += [f"rip n={CHECK_N}: {msg}" for msg in checks.check_rip(small_est, ref)]
        if report is not None:
            problems += checks.check_incoherence(report, points, R, refs["cross"])
        if estimate is not None:
            # the timed estimate runs a fixed budget; every pass must repeat the first
            first = refs.setdefault("rip", estimate)
            if not (estimate.iterations == rip_iters and np.isfinite(estimate.epsilon)
                    and estimate.epsilon > 0
                    and checks.rel_diff(estimate.epsilon, first.epsilon) <= checks.REL_TOL):
                problems.append(f"rip estimate {estimate} is not a repeat of {first}")
        return problems

    return Plan([("incoherence", coherence), ("rip_estimate", rip)], check)


WORKLOADS = {
    "paper-table": paper_table,
    "large-n": large_n,
    "diagnose": diagnose,
}
