"""Tests of the benchmark itself: quick runs of every workload, the output
contract, the tracer, and that each correctness check rejects a wrong result.

    python3 -m pytest -q bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from edmc import diagnostics, geometry, sampling, solver, synthdata  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    per_pass = len(workloads.WORKLOADS[workload](3, quick=True).ops)
    assert result["attempted"] >= per_pass and result["attempted"] % per_pass == 0
    assert result["failed"] == 0, proc.stderr
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        # the layers' self times cover the timed phase up to the tracing cost
        assert 0.0 <= values["trace.unattributed_s"] <= values["trace.overhead_s"]
        raw = json.loads((HERE / "results" / f"{workload}-seed3-trace1.json").read_text())
        assert "measured_overhead_s" in raw
    else:
        assert all(v > 0 for v in values.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("paper-table", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_inputs_follow_the_seed():
    def labels(seed):
        return [label for label, _ in workloads.large_n(seed, quick=True).ops]

    assert labels(4) == labels(4) and labels(4) != labels(5)
    pts = synthdata.generate(synthdata.DatasetSpec("sphere_surface", n=30, seed=0))
    ps = sampling.bernoulli_sample(30, 0.5, 0)
    perm = np.random.default_rng(0).permutation(30)
    moved, moved_pairs = workloads.relabel(pts, ps, perm)
    before = sampling.observe(geometry.gram_from_points(pts), ps).values
    after = sampling.observe(geometry.gram_from_points(moved), moved_pairs).values
    assert np.allclose(np.sort(before), np.sort(after), rtol=0, atol=1e-12)


def test_tracer_nests_spans_and_restores_functions():
    original = solver.solve
    pts = synthdata.generate(synthdata.DatasetSpec("sphere_surface", n=40, seed=1))
    data = sampling.observe(geometry.gram_from_points(pts),
                            sampling.bernoulli_sample(40, 0.6, 1), p=0.6)
    tr = tracing.Tracer()
    with tr.installed():
        assert solver.solve is not original
        result = solver.solve(solver.Problem(data, rank=3))
    assert solver.solve is original
    names = [tr.names[i] for _, i, _, _ in tr.spans]
    roots = [s for s in tr.spans if s[0] == -1]
    assert [tr.names[s[1]] for s in roots] == ["solver.solve"]
    assert names.count("manifold.retract_structured") == len(result.trace.records)
    self_s, _ = tr.self_times()
    assert sum(self_s.values()) == pytest.approx(roots[0][3] - roots[0][2], rel=1e-9)
    assert tr.counts["solve_iterations"] == len(result.trace.records)


def test_recovery_check_rejects_a_perturbed_factor():
    pts = synthdata.generate(synthdata.DatasetSpec("sphere_surface", n=50, seed=2))
    exact = geometry.truncated_gram(geometry.gram_from_points(pts), 3)
    ii, jj = np.triu_indices(50, k=1)
    assert checks.check_recovery(exact.U, exact.eigs, pts, ii, jj) == []
    assert checks.check_recovery(exact.U, exact.eigs * (1 + 1e-4), pts, ii, jj)
    bent = exact.U.copy()
    bent[0] += 1e-3
    assert checks.check_recovery(bent, exact.eigs, pts, ii, jj)


def test_trial_check_rejects_a_trial_above_the_threshold():
    assert checks.check_trial(1e-8) == []
    assert checks.check_trial(2e-3)
    assert checks.check_trial(float("nan"))


def test_incoherence_check_rejects_a_wrong_nu_or_cross_term():
    pts = synthdata.generate(synthdata.DatasetSpec("sphere_surface", n=40, seed=3))
    report = diagnostics.incoherence(geometry.truncated_gram(geometry.gram_from_points(pts), 3))
    cross = checks.cross_term_reference(checks.whitened_rows(pts))
    assert checks.check_incoherence(report, pts, 3, cross) == []
    assert checks.check_incoherence(dataclasses.replace(report, nu=report.nu * 1.001),
                                    pts, 3, cross)
    assert checks.check_incoherence(dataclasses.replace(report, nu=0.5), pts, 3)
    wrong = dataclasses.replace(report, cross_term_max=report.cross_term_max * 0.99)
    assert checks.check_incoherence(wrong, pts, 3, cross)
    huge = dataclasses.replace(report, cross_term_max=10.0)
    assert checks.check_incoherence(huge, pts, 3, 10.0)


def test_rip_check_rejects_a_wrong_estimate():
    pts = synthdata.generate(synthdata.DatasetSpec("sphere_surface", n=20, seed=4))
    gram = geometry.truncated_gram(geometry.gram_from_points(pts), 3)
    pairs = sampling.bernoulli_sample(20, 0.3, 4)
    est = diagnostics.rip_estimate(gram, pairs, 0.3, max_iters=100_000)
    ref = checks.rip_reference(checks.whitened_rows(pts), pairs.ii, pairs.jj, 0.3)
    assert checks.check_rip(est, ref) == []
    assert checks.check_rip(dataclasses.replace(est, epsilon=est.epsilon * 1.001), ref)
    assert checks.check_rip(dataclasses.replace(est, converged=False), ref)
