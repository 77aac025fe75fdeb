import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edmc import cli, geometry
from edmc.cli import _experiment_config_from_json, _solver_config, build_parser, main
from edmc.diagnostics import incoherence
from edmc.geometry import (center_points, gram_from_points, read_points_csv, truncated_gram,
                           write_points_csv)
from edmc.sampling import SampledDistances, bernoulli_sample, observe
from edmc.solver import SolverConfig
from edmc.synthdata import DatasetSpec, generate


def run_cli(args):
    """Invoke the entry point in-process, capturing the exit code."""
    try:
        code = main(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    return int(code or 0)


@pytest.fixture
def pipeline_dir(tmp_path):
    points = tmp_path / "points.csv"
    assert run_cli(["generate", "--kind", "sphere_surface", "--n", "60", "--r", "3",
                    "--seed", "4", "--out", str(points)]) == 0
    data = tmp_path / "dist.csv"
    assert run_cli(["sample", "--points", str(points), "--p", "0.6", "--seed", "5",
                    "--out", str(data)]) == 0
    return tmp_path


class TestPipeline:
    def test_generate_embeds_metadata(self, pipeline_dir):
        first = (pipeline_dir / "points.csv").read_text().splitlines()[0]
        assert first.startswith("# meta: ")
        meta = json.loads(first.removeprefix("# meta: "))
        assert meta["seed"] == 4 and meta["version"] and meta["config_hash"]

    def test_init_solve_diagnose(self, pipeline_dir):
        init = pipeline_dir / "init.json"
        assert run_cli(["init", "--data", str(pipeline_dir / "dist.csv"), "--r", "3",
                        "--out", str(init)]) == 0
        gram = json.loads(init.read_text())
        assert gram["n"] == 60 and gram["r"] == 3

        trace = pipeline_dir / "trace.jsonl"
        out_gram = pipeline_dir / "gram.json"
        out_points = pipeline_dir / "rec.csv"
        summary = pipeline_dir / "summary.json"
        assert run_cli([
            "solve", "--data", str(pipeline_dir / "dist.csv"), "--r", "3",
            "--init", str(init), "--truth", str(pipeline_dir / "points.csv"),
            "--out-trace", str(trace), "--out-gram", str(out_gram),
            "--out-points", str(out_points), "--summary", str(summary),
        ]) == 0
        payload = json.loads(summary.read_text())
        assert payload["status"] == "converged"
        assert payload["final_rel_truth_error"] <= 1e-4
        assert payload["procrustes_error"] >= 0.0
        assert trace.exists() and out_gram.exists() and out_points.exists()

        coh = pipeline_dir / "coherence.json"
        assert run_cli(["diagnose", "--points", str(pipeline_dir / "points.csv"),
                        "--r", "3", "--out", str(coh)]) == 0
        report = json.loads(coh.read_text())
        assert report["nu"] <= report["upper_bound"]

    def test_solve_reports_health_without_truth(self, pipeline_dir, capsys):
        summary = pipeline_dir / "summary.json"
        assert run_cli(["solve", "--data", str(pipeline_dir / "dist.csv"), "--r", "3",
                        "--summary", str(summary)]) == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        payload = json.loads(summary.read_text())
        assert printed == payload
        assert payload["status"] == "converged"
        assert 0.0 < payload["final_rel_residual"] < 1e-3
        assert payload["final_min_eig"] > 0.0
        assert "_meta" in payload and payload["final_rel_truth_error"] is None

    def test_truth_of_another_size_names_both_sizes(self, pipeline_dir, capsys):
        truth = pipeline_dir / "truth61.csv"
        write_points_csv(truth, generate(DatasetSpec("sphere_surface", n=61, r=3, seed=4)))
        code = run_cli(["solve", "--data", str(pipeline_dir / "dist.csv"), "--r", "3",
                        "--truth", str(truth)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert "n=61" in err["error"] and "n=60" in err["error"]

    @pytest.mark.parametrize("row", ["3,4", "3,4,abc"])
    def test_malformed_data_row_fails_with_json_error(self, pipeline_dir, capsys, row):
        data = pipeline_dir / "dist.csv"
        lines = data.read_text().splitlines()
        lines[2] = row
        data.write_text("\n".join(lines) + "\n")
        assert run_cli(["solve", "--data", str(data), "--r", "3"]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert f"{data}:3:" in err["error"]

    def test_sample_writes_the_dense_path_bytes(self, pipeline_dir):
        points = read_points_csv(pipeline_dir / "points.csv")
        points = points - points.mean(axis=0)
        ref = pipeline_dir / "ref.csv"
        observe(gram_from_points(points), bernoulli_sample(60, 0.6, 5), p=0.6, seed=5).save(ref)
        first, rows = (pipeline_dir / "dist.csv").read_bytes().split(b"\n", 1)
        ref_first, ref_rows = ref.read_bytes().split(b"\n", 1)
        assert rows == ref_rows
        # the meta line adds only the provenance block
        meta = json.loads(first.removeprefix(b"# meta: "))
        assert meta.pop("_meta")["seed"] == 5
        assert meta == json.loads(ref_first.removeprefix(b"# meta: "))

    def test_sample_writes_one_file(self, pipeline_dir):
        assert not (pipeline_dir / "dist.json").exists()

    def test_sample_meta_records_the_machine(self, pipeline_dir):
        first = (pipeline_dir / "dist.csv").read_text().splitlines()[0]
        meta = json.loads(first.removeprefix("# meta: "))["_meta"]
        assert meta["version"] and meta["config_hash"] and meta["nproc"] >= 1
        assert set(cli.THREAD_VARS) <= set(meta)
        data = SampledDistances.load(pipeline_dir / "dist.csv")
        assert data.n == 60 and data.p == 0.6 and data.seed == 5

    def test_init_out_beside_the_sample_leaves_it(self, pipeline_dir):
        data = pipeline_dir / "dist.csv"
        assert run_cli(["init", "--data", str(data), "--r", "3",
                        "--out", str(pipeline_dir / "dist.json")]) == 0
        back = SampledDistances.load(data)
        assert (back.n, back.p, back.seed) == (60, 0.6, 5)

    def test_meta_line_without_n_names_the_sample(self, pipeline_dir, capsys):
        data = pipeline_dir / "dist.csv"
        first, rest = data.read_text().split("\n", 1)
        payload = json.loads(first.removeprefix("# meta: "))
        del payload["n"]
        data.write_text(f"# meta: {json.dumps(payload)}\n{rest}")
        code = run_cli(["init", "--data", str(data), "--r", "3",
                        "--out", str(pipeline_dir / "init.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert err["error"].startswith(f"{data}: ") and "integer n" in err["error"]

    def test_generate_from_a_file_writes_the_centred_cloud(self, tmp_path):
        source = tmp_path / "cloud.csv"
        cloud = generate(DatasetSpec("unit_ball_uniform", n=30, r=3, seed=2)) + [1.0, -2.0, 0.5]
        write_points_csv(source, cloud)
        out = tmp_path / "out.csv"
        assert run_cli(["generate", "--kind", "file", "--points-file", str(source),
                        "--out", str(out)]) == 0
        assert out.read_text().startswith("# meta: ")
        expected = center_points(read_points_csv(source))
        assert np.array_equal(read_points_csv(out), expected)

    def test_meta_records_thread_variables_outside_the_hash(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        pinned = cli.output_meta({"n": 5}, 0)
        assert pinned["OPENBLAS_NUM_THREADS"] == "1" and pinned["MKL_NUM_THREADS"] == "2"
        assert pinned["OMP_NUM_THREADS"] is None
        assert pinned["nproc"] == os.cpu_count()
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        unpinned = cli.output_meta({"n": 5}, 0)
        assert unpinned["OPENBLAS_NUM_THREADS"] is None
        assert unpinned["config_hash"] == pinned["config_hash"]

    def test_init_of_another_size_names_both_sizes(self, pipeline_dir, capsys):
        d = pipeline_dir
        assert run_cli(["generate", "--kind", "sphere_surface", "--n", "80", "--r", "3",
                        "--seed", "4", "--out", str(d / "points80.csv")]) == 0
        assert run_cli(["sample", "--points", str(d / "points80.csv"), "--p", "0.6",
                        "--seed", "5", "--out", str(d / "dist80.csv")]) == 0
        assert run_cli(["init", "--data", str(d / "dist.csv"), "--r", "3",
                        "--out", str(d / "init60.json")]) == 0
        code = run_cli(["solve", "--data", str(d / "dist80.csv"), "--r", "3",
                        "--init", str(d / "init60.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert "n=60" in err["error"] and "n=80" in err["error"]

    def test_solve_full_sampling_trivial(self, tmp_path):
        points = tmp_path / "p.csv"
        run_cli(["generate", "--kind", "sphere_surface", "--n", "12", "--r", "2",
                 "--seed", "0", "--out", str(points)])
        data = tmp_path / "d.csv"
        run_cli(["sample", "--points", str(points), "--p", "1.0", "--seed", "0",
                 "--out", str(data)])
        summary = tmp_path / "s.json"
        assert run_cli(["solve", "--data", str(data), "--r", "2", "--truth",
                        str(points), "--summary", str(summary)]) == 0
        payload = json.loads(summary.read_text())
        assert payload["status"] == "converged"
        assert payload["final_rel_truth_error"] <= 1e-10

    def test_empty_observation_fails_with_json_error(self, tmp_path, capsys):
        points = tmp_path / "p.csv"
        run_cli(["generate", "--kind", "sphere_surface", "--n", "12", "--r", "2",
                 "--seed", "0", "--out", str(points)])
        data = tmp_path / "d.csv"
        run_cli(["sample", "--points", str(points), "--p", "0.0", "--seed", "0",
                 "--out", str(data)])
        code = run_cli(["solve", "--data", str(data), "--r", "2"])
        assert code != 0
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "error" in json.loads(err)

    def test_hashed_arguments_hold_no_callable(self, pipeline_dir, monkeypatch):
        # a handler's text holds its memory address, so hashing it would give
        # identical runs different config hashes
        payloads = []
        real_hash = cli._config_hash

        def capture(payload):
            payloads.append(payload)
            return real_hash(payload)

        monkeypatch.setattr(cli, "_config_hash", capture)
        d = pipeline_dir
        for args in (["generate", "--kind", "sphere_surface", "--n", "10", "--out",
                      str(d / "g.csv")],
                     ["init", "--data", str(d / "dist.csv"), "--r", "3",
                      "--out", str(d / "i.json")],
                     ["solve", "--data", str(d / "dist.csv"), "--r", "3"],
                     ["diagnose", "--gram", str(d / "i.json"), "--out", str(d / "c.json")]):
            assert run_cli(args) == 0
        assert [p["command"] for p in payloads] == ["generate", "init", "solve", "diagnose"]
        assert not any(callable(v) for p in payloads for v in p.values())

    def test_solve_defaults_are_the_solver_config_defaults(self):
        args = build_parser().parse_args(["solve", "--data", "d.csv", "--r", "3"])
        assert _solver_config(args) == SolverConfig()

    def test_solve_rejects_a_nan_tol(self, pipeline_dir, capsys):
        assert run_cli(["solve", "--data", str(pipeline_dir / "dist.csv"), "--r", "3",
                        "--tol", "nan"]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError" and "change_tol" in err["error"]

    def test_solve_has_no_gradient_op_flag(self, pipeline_dir, capsys):
        assert run_cli(["solve", "--data", str(pipeline_dir / "dist.csv"), "--r", "3",
                        "--gradient-op", "debiased"]) == 2
        assert "--gradient-op" in capsys.readouterr().err

    @pytest.mark.parametrize("rank", ["0", "-1"])
    def test_generate_rank_below_one_exits_2(self, rank, tmp_path, capsys):
        out = tmp_path / "points.csv"
        assert run_cli(["generate", "--kind", "sphere_surface", "--n", "5", "--r", rank,
                        "--out", str(out)]) == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError" and f"r must be at least 1, got {rank}" in err["error"]

    def test_console_script_installed(self):
        out = subprocess.run([sys.executable, "-m", "edmc.cli", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "generate" in out.stdout


class TestDiagnosePoints:
    @pytest.fixture
    def cloud(self, tmp_path):
        # a 4-d cloud, so --r 3 truncates
        points = generate(DatasetSpec("unit_ball_uniform", n=300, r=4, seed=12))
        path = tmp_path / "cloud.csv"
        write_points_csv(path, points)
        return points, path

    def test_thin_svd_matches_dense_truncation(self, cloud, tmp_path, monkeypatch):
        points, path = cloud
        reference = incoherence(truncated_gram(gram_from_points(points), 3))
        real_eigh = np.linalg.eigh

        def no_dense(*args, **kwargs):
            raise AssertionError("dense eigendecomposition in diagnose --points")

        monkeypatch.setattr(np.linalg, "eigh", no_dense)
        monkeypatch.setattr(geometry, "truncated_gram", no_dense)
        out = tmp_path / "coherence.json"
        assert run_cli(["diagnose", "--points", str(path), "--r", "3",
                        "--out", str(out)]) == 0
        monkeypatch.setattr(np.linalg, "eigh", real_eigh)
        report = json.loads(out.read_text())
        for key in ("nu", "cross_term_max"):
            assert report[key] == pytest.approx(getattr(reference, key), rel=1e-12)

    @pytest.mark.parametrize("sources", [[], ["--points", "p.csv", "--gram", "g.json"]])
    def test_needs_exactly_one_source(self, tmp_path, capsys, sources):
        out = tmp_path / "c.json"
        assert run_cli(["diagnose", *sources, "--out", str(out)]) == 2
        assert not out.exists()
        assert "--points" in capsys.readouterr().err

    def test_rank_defaults_to_three(self, cloud, tmp_path):
        _, path = cloud
        reports = []
        for rank in ([], ["--r", "3"]):
            out = tmp_path / f"c{len(reports)}.json"
            assert run_cli(["diagnose", "--points", str(path), *rank, "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            reports.append({k: v for k, v in report.items() if k != "_meta"})
        assert reports[0] == reports[1]

    def test_rank_above_dimension_names_both(self, cloud, tmp_path, capsys):
        _, path = cloud
        code = run_cli(["diagnose", "--points", str(path), "--r", "5",
                        "--out", str(tmp_path / "c.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert "5" in err["error"] and "dimension 4" in err["error"]

    @pytest.mark.parametrize("rank", ["0", "-1"])
    def test_rank_below_one_names_the_flag(self, rank, cloud, tmp_path, capsys):
        _, path = cloud
        out = tmp_path / "c.json"
        assert run_cli(["diagnose", "--points", str(path), "--r", rank,
                        "--out", str(out)]) == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert "--r" in err["error"] and rank in err["error"]


class TestDiagnoseGram:
    def _gram_file(self, path, U, eigs):
        path.write_text(json.dumps({"n": U.shape[0], "r": U.shape[1],
                                    "eigs": list(eigs), "U": U.tolist()}))
        return path

    def test_init_output_is_accepted(self, pipeline_dir):
        init = pipeline_dir / "init.json"
        assert run_cli(["init", "--data", str(pipeline_dir / "dist.csv"), "--r", "3",
                        "--out", str(init)]) == 0
        out = pipeline_dir / "coherence.json"
        assert run_cli(["diagnose", "--gram", str(init), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["nu"] > 0

    def test_rank_other_than_the_factors_names_both(self, pipeline_dir, capsys):
        init = pipeline_dir / "init.json"
        assert run_cli(["init", "--data", str(pipeline_dir / "dist.csv"), "--r", "3",
                        "--out", str(init)]) == 0
        out = pipeline_dir / "coherence.json"
        assert run_cli(["diagnose", "--gram", str(init), "--r", "3", "--out", str(out)]) == 0
        out.unlink()
        capsys.readouterr()
        code = run_cli(["diagnose", "--gram", str(init), "--r", "7", "--out", str(out)])
        assert code == 2 and not out.exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert "--r 7" in err["error"] and "rank 3" in err["error"]

    @pytest.mark.parametrize("defect,cause", [("scaled", "not orthonormal"),
                                              ("shifted", "not centered")])
    def test_invalid_factor_fails_with_its_cause(self, defect, cause, tmp_path, capsys):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((20, 2))
        U = np.linalg.qr(g - g.mean(axis=0))[0]
        if defect == "scaled":
            U = 2.0 * U
        else:  # orthonormal columns with a nonzero sum
            U = np.linalg.qr(g)[0]
        path = self._gram_file(tmp_path / f"{defect}.json", U, [2.0, 1.0])
        out = tmp_path / "c.json"
        code = run_cli(["diagnose", "--gram", str(path), "--out", str(out)])
        assert code == 2 and not out.exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert cause in err["error"] and str(path) in err["error"]

    def _init_payload(self, pipeline_dir):
        init = pipeline_dir / "init.json"
        assert run_cli(["init", "--data", str(pipeline_dir / "dist.csv"), "--r", "3",
                        "--out", str(init)]) == 0
        return json.loads(init.read_text())

    def _diagnose_error(self, path, capsys):
        out = path.with_name("c.json")
        capsys.readouterr()
        code = run_cli(["diagnose", "--gram", str(path), "--out", str(out)])
        assert code == 2 and not out.exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError" and str(path) in err["error"]
        return err["error"]

    @pytest.mark.parametrize("key", ["U", "eigs"])
    def test_missing_key_is_named(self, key, pipeline_dir, capsys):
        payload = self._init_payload(pipeline_dir)
        del payload[key]
        path = pipeline_dir / "partial.json"
        path.write_text(json.dumps(payload))
        assert repr(key) in self._diagnose_error(path, capsys)

    def test_top_level_list_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        assert "JSON object" in self._diagnose_error(path, capsys)

    def test_declared_shape_other_than_the_factors_names_both(self, pipeline_dir, capsys):
        payload = self._init_payload(pipeline_dir)
        payload.update(n=7, r=9)
        path = pipeline_dir / "edited.json"
        path.write_text(json.dumps(payload))
        error = self._diagnose_error(path, capsys)
        assert "n=7, r=9" in error and "60 x 3" in error

    def test_factor_without_n_and_r_loads(self, pipeline_dir):
        payload = self._init_payload(pipeline_dir)
        del payload["n"], payload["r"]
        path = pipeline_dir / "bare.json"
        path.write_text(json.dumps(payload))
        out = pipeline_dir / "c.json"
        assert run_cli(["diagnose", "--gram", str(path), "--out", str(out)]) == 0

    def test_solve_init_checks_the_factor_file(self, pipeline_dir, capsys):
        payload = self._init_payload(pipeline_dir)
        del payload["U"]
        path = pipeline_dir / "partial.json"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run_cli(["solve", "--data", str(pipeline_dir / "dist.csv"), "--r", "3",
                        "--init", str(path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert str(path) in err["error"] and "'U'" in err["error"]

    @pytest.mark.parametrize("command", ["diagnose", "solve"])
    def test_factor_the_type_rejects_names_its_file(self, command, pipeline_dir, capsys):
        payload = self._init_payload(pipeline_dir)
        payload["eigs"] = payload["eigs"][:2]
        path = pipeline_dir / "cut.json"
        path.write_text(json.dumps(payload))
        args = {"diagnose": ["diagnose", "--gram", str(path),
                             "--out", str(pipeline_dir / "c.json")],
                "solve": ["solve", "--data", str(pipeline_dir / "dist.csv"), "--r", "3",
                          "--init", str(path)]}[command]
        capsys.readouterr()
        assert run_cli(args) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert err["error"] == f"{path}: U must be (n, r) with one eigenvalue per column"


@pytest.mark.parametrize("command", ["diagnose", "init", "grid"])
def test_unparsable_json_names_the_file(command, pipeline_dir, capsys):
    # a factor file, a sample's meta line (its line 1) and a grid config
    bad = pipeline_dir / ("dist.csv" if command == "init" else "bad.json")
    if command == "init":
        bad.write_text("# meta: {bad\n" + bad.read_text().split("\n", 1)[1])
    else:
        bad.write_text("{bad")
    where = f"{bad}:1" if command == "init" else str(bad)
    out = str(pipeline_dir / "out")
    args = {"diagnose": ["diagnose", "--gram", str(bad), "--out", out],
            "init": ["init", "--data", str(pipeline_dir / "dist.csv"), "--r", "3",
                     "--out", out],
            "grid": ["grid", "--config", str(bad), "--out", out]}[command]
    capsys.readouterr()
    assert run_cli(args) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["type"] == "ValueError"
    assert err["error"].startswith(f"{where}: Expecting property name")


GRID_CONFIG = {
    "dataset": {"kind": "sphere_surface", "n": 40},
    "r_grid": [3],
    "rho_grid": [8.0],
    "trials": 3,
    "seed": 11,
}


class TestGrid:
    def _write_config(self, tmp_path, **overrides):
        cfg = {**GRID_CONFIG, **overrides}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_single_cell_full_success(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "grid.csv"
        assert run_cli(["grid", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# meta: ")
        rows = [line for line in lines[2:] if line]
        assert len(rows) == 1
        fields = dict(zip(lines[1].split(","), rows[0].split(",")))
        assert float(fields["success_fraction"]) == 1.0
        assert int(fields["trials"]) == 3

    def test_row_count_matches_cells(self, tmp_path):
        cfg = self._write_config(tmp_path, r_grid=[2, 3], rho_grid=[4.0, 8.0])
        out = tmp_path / "grid.csv"
        assert run_cli(["grid", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line for line in out.read_text().splitlines()[2:] if line]
        assert len(rows) == 4

    def test_bitwise_reproducible(self, tmp_path):
        cfg = self._write_config(tmp_path, r_grid=[2, 3], rho_grid=[4.0, 6.0])
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_cli(["grid", "--config", str(cfg), "--out", str(out1)])
        run_cli(["grid", "--config", str(cfg), "--out", str(out2)])
        a = [line for line in out1.read_text().splitlines() if "wall_time" not in line
             and not line.startswith("#")]
        b = [line for line in out2.read_text().splitlines() if "wall_time" not in line
             and not line.startswith("#")]
        def strip_time(lines):
            return ["," .join(v for k, v in zip(
                "r,rho,p,gamma,trials,successes,success_fraction,median_rel_error,median_iterations,wall_time_s".split(","),
                line.split(",")) if k != "wall_time_s") for line in lines]
        assert strip_time(a) == strip_time(b)

    def test_parallel_matches_serial(self, tmp_path):
        cfg_serial = self._write_config(tmp_path, r_grid=[2, 3], rho_grid=[5.0],
                                        workers=1)
        out1 = tmp_path / "serial.csv"
        run_cli(["grid", "--config", str(cfg_serial), "--out", str(out1)])
        out2 = tmp_path / "par.csv"
        run_cli(["grid", "--config", str(cfg_serial), "--workers", "2",
                 "--out", str(out2)])

        def rows_no_time(path):
            rows = []
            for line in path.read_text().splitlines():
                if line.startswith("#") or line.startswith("r,"):
                    continue
                rows.append(line.rsplit(",", 1)[0])  # drop wall_time_s
            return rows

        assert rows_no_time(out1) == rows_no_time(out2)

    def test_noise_cells_run(self, tmp_path):
        cfg = self._write_config(tmp_path, gamma_grid=[-2.0], trials=2)
        out = tmp_path / "noise.csv"
        assert run_cli(["grid", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line for line in out.read_text().splitlines()[2:] if line]
        assert len(rows) == 1
        assert rows[0].split(",")[3] == "-2.0"

    def test_seed_flag_overrides_the_config_seed(self, tmp_path):
        def run(name, cfg, *extra):
            out = tmp_path / f"{name}.csv"
            assert run_cli(["grid", "--config", str(cfg), "--out", str(out), *extra]) == 0
            meta_line, *lines = out.read_text().splitlines()
            meta = json.loads(meta_line.removeprefix("# meta: "))
            rows = list(csv.DictReader(lines))
            for row in rows:
                del row["wall_time_s"]
            return meta, rows

        small = {"dataset": {"kind": "sphere_surface", "n": 30}, "trials": 1}
        flag_meta, flag_rows = run("flag", self._write_config(tmp_path, **small), "--seed", "7")
        cfg = tmp_path / "seeded.json"
        cfg.write_text(json.dumps({**GRID_CONFIG, **small, "seed": 7}))
        config_meta, config_rows = run("config", cfg)
        assert flag_meta["seed"] == config_meta["seed"] == 7
        assert flag_rows == config_rows


class TestGridConfigKeys:
    @staticmethod
    def _grid_error(tmp_path, capsys, cfg, *extra):
        path, out = tmp_path / "grid.json", tmp_path / "grid.csv"
        path.write_text(json.dumps(cfg))
        assert run_cli(["grid", "--config", str(path), "--out", str(out), *extra]) == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        return err["error"]

    @pytest.mark.parametrize("key", ["seed", "r"])
    def test_dataset_seed_and_r_rejected(self, tmp_path, capsys, key):
        # trials draw with their own seed in the cell's rank: these are never read
        cfg = {**GRID_CONFIG, "dataset": {**GRID_CONFIG["dataset"], key: 3}}
        error = self._grid_error(tmp_path, capsys, cfg)
        assert repr(key) in error and "in dataset of" in error

    @pytest.mark.parametrize("patch,key", [
        ({"rho_grid": [float("nan")]}, "rho_grid"),
        ({"rho_grid": [float("inf")]}, "rho_grid"),
        ({"rho_grid": [-1.0]}, "rho_grid"),
        ({"rho_grid": [], "p_grid": [float("nan")]}, "p_grid"),
        ({"rho_grid": [], "p_grid": [0.0]}, "p_grid"),
        ({"gamma_grid": [float("nan")]}, "gamma_grid"),
        ({"gamma_grid": [400]}, "gamma_grid"),
        ({"r_grid": [0]}, "r_grid"),
    ])
    def test_bad_grid_value_exits_2(self, tmp_path, capsys, patch, key):
        assert key in self._grid_error(tmp_path, capsys, {**GRID_CONFIG, **patch})

    def test_workers_below_one_exits_2(self, tmp_path, capsys):
        assert "workers" in self._grid_error(tmp_path, capsys, GRID_CONFIG, "--workers", "0")

    @pytest.mark.parametrize("section,patch,key", [
        ("the top level", {"trails": 1}, "trails"),
        ("dataset", {"dataset": {**GRID_CONFIG["dataset"], "size": 40}}, "size"),
        ("solver", {"solver": {"tol": 1e-6}}, "tol"),
        ("solver", {"solver": {"gradient_op": "debiased"}}, "gradient_op"),
    ])
    def test_unknown_key_names_key_and_section(self, tmp_path, capsys, section, patch, key):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({**GRID_CONFIG, **patch}))
        out = tmp_path / "grid.csv"
        assert run_cli(["grid", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert repr(key) in err["error"] and f"in {section} of" in err["error"]

    def test_missing_required_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({k: v for k, v in GRID_CONFIG.items() if k != "r_grid"}))
        assert run_cli(["grid", "--config", str(cfg), "--out", str(tmp_path / "g.csv")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "'r_grid'" in err["error"]

    @pytest.mark.parametrize("patch,expected", [
        ({"trials": "3"}, "the top level of the grid config: trials must be an integer"),
        ({"trials": 1.5}, "the top level of the grid config: trials must be an integer"),
        ({"seed": True}, "the top level of the grid config: seed must be an integer"),
        ({"r_grid": [3.0]},
         "the top level of the grid config: r_grid must be a tuple of integers"),
        ({"rho_grid": 8.0},
         "the top level of the grid config: rho_grid must be a tuple of numbers"),
        ({"gamma_grid": [None, "-3"]},
         "the top level of the grid config: gamma_grid must be a tuple of numbers or Nones"),
        ({"dataset": "sphere_surface"}, "dataset of the grid config must be a JSON object"),
        ({"dataset": {**GRID_CONFIG["dataset"], "n": "40"}},
         "dataset of the grid config: n must be an integer"),
        ({"dataset": {**GRID_CONFIG["dataset"], "kind": 3}},
         "dataset of the grid config: kind must be a string"),
        ({"dataset": {**GRID_CONFIG["dataset"], "path": 3}},
         "dataset of the grid config: path must be a string or None"),
        ({"solver": None}, "solver of the grid config must be a JSON object"),
        ({"solver": {"max_iters": 100.0}},
         "solver of the grid config: max_iters must be an integer"),
        ({"solver": {"change_tol": None}},
         "solver of the grid config: change_tol must be a number"),
        ({"solver": {"change_tol_mode": ["relative"]}},
         "solver of the grid config: change_tol_mode must be a string"),
    ])
    def test_wrong_type_names_key_section_and_type(self, tmp_path, capsys, patch, expected):
        assert expected in self._grid_error(tmp_path, capsys, {**GRID_CONFIG, **patch})

    def test_integers_pass_as_floats_and_nulls_as_gammas(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({
            **GRID_CONFIG, "rho_grid": [8], "gamma_grid": [None, -3],
            "solver": {"change_tol": 1, "change_tol_mode": "absolute"}}))
        config, _ = _experiment_config_from_json(cfg, {})
        assert config.rho_grid == (8,) and config.gamma_grid == (None, -3)
        assert config.solver.change_tol == 1

    def test_non_finite_tolerance_rejected(self, tmp_path, capsys):
        # json parses NaN, which passes the number check
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({**GRID_CONFIG, "solver": {"change_tol": float("nan")}}))
        assert "NaN" in cfg.read_text()
        out = tmp_path / "grid.csv"
        assert run_cli(["grid", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError" and "change_tol" in err["error"]


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

#: the defaults of the experiment scripts these configs replace:
#: (cells, trials, success threshold)
CONFIG_DEFAULTS = {
    "recovery_sphere.json": (6, 5, 1e-3),
    "recovery_swiss_roll.json": (6, 5, 1e-3),
    "transition.json": (81, 20, 1e-3),
    "noise.json": (25, 100, 1e-2),
}


class TestShippedConfigs:
    @pytest.mark.parametrize("name", sorted(set(CONFIG_DEFAULTS)
                                            | {p.name for p in CONFIG_DIR.glob("*.json")}))
    def test_config_loads(self, name):
        config, _ = _experiment_config_from_json(CONFIG_DIR / name, {})
        assert config.cells()
        if name in CONFIG_DEFAULTS:
            assert (len(config.cells()), config.trials, config.threshold()) == \
                CONFIG_DEFAULTS[name]
            assert (config.seed, config.workers) == (0, 1)

    def test_recovery_configs_use_the_paper_solver(self):
        for name, kind, n in [("recovery_sphere.json", "sphere_surface", 1002),
                              ("recovery_swiss_roll.json", "swiss_roll", 2048)]:
            config, _ = _experiment_config_from_json(CONFIG_DIR / name, {})
            assert (config.dataset.kind, config.dataset.n) == (kind, n)
            assert (config.solver.change_tol, config.solver.change_tol_mode) == \
                (1e-5, "absolute")
            assert [c.p for c in config.cells()] == [0.10, 0.07, 0.05, 0.03, 0.02, 0.01]


class TestGridFailureHandling:
    def test_degenerate_trials_recorded_not_raised(self):
        # p so small that some trials see an empty sample: the cell records
        # failed trials instead of aborting
        from edmc.experiments import GridCell, run_cell
        from edmc.solver import SolverConfig
        from edmc.synthdata import DatasetSpec

        cell = GridCell(r=2, p=1e-4, rho=0.0)
        res = run_cell(DatasetSpec("sphere_surface", n=12, r=2, seed=0), cell,
                       base_seed=0, trials=5, solver_config=SolverConfig())
        assert len(res.trials) == 5
        assert res.success_fraction(1e-3) == 0.0
        assert all(t.rel_error == float("inf") or t.rel_error > 1e-3
                   for t in res.trials)


@pytest.mark.slow
class TestPaperScalePipeline:
    def test_full_pipeline_sphere_summary(self, tmp_path):
        points = tmp_path / "points.csv"
        run_cli(["generate", "--kind", "sphere_surface", "--n", "1002", "--r", "3",
                 "--seed", "0", "--out", str(points)])
        data = tmp_path / "dist.csv"
        run_cli(["sample", "--points", str(points), "--p", "0.05", "--seed", "1",
                 "--out", str(data)])
        summary = tmp_path / "summary.json"
        assert run_cli(["solve", "--data", str(data), "--r", "3",
                        "--truth", str(points), "--tol-mode", "absolute",
                        "--summary", str(summary)]) == 0
        payload = json.loads(summary.read_text())
        assert payload["status"] == "converged"
        assert payload["final_rel_truth_error"] <= 1e-5
