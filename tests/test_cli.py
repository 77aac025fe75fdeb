import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edmc import geometry
from edmc.cli import _experiment_config_from_json, main
from edmc.diagnostics import incoherence
from edmc.geometry import gram_from_points, truncated_gram, write_points_csv
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
        assert payload["rel_gram_error"] <= 1e-4
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
        assert "_meta" in payload and "rel_gram_error" not in payload

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
        assert payload["rel_gram_error"] <= 1e-10

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
        for key in ("nu", "whitened_nu", "cross_term_max"):
            assert report[key] == pytest.approx(getattr(reference, key), rel=1e-12)

    def test_rank_above_dimension_names_both(self, cloud, tmp_path, capsys):
        _, path = cloud
        code = run_cli(["diagnose", "--points", str(path), "--r", "5",
                        "--out", str(tmp_path / "c.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert "5" in err["error"] and "dimension 4" in err["error"]


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


GRID_CONFIG = {
    "dataset": {"kind": "sphere_surface", "n": 40, "r": 3, "seed": 0},
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


class TestGridConfigKeys:
    @pytest.mark.parametrize("section,patch,key", [
        ("the top level", {"trails": 1}, "trails"),
        ("dataset", {"dataset": {**GRID_CONFIG["dataset"], "size": 40}}, "size"),
        ("solver", {"solver": {"tol": 1e-6}}, "tol"),
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
        assert payload["rel_gram_error"] <= 1e-5
