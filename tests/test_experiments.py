import dataclasses
import tracemalloc

import numpy as np
import pytest

from edmc import experiments, geometry, sampling
from edmc.experiments import (GRID_CSV_COLUMNS, TRIAL_STATUSES, ExperimentConfig, GridCell,
                              grid_rows, run_cell, run_grid, run_trial)
from edmc.geometry import gram_from_points, write_points_csv
from edmc.sampling import probability_for_ratio
from edmc.solver import SolverConfig
from edmc.synthdata import DatasetSpec, generate

RHO = 5.0


def _cell(n, r, gamma=None):
    return GridCell(r=r, p=probability_for_ratio(n, r, RHO), rho=RHO, gamma=gamma)


def _file_dataset(tmp_path, n, d, seed):
    points = generate(DatasetSpec("unit_ball_uniform", n=n, r=d, seed=seed))
    path = tmp_path / "cloud.csv"
    write_points_csv(path, points)
    return DatasetSpec("file", n=n, r=d, path=str(path))


class TestFactoredTruth:
    @pytest.mark.parametrize("case", ["noiseless", "gamma-3", "file_d4_r3"])
    def test_matches_dense_truth_reference(self, case, tmp_path, monkeypatch):
        if case == "file_d4_r3":
            dataset, cell = _file_dataset(tmp_path, 60, 4, seed=8), _cell(60, 3)
        else:
            dataset = DatasetSpec("sphere_surface", n=80, r=3)
            cell = _cell(80, 3, gamma=-3.0 if case == "gamma-3" else None)
        # capture the clean points and the solve's result along the trial
        seen = {}
        real_factor, real_solve = experiments.factored_gram_from_points, experiments.solve

        def factor(points):
            seen["points"] = points
            return real_factor(points)

        def solve(*args, **kwargs):
            seen["result"] = real_solve(*args, **kwargs)
            return seen["result"]

        monkeypatch.setattr(experiments, "factored_gram_from_points", factor)
        monkeypatch.setattr(experiments, "solve", solve)
        fast = run_trial(dataset, cell, 4, SolverConfig(max_iters=300))
        assert fast.status != "degenerate"
        # the reference is the dense truth P P^T; the factored truth matches
        # it to about 1e-15 relative, which bounds how far the error can
        # move; past that, 1e-12 relative
        dense = gram_from_points(seen["points"])
        reference = (np.linalg.norm(seen["result"].gram.matrix() - dense)
                     / np.linalg.norm(dense))
        assert fast.rel_error == pytest.approx(reference, rel=1e-12, abs=1e-14)

    def test_no_dense_eigendecomposition(self, monkeypatch):
        n = 500      # above the init's dense cutoff
        real_eigh = np.linalg.eigh

        def small_eigh(a, *args, **kwargs):
            if np.shape(a)[0] >= n:
                raise AssertionError(f"eigh of a {np.shape(a)} matrix")
            return real_eigh(a, *args, **kwargs)

        def no_truncation(*args, **kwargs):
            raise AssertionError("truncated_gram called")

        monkeypatch.setattr(np.linalg, "eigh", small_eigh)
        monkeypatch.setattr(geometry, "truncated_gram", no_truncation)
        trial = run_trial(DatasetSpec("sphere_surface", n=n, r=3), _cell(n, 3), 2,
                          SolverConfig())
        assert trial.status == "converged" and trial.error == ""
        assert trial.rel_error < 1e-3

    def test_no_square_array(self, monkeypatch):
        # n=3000, not smaller: observe_points holds a fixed row block of
        # BLOCK_ELEMS floats, so the trial peaks near 4.7 MB at n=1002 and passes
        # n^2 * 8 / 4 bytes below about n=1500; at n=3000 it peaks near 5.9 MB
        n = 3000

        def no_dense_gram(*args, **kwargs):
            raise AssertionError("gram_from_points called")

        for module in (geometry, experiments, sampling):
            monkeypatch.setattr(module, "gram_from_points", no_dense_gram, raising=False)
        tracemalloc.start()
        try:
            trial = run_trial(DatasetSpec("sphere_surface", n=n, r=3), _cell(n, 3), 2,
                              SolverConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trial.status == "converged" and trial.error == ""
        assert trial.rel_error < 1e-3
        assert peak < n * n * 8 / 4


class TestTrialFailures:
    @pytest.mark.parametrize("exc", [ValueError("bad input"),
                                     np.linalg.LinAlgError("no convergence"),
                                     RuntimeError("stuck")])
    def test_failed_trial_recorded_in_cell(self, exc, monkeypatch):
        real_solve = experiments.solve

        def solve_failing_once(problem, config=None, truth=None):
            if problem.data.seed == 3:
                raise exc
            return real_solve(problem, config=config, truth=truth)

        monkeypatch.setattr(experiments, "solve", solve_failing_once)
        res = run_cell(DatasetSpec("sphere_surface", n=40, r=2), _cell(40, 2),
                       base_seed=0, trials=5, solver_config=SolverConfig())
        assert [t.seed for t in res.trials] == [0, 1, 2, 3, 4]
        bad = res.trials[3]
        assert bad.status == "degenerate" and bad.rel_error == float("inf")
        assert bad.error == f"{type(exc).__name__}: {exc}"
        assert all(t.status != "degenerate" and t.error == ""
                   for t in res.trials if t.seed != 3)
        (row,) = grid_rows([res], threshold=1e-3)
        assert {s: row[s] for s in TRIAL_STATUSES} == {
            "converged": 4, "max_iters": 0, "diverged": 0, "degenerate": 1}
        assert [s for s in GRID_CSV_COLUMNS if s in TRIAL_STATUSES] == list(TRIAL_STATUSES)

    def test_generator_that_rejects_the_cell_is_recorded(self):
        res = run_cell(DatasetSpec("swiss_roll", n=30, r=3), GridCell(r=2, p=0.8, rho=1.0),
                       0, 2, SolverConfig())
        assert [t.status for t in res.trials] == ["degenerate"] * 2
        assert all(t.error.startswith("ValueError: swiss_roll") for t in res.trials)

    def test_swiss_roll_grid_needs_rank_3(self):
        with pytest.raises(ValueError, match="rank 2"):
            ExperimentConfig(dataset=DatasetSpec("swiss_roll", n=30, r=3),
                             r_grid=(3, 2), rho_grid=(RHO,))
        ExperimentConfig(dataset=DatasetSpec("swiss_roll", n=30, r=3),
                         r_grid=(3,), rho_grid=(RHO,))


class TestFileDatasets:
    def test_grid_runs_on_the_file(self, tmp_path):
        dataset = _file_dataset(tmp_path, 30, 2, seed=3)
        config = ExperimentConfig(dataset=dataset, r_grid=(2,), rho_grid=(RHO,), trials=3)
        (res,) = run_grid(config)
        assert [t.status for t in res.trials] == ["converged"] * 3
        assert res.success_fraction(config.threshold()) == 1.0

    def test_row_count_must_match_n(self, tmp_path):
        dataset = _file_dataset(tmp_path, 30, 2, seed=3)
        wrong = DatasetSpec("file", n=40, r=2, path=dataset.path)
        with pytest.raises(ValueError, match=r"30 points.*n=40"):
            run_trial(wrong, _cell(40, 2), 0, SolverConfig())

    def test_grid_needs_n(self, tmp_path):
        dataset = _file_dataset(tmp_path, 30, 2, seed=3)
        with pytest.raises(ValueError, match="needs n"):
            ExperimentConfig(dataset=DatasetSpec("file", path=dataset.path),
                             r_grid=(2,), rho_grid=(RHO,))


#: one wrong-typed value for every field of the three config classes
WRONG_TYPES = [
    (DatasetSpec, "kind", 3), (DatasetSpec, "n", "30"), (DatasetSpec, "r", 3.0),
    (DatasetSpec, "seed", True), (DatasetSpec, "path", 3),
    (SolverConfig, "max_iters", 10.0), (SolverConfig, "change_tol", "1e-5"),
    (SolverConfig, "change_tol", True), (SolverConfig, "change_tol_mode", None),
    (ExperimentConfig, "dataset", {"kind": "sphere_surface", "n": 30}),
    (ExperimentConfig, "r_grid", [2]), (ExperimentConfig, "rho_grid", ("a",)),
    (ExperimentConfig, "rho_grid", 5.0), (ExperimentConfig, "p_grid", (0.5, "1")),
    (ExperimentConfig, "gamma_grid", ("-3",)), (ExperimentConfig, "trials", 2.5),
    (ExperimentConfig, "seed", "0"), (ExperimentConfig, "solver", None),
    (ExperimentConfig, "workers", True),
]

#: valid arguments that each case in WRONG_TYPES overrides one of
VALID_ARGS = {
    DatasetSpec: {"kind": "sphere_surface", "n": 30},
    SolverConfig: {},
    ExperimentConfig: {"dataset": DatasetSpec("sphere_surface", n=30), "r_grid": (2,),
                       "rho_grid": (RHO,)},
}


class TestFieldTypes:
    @pytest.mark.parametrize("cls,field,value", WRONG_TYPES)
    def test_wrong_type_names_the_field(self, cls, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            cls(**{**VALID_ARGS[cls], field: value})

    def test_every_field_has_a_case(self):
        fields = {(cls, f.name) for cls in VALID_ARGS for f in dataclasses.fields(cls)}
        assert {(cls, field) for cls, field, _ in WRONG_TYPES} == fields


class TestConfigValues:
    """Grid values are checked when the config is built, not per trial."""

    @pytest.mark.parametrize("key,values", [
        ("rho_grid", (float("nan"),)), ("rho_grid", (float("inf"),)),
        ("rho_grid", (0.0,)), ("rho_grid", (5.0, -1.0)),
        ("p_grid", (float("nan"),)), ("p_grid", (0.0,)), ("p_grid", (1.5,)),
        ("gamma_grid", (float("nan"),)), ("gamma_grid", (None, float("inf"))),
        ("gamma_grid", (-float("inf"),)), ("gamma_grid", (309.0,)),
    ])
    def test_bad_grid_value_names_its_key(self, key, values):
        grids = {"rho_grid": (RHO,), key: values}
        if key == "p_grid":
            del grids["rho_grid"]
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(dataset=DatasetSpec("sphere_surface", n=30), r_grid=(2,),
                             **grids)

    def test_edge_values_pass(self):
        ExperimentConfig(dataset=DatasetSpec("sphere_surface", n=30), r_grid=(2,),
                         p_grid=(1.0, 1e-300), gamma_grid=(None, 308.0, -400.0))

    @pytest.mark.parametrize("field,value", [
        ("trials", 2.5), ("workers", 1.5), ("seed", 1.5), ("seed", "3"), ("trials", True),
        ("r_grid", (2, 2.5)), ("r_grid", (True,)), ("r_grid", (0,)), ("r_grid", (2, -1)),
    ])
    def test_non_integer_field_names_it(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{"dataset": DatasetSpec("sphere_surface", n=30),
                                "r_grid": (2,), "rho_grid": (RHO,), field: value})

    @pytest.mark.parametrize("field,value", [
        ("n", 30.5), ("r", 3.0), ("seed", "1"), ("n", False),
    ])
    def test_non_integer_dataset_field_names_it(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DatasetSpec("sphere_surface", **{"n": 30, field: value})

    @pytest.mark.parametrize("kind", ["sphere_surface", "file"])
    @pytest.mark.parametrize("r", [0, -1])
    def test_dataset_rank_below_one_names_it(self, kind, r):
        with pytest.raises(ValueError, match=f"r must be at least 1, got {r}"):
            DatasetSpec(kind, n=5, r=r, path="points.csv")

    @pytest.mark.parametrize("value", [2.5, 10.0, "10", True])
    def test_non_integer_max_iters_names_it(self, value):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverConfig(max_iters=value)

    def test_numpy_integers_pass(self):
        i = np.int64
        spec = DatasetSpec("sphere_surface", n=i(30), r=i(2), seed=i(1))
        ExperimentConfig(dataset=spec, r_grid=(i(2), 3), rho_grid=(RHO,), trials=i(2),
                         seed=i(0), workers=i(1), solver=SolverConfig(max_iters=i(5)))

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            ExperimentConfig(dataset=DatasetSpec("sphere_surface", n=30), r_grid=(2,),
                             rho_grid=(RHO,), workers=workers)
