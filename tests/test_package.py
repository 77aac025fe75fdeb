import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import edmc


def test_star_import_binds_no_module():
    namespace = {}
    exec("from edmc import *", namespace)
    namespace.pop("__builtins__")
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]
    assert sorted(namespace) == sorted(edmc.__all__)


def test_all_names_are_public_and_unique():
    assert len(set(edmc.__all__)) == len(edmc.__all__)
    assert all(not name.startswith("_") and hasattr(edmc, name) for name in edmc.__all__)


FOOTPRINT_SCRIPT = """
import json, sys
import edmc, edmc.cli
from edmc import (DatasetSpec, ExperimentConfig, Problem, bernoulli_sample, generate,
                  incoherence, init_one_step, observe_points, rip_estimate, run_grid, solve)
from edmc.geometry import factored_gram_from_points

LAZY = ("scipy.linalg", "scipy.sparse.linalg", "edmc.oracles")
# loaded on the first sparse construction and by a process pool only
DEFERRED = ("scipy", "scipy.sparse", "concurrent.futures.process")


def loaded(names=LAZY):
    return [name in sys.modules for name in names]


def instance(n, p):
    points = generate(DatasetSpec("sphere_surface", n=n, r=3, seed=0))
    pairs = bernoulli_sample(n, p, 1)
    return points, pairs, observe_points(points, pairs, p=p)


steps, deferred = {"import": loaded()}, {"import": loaded(DEFERRED)}
points, pairs, data = instance(300, 0.2)
truth = factored_gram_from_points(points)
incoherence(truth, cross_terms=True)
deferred["sample, observe, incoherence"] = loaded(DEFERRED)
solve(Problem(data, rank=3), truth=truth)
deferred["solve"] = loaded(DEFERRED)
rip_estimate(truth, pairs, 0.2, seed=2, max_iters=5)
steps["n=300"] = loaded()
init_one_step(Problem(instance(600, 0.1)[2], rank=3))
steps["n=600 init"] = loaded()
run_grid(ExperimentConfig(dataset=DatasetSpec("sphere_surface", n=30), r_grid=(2,),
                          rho_grid=(5.0,), trials=1, workers=1))
deferred["workers=1 grid"] = loaded(DEFERRED)
print(json.dumps({"lazy": steps, "deferred": deferred}))
"""


@pytest.fixture(scope="module")
def footprint():
    # a fresh interpreter: this one has loaded whatever other tests imported
    src = str(Path(edmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_no_call_loads_arpack_or_lapack(footprint):
    assert footprint["lazy"] == {"import": [False] * 3, "n=300": [False] * 3,
                                 "n=600 init": [False] * 3}


def test_only_sparse_work_loads_scipy(footprint):
    assert footprint["deferred"] == {"import": [False] * 3,
                                     "sample, observe, incoherence": [False] * 3,
                                     "solve": [True, True, False],
                                     "workers=1 grid": [True, True, False]}
