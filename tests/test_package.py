import json
import os
import subprocess
import sys
import types
from pathlib import Path

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
from edmc import (DatasetSpec, Problem, bernoulli_sample, generate, incoherence,
                  init_one_step, observe_points, rip_estimate, solve)
from edmc.geometry import factored_gram_from_points

LAZY = ("scipy.linalg", "scipy.sparse.linalg")


def loaded():
    return [name in sys.modules for name in LAZY]


def instance(n, p):
    points = generate(DatasetSpec("sphere_surface", n=n, r=3, seed=0))
    pairs = bernoulli_sample(n, p, 1)
    return points, pairs, observe_points(points, pairs, p=p)


steps = {"import": loaded()}
points, pairs, data = instance(300, 0.2)
truth = factored_gram_from_points(points)
incoherence(truth, cross_terms=True)
rip_estimate(truth, pairs, 0.2, seed=2, max_iters=5)
solve(Problem(data, rank=3), truth=truth)
steps["n=300"] = loaded()
init_one_step(Problem(instance(600, 0.1)[2], rank=3))
steps["n=600 init"] = loaded()
print(json.dumps(steps))
"""


def test_no_call_loads_arpack_or_lapack():
    # a fresh interpreter: this one has loaded whatever other tests imported
    src = str(Path(edmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    steps = json.loads(out.stdout)
    assert steps == {"import": [False, False], "n=300": [False, False],
                     "n=600 init": [False, False]}
