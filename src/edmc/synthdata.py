"""Reproducible synthetic ground-truth point clouds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import center_points, check_fields, is_int, read_points_csv
from .sampling import rng_from_seed

KINDS = ("sphere_surface", "swiss_roll", "unit_ball_uniform", "file")

#: the swiss roll's angle runs over ``SWISS_TURNS * pi * [1, 3)`` and its
#: height over ``[0, SWISS_HEIGHT)``
SWISS_TURNS = 1.5
SWISS_HEIGHT = 21.0


@dataclass(frozen=True)
class DatasetSpec:
    """What to generate: kind, size, ambient dimension, seed.

    ``swiss_roll`` is intrinsically 3-d (it needs ``r=3``); ``file`` reads
    a point-cloud CSV from ``path``.

    In an experiment grid a generator spec is a template: every trial
    draws with its own seed in the cell's rank (see
    :func:`edmc.experiments.run_trial`), and a grid config omits both.
    """

    kind: str
    n: int = 0
    r: int = 3
    seed: int = 0
    path: str | None = None

    def __post_init__(self):
        check_fields(self, lambda v: isinstance(v, str), "a string", "kind")
        check_fields(self, is_int, "an integer", "n", "r", "seed")
        check_fields(self, lambda v: v is None or isinstance(v, str), "a string or None",
                     "path")
        if self.kind not in KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}; choose from {KINDS}")
        if self.r < 1:
            raise ValueError(f"r must be at least 1, got {self.r}")
        if self.kind != "file":
            if self.n < self.r + 1:
                raise ValueError("need at least r + 1 points")
        elif not self.path:
            raise ValueError("file datasets need a path")


def generate(spec: DatasetSpec):
    """Centered point cloud for a dataset spec; deterministic per seed."""
    if spec.kind == "file":
        return center_points(read_points_csv(spec.path))
    rng = rng_from_seed(spec.seed)
    if spec.kind == "sphere_surface":
        g = rng.standard_normal((spec.n, spec.r))
        points = g / np.linalg.norm(g, axis=1, keepdims=True)
    elif spec.kind == "unit_ball_uniform":
        g = rng.standard_normal((spec.n, spec.r))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = rng.random(spec.n) ** (1.0 / spec.r)
        points = g * radii[:, None]
    elif spec.kind == "swiss_roll":
        if spec.r != 3:
            raise ValueError("swiss_roll is three dimensional; set r=3")
        t = SWISS_TURNS * np.pi * (1.0 + 2.0 * rng.random(spec.n))
        height = SWISS_HEIGHT * rng.random(spec.n)
        points = np.column_stack([t * np.cos(t), height, t * np.sin(t)])
    else:  # pragma: no cover
        raise AssertionError(spec.kind)
    return center_points(points)
