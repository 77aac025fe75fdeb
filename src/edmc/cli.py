"""Command-line front end.

Pipelines compose as ``generate -> sample -> init -> solve -> diagnose``;
``grid`` runs seeded experiment grids to a plot-ready CSV.  Every output
embeds ``{config hash, seed, version}`` and the machine it ran under (see
:func:`output_meta`); errors exit nonzero with a machine-readable JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import incoherence
from .experiments import (ExperimentConfig, GRID_CSV_COLUMNS, grid_rows, run_grid)
from .geometry import (FactoredGram, center_points, factored_gram_from_points,
                       procrustes_error, read_json, read_points_csv, write_points_csv)
from .sampling import SampledDistances, bernoulli_sample, observe_points
from .solver import (CHANGE_TOL_MODES, Problem, SolverConfig, init_one_step,
                     recover_points, solve)
from .synthdata import KINDS, DatasetSpec, generate


def _config_hash(payload):
    canon = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


#: environment variables that set the BLAS thread count, which past about
#: n=1500 changes how a trace rounds
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def output_meta(payload, seed):
    """Provenance block ``{config_hash, seed, version}`` embedded in outputs,
    with ``nproc`` and the :data:`THREAD_VARS` (null when unset), which the
    hash leaves out.  The hash also leaves out callables (a handler's text
    holds a memory address)."""
    payload = {k: v for k, v in payload.items() if not callable(v)}
    return {"config_hash": _config_hash(payload), "seed": seed, "version": __version__,
            "nproc": os.cpu_count(), **{var: os.environ.get(var) for var in THREAD_VARS}}


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1))


def _fail(code, message, **extra):
    err = {"error": message, **extra}
    print(json.dumps(err, sort_keys=True), file=sys.stderr)
    raise SystemExit(code)


def _save_gram_json(path, gram: FactoredGram, meta):
    _write_json(path, {"_meta": meta, "n": gram.n, "r": gram.r,
                       "eigs": gram.eigs.tolist(), "U": gram.U.tolist()})


def _load_gram_json(path):
    """The factor in a file of :func:`_save_gram_json`, checked against its n and r."""
    payload = read_json(path)
    for key in ("U", "eigs"):
        if not isinstance(payload, dict) or key not in payload:
            raise ValueError(f"{path}: a factor file is a JSON object with U and eigs; "
                             f"this one has no {key!r}")
    try:
        gram = FactoredGram(np.asarray(payload["U"]), np.asarray(payload["eigs"]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    shape = (payload.get("n", gram.n), payload.get("r", gram.r))
    if shape != (gram.n, gram.r):
        raise ValueError(f"{path}: the file gives n={shape[0]}, r={shape[1]} "
                         f"but U is {gram.n} x {gram.r}")
    return gram


def cmd_generate(args):
    spec = DatasetSpec(kind=args.kind, n=args.n, r=args.r, seed=args.seed,
                       path=args.points_file)
    points = generate(spec)
    write_points_csv(args.out, points, meta=output_meta(vars(args), args.seed))
    return 0


def cmd_sample(args):
    points = center_points(read_points_csv(args.points))
    pairs = bernoulli_sample(points.shape[0], args.p, args.seed)
    data = observe_points(points, pairs, p=args.p, seed=args.seed)
    data.save(args.out, meta=output_meta(vars(args), args.seed))
    return 0


def cmd_init(args):
    problem = Problem(SampledDistances.load(args.data), rank=args.r)
    gram = init_one_step(problem)
    _save_gram_json(args.out, gram, output_meta(vars(args), problem.data.seed))
    return 0


def cmd_solve(args):
    problem = Problem(SampledDistances.load(args.data), rank=args.r)
    truth = truth_points = None
    if args.truth:
        truth_points = center_points(read_points_csv(args.truth))
        truth = factored_gram_from_points(truth_points)
    x0 = _load_gram_json(args.init) if args.init else None
    result = solve(problem, x0=x0, config=_solver_config(args), truth=truth)
    meta = output_meta(vars(args), problem.data.seed)
    if args.out_trace:
        result.trace.save_jsonl(args.out_trace)
    if args.out_gram:
        _save_gram_json(args.out_gram, result.gram, meta)
    points = recover_points(result.gram)
    if args.out_points:
        write_points_csv(args.out_points, points, meta=meta)
    summary = {"_meta": meta, **result.trace.summary()}
    if truth is not None:
        summary["procrustes_error"] = procrustes_error(truth_points, points)
    if args.summary:
        _write_json(args.summary, summary)
    print(json.dumps(summary, sort_keys=True))
    if result.trace.status not in ("converged", "max_iters"):
        _fail(3, f"solver ended with status {result.trace.status}",
              status=result.trace.status)
    return 0


def _solver_config(args):
    return SolverConfig(max_iters=args.max_iters, change_tol=args.tol,
                        change_tol_mode=args.tol_mode)


def cmd_diagnose(args):
    if args.r is not None and args.r < 1:
        raise ValueError(f"--r must be at least 1, got {args.r}")
    if args.gram:
        gram = _load_gram_json(args.gram)
        try:
            gram.validate()
        except ValueError as exc:
            raise ValueError(f"--gram {args.gram}: {exc}") from exc
        if args.r is not None and args.r != gram.r:
            raise ValueError(f"--r {args.r} differs from the rank {gram.r} "
                             f"of the factor in --gram {args.gram}")
    else:
        r = 3 if args.r is None else args.r
        cloud = factored_gram_from_points(center_points(read_points_csv(args.points)))
        if r > cloud.r:
            raise ValueError(f"--r {r} exceeds the point cloud's dimension {cloud.r}")
        # the thin SVD orders the columns by singular value: the top-r factor
        gram = FactoredGram(cloud.U[:, :r], cloud.eigs[:r])
    report = incoherence(gram, cross_terms=not args.no_cross_terms)
    payload = json.loads(report.to_json())
    payload["_meta"] = output_meta(vars(args), None)
    _write_json(args.out, payload)
    print(report.to_json())
    return 0


def _config_section(cls, raw, section):
    """``raw`` checked key by key against the fields of ``cls``: every key
    must name a field and every field without a default must be given.
    JSON lists become tuples; ``cls`` checks the values."""
    if not isinstance(raw, dict):
        raise ValueError(f"{section} of the grid config must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in raw:
        if key not in fields:
            raise ValueError(f"unknown key {key!r} in {section} of the grid config; "
                             f"expected one of {sorted(fields)}")
    for name, f in fields.items():
        if (name not in raw and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            raise ValueError(f"{section} of the grid config needs {name!r}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}


def _build(cls, values, section):
    """``cls(**values)``, its ``ValueError`` prefixed with the config section."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{section} of the grid config: {exc}") from exc


def _experiment_config_from_json(path, overrides):
    """An :class:`ExperimentConfig` from a JSON file whose top level, ``dataset``
    and ``solver`` objects name the fields of :class:`ExperimentConfig`,
    :class:`DatasetSpec` and :class:`SolverConfig`; any other key is a
    ``ValueError``.  Non-null ``overrides`` replace top-level keys."""
    raw = read_json(path)
    if isinstance(raw, dict):
        raw.update({k: v for k, v in overrides.items() if v is not None})
    top = _config_section(ExperimentConfig, raw, "the top level")
    dataset = _config_section(DatasetSpec, top["dataset"], "dataset")
    for key in ("seed", "r"):
        if key in dataset:
            raise ValueError(f"{key!r} in dataset of the grid config is never read: each "
                             f"trial draws its cloud with its own seed in the cell's rank")
    top["dataset"] = _build(DatasetSpec, dataset, "dataset")
    if "solver" in top:
        top["solver"] = _build(SolverConfig, _config_section(SolverConfig, top["solver"],
                                                             "solver"), "solver")
    return _build(ExperimentConfig, top, "the top level"), raw


def write_grid_csv(path, rows, meta):
    with open(path, "w", newline="") as fh:
        fh.write("# meta: " + json.dumps(meta, sort_keys=True) + "\n")
        writer = csv.DictWriter(fh, fieldnames=GRID_CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def cmd_grid(args):
    overrides = {"trials": args.trials, "seed": args.seed, "workers": args.workers}
    config, raw = _experiment_config_from_json(args.config, overrides)
    results = run_grid(config)
    rows = grid_rows(results, config.threshold())
    write_grid_csv(args.out, rows, output_meta(raw, config.seed))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="edmc",
        description="Euclidean distance matrix completion from partial distances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic point cloud CSV")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points-file", default=None, help="source CSV for kind=file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sample", help="Bernoulli-sample pairwise distances")
    p.add_argument("--points", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV path; JSON sidecar sits next to it")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("init", help="one-step hard-thresholding initialization")
    p.add_argument("--data", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("solve", help="run the manifold descent")
    p.add_argument("--data", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--init", default=None, help="factored-gram JSON starting point")
    p.add_argument("--truth", default=None, help="ground-truth points CSV for diagnostics")
    defaults = SolverConfig()
    p.add_argument("--max-iters", type=int, default=defaults.max_iters)
    p.add_argument("--tol", type=float, default=defaults.change_tol)
    p.add_argument("--tol-mode", default=defaults.change_tol_mode, choices=CHANGE_TOL_MODES)
    p.add_argument("--out-trace", default=None)
    p.add_argument("--out-gram", default=None)
    p.add_argument("--out-points", default=None)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("diagnose", help="incoherence report for points or a gram")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--points", help="point cloud CSV")
    source.add_argument("--gram", help="factored-gram JSON")
    p.add_argument("--r", type=int, default=None,
                   help="rank: 3 by default with --points; with --gram, the factor's")
    p.add_argument("--no-cross-terms", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("grid", help="run an experiment grid to CSV")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError, RuntimeError) as exc:
        _fail(2, str(exc), type=type(exc).__name__)


if __name__ == "__main__":
    sys.exit(main())
