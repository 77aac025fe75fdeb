"""Command-line front end.

Pipelines compose as ``generate -> sample -> init -> solve -> diagnose``;
``grid`` runs seeded experiment grids to a plot-ready CSV.  Every output
embeds ``{config hash, seed, version}``; errors exit nonzero with a
machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import incoherence
from .experiments import (ExperimentConfig, GRID_CSV_COLUMNS, grid_rows, run_grid)
from .geometry import (FactoredGram, factored_gram_from_points, gram_from_points,
                       procrustes_error, read_points_csv, write_points_csv)
from .sampling import SampledDistances, bernoulli_sample, observe
from .solver import (Problem, SolverConfig, init_one_step, recover_points, solve)
from .synthdata import DatasetSpec, generate


def _config_hash(payload):
    canon = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def output_meta(payload, seed):
    """Provenance block ``{config_hash, seed, version}`` embedded in outputs."""
    return {"config_hash": _config_hash(payload), "seed": seed, "version": __version__}


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1))


def _fail(code, message, **extra):
    err = {"error": message, **extra}
    print(json.dumps(err, sort_keys=True), file=sys.stderr)
    raise SystemExit(code)


def _save_gram_json(path, gram: FactoredGram, meta):
    payload = {
        "_meta": meta,
        "n": gram.n,
        "r": gram.r,
        "eigs": gram.eigs.tolist(),
        "U": gram.U.tolist(),
    }
    _write_json(path, payload)


def _load_gram_json(path):
    payload = json.loads(Path(path).read_text())
    return FactoredGram(np.asarray(payload["U"]), np.asarray(payload["eigs"]))


def cmd_generate(args):
    spec = DatasetSpec(kind=args.kind, n=args.n, r=args.r, seed=args.seed,
                       path=args.points_file)
    points = generate(spec)
    meta = output_meta(vars(args), args.seed)
    write_points_csv(args.out, points, meta=meta)
    return 0


def cmd_sample(args):
    points = read_points_csv(args.points)
    points = points - points.mean(axis=0)
    truth = gram_from_points(points)
    pairs = bernoulli_sample(points.shape[0], args.p, args.seed)
    data = observe(truth, pairs, p=args.p, seed=args.seed)
    data.save(args.out)
    return 0


def _load_problem(args):
    data = SampledDistances.load(args.data)
    return Problem(data, rank=args.r, p=getattr(args, "p", None))


def cmd_init(args):
    problem = _load_problem(args)
    gram = init_one_step(problem)
    _save_gram_json(args.out, gram, output_meta(vars(args), problem.data.seed))
    return 0


def cmd_solve(args):
    problem = _load_problem(args)
    truth = None
    truth_points = None
    if args.truth:
        truth_points = read_points_csv(args.truth)
        truth_points = truth_points - truth_points.mean(axis=0)
        truth = factored_gram_from_points(truth_points)
    config = SolverConfig(max_iters=args.max_iters, change_tol=args.tol,
                          change_tol_mode=args.tol_mode,
                          gradient_op=args.gradient_op, truth=truth)
    x0 = _load_gram_json(args.init) if args.init else None
    result = solve(problem, x0=x0, config=config)
    meta = output_meta({k: v for k, v in vars(args).items() if k != "func"},
                 problem.data.seed)
    if args.out_trace:
        result.trace.save_jsonl(args.out_trace)
    if args.out_gram:
        _save_gram_json(args.out_gram, result.gram, meta)
    points = recover_points(result.gram)
    if args.out_points:
        write_points_csv(args.out_points, points, meta=meta)
    summary = {
        "_meta": meta,
        "status": result.trace.status,
        "iterations": len(result.trace.records),
        "final_rel_change": result.trace.records[-1].rel_change,
    }
    if truth is not None:
        summary["rel_gram_error"] = result.trace.records[-1].rel_truth_error
        summary["procrustes_error"] = procrustes_error(truth_points, points)
    if args.summary:
        _write_json(args.summary, summary)
    print(json.dumps(summary, sort_keys=True))
    if result.trace.status not in ("converged", "max_iters"):
        _fail(3, f"solver ended with status {result.trace.status}",
              status=result.trace.status)
    return 0


def cmd_diagnose(args):
    if args.gram:
        gram = _load_gram_json(args.gram)
        try:
            gram.validate()
        except ValueError as exc:
            raise ValueError(f"--gram {args.gram}: {exc}") from exc
    else:
        points = read_points_csv(args.points)
        cloud = factored_gram_from_points(points - points.mean(axis=0))
        if args.r > cloud.r:
            raise ValueError(f"--r {args.r} exceeds the point cloud's dimension {cloud.r}")
        # the thin SVD orders the columns by singular value: the top-r factor
        gram = FactoredGram(cloud.U[:, :args.r], cloud.eigs[:args.r])
    report = incoherence(gram, cross_terms=not args.no_cross_terms)
    payload = json.loads(report.to_json())
    payload["_meta"] = output_meta({k: v for k, v in vars(args).items() if k != "func"}, None)
    _write_json(args.out, payload)
    print(report.to_json())
    return 0


def _experiment_config_from_json(path, overrides):
    raw = json.loads(Path(path).read_text())
    raw.update({k: v for k, v in overrides.items() if v is not None})
    dataset = DatasetSpec(**raw["dataset"])
    solver = SolverConfig(**raw.get("solver", {}))
    return ExperimentConfig(
        dataset=dataset,
        r_grid=tuple(raw["r_grid"]),
        rho_grid=tuple(raw.get("rho_grid", ())),
        p_grid=tuple(raw.get("p_grid", ())),
        gamma_grid=tuple(raw.get("gamma_grid", [None])),
        trials=raw.get("trials", 20),
        seed=raw.get("seed", 0),
        success_threshold=raw.get("success_threshold"),
        solver=solver,
        workers=raw.get("workers", 1),
    ), raw


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
    p.add_argument("--kind", required=True,
                   choices=["sphere_surface", "swiss_roll", "unit_ball_uniform", "file"])
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
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--tol-mode", default="relative", choices=["relative", "absolute"])
    p.add_argument("--gradient-op", default="normal", choices=["normal", "debiased"])
    p.add_argument("--out-trace", default=None)
    p.add_argument("--out-gram", default=None)
    p.add_argument("--out-points", default=None)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("diagnose", help="incoherence report for points or a gram")
    p.add_argument("--points", default=None)
    p.add_argument("--gram", default=None)
    p.add_argument("--r", type=int, default=3)
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
