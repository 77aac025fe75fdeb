#!/usr/bin/env python3
"""Run one benchmark workload against the edmc sources of this checkout.

    python3 bench/run.py --workload paper-table --seed 1 --seconds 20 --trace 0

Imports edmc from ``src/`` next to this directory, builds the workload's
inputs from the seed (set-up), then runs whole passes over its operations,
one at a time, for about ``--seconds`` (the timed phase), and checks every
output afterwards.  Set-up is sampled several times over the run.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones.  With ``--trace 1`` the passes alternate between traced
ones, in which every layer's public functions are wrapped in spans, and
untraced ones; the per-layer metrics of the traced passes are printed
instead, the spans are written under ``bench/results/``, and the raw results
file there gives the traced less the untraced median operation time.
"""

import os

# one BLAS thread (at most nproc): the steadiest setting on a shared small box
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
#: set-up samples per run; setup_s is their median
SETUP_SAMPLES = 5
#: the functions whose set-up self time the traced run reports
SETUP_LAYERS = ("synthdata.generate", "sampling.bernoulli_sample", "sampling.observe",
                "geometry.gram_from_points", "geometry.truncated_gram")
#: the iteration kernels whose self time is the base of dualbasis.pair_iters_per_s
KERNELS = ("dualbasis.w_coeffs_factored", "dualbasis.rstar_r_coeffs",
           "dualbasis.m_omega_coeffs", "dualbasis.w_expand_matvec")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced problem sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
          "import edmc; print(time.perf_counter() - t0)")


def load_edmc():
    """Import edmc from this checkout's sources, or exit without a result."""
    if not (SRC / "edmc" / "__init__.py").is_file():
        raise SystemExit(f"error: no edmc sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import edmc
    if Path(edmc.__file__).resolve().parent != SRC / "edmc":
        raise SystemExit(f"error: imported edmc from {edmc.__file__}, not {SRC}")


def import_seconds():
    """Time to import edmc in a fresh interpreter, since a process imports once."""
    return float(subprocess.run([sys.executable, "-c", IMPORT, str(SRC)], check=True,
                                capture_output=True, text=True).stdout)


@dataclass
class Pass:
    seconds: float
    op_times: list
    outputs: list


def timed_phase(plan, seconds, pass_context, after_pass):
    """Whole passes over the plan's operations for about ``seconds``.

    A pass starts only if, at the length of the last one, the passes would
    end within ``seconds``; the first pass always runs.  ``pass_context(k)``
    wraps pass k; ``after_pass(busy)`` runs between passes, outside their
    timing, with ``busy`` the seconds of passes so far.
    """
    passes, failures = [], []
    clock = time.perf_counter
    busy = 0.0
    while True:
        op_times, outputs = [], []
        with pass_context(len(passes)):
            pass_start = clock()
            for label, run in plan.ops:
                t0 = clock()
                try:
                    out = run()
                except Exception as exc:  # a failed operation is counted, not fatal
                    out = None
                    failures.append(f"{label}: {type(exc).__name__}: {exc}")
                op_times.append(clock() - t0)
                outputs.append(out)
            length = clock() - pass_start
        busy += length
        passes.append(Pass(length, op_times, outputs))
        if busy + length > seconds:
            return passes, failures
        after_pass(busy)


def layer_metrics(tracer, mark, ops, timed_s, span_cost_s):
    """Per-layer metrics of the timed phase (spans from ``mark`` on), per operation."""
    metrics = {}
    self_s, calls = tracer.self_times(mark)
    for name in tracer.names:
        metrics[f"{name}_s"] = (self_s[name] / ops, "s")
        metrics[f"{name}_calls"] = (calls[name] / ops, "count")
    setup_self, _ = tracer.self_times(0, mark)
    for name in SETUP_LAYERS:
        metrics[f"setup.{name}_s"] = (setup_self[name] / SETUP_SAMPLES, "s")
    c = tracer.counts
    solves, rips = c["solve_calls"], c["rip_calls"]
    metrics["sampling.pairs"] = ((c["solve_pairs"] + c["rip_pairs"]) / max(solves + rips, 1),
                                 "count")
    metrics["solver.iterations"] = (c["solve_iterations"] / max(solves, 1), "count")
    metrics["diagnostics.rip_iterations"] = (c["rip_iterations"] / max(rips, 1), "count")
    # time in the solve loop: solve spans less the init a solve runs itself
    names, spans = tracer.names, tracer.spans
    loop_s = 0.0
    for parent, index, start, end in spans[mark:]:
        if names[index] == "solver.solve":
            loop_s += end - start
        elif names[index] == "solver.init_one_step" and parent >= 0 \
                and names[spans[parent][1]] == "solver.solve":
            loop_s -= end - start
    metrics["solver.iter_ms"] = (1e3 * loop_s / max(c["solve_iterations"], 1), "ms")
    # every solve or RIP iteration sweeps the instance's m pairs through the kernels
    pair_iters = c["solve_pair_iters"] + c["rip_pair_iters"]
    kernel_s = sum(self_s[k] for k in KERNELS)
    metrics["dualbasis.pair_iters_per_s"] = (pair_iters / kernel_s if kernel_s else 0.0, "1/s")
    spans_per_op = (len(tracer.spans) - mark) / ops
    metrics["trace.overhead_s"] = (span_cost_s * spans_per_op, "s")
    metrics["trace.unattributed_s"] = ((timed_s - sum(self_s.values())) / ops, "s")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    load_edmc()
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    setup_samples = []         # [import seconds, build seconds]

    def set_up():
        import_s = import_seconds()
        t0 = time.perf_counter()
        plan = build(args.seed, quick=args.quick)
        setup_samples.append([import_s, time.perf_counter() - t0])
        return plan

    tracer = tracing.Tracer() if args.trace else None
    t_origin = time.perf_counter()
    if tracer:
        # every set-up sample up front and traced, for the setup.* metrics;
        # passes alternate traced and untraced, for the measured overhead
        with tracer.installed():
            for _ in range(SETUP_SAMPLES):
                plan = None        # drop the previous inputs before building again
                plan = set_up()
        mark = len(tracer.spans)   # first span of the timed phase
        passes, failures = timed_phase(
            plan, args.seconds,
            lambda k: tracer.installed() if k % 2 == 0 else contextlib.nullcontext(),
            lambda busy: None)
    else:
        # set-up samples spread over the run, so they meet the same swings of
        # the machine's speed as the operations; the first builds the inputs
        plan = set_up()

        def sample_between(busy):
            if busy >= len(setup_samples) * args.seconds / SETUP_SAMPLES:
                set_up()

        passes, failures = timed_phase(plan, args.seconds, lambda k: contextlib.nullcontext(),
                                       sample_between)
        while len(setup_samples) < SETUP_SAMPLES:
            set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    for one in passes:
        problems += plan.check(one.outputs)
    op_times = [t for one in passes for t in one.op_times]
    raw = {}
    if tracer:
        traced, untraced = passes[0::2], passes[1::2]
        traced_times = [t for one in traced for t in one.op_times]
        metrics = layer_metrics(tracer, mark, len(traced_times),
                                sum(one.seconds for one in traced), tracing.span_cost())
        untraced_times = [t for one in untraced for t in one.op_times]
        raw["measured_overhead_s"] = (statistics.median(traced_times)
                                      - statistics.median(untraced_times)
                                      if untraced_times else None)
    else:
        metrics = {
            "setup_s": (statistics.median(sum(s) for s in setup_samples), "s"),
            "op_s": (statistics.median(op_times), "s"),
            "wall_s": (statistics.fmean(one.seconds for one in passes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": len(op_times),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = dict(result, **raw, pass_seconds=[one.seconds for one in passes],
               op_times=[one.op_times for one in passes], setup_samples=setup_samples,
               problems=problems, failures=failures, blas_threads=BLAS_THREADS,
               quick=args.quick)
    stem.with_suffix(".json").write_text(json.dumps(raw, indent=1))
    if tracer:
        tracer.write(stem.with_name(stem.name + "-spans.json"), t_origin)
    for line in problems + failures:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
