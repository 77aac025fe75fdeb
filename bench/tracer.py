"""Span tracer that instruments edmc's public functions from outside the package.

Each traced function is replaced, in every loaded ``edmc`` module that binds
it, by a wrapper recording one span per call: its name, start, end and the
span that was open when it started.  Spans are kept in memory and written out
by :meth:`Tracer.write` when the run ends.  A layer's self time is its span
durations minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time

#: the layers' public functions, named ``<module>.<function>``
TRACED = (
    "synthdata.generate",
    "sampling.bernoulli_sample",
    "sampling.observe",
    "geometry.gram_from_points",
    "geometry.truncated_gram",
    "geometry.gram_frobenius_error",
    "dualbasis.w_coeffs_factored",
    "dualbasis.rstar_r_coeffs",
    "dualbasis.m_omega_coeffs",
    "dualbasis.w_expand_matvec",
    "manifold.TangentVector.w_coeffs",
    "manifold.retract_structured",
    "solver.init_one_step",
    "solver.solve",
    "diagnostics.incoherence",
    "diagnostics.cross_term_max",
    "diagnostics.rip_estimate",
    "experiments.run_trial",
)


def _count_solve(counts, args, kwargs, result):
    m = (args[0] if args else kwargs["problem"]).data.m
    iterations = len(result.trace.records)
    counts["solve_calls"] += 1
    counts["solve_pairs"] += m
    counts["solve_iterations"] += iterations
    counts["solve_pair_iters"] += m * iterations


def _count_rip(counts, args, kwargs, result):
    m = len(args[1] if len(args) > 1 else kwargs["pairs"])
    counts["rip_calls"] += 1
    counts["rip_pairs"] += m
    counts["rip_iterations"] += result.iterations
    counts["rip_pair_iters"] += m * result.iterations


#: counters recorded at a layer boundary from the call's arguments and result
HOOKS = {"solver.solve": _count_solve, "diagnostics.rip_estimate": _count_rip}


class Tracer:
    """In-memory span recorder; install it with :meth:`installed`."""

    def __init__(self):
        self.names = list(TRACED)
        self.spans = []          # [parent, name index, start, end]; parent -1 is a root
        self.counts = dict.fromkeys(
            (f"{op}_{what}" for op in ("solve", "rip")
             for what in ("calls", "pairs", "iterations", "pair_iters")), 0)
        self._stack = [-1]

    def wrap(self, index, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(self.names[index])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [stack[-1], index, 0.0, 0.0]
            spans.append(span)
            stack.append(sid)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced function for its wrapper; restore on exit."""
        restore = []
        try:
            for index, dotted in enumerate(self.names):
                module_name, _, attr = dotted.partition(".")
                module = importlib.import_module(f"edmc.{module_name}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(index, original))
                    restore.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(index, original)
                for name, mod in list(sys.modules.items()):
                    if (name == "edmc" or name.startswith("edmc.")) \
                            and mod.__dict__.get(attr) is original:
                        setattr(mod, attr, wrapper)
                        restore.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def self_times(self, begin=0, end=None):
        """Per-name ``(self seconds, calls)`` over spans[begin:end].

        Spans of a phase are whole subtrees, since a phase starts and ends
        with no span open.
        """
        spans = self.spans[begin:end]
        child = [0.0] * len(spans)
        for parent, _, start, stop in spans:
            if parent >= 0:
                child[parent - begin] += stop - start
        self_s = dict.fromkeys(self.names, 0.0)
        calls = dict.fromkeys(self.names, 0)
        for k, (_, index, start, stop) in enumerate(spans):
            name = self.names[index]
            self_s[name] += stop - start - child[k]
            calls[name] += 1
        return self_s, calls

    def write(self, path, t0):
        """Dump the spans as JSON, times in seconds from ``t0``."""
        payload = {
            "fields": ["parent", "name", "start", "end"],
            "names": self.names,
            "spans": [[p, i, round(s - t0, 7), round(e - t0, 7)]
                      for p, i, s, e in self.spans],
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def span_cost(calls=20000, repeats=5):
    """Seconds one traced call adds over a plain call, median of repeats."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(0, noop)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
