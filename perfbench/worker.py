"""One workload in one fresh process; started by run.py, not by hand.

    worker.py --mode setup|run --workload W --seed N --seconds S --trace 0|1
              --root CHECKOUT --work DIR

`setup` imports and generates the inputs, prints `ready` and exits; run.py
times it from outside.  `run` does the same set-up, then measures, and
prints one JSON object with the raw figures as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

import kernels
import workloads
from tracer import Tracer

# (span, fields) reported by a traced run; `fields` name Stat attributes
# or the extra counters the tracer keeps for that span.
SPANS = (
    ("linalg.Matrix.kernel", ("calls", "self_s", "cells")),
    ("linalg.Subspace.from_vectors", ("calls", "self_s")),
    ("linalg.solve_linear", ("self_s",)),
    ("hopf.check_axioms", ("calls", "self_s")),
    ("hopf.compute_haar", ("calls", "self_s")),
    ("hopf.dual", ("calls", "self_s")),
    ("hopf.sub_hopf_algebra", ("calls", "self_s")),
    ("splitting.split_center", ("calls", "self_s")),
    ("splitting.exact_eigen_split", ("calls", "self_s")),
    ("splitting.find_primitive_idempotent", ("calls", "self_s")),
    ("splitting.exact_poly_roots", ("calls", "self_s")),
    ("corep.peter_weyl", ("calls", "self_s", "cache_hits")),
    ("corep.Corepresentation.verify", ("calls", "self_s")),
    ("corep.fusion", ("calls", "self_s")),
    ("corep.conjugate", ("calls",)),
    ("subgroup.make_subgroup", ("calls", "self_s")),
    ("subgroup.check_hopf_ideal", ("calls", "self_s")),
    ("subgroup.normality_report", ("calls", "self_s")),
    ("subgroup.coset_algebras", ("calls", "self_s", "cache_hits")),
    ("structure.enumerate_hopf_subalgebras", ("calls", "self_s", "masks")),
    ("structure.enumerate_quantum_subgroups", ("calls", "self_s")),
    ("structure.property_inheritance_suite", ("self_s",)),
    ("structure.pullback_check", ("self_s",)),
    ("serialize.load_algebra", ("calls", "self_s")),
    ("serialize.save_algebra", ("calls", "self_s")),
    ("serialize.algebra_from_dict", ("calls", "self_s")),
    ("constructions.function_algebra", ("self_s",)),
    ("constructions.tensor_product", ("self_s",)),
    ("constructions.crossed_product", ("self_s",)),
    ("cli.cli_dispatch", ("calls", "self_s")),
)
KERNELS = ("cyclotomic.muladd_s", "cyclotomic.inverse_s", "linalg.rref_s")
MIN_PASSES = 2
PROBE_STEPS = 300
PROBE_EVERY_S = 0.05
SHORT_S = 0.05
REPEATS = 3
UNITS = {"calls": "count", "cells": "count", "masks": "count", "cache_hits": "count", "self_s": "s"}


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(k, "s", "lower") for k in KERNELS]
    for span, fields in SPANS:
        for f in fields:
            out.append(("%s.%s" % (span, f), UNITS[f], "higher" if f == "cache_hits" else "lower"))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    out.append(("trace.coverage_frac", "ratio", "higher"))
    return out


def probe():
    """Seconds for a fixed loop of Fraction arithmetic, the program's staple."""
    t0 = time.perf_counter()
    x, y, acc = Fraction(1, 3), Fraction(2, 7), Fraction(0)
    for _ in range(PROBE_STEPS):
        acc = acc + x * y
        x = x + 1
    return time.perf_counter() - t0


class Sampler:
    """Times `probe()` every PROBE_EVERY_S of wall time, from a SIGALRM handler.

    `spent` is the wall time the handler has taken, which the caller
    subtracts from anything it times while the sampler runs.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def _timed(op, ctx, sampler):
    """(seconds, failure or None, raised) of one call, checked against its known answer."""
    spent = sampler.spent if sampler else 0.0
    t0 = time.perf_counter()
    try:
        out = op.run(ctx)
    except Exception as exc:  # an unexpected error is a wrong verdict
        out, err = None, "raised %s: %s" % (type(exc).__name__, exc)
    else:
        err = None
    dt = time.perf_counter() - t0 - ((sampler.spent - spent) if sampler else 0.0)
    if err is not None:
        return dt, err, True
    return dt, op.check(out), False


def run_pass(chains, sampler=None, repeat=True):
    """Run every chain once; per-op seconds (None if skipped), failures, calls made.

    A chain of one operation that takes under SHORT_S is run REPEATS times,
    each from fresh inputs, and counts with its median time; traced passes
    pass `repeat=False` so that their call counts do not depend on timing.
    Time the `sampler` spends probing is taken out of every call's time.
    """
    times, failures, calls = [], [], 0
    for chain in chains:
        broken = None
        ctx = {}
        gc.collect()
        for op in chain:
            if broken is not None:
                times.append(None)
                failures.append((op.name, "skipped after " + broken))
                continue
            samples = []
            for rep in range(REPEATS if repeat and len(chain) == 1 else 1):
                if rep:
                    if samples[0] >= SHORT_S:
                        break
                    ctx = {}
                    gc.collect()
                dt, err, raised = _timed(op, ctx, sampler)
                calls += 1
                samples.append(dt)
                if err is not None:
                    failures.append((op.name, err))
                    if raised:
                        broken = op.name + " " + err
                        break
            times.append(statistics.median(samples))
    return times, failures, calls


def measure(chains, seconds, sampler):
    """MIN_PASSES whole passes, then more while the next is expected to end within `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(chains, sampler))
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and (now - start) + (now - t0) > seconds:
            return passes


def op_times(passes):
    """Each operation's median over passes."""
    n = len(passes[0][0])
    out = []
    for i in range(n):
        vals = [p[0][i] for p in passes if p[0][i] is not None]
        out.append(statistics.median(vals) if vals else 0.0)
    return out


def harrell_davis(values, q):
    """The Harrell-Davis estimate of quantile q: a Beta-weighted mean of the
    order statistics, steadier than the one value at rank q when each value
    carries its own measurement noise."""
    from mpmath import betainc

    n = len(values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [float(betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(sorted(values)))


def end_to_end(chains, seconds):
    """Times at the machine's quiet speed, and the raw figures they come from.

    Other tenants of a shared machine slow every instruction of a run by up
    to 60%, often for longer than a run.  A reference loop timed at a fixed
    rate throughout the run slows by the same factor, so each time is
    scaled by the run's (fastest probe / mean probe): what the call took,
    at the speed the machine showed when quiet.
    """
    with Sampler() as sampler:
        passes = measure(chains, seconds, sampler)
    raw = op_times(passes)
    quiet = min(sampler.samples) / statistics.fmean(sampler.samples)
    per_op = [t * quiet for t in raw]
    n = len(per_op)
    beyond = min(10, n - 1)
    tail_q = (n - beyond) / n
    failures = [f for _t, fs, _c in passes for f in fs]
    return {
        "ops": n,
        "passes": len(passes),
        "attempted": sum(c for _t, _f, c in passes),
        "failures": failures,
        "quiet_factor": quiet,
        "probes": len(sampler.samples),
        "raw_wall_s": sum(raw),
        "wall_s": sum(per_op),
        "verdict_p50_s": harrell_davis(per_op, 0.5),
        "verdict_tail_s": harrell_davis(per_op, tail_q),
        "tail_percentile": 100.0 * tail_q,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(chains, seed):
    """A warm-up pass, an untraced pass, a traced pass, then the kernels."""
    _warm, fails_w, calls_w = run_pass(chains, repeat=False)
    untraced_times, fails_u, calls_u = run_pass(chains, repeat=False)
    tracer = Tracer()
    with tracer:
        traced_times, fails_t, calls_t = run_pass(chains, repeat=False)
    wall_u = sum(t for t in untraced_times if t is not None)
    wall_t = sum(t for t in traced_times if t is not None)
    from hopfcheck.cyclotomic import CycField
    from hopfcheck.linalg import Matrix

    metrics = {}
    failures = fails_w + fails_u + fails_t
    for name, (dt, err) in zip(KERNELS, (kernels.muladd(CycField, seed), kernels.inverse(CycField, seed),
                                         kernels.rref(CycField, Matrix, seed))):
        metrics[name] = dt
        if err is not None:
            failures.append((name, err))
    for span, fields in SPANS:
        stat = tracer.stats.get(span)
        for f in fields:
            if stat is None:
                value = 0
            elif f in ("calls", "self_s"):
                value = getattr(stat, f)
            else:
                value = stat.extra.get(f, 0)
            metrics["%s.%s" % (span, f)] = value
    metrics["trace.overhead_frac"] = wall_t / wall_u - 1.0
    metrics["trace.coverage_frac"] = tracer.root_s / wall_t
    return {
        "ops": len(traced_times),
        "passes": 3,
        "attempted": calls_w + calls_u + calls_t + len(KERNELS),
        "failures": failures,
        "metrics": metrics,
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--work", required=True)
    args = p.parse_args(argv)

    import hopfcheck

    src = os.path.join(os.path.realpath(args.root), "src", "")
    if not os.path.realpath(hopfcheck.__file__).startswith(src):
        print("hopfcheck was imported from %s, not from %s" % (hopfcheck.__file__, src), file=sys.stderr)
        return 2
    chains = workloads.build(args.workload, args.seed, args.root, args.work)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0
    if args.trace:
        result = traced(chains, args.seed)
    else:
        result = end_to_end(chains, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
