"""Time-to-verdict benchmark for hopfcheck.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  One client sends one operation after
another (a closed loop) from a fresh process with a fixed PYTHONHASHSEED.
With `--trace 0` the run prints the end-to-end metrics: set-up time (the
median of several fresh interpreters), then whole passes over the
workload's operation list for about `--seconds`, each operation reported
by its median time at the machine's quiet speed (see
worker.end_to_end).  With `--trace 1` it runs a warm-up, an untraced and a
traced pass plus the fixed kernels and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object.  The exit code is 0 when a result was printed and 2 when the
checkout lacks the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 6
HASH_SEED = "0"
RUN_LIMIT_S = 170.0
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_p50_s", "s"),
    ("verdict_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _env(root):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    return env


def _worker_cmd(mode, args, root, work):
    return [
        sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--root", root, "--work", work,
    ]


def _setup_time(args, root, work, deadline):
    """Seconds from starting a fresh interpreter until it reports `ready`."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(_worker_cmd("setup", args, root, work), stdout=subprocess.PIPE,
                            env=_env(root), cwd=root, text=True)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up failed with exit code %s" % proc.returncode)
    return dt


def _run_worker(args, root, work, deadline):
    proc = subprocess.Popen(_worker_cmd("run", args, root, work), stdout=subprocess.PIPE,
                            env=_env(root), cwd=root, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError("workload process failed with exit code %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def run_one(args, root):
    """Measure one workload; returns (report lines, result object)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = os.path.join(HERE, ".work", "%d-%s" % (os.getpid(), args.workload))
    try:
        # half the set-up samples before the measurement and half after, so
        # that one slow stretch of the machine does not hold all of them
        setups = []
        if not args.trace:
            setups = [_setup_time(args, root, work, deadline) for _ in range(SETUP_SAMPLES // 2)]
        raw = _run_worker(args, root, work, deadline)
        if not args.trace:
            setups += [_setup_time(args, root, work, deadline) for _ in range(SETUP_SAMPLES - len(setups))]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it
    lines = ["workload %s, seed %d: %d ops per pass, %d pass(es), %d attempted, %d failed" % (
        args.workload, args.seed, raw["ops"], raw["passes"], raw["attempted"], len(raw["failures"]))]
    for name, err in raw["failures"][:20]:
        lines.append("  FAILED %s: %s" % (name, err))
    failed = len(raw["failures"])
    if args.trace:
        from worker import per_layer_spec

        metrics = {name: {"value": raw["metrics"][name], "unit": unit} for name, unit, _b in per_layer_spec()}
    else:
        raw["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": raw[name], "unit": unit} for name, unit in END_TO_END}
        lines.append("  ops_failed_frac: %.6f ratio" % (failed / raw["attempted"]))
        lines.append("  setup_s is the median of %d fresh interpreters: %s" % (
            len(setups), " ".join("%.4f" % s for s in setups)))
        lines.append("  verdict_tail_s is p%.1f of %d operations" % (raw["tail_percentile"], raw["ops"]))
        lines.append("  times are at quiet speed: raw wall %.4f s scaled by %.4f (fastest / mean of %d probes)" % (
            raw["raw_wall_s"], raw["quiet_factor"], raw["probes"]))
    for name, m in metrics.items():
        lines.append("  %s: %.6g %s" % (name, m["value"], m["unit"]))
    result = {"correct": failed == 0, "attempted": raw["attempted"], "failed": failed, "metrics": metrics}
    return lines, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hopfcheck", "__init__.py")) or not os.path.isdir(
        os.path.join(root, "catalog")
    ):
        print("run from the root of a hopfcheck checkout (src/hopfcheck and catalog/ are missing)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        args.workload = name
        lines, result = run_one(args, root)
        print("\n".join(lines), flush=True)
        if len(names) == 1:
            combined = result
            break
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = m
    print(json.dumps(combined, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
